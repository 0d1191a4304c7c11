"""Finite-difference verification layer, blind to all closed forms.

Every check here consumes only a chart evaluator u -> point and an ambient
signature, so the numbers it produces are independent of the formulas they
certify.  Mean curvature is the metric trace of the second fundamental form,
H = g^ij (d^2 X / du_i du_j)^perp, computed with central differences; for
sphere or hyperboloid targets the quantity intrinsic to the quadric is
obtained extrinsically and the radial component n x / <x,x> stripped
afterwards.  The module also hosts a forward Euler comparison loop, a
principal-curvature transport check, normal-bundle curvature estimators in
flat, spherical and conformally flat ambient metrics, and the scalar ODE
oracle for the collapse of geodesic spheres.

Every normal frame here, seeded or transported, comes out of one frozen
Gram-Schmidt pass (``_gram_schmidt``).  The transport check reads curvature
through those frames: a frame vector Z is normal, so <d^2 X / du_i du_j, Z>
= <II_ij, Z>, and the shape operator along Z takes the raw second
derivatives without forming the second fundamental form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .descriptors import dimensions, immerse_rows
from .errors import (
    ChartDegenerateError,
    InsufficientSamplesError,
    InvalidArgumentError,
    TimeOutOfRangeError,
)
from .flow import _finite_time, _flow_rows, _flow_times, _gauge, existence_window

_COND_LIMIT = 1e12
# a Gershgorin bound on the condition number this far inside _COND_LIMIT
# certifies a Gram without its eigenvalues (``_check_gram``)
_GERSHGORIN_LIMIT = 1e11
# bytes of flowed stencils (S K (m+1) doubles a step) that one block of the
# Euler walk holds and differences together: 64 steps of clifford_tube_h5's
# four 19-point stencils, about 200 of a surface's 9-point ones, and one
# step of an n = 20 walk's 801-point stencils
_WALK_BUDGET = 228 << 10


@dataclass(frozen=True)
class AmbientSpace:
    """Target space of an immersion: flat, Lorentzian, or a quadric inside one.

    ``kind`` is one of "euclidean", "lorentzian", "sphere", "hyperboloid".
    The quadric kinds compute extrinsically in the flat signature space and
    then strip the radial mean-curvature component.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("euclidean", "lorentzian", "sphere", "hyperboloid"):
            raise InvalidArgumentError(f"unknown ambient kind {self.kind!r}")

    @property
    def lorentzian_signature(self) -> bool:
        return self.kind in ("lorentzian", "hyperboloid")

    @property
    def intrinsic_to_quadric(self) -> bool:
        return self.kind in ("sphere", "hyperboloid")

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(self.inners(u, v))

    def inners(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """``inner`` of every vector pair along the last axis of two broadcastable arrays.

        Each pair is one dot product, so a stacked product has the bits of
        its own ``inner`` call.
        """
        if self.lorentzian_signature:
            return np.matmul(U[..., None, :-1], V[..., :-1, None])[..., 0, 0] - U[..., -1] * V[..., -1]
        return np.matmul(U[..., None, :], V[..., :, None])[..., 0, 0]

    def signature(self, dim: int) -> np.ndarray:
        """Diagonal of the metric on R^dim, read-only: ones, and -1 last when Lorentzian."""
        return _signature(dim, self.lorentzian_signature)

    def inner_rows(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """``inner`` along the last axis of two broadcastable arrays."""
        return np.sum(U * V * self.signature(U.shape[-1]), axis=-1)


@lru_cache(maxsize=64)
def _signature(dim: int, lorentzian: bool) -> np.ndarray:
    sig = np.ones(dim)
    if lorentzian:
        sig[-1] = -1.0
    sig.flags.writeable = False
    return sig


EUCLIDEAN = AmbientSpace("euclidean")
LORENTZIAN = AmbientSpace("lorentzian")
SPHERE = AmbientSpace("sphere")
HYPERBOLOID = AmbientSpace("hyperboloid")
_AMBIENTS = {a.kind: a for a in (EUCLIDEAN, LORENTZIAN, SPHERE, HYPERBOLOID)}


@dataclass(frozen=True)
class ImmersionEvaluator:
    """A pure chart map u -> point together with its ambient signature.

    ``rows``, when given, is the same map on many chart points at once: it
    takes a (K, chart_dim) array of chart points and returns the (K, dim)
    array of their images, row k agreeing with ``func(U[k])`` to rounding.
    Like ``func`` it receives only chart points and returns only points, so
    the checks built on it stay blind to how the points are produced.
    ``at_rows`` uses it, and without it calls the evaluator once per row.
    """

    chart_dim: int
    ambient: AmbientSpace
    func: Callable[[np.ndarray], np.ndarray]
    rows: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, u) -> np.ndarray:
        return np.asarray(self.func(np.asarray(u, dtype=float)), dtype=float)

    def at_rows(self, U) -> np.ndarray:
        """Points at every row of a (K, chart_dim) array of chart points."""
        Uv = np.asarray(U, dtype=float)
        if self.rows is not None:
            return np.asarray(self.rows(Uv), dtype=float)
        return np.array([self(u) for u in Uv])


def _check_gram(G: np.ndarray, message: str) -> None:
    """Refuse Gram matrices, one or stacked, that are not finite or are numerically singular.

    Every Gram matrix checked here is symmetric (induced metrics, frame
    Grams, and the indefinite tangent-plus-position Grams of quadrics), so
    its singular values are the moduli of its eigenvalues and its 2-norm
    condition number is max|lambda| / min|lambda|.  That ratio is compared
    without dividing: an exactly singular Gram, whose condition number is
    infinite, has min|lambda| == 0 and is refused by that test alone.

    ``eigvalsh`` runs only on the Grams that Gershgorin's discs do not
    certify.  Every |lambda| lies between lo = min_i(|G_ii| - sum_{j != i}
    |G_ij|) and hi = max_i(|G_ii| + sum_{j != i} |G_ij|), so a Gram with
    lo > 0 and hi <= 1e11 lo (ten times inside ``_COND_LIMIT``) has a
    condition number that the backward-stable ``eigvalsh`` could not read
    as zero or past the limit: it is accepted without one, and every
    decision is the one ``eigvalsh`` alone makes.
    """
    if not np.isfinite(G).all():
        raise ChartDegenerateError(message)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries leave a Gram to eigvalsh
        A = np.abs(G)
        rows = A.sum(axis=-1)  # |G_ii| + sum_{j != i} |G_ij|
        lo = (2.0 * A.diagonal(0, -2, -1) - rows).min(axis=-1)
        certified = (lo > 0.0) & (rows.max(axis=-1) <= _GERSHGORIN_LIMIT * lo)
    if certified.all():
        return
    lam = np.abs(np.linalg.eigvalsh(G[~certified]))
    lo, hi = lam.min(axis=-1), lam.max(axis=-1)
    if np.any((hi > _COND_LIMIT * lo) | (lo == 0.0)):
        raise ChartDegenerateError(message)


def _finite(A: np.ndarray) -> np.ndarray:
    """A differencing result, refused when rounding made it non-finite."""
    if not np.isfinite(A).all():
        raise ChartDegenerateError("differencing overflowed at this chart point")
    return A


def _induced_metric(imm: ImmersionEvaluator, first) -> np.ndarray:
    """The induced metrics (..., n, n) of chart derivatives (..., n, dim), checked."""
    first = np.asarray(first, dtype=float)
    g = imm.ambient.inners(first[..., :, None, :], first[..., None, :, :])
    if first.shape[-2] > 0:
        _check_gram(g, "induced metric is numerically singular at this chart point")
    return g


@lru_cache(maxsize=64)
def _stencil_offsets(n: int, h: float) -> np.ndarray:
    """Chart offsets of the central-difference stencil, as a read-only array.

    Layout: center; then +h e_i, -h e_i per axis; then the four corner
    offsets of each axis pair i < j in the order ++, +-, -+, --.
    """
    e = np.eye(n)
    offs = [np.zeros(n)]
    for i in range(n):
        offs += [h * e[i], -h * e[i]]
    for i in range(n):
        for j in range(i + 1, n):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                offs.append(h * (si * e[i] + sj * e[j]))
    out = np.asarray(offs)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, the axis pairs i < j in stencil order, as read-only arrays."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _first_derivatives_of(vals: np.ndarray, h: float):
    """Centers (..., dim) and central first derivatives (..., n, dim) of first-derivative stencils (..., 1 + 2n, dim)."""
    return vals[..., 0, :], (vals[..., 1::2, :] - vals[..., 2::2, :]) / (2.0 * h)


def _stencil_derivatives(vals: np.ndarray, n: int, h: float):
    """Center, central first and second derivatives from ``_stencil_offsets`` values.

    ``vals`` holds P stencils, (P, K, dim); the results are the centers
    (P, dim), first derivatives (P, n, dim) and second derivatives
    (P, n, n, dim).
    """
    center, first = _first_derivatives_of(vals[:, : 1 + 2 * n], h)
    plus, minus = vals[:, 1 : 1 + 2 * n : 2], vals[:, 2 : 2 + 2 * n : 2]
    second = np.empty((vals.shape[0], n, n, vals.shape[2]))
    idx = np.arange(n)
    second[:, idx, idx] = (plus - 2.0 * center[:, None] + minus) / h**2
    if n > 1:
        i, j = _upper_pairs(n)
        corners = vals[:, 1 + 2 * n :].reshape(vals.shape[0], len(i), 4, -1)
        pp, pm, mp, mm = corners.transpose(2, 0, 1, 3)
        second[:, i, j] = second[:, j, i] = (pp - pm - mp + mm) / (4.0 * h**2)
    return center, first, second


def _mc_from_stencil(vals: np.ndarray, n: int, h: float, ambient: AmbientSpace) -> np.ndarray:
    """Mean curvature (P, dim) from P stencils (P, K, dim) laid out by ``_stencil_offsets``.

    The metric, the trace g^ij d^2 X / du_i du_j, the tangential
    coefficients and H are stacked ``matmul`` calls, one BLAS call per
    stencil, so each stencil's result has the same bits in any batch.
    Raises ``ChartDegenerateError`` when the induced metric of any stencil
    is numerically singular.
    """
    if n == 0:
        return np.zeros_like(vals[:, 0])
    center, first, second = _stencil_derivatives(vals, n, h)
    P, dim = vals.shape[0], vals.shape[2]
    first_sig = first * ambient.signature(dim)
    g = np.matmul(first_sig, first.transpose(0, 2, 1))
    _check_gram(g, "induced metric is numerically singular at this chart point")
    ginv = np.linalg.inv(g)
    trace = np.matmul(ginv.reshape(P, 1, n * n), second.reshape(P, n * n, dim))  # (P, 1, dim)
    coeff = np.matmul(ginv, np.matmul(first_sig, trace.transpose(0, 2, 1)))  # (P, n, 1)
    H = (trace - np.matmul(coeff.transpose(0, 2, 1), first))[:, 0]
    if ambient.intrinsic_to_quadric:
        # far out on a quadric <x,x> cancels to rounding, possibly to zero
        q = ambient.inner_rows(center, center)
        if not np.all(np.isfinite(q) & (q != 0.0)):
            raise ChartDegenerateError("position vector is lost to rounding at this chart point")
        H = H + (n / q)[:, None] * center
    return _finite(H)


_CHART_NEED = "chart needs {} parameters, got samples"


def _rows(A, width: int, need: str = _CHART_NEED) -> np.ndarray:
    """A as a float array of rows (P, width); anything else is refused with ``InvalidArgumentError``.

    The one shape check at the boundary of the oracle and of the limits:
    chart samples by default, other vectors with their own ``need``.
    """
    A = _floats(A, width, need)
    if A.ndim != 2 or A.shape[1] != width:
        raise InvalidArgumentError(f"{need.format(width)} of shape {A.shape[1:]}")
    return A


def _floats(A, width: int, need: str) -> np.ndarray:
    """A as a float array; rows of different lengths, or entries that are not numbers, are refused as in ``_rows``."""
    try:
        return np.asarray(A, dtype=float)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{need.format(width)} that are not one array of numbers") from None


def _point(u, n: int) -> np.ndarray:
    """One chart point as a (1, n) row, refused by ``_rows`` when it has the wrong length."""
    return _rows(np.reshape(_floats(u, n, _CHART_NEED), (1, -1)), n)


def _check_fd_step(h: float) -> None:
    if not (1e-4 <= h <= 1e-2):
        raise InvalidArgumentError("step h must lie in [1e-4, 1e-2]")


def _stencil_points(U: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """The stencil offsets around each of P chart points, as (P * K, n) rows."""
    return (U[:, None, :] + offs[None, :, :]).reshape(U.shape[0] * offs.shape[0], U.shape[1])


def _mc_stencil_points(U: np.ndarray, h: float, richardson: bool) -> tuple[tuple[float, ...], np.ndarray]:
    """The differencing steps of a mean curvature estimate (two for Richardson) and the chart points of their stencils around every row of U."""
    steps = (h, h / 2.0) if richardson else (h,)
    for s in steps:
        _check_fd_step(s)
    return steps, np.concatenate([_stencil_points(U, _stencil_offsets(U.shape[1], s)) for s in steps])


def _mc_of_stencils(vals: np.ndarray, P: int, n: int, steps: tuple[float, ...], ambient: AmbientSpace) -> np.ndarray:
    """Mean curvature vectors (P, dim) from the points of ``_mc_stencil_points``, Richardson-extrapolated for two steps."""
    vals = vals.reshape(len(steps), P, -1, vals.shape[-1])
    H = [_mc_from_stencil(v, n, s, ambient) for v, s in zip(vals, steps)]
    return (4.0 * H[1] - H[0]) / 3.0 if len(steps) == 2 else H[0]


def numeric_mean_curvature(imm: ImmersionEvaluator, u, h: float = 1e-3, richardson: bool = False) -> np.ndarray:
    """O(h^2) mean curvature vector of the immersed chart at u.

    With ``richardson`` the h and h/2 estimates, whose stencils are
    evaluated in one ``at_rows`` call, are extrapolated to O(h^4); used by
    the acceptance runs where an extra digit matters.
    """
    steps, points = _mc_stencil_points(_point(u, imm.chart_dim), h, richardson)
    return _mc_of_stencils(imm.at_rows(points), 1, imm.chart_dim, steps, imm.ambient)[0]


def second_fundamental_form(imm: ImmersionEvaluator, u, h: float = 1e-3):
    """Normal components II_ij of the second fundamental form at u.

    For quadric ambients the component along the position vector is removed
    as well, leaving the second fundamental form inside the quadric.  Every
    d^2 X / du_i du_j is projected off the tangent frame in one
    ``_tangential_parts`` call: one Gram matrix for all of them.
    Returns (center, first derivatives, metric, II) for reuse by callers.
    """
    n = imm.chart_dim
    vals = imm.at_rows(_point(u, n)[0] + _stencil_offsets(n, h))
    center, first, second = (a[0] for a in _stencil_derivatives(vals[None], n, h))
    g = _induced_metric(imm, first)
    if n == 0:
        return center, first, g, second
    W = second.reshape(n * n, -1)
    return center, first, g, (W - _tangential_parts(imm, _tangent_frame(imm, center, first), W)).reshape(second.shape)


def _tangent_frame(imm: ImmersionEvaluator, center: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The tangent frame (..., kt, dim) at points (..., dim): the chart derivatives (..., n, dim), and the position vector inside a quadric."""
    return np.concatenate([first, center[..., None, :]], axis=-2) if imm.ambient.intrinsic_to_quadric else first


def _normal_rank(imm: ImmersionEvaluator, dim: int) -> int:
    """The rank k of the chart's normal bundle in R^dim, inside the quadric when there is one."""
    return dim - imm.chart_dim - (1 if imm.ambient.intrinsic_to_quadric else 0)


def _tangential_parts(imm: ImmersionEvaluator, frame, W) -> np.ndarray:
    """The parts of the vectors W (..., w, dim) tangent to the span of ``frame`` (..., k, dim), as (..., w, dim).

    Each frame's Gram matrix is built and checked once.  The coefficients
    come from one stacked solve with one right-hand side per vector, so
    each vector gets the bits of its own solve.
    """
    frame, W = np.asarray(frame, dtype=float), np.asarray(W, dtype=float)
    G = imm.ambient.inners(frame[..., :, None, :], frame[..., None, :, :])
    _check_gram(G, "degenerate frame while projecting")
    rhs = imm.ambient.inners(W[..., :, None, :], frame[..., None, :, :])
    coeff = np.linalg.solve(np.broadcast_to(G[..., None, :, :], rhs.shape + G.shape[-1:]), rhs[..., None])[..., 0]
    return sum(coeff[..., a, None] * frame[..., None, a, :] for a in range(frame.shape[-2]))


# ---------------------------------------------------------------------------
# flow-equation residuals


def _gauge_ambient(gauge: str) -> AmbientSpace:
    """The ambient space of a gauge's flowed points, of the kind that ``flow._gauge`` names."""
    return _AMBIENTS[_gauge(gauge)[1]]


def descriptor_immersion(d, t: float | None = None, gauge: str = "hyperbolic") -> ImmersionEvaluator:
    """Chart evaluator of a descriptor, optionally pushed by one of its flows.

    The evaluator maps rows of chart points: ``immerse_rows``, which refuses
    a row off a level of d, and at a time the gauge's flow at that time
    (``_flow_times``); one chart point is a batch of one.  Either way it
    receives chart points and returns points only.
    """
    ambient = HYPERBOLOID if t is None else _gauge_ambient(gauge)

    def rows(U: np.ndarray) -> np.ndarray:
        X = immerse_rows(d, U)
        return X if t is None else _flow_times(d, X, [t], gauge)[0]

    return ImmersionEvaluator(dimensions(d).n, ambient, lambda u: rows(u.reshape(1, -1))[0], rows)


def pde_residual_grid(
    d,
    chart_samples: Sequence[np.ndarray],
    times: Sequence[float],
    h: float = 1e-3,
    dt: float = 1e-4,
    gauge: str = "hyperbolic",
    richardson: bool = False,
) -> np.ndarray:
    """``pde_residual`` at every chart sample and time of one gauge, as a (samples, times) array.

    The samples and the differencing stencils around them are immersed and
    validated once, whatever the number of times.  One flow of the samples
    gives their positions at t - dt, t and t + dt of every time, the
    velocity being the central difference; one flow of the stencil points
    gives the flowed chart's stencils at every time.  One
    ``_mc_from_stencil`` call per differencing step (two with Richardson)
    takes the stencils of every sample at every time, and the velocities,
    the tangential projection and the norms are one set of array operations
    over all times.  A grid that fails (a flow leaving doubles, a degenerate
    stencil, a residual that overflows) is evaluated again time by time, so
    the error raised is that of the first failing time; no residual
    returned is ever nan or infinite, and no numpy overflow warning escapes.
    The chart is seen only through its values at chart points.  Entry
    (s, j) has the bits of ``pde_residual`` at sample s and time j alone:
    no stencil's or row's arithmetic depends on the batch.  Times must be finite,
    ``dt`` positive and finite, and every t + dt must stay before the
    gauge's bound.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidArgumentError(f"dt must be positive and finite, got {dt!r}")
    ts = [_finite_time(t) for t in times]
    ambient = _gauge_ambient(gauge)
    n = dimensions(d).n
    U = _rows(chart_samples, n)
    bound = _gauge(gauge)[2](existence_window(d))
    for t in ts:
        if bound is not None and t + dt >= bound:
            raise TimeOutOfRangeError(f"t={t} leaves no margin dt={dt} before the bound {bound}")
    steps, stencils = _mc_stencil_points(U, h, richardson)
    S = U.shape[0]
    X = immerse_rows(d, np.concatenate([U, stencils]))
    if not ts:
        return np.empty((S, 0))

    def residuals(times: list[float]) -> np.ndarray:
        # in the order a time-by-time evaluation flows them: t + dt, t - dt, t
        moved = _flow_times(d, X[:S], [s for t in times for s in (t + dt, t - dt, t)], gauge)
        charts = _flow_times(d, X[S:], times, gauge)
        return _residuals_at(moved, charts, n, steps, dt, ambient)

    try:
        return np.ascontiguousarray(residuals(ts).T)
    except (ChartDegenerateError, TimeOutOfRangeError):
        for t in ts:  # time by time, so the error raised is that of the first failing time
            try:
                residuals([t])
            except ChartDegenerateError as exc:
                raise ChartDegenerateError(f"{exc} (flow-equation residual at t={t!r})") from None
        raise


def _residuals_at(moved: np.ndarray, charts: np.ndarray, n: int, steps, dt: float, ambient: AmbientSpace) -> np.ndarray:
    """The (times, samples) flow-equation residuals of ``pde_residual_grid`` from its flowed samples and stencils.

    Far back the flowed points are finite but so large that the
    differencing or the residual's own inner products overflow.  No
    overflow warning escapes: a stencil or a residual whose result is not
    finite raises ``ChartDegenerateError``.
    """
    T, S, dim = charts.shape[0], moved.shape[1], moved.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):
        # the stencils of every time, step-major as _mc_of_stencils takes them
        by_step = charts.reshape(T, len(steps), S, -1, dim).swapaxes(0, 1)
        H = _mc_of_stencils(by_step, T * S, n, steps, ambient).reshape(T, S, dim)
        V = (moved[0::3] - moved[1::3]) / (2.0 * dt) - H
        if ambient is HYPERBOLOID:
            Xt = moved[2::3]
            V = V + LORENTZIAN.inners(V, Xt)[..., None] * Xt  # tangential projection, <x,x> = -1
            out = np.sqrt(np.maximum(LORENTZIAN.inners(V, V), 0.0))
        else:
            out = np.sqrt(np.abs(LORENTZIAN.inners(V, V)))
    return _finite(out)


def pde_residual(
    d, u, t: float, h: float = 1e-3, dt: float = 1e-4, gauge: str = "hyperbolic", richardson: bool = False
) -> float:
    """|d/dt flow - numeric mean curvature| at one chart point and time.

    The hyperbolic residual is projected to the tangent space of H^m(-1)
    before taking its (positive definite) norm; the Lorentzian residual uses
    sqrt(|<v,v>|).  A batch of one of ``pde_residual_grid``.
    """
    return float(pde_residual_grid(d, [u], [t], h, dt, gauge, richardson)[0, 0])


def evolve_and_compare(d, chart_samples: Sequence[np.ndarray], t0: float, t1: float, dt: float, h: float = 1e-3) -> float:
    """Forward Euler along the numeric mean curvature versus the closed form.

    Each sample is stepped by x <- x + dt * H_numeric(flow surface at t_k)
    and reprojected to the hyperboloid; the return value is the largest
    Euclidean distance to the closed-form position at the walk's end t0 +
    steps dt, steps = round((t1 - t0) / dt).  Error is O(dt) from the
    stepping plus O(h^2) from the differencing.  A walk whose t1 or end
    reaches the collapse time is refused before its first step, and so is
    one whose start or end flows out of the range of doubles: the samples
    go to both in one ``_flow_times`` call, which names the first such time.

    H_numeric at step k depends on the flow surface at t0 + k dt only, not
    on the walked points, so it is evaluated up front for a block of steps
    at a time: one flow of every sample's stencil over the block's times
    (the stencil rows are validated once, before the first step), then one
    differencing of all the block's stencils, scaled by dt in place, then
    the sequential updates of all samples at once.  A block holds as many
    steps as fit ``_WALK_BUDGET`` bytes of flowed stencils, one at least,
    and frees them before its steps, so the walk's memory does not grow
    with the stencil.

    A step is x + dt H followed by x / sqrt(sum(x * x * -sig)), with the
    negated signature -sig formed once per walk; every step writes into the
    walk's own buffers, through ufuncs bound once per walk with their
    ``out`` passed positionally.  Its bits are those of x / sqrt(-<x, x>): the
    products by +-1 and the negations are exact, the sum runs in the same
    order, and dt H of the block is the same elementwise product as dt H of
    the step.
    """
    if not (0.0 < dt <= 1e-4):
        raise InvalidArgumentError(f"dt must be positive and at most 1e-4, got {dt!r}")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InvalidArgumentError(f"t0 and t1 must be finite, got {t0!r} and {t1!r}")
    _check_fd_step(h)
    steps = round((t1 - t0) / dt)
    if steps < 1:
        raise InvalidArgumentError(f"t1={t1} lies less than half a step dt={dt} after t0={t0}")
    if len(chart_samples) == 0:
        raise InsufficientSamplesError("no chart samples given")
    n = dimensions(d).n
    samples = _rows(chart_samples, n)
    end = t0 + steps * dt
    window = existence_window(d)
    if window.t_max is not None and max(t1, end) >= window.t_max:
        raise TimeOutOfRangeError(
            f"the walk to t1={t1} in steps of dt={dt} ends at t={end}, which reaches past the collapse time {window.t_max}"
        )
    offs = _stencil_offsets(n, h)
    S, K = samples.shape[0], offs.shape[0]
    stencil_points = immerse_rows(d, _stencil_points(samples, offs))  # once: the rows do not change from step to step
    # the walk's start and its closed-form targets at the end, one flow; X is walked in place
    X, targets = _flow_times(d, immerse_rows(d, samples), [t0, end])
    nsig = -HYPERBOLOID.signature(X.shape[1])
    sq, norm = np.empty_like(X), np.empty((S, 1))
    add, multiply, divide, sqrt, reduce = np.add, np.multiply, np.divide, np.sqrt, np.add.reduce
    block = max(1, _WALK_BUDGET // stencil_points.nbytes)
    for k0 in range(0, steps, block):
        ks = range(k0, min(k0 + block, steps))
        flowed = _flow_rows(d, stencil_points, [float(t0 + k * dt) for k in ks], "hyperbolic").reshape(len(ks) * S, K, -1)
        dX = _mc_from_stencil(flowed, n, h, HYPERBOLOID).reshape(len(ks), S, -1)
        del flowed  # not kept through the next block's flow
        dX *= dt
        for dXk in dX:
            add(X, dXk, X)
            multiply(X, X, sq)
            multiply(sq, nsig, sq)
            reduce(sq, -1, None, norm, True)  # axis, dtype, out, keepdims
            divide(X, sqrt(norm, norm), X)
    return float(np.max([np.linalg.norm(x - target) for x, target in zip(X, targets)]))


# ---------------------------------------------------------------------------
# isoparametric transport check


def principal_curvatures(imm: ImmersionEvaluator, u, normals: list[np.ndarray], h: float = 1e-3) -> list[np.ndarray]:
    """Sorted shape-operator eigenvalues along each given unit normal."""
    _, _, g, II = second_fundamental_form(imm, u, h)
    dim = II.shape[-1]
    Z = _rows(normals, dim, "normals need {} coordinates, got normals") if len(normals) else np.empty((0, dim))
    return list(_shape_eigenvalues(imm, g, II, Z))


def _shape_eigenvalues(imm: ImmersionEvaluator, g: np.ndarray, II: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Sorted shape-operator eigenvalues (..., k, n) along normals Z (..., k, dim), from metrics (..., n, n) and II (..., n, n, dim).

    Only the products <II_ij, Z> are read, so II may be the raw second
    derivatives d^2 X / du_i du_j: their tangential parts are orthogonal to
    every normal.
    """
    S = imm.ambient.inners(II[..., None, :, :, :], Z[..., :, None, None, :])
    return np.sort(np.linalg.eigvals(np.linalg.solve(g[..., None, :, :], S)).real, axis=-1)


# Each transport segment is split into sub-segments, each with a freshly
# seeded basis; the connection form is differenced in time with this step.
_TRANSPORT_SUBSEGMENTS = 4
_CONNECTION_DELTA = 1e-5
# bytes of moving normal bases that one group of the transport holds
# (``_transport_chain``), in the isoparametric and the loop holonomy check;
# a geodesic chain of depth L has (L + 1) (L + 3) frame doubles at every path
# point, so this bounds their memory on deep chains, where a catalog check is one group
_FRAME_BUDGET = 1 << 19


def _rk4_times(ta: float, dt: float, steps: int) -> list[float]:
    """The times ``_rk4`` asks for, in its own arithmetic: t + dt need not equal the next step's t, and then both are kept."""
    starts = [ta + i * dt for i in range(steps)]
    return list(dict.fromkeys(s for t in starts for s in (t, t + dt / 2.0, t + dt)))


def _rk4(at: dict, y: np.ndarray, ta: float, dt: float, steps: int) -> np.ndarray:
    """Classical RK4 for y' = at[t] @ y from ta, in ``steps`` steps of dt; ``at`` holds the matrices at ``_rk4_times``."""
    for i in range(steps):
        t = ta + i * dt
        k1 = at[t] @ y
        k2 = at[t + dt / 2.0] @ (y + dt / 2.0 * k1)
        k3 = at[t + dt / 2.0] @ (y + dt / 2.0 * k2)
        k4 = at[t + dt] @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _sub_steps(steps: int) -> int:
    """RK4 steps per sub-segment for a transport of ``steps`` steps per segment."""
    if steps < 1:
        raise InvalidArgumentError(f"the transport needs steps >= 1, got {steps!r}")
    return max(4, steps // _TRANSPORT_SUBSEGMENTS)


def _transport_path(stops: np.ndarray, sub_steps: int, k: int):
    """The seeds, the sub-segments, the points and their owners of a transport along the chart segments stops[0] -> stops[1] -> ...

    Every segment is split alike.  A sub-segment is (ta, dt, keys): its
    start, its RK4 step and, for a frame of k > 1 vectors, the times its
    RK4 loop asks the connection form for.  Its seed, which fixes its pivot
    order, is its midpoint; its points are its two ends, then each key with
    the two partners of its central difference in time.  The owners name,
    for every row of the seeds followed by the points, the row whose pivot
    order its normal frame takes (``_pivot_orders``): a seed owns itself,
    a point follows its seed.
    """
    q, delta = _TRANSPORT_SUBSEGMENTS, _CONNECTION_DELTA
    subs, mids, ts = [], [], []
    for seg in range(q):
        ta, tb = seg / q, (seg + 1) / q
        dt = (tb - ta) / sub_steps
        keys = _rk4_times(ta, dt, sub_steps) if k > 1 else []
        subs.append((ta, dt, keys))
        mids.append(0.5 * (ta + tb))
        ts += [ta, tb] + [s for t in keys for s in (t, t + delta, t - delta)]
    a, b = stops[:-1, None, :], stops[1:, None, :]
    seeds, path = (a + np.array(u)[:, None] * (b - a) for u in (mids, ts))
    seed = np.arange(q * len(a))
    owner = np.concatenate([seed, np.repeat(seed, [2 + 3 * len(keys) for *_, keys in subs] * len(a))])
    return seeds.reshape(-1, stops.shape[1]), subs, path.reshape(-1, stops.shape[1]), owner


def _transport_chain(imm: ImmersionEvaluator, frame: np.ndarray, center: np.ndarray, first: np.ndarray, order: np.ndarray, subs, sub_steps: int) -> np.ndarray:
    """T frames (T, k, dim) transported along consecutive chart segments, at every stop after the first: (T, segments, k, dim).

    ``center`` (T, P, dim) and ``first`` (T, P, n, dim) are the P points of
    ``_transport_path``, whose sub-segments are ``subs``, at every time, and
    ``order`` (T, P, k) the pivot order of each point's seed.  The walk
    takes consecutive sub-segments in groups whose normal frames (T x
    points x k x dim doubles) fit ``_FRAME_BUDGET`` bytes, one sub-segment
    at least.  A group forms the moving bases at its points
    (``_kept_normal_frames``) and the connection form at its keys, then runs
    its RK4 loops in order, each step one stacked (T, k, k) update of all T
    chains; its bases and connection forms go before the next group forms
    its own, so memory scales with one group, not with the whole path.
    Each segment's end frames are re-orthonormalized in order by the frozen
    pass (``_gram_schmidt``) that builds every other normal frame, on a (k,
    T, dim) copy; between segment ends the frames are not touched.  Every
    basis vector and connection form is computed row by row, so the grouping
    changes no bit.
    """
    T, _, dim = center.shape
    k = order.shape[-1]
    counts = [2 + 3 * len(keys) for *_, keys in subs]
    q, segments = len(subs), center.shape[1] // sum(counts)
    bounds = np.cumsum([0] + counts * segments)  # the path rows of every sub-segment
    per_group = max(1, _FRAME_BUDGET // (8 * T * max(counts) * k * dim))
    out = np.empty((T, segments, k, dim))
    for g0 in range(0, q * segments, per_group):
        g1 = min(g0 + per_group, q * segments)
        lo, hi = bounds[g0], bounds[g1]
        N = _kept_normal_frames(imm, center[:, lo:hi], first[:, lo:hi], order[:, lo:hi]).reshape(T, hi - lo, k, dim)
        if k > 1:
            keys_at = [bounds[s] - lo + 2 + 3 * np.arange(len(subs[s % q][2])) for s in range(g0, g1)]
            minus_A = _minus_connection_forms(imm, N, np.concatenate(keys_at))
        first_key = 0
        for s in range(g0, g1):
            ta, dt, keys = subs[s % q]
            a = bounds[s] - lo  # the sub-segment's start, then its end, in the group's rows
            coeff = imm.ambient.inners(N[:, a, :, None, :], frame[:, None, :, :])
            if k > 1:
                coeff = _rk4(dict(zip(keys, minus_A[first_key:])), coeff, ta, dt, sub_steps)  # c' = -A(t) c
                first_key += len(keys)
            frame = sum(coeff[:, i, :, None] * N[:, a + 1, i, None, :] for i in range(k))
            if s % q == q - 1:
                frame = out[:, s // q] = _gram_schmidt(imm, frame.transpose(1, 0, 2).copy())
        N = minus_A = None  # the group's bases and forms go before the next group forms its own
    return out


def _seeded_transport(imm: ImmersionEvaluator, center: np.ndarray, first: np.ndarray, seeds: int, owner: np.ndarray, subs, sub_steps: int):
    """A normal frame seeded at the first stop of a transport and carried along its path, at T times: (T, k, dim), (T, segments, k, dim).

    ``center`` (T, P, dim) and ``first`` (T, P, n, dim) hold the first stop,
    the ``seeds`` sub-segment seeds and the path points of ``_transport_path``
    at every time.  One pivot pass (``_pivot_orders``) over the first stops
    and seeds of all times picks every order from all dim candidates, whose
    memory goes before the transport (``_transport_chain``).
    """
    T, _, dim = center.shape
    # rows: the owners (the first stop and the seeds) of every time, then the path points of every time
    O = 1 + seeds
    owners = np.concatenate([np.arange(T * O), (np.arange(T)[:, None] * O + 1 + owner[seeds:]).reshape(-1)])
    W = _normal_candidates(imm, center[:, :O], first[:, :O]).reshape(T * O, dim, dim)
    order = _pivot_orders(imm, W, owners)
    start = _gram_schmidt(imm, W[::O][np.arange(T), order[: T * O : O].T])  # the first stop's frame at every time
    del W
    return start, _transport_chain(imm, start, center[:, O:], first[:, O:], order[T * O :].reshape(T, -1, order.shape[-1]), subs, sub_steps)


def _minus_connection_forms(imm: ImmersionEvaluator, N: np.ndarray, at: np.ndarray) -> np.ndarray:
    """-A (keys, T, k, k) at the rows ``at`` of moving bases N (T, rows, k, dim), each differenced in time between rows at + 1 and at + 2.

    A = (M - M^T) / 2 with M_ij = <N_i, dN_j / dt>, the skew connection
    form in the moving basis; one stacked product for all keys and times.
    """
    T, _, k, dim = N.shape
    Nt = N[:, at] * imm.ambient.signature(dim)
    dN = (N[:, at + 1] - N[:, at + 2]) / (2.0 * _CONNECTION_DELTA)
    M = np.einsum("tid,tjd->tij", Nt.reshape(-1, k, dim), dN.reshape(-1, k, dim))
    return -(0.5 * (M - M.transpose(0, 2, 1))).reshape(T, len(at), k, k).swapaxes(0, 1)


def transport_normal_frame(
    imm: ImmersionEvaluator, u_from, u_to, frame: list[np.ndarray], steps: int = 48, h: float = 1e-3
) -> list[np.ndarray]:
    """Parallel transport of a normal frame along a straight chart segment.

    The frame is expressed in a smooth moving orthonormal basis of the
    normal bundle and the coefficient equation c' = -A(t) c is integrated
    with a classical 4th order scheme; A is the (skew) connection form in
    the moving basis, so its entries stay at the geometric rotation rate
    even where boosted coordinates make raw projector matrices large.  The
    segment is split into sub-segments, each with a freshly seeded basis:
    the moving basis at a path point is its normal frame in the pivot
    order of its sub-segment's seed (``_pivot_orders``).  Codimension one
    needs no integration: the single coefficient rides the smooth unit
    normal field unchanged.  A chain of one segment of
    ``_transport_chain``, with one ``at_rows`` call.
    """
    sub_steps = _sub_steps(steps)
    if len(frame) == 0:
        return []
    stops = _rows([u_from, u_to], imm.chart_dim)
    seeds, subs, path, owner = _transport_path(stops, sub_steps, len(frame))
    center, first = _first_derivative_rows(imm, np.concatenate([seeds, path]), h)
    frame = _rows(frame, center.shape[-1], "frame vectors need {} coordinates, got vectors")
    s = len(seeds)
    order = _pivot_orders(imm, _normal_candidates(imm, center[:s], first[:s]), owner)[s:]
    return list(_transport_chain(imm, frame[None], center[None, s:], first[None, s:], order[None], subs, sub_steps)[0, 0])


def _chain_samples(samples: list[np.ndarray]) -> list[np.ndarray]:
    """Greedy nearest-neighbor ordering, keeping transport segments short."""
    chain, rest = samples[:1], samples[1:]
    while rest:
        chain.append(rest.pop(int(np.argmin([np.linalg.norm(u - chain[-1]) for u in rest]))))
    return chain


def isoparametric_residuals(
    d, times: Sequence[float], chart_samples: Sequence[np.ndarray], transport_steps: int = 24, h: float = 1e-3
) -> np.ndarray:
    """Spread of principal curvatures along a transported normal frame, at every time: (T,).

    Starting from the first sample's orthonormal normal frame, the frame is
    transported sample to sample (chained nearest-neighbor); at every stop
    the sorted shape-operator eigenvalues along each frame vector are
    compared with the starting ones.  Codimension-0 descriptors have no
    normal directions and give 0.  Times must be finite, and
    ``transport_steps`` at least 1; a time whose flow overflows doubles is
    out of range.  The chart points are immersed and validated once and
    flowed over all times in one call; entry j has the bits of
    ``isoparametric_residual`` at times[j] alone.  For S samples the T
    times make one pivot pass (``_pivot_orders``): only the T (1 + 4 (S -
    1)) pivot owners (the first sample and the seeds of the sub-segments)
    form all dim normal candidates, every other transport point the k of
    its owner's pivot order, and no Gram check of the catalog needs an
    eigenvalue (``_check_gram``).  The transport holds the frames of one
    group of sub-segments at a time (``_transport_chain``).
    """
    ts = [_finite_time(t) for t in times]
    _sub_steps(transport_steps)
    k = dimensions(d).codim
    if k == 0 or not ts:
        return np.zeros(len(ts))
    chart = descriptor_immersion(d)

    flowed = lambda U: _flow_times(d, chart.at_rows(U), ts)
    return _isoparametric_spreads(chart, flowed, k, chart_samples, transport_steps, h)


def isoparametric_residual(
    d, t: float, chart_samples: Sequence[np.ndarray], transport_steps: int = 24, h: float = 1e-3
) -> float:
    """``isoparametric_residuals`` at one time."""
    return float(isoparametric_residuals(d, [t], chart_samples, transport_steps, h)[0])


def isoparametric_residual_of(
    imm: ImmersionEvaluator, chart_samples: Sequence[np.ndarray], transport_steps: int = 24, h: float = 1e-3
) -> float:
    """The transported principal-curvature spread for a raw evaluator.

    The one-time case of the core of ``isoparametric_residuals``: the normal
    rank is read off one chart point, then every chart point of the check
    is evaluated in one ``at_rows`` call, so two evaluations in all.
    """
    return float(_isoparametric_spreads(imm, lambda U: imm.at_rows(U)[None], None, chart_samples, transport_steps, h)[0])


def _isoparametric_spreads(imm: ImmersionEvaluator, values, k: int | None, chart_samples, transport_steps: int, h: float) -> np.ndarray:
    """The transported principal-curvature spread of a chart at T times, (T,).

    ``values`` maps chart points (P, n) to their points at every time,
    (T, P, dim); ``k`` is the normal rank, or None to read it off one chart
    point.  No chart point depends on the transported frame, so ``values``
    is called once, on the stencils of the samples and of the transport
    path.  The first sample's frames are seeded and carried along the path
    as the loop holonomy's are (``_seeded_transport``): one pivot pass
    over the first sample and every sub-segment seed at all times, and a
    transport in groups of sub-segments whose frames fit
    ``_FRAME_BUDGET`` (``_transport_chain``), so the check's memory scales
    with one group rather than with the whole path: on a chain of depth
    24, k = 25 frame vectors of dim 27 at every point.  The shape operators
    along the frames take the samples' raw second derivatives: the frame
    vectors are normal, so no second derivative is projected off the
    tangent frame, and the check costs no n^2 solves per sample.  A time's
    spread is one maximum over all of its stops, frame vectors and
    eigenvalues, so a nan anywhere gives nan.
    """
    sub_steps = _sub_steps(transport_steps)
    n = imm.chart_dim
    if len(chart_samples) < 2:
        raise InsufficientSamplesError("need at least two chart samples")
    samples = np.array(_chain_samples(list(_rows(chart_samples, n))))
    if k is None:
        k = _normal_rank(imm, imm(samples[0]).shape[0])
    offs = _stencil_offsets(n, h)
    S, K, F = len(samples), offs.shape[0], 1 + 2 * n
    seeds, subs, path, owner = _transport_path(samples, sub_steps, k)
    lead = np.concatenate([samples[:1], seeds, path])
    vals = values(np.concatenate([_stencil_points(samples, offs), _stencil_points(lead, offs[:F])]))
    T, dim = vals.shape[0], vals.shape[-1]
    if k == 0:
        return np.zeros(T)
    _, first, second = _stencil_derivatives(vals[:, : S * K].reshape(T * S, K, dim), n, h)
    # the chart values go before the frames are formed
    lead_center, lead_first = _first_derivatives_of(vals[:, S * K :].reshape(T, len(lead), F, dim), h)
    lead_center = lead_center.copy()  # a view would keep every chart value alive
    del vals
    start, moved = _seeded_transport(imm, lead_center, lead_first, len(seeds), owner, subs, sub_steps)
    Z = np.concatenate([start[:, None], moved], axis=1).reshape(T * S, k, dim)
    E = _shape_eigenvalues(imm, _induced_metric(imm, first), second, Z).reshape(T, S, k, n)
    return np.max(np.abs(E[:, 1:] - E[:, :1]), axis=(1, 2, 3))


# ---------------------------------------------------------------------------
# normal-bundle curvature


def _poincare_ball_grad(Y: np.ndarray) -> np.ndarray:
    return 2.0 * Y / (1.0 - EUCLIDEAN.inners(Y, Y))[..., None]


def poincare_ball_factor() -> Callable[[np.ndarray], np.ndarray]:
    """The hyperbolic metric 4 (1 - |y|^2)^(-2) = e^(2 rho) on the unit ball, as the row gradient of rho, (..., dim) -> (..., dim)."""
    return _poincare_ball_grad


def _first_derivative_rows(imm: ImmersionEvaluator, U: np.ndarray, h: float):
    """Points (P, dim) and central first derivatives (P, n, dim) at P chart points.

    One ``at_rows`` call evaluates the 1 + 2n point stencils of all of them.
    """
    P, n = U.shape
    vals = imm.at_rows(_stencil_points(U, _stencil_offsets(n, h)[: 1 + 2 * n]))
    return _first_derivatives_of(vals.reshape(P, 1 + 2 * n, -1), h)


def _normal_candidates(imm: ImmersionEvaluator, center: np.ndarray, first: np.ndarray, axes: np.ndarray | None = None) -> np.ndarray:
    """Each axis e_i minus its tangential part, at points (...): (..., i, dim).

    The tangent frame is the chart derivatives, plus the position vector
    inside a quadric; its Gram matrix must be well conditioned.  With
    ``axes``, k axes per point as (P, k) for the P points in order, only
    their candidates are formed, (..., k, dim).  The coefficients still
    come from one solve with all dim right-hand sides, whose k columns are
    then taken (a solve with fewer right-hand sides can round differently),
    so a kept candidate has the bits of its row of the full candidates.
    """
    T = _tangent_frame(imm, center, first)
    *points, kt, dim = T.shape
    # the axes as bools, an eighth of the memory: subtracting casts them to 1.0 and 0.0
    E = np.eye(dim, dtype=bool) if axes is None else np.eye(dim, dtype=bool)[axes]
    if kt == 0:
        return np.broadcast_to(E, (math.prod(points), *E.shape[-2:])).reshape(*points, -1, dim).astype(float)
    T = T.reshape(-1, kt, dim)
    sig = imm.ambient.signature(dim)
    G = np.einsum("pad,pbd->pab", T * sig, T)
    _check_gram(G, "degenerate frame while projecting")
    # <e_i, f_a> is the i-th coordinate of f_a times the metric sign of axis i
    coeff = np.linalg.solve(G, T * sig)
    if axes is not None:
        coeff = np.take_along_axis(coeff, axes[:, None, :], axis=2)
    tangential = np.einsum("pai,pad->pid", coeff, T)
    return _finite(np.subtract(E, tangential, out=tangential)).reshape(*points, -1, dim)


def _pivot_orders(imm: ImmersionEvaluator, W: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The Gram-Schmidt pivot order (R, k) of every row r, chosen at row owner[r] of the full candidates W (O, dim, dim).

    The pivot pass runs on the distinct owners only: each step takes, at
    all of them at once, the remaining candidate axis whose part orthogonal
    to the chosen ones is largest (the first such axis on a tie).  Rows that
    follow one owner thus share its order, and their frames vary smoothly.
    """
    dim = W.shape[-1]
    k = _normal_rank(imm, dim)
    owners, which = np.unique(owner, return_inverse=True)
    V, rows = W[owners], np.arange(len(owners))
    order = np.empty((len(owners), k), dtype=int)
    taken = np.zeros((len(owners), dim), dtype=bool)
    for step in range(k):
        q = np.where(taken, -1.0, np.abs(imm.ambient.inner_rows(V, V)))
        j = order[:, step] = np.argmax(q, axis=1)
        if np.any(q[rows, j] < 1e-18):
            raise ChartDegenerateError("could not seed a smooth normal frame")
        taken[rows, j] = True
        b = (V[rows, j] / np.sqrt(q[rows, j])[:, None])[:, None, :]
        V = V - imm.ambient.inner_rows(V, b)[..., None] * b
    return order[which]


def _gram_schmidt(imm: ImmersionEvaluator, Z: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal frames (R, k, dim) from candidates Z (k, R, dim), each row's taken in order; Z and ``buf`` are overwritten.

    The frozen pass is a right-looking modified Gram-Schmidt over all rows:
    step a normalizes candidate a of every row and subtracts its projection
    from the row's later candidates.  Each vector thus meets the
    projections in the order of a left-looking loop, with the same
    arithmetic: the inner products are u v, then times the signature, then
    summed, in one scratch buffer.  The pass works on contiguous (R, dim)
    blocks of Z, and the buffer (a new one, or ``buf`` of Z's size) then
    takes the frames laid out (R, k, dim).
    """
    k, R, dim = Z.shape
    buf, sig = np.empty_like(Z) if buf is None else buf, imm.ambient.signature(dim)
    for a in range(k):
        z, later, scratch = Z[a], Z[a + 1 :], buf[a + 1 :]
        q = np.abs(np.sum(np.multiply(np.multiply(z, z, out=buf[a]), sig, out=buf[a]), axis=-1))
        if np.any(q < 1e-18):
            raise ChartDegenerateError("normal frame degenerated off-center")
        np.divide(z, np.sqrt(q)[:, None], out=z)
        c = np.sum(np.multiply(np.multiply(later, z, out=scratch), sig, out=scratch), axis=-1)
        np.subtract(later, np.multiply(c[..., None], z, out=scratch), out=later)
    out = buf.reshape(R, k, dim)  # the buffer's memory, now free, holds the frames row by row
    out[...] = Z.transpose(1, 0, 2)
    return out


def _normal_frames(imm: ImmersionEvaluator, W: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Orthonormal normal frames (R, k, dim) from the full candidates (R, dim, dim) of ``_normal_candidates``.

    Row r is orthonormalized (``_gram_schmidt``) in the pivot order chosen
    at row owner[r] (``_pivot_orders``).
    """
    order = _pivot_orders(imm, W, owner)
    return _gram_schmidt(imm, W[np.arange(len(W)), order.T])


def _kept_normal_frames(imm: ImmersionEvaluator, center: np.ndarray, first: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Normal frames (R, k, dim) at R points, each in its pivot order from ``_pivot_orders``.

    ``center`` (..., dim), ``first`` (..., n, dim) and ``order`` (..., k)
    flatten to the R points in order.  Each point forms only the k
    candidates of its order; ``_gram_schmidt`` takes a copy laid out (k,
    R, dim), always a copy since with k = 1 the two layouts are one, and
    the candidates' own memory as its buffer, which then holds the frames.
    So the frames take twice their own memory at most, and a group of the
    transport allocates two frame-sized arrays, not three.  Every frame
    has the bits of ``_normal_frames`` on the full candidates, the pivot
    orders being the same.
    """
    k, dim = order.shape[-1], center.shape[-1]
    W = _normal_candidates(imm, center, first, order.reshape(-1, k)).reshape(-1, k, dim)
    return _gram_schmidt(imm, W.swapaxes(0, 1).copy(), W.reshape(k, -1, dim))


def _covariant_rows(imm: ImmersionEvaluator, dZ, Z, center, first, X, conformal) -> np.ndarray:
    """D_X Z of normal fields Z (..., k, dim) at points (..., dim) with chart derivatives (..., n, dim), projected to the normal space.

    ``dZ`` is the central difference of Z along the chart derivative X.  A
    conformal metric, given by the row gradient of its rho, adds the
    conformally flat connection term X(rho) Z + Z(rho) X - <X,Z> grad(rho).
    """
    if conformal is not None:
        g, x = conformal(center)[..., None, :], X[..., None, :]
        dZ = dZ + EUCLIDEAN.inners(g, x)[..., None] * Z + EUCLIDEAN.inners(g, Z)[..., None] * x - EUCLIDEAN.inners(x, Z)[..., None] * g
    return dZ - _tangential_parts(imm, _tangent_frame(imm, center, first), dZ)


def _normal_curvature_rows(imm: ImmersionEvaluator, U: np.ndarray, h: float, conformal) -> tuple[np.ndarray, np.ndarray]:
    """Normal curvature vectors (P, pairs, k, dim) at P chart points, and the chart derivatives (P, n, dim) there.

    D_j zeta at u +- h e_i differences the normal frame zeta on the corners
    of the ``_stencil_offsets`` stencil and the conformal term takes it at
    u +- h e_j and u, so one ``at_rows`` call on the first-derivative
    stencils of every stencil point gives all frames, each in the pivot
    order of its sample's center (one pivot pass).  Empty when
    k or n is below 2.
    """
    P, n = U.shape
    offs = _stencil_offsets(n, h)
    K, F = offs.shape[0], 1 + 2 * n
    center, first = _first_derivatives_of(imm.at_rows(_stencil_points(_stencil_points(U, offs), offs[:F])).reshape(P, K, F, -1), h)
    dim = center.shape[-1]
    k = _normal_rank(imm, dim)
    if k < 2 or n < 2:
        return np.zeros((P, 0, 0, dim)), first[:, 0]
    order = _pivot_orders(imm, _normal_candidates(imm, center[:, 0], first[:, 0]), np.repeat(np.arange(P), K))
    Z = _kept_normal_frames(imm, center, first, order).reshape(P, K, k, dim)
    i, j = _upper_pairs(n)
    c, ip, im, jp, jm = 1 + 2 * n + 4 * np.arange(len(i)), 1 + 2 * i, 2 + 2 * i, 1 + 2 * j, 2 + 2 * j  # c: corner ++ of (i, j)
    # D_j zeta at u + h e_i, u - h e_i and u, then D_i zeta at u + h e_j, u - h e_j and u
    at, axis = np.stack([ip, im, 0 * i, jp, jm, 0 * i], -1), np.stack([j, j, j, i, i, i], -1)
    plus, minus = np.stack([c, c + 2, jp, c, c + 1, ip], -1), np.stack([c + 1, c + 3, jm, c + 2, c + 3, im], -1)
    G = _covariant_rows(imm, (Z[:, plus] - Z[:, minus]) / (2.0 * h), Z[:, at], center[:, at], first[:, at], first[:, at, axis], conformal)
    # D_i D_j zeta and D_j D_i zeta at u
    dG, X = (G[:, :, [0, 3]] - G[:, :, [1, 4]]) / (2.0 * h), first[:, 0][:, np.stack([i, j], -1)]
    DD = _covariant_rows(imm, dG, G[:, :, [2, 5]], center[:, None, None, 0], first[:, None, None, 0], X, conformal)
    return DD[:, :, 0] - DD[:, :, 1], first[:, 0]


def normal_curvature_vectors(
    imm: ImmersionEvaluator,
    u,
    h: float = 1e-3,
    conformal: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Normal-bundle curvature vectors R(d_i, d_j) zeta_a at one chart point.

    Computed from first principles as the commutator of covariant normal
    derivatives of a smooth normal frame, D_i D_j zeta - D_j D_i zeta, with
    nested central differences on the stencil, in one ``at_rows`` call.
    Inputs are the raw coordinate fields and the frame seeded at u, so
    results for conformally related metrics (``conformal``, the row gradient
    of rho in e^(2 rho) |dy|^2) are directly comparable.  Shape: (pairs_ij,
    frame vectors, ambient dim), empty when either count is below 2.
    """
    return _normal_curvature_rows(imm, _point(u, imm.chart_dim), h, conformal)[0][0]


def flat_normal_residual(
    imm: ImmersionEvaluator,
    chart_samples: Sequence[np.ndarray],
    h: float = 1e-3,
    conformal: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Largest normal-curvature magnitude over samples, per unit tangent pair.

    One ``_normal_curvature_rows`` batch of all samples, one ``at_rows``
    call.  Returns 0 by convention when the codimension (inside the quadric,
    when any) is at most 1, or when the chart has a single direction.
    """
    if len(chart_samples) == 0:
        raise InsufficientSamplesError("no samples given")
    R, first = _normal_curvature_rows(imm, _rows(chart_samples, imm.chart_dim), h, conformal)
    if R.size == 0:
        return 0.0
    i, j = _upper_pairs(imm.chart_dim)
    q = np.abs(imm.ambient.inners(first, first))
    return float(np.max(np.linalg.norm(R, axis=-1) / np.sqrt(q[:, i] * q[:, j])[..., None]))  # one maximum: a nan anywhere gives nan


def normal_holonomy_defect(imm: ImmersionEvaluator, u_start, period, steps: int = 256, h: float = 1e-3) -> float:
    """Holonomy defect of the normal connection around a closed chart loop.

    Over a curve the normal curvature 2-form vanishes identically, so global
    flatness is measured by carrying an orthonormal normal frame around one
    chart period, by the isoparametric check's transport in ``steps`` RK4
    steps, and comparing with the start (``_holonomy_defect``); for a
    trivial-holonomy bundle the defect is at the differencing floor.  A
    chart with no normal direction has none.
    """
    u0, per = _point(u_start, imm.chart_dim)[0], _point(period, imm.chart_dim)[0]
    if steps < 1:
        raise InvalidArgumentError(f"the loop needs steps >= 1, got {steps!r}")
    if not np.all(np.isfinite(per)):
        raise InvalidArgumentError(f"the chart period must be finite, got {period!r}")
    defect = _holonomy_defect(imm, u0, per, steps, h)
    if defect is None:
        raise InvalidArgumentError("the chart period does not close the loop")
    return defect


def _holonomy_defect(imm: ImmersionEvaluator, u0: np.ndarray, per: np.ndarray, steps: int = 256, h: float = 1e-3) -> float | None:
    """``normal_holonomy_defect`` of a checked u0 and period, or None when u0 + per does not map back onto u0's point, to 1e-9.

    The loop's two ends, one ``at_rows`` call, also give the normal rank.
    The loop is a transport path (``_transport_path``) of S segments, each
    of steps // S RK4 steps, S as large as keeps the transport's shortest
    sub-segments of 4 steps (``_sub_steps``): a moving basis then holds its
    pivot order over 1/4S of the loop only, not into the turn of the normal
    space that degenerates it.  The stencils of u0, the seeds and the path
    are one more call; the frame seeded at u0 is carried around it
    (``_seeded_transport``) and compared with itself, entry by entry.
    """
    ends = imm.at_rows(np.array([u0 + per, u0]))
    if np.max(np.abs(ends[0] - ends[1])) > 1e-9:
        return None
    k = _normal_rank(imm, ends.shape[1])
    if k == 0:
        return 0.0
    S = max(1, steps // (_TRANSPORT_SUBSEGMENTS * _sub_steps(1)))
    sub_steps = _sub_steps(steps // S)
    seeds, subs, path, owner = _transport_path(u0 + (np.arange(S + 1) / S)[:, None] * per, sub_steps, k)
    center, first = _first_derivative_rows(imm, np.concatenate([u0[None], seeds, path]), h)
    start, moved = _seeded_transport(imm, center[None], first[None], len(seeds), owner, subs, sub_steps)
    return float(np.max(np.abs(moved[0, -1] - start[0])))


# ---------------------------------------------------------------------------
# scalar ODE oracle for geodesic spheres


def geodesic_sphere_collapse_time(n: int, cosh_rho0: float) -> float:
    """Collapse time of a geodesic sphere from rho' = -n coth(rho).

    Integrates the inverse equation dt/drho = -tanh(rho)/n by RK4, with rho
    as the independent variable and steps of about 1e-3, from rho0 down to
    rho = 1e-3, and closes the gap with the exact local behavior
    rho^2 ~ 2 n (t* - t).
    """
    if n < 1 or cosh_rho0 <= 1.0:
        raise InvalidArgumentError(f"need n >= 1 and cosh(rho0) > 1, got n={n!r}, cosh(rho0)={cosh_rho0!r}")
    rho0 = math.acosh(cosh_rho0)
    floor = 1e-3
    steps = max(1, math.ceil(abs(rho0 - floor) / 1e-3))
    h = (floor - rho0) / steps
    t = 0.0
    for k in range(steps):
        rho = rho0 + k * h
        # the rate does not depend on t, so the two midpoint stages agree
        k1, k23, k4 = (-math.tanh(r) / n for r in (rho, rho + 0.5 * h, rho + h))
        t += h * (k1 + 4.0 * k23 + k4) / 6.0
    return t + floor**2 / (2.0 * n)
