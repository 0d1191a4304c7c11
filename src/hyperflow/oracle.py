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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .descriptors import chart_dim, dimensions, immerse_rows
from .errors import (
    ChartDegenerateError,
    InsufficientSamplesError,
    InvalidArgumentError,
    TimeOutOfRangeError,
)
from .flow import (
    _finite_time,
    _hyperbolic_flow_rows,
    _validate_rows,
    existence_window,
    hyperbolic_flow_batch,
    lorentz_flow_batch,
)

_COND_LIMIT = 1e12
# steps of the Euler walk whose stencils are differenced together; larger
# blocks save little time and hold proportionally more flowed stencils
_EULER_BLOCK = 64


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
        if self.lorentzian_signature:
            return float(np.dot(u[:-1], v[:-1]) - u[-1] * v[-1])
        return float(np.dot(u, v))

    def signature(self, dim: int) -> np.ndarray:
        """Diagonal of the metric on R^dim: ones, and -1 last when Lorentzian."""
        sig = np.ones(dim)
        if self.lorentzian_signature:
            sig[-1] = -1.0
        return sig

    def inner_rows(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """``inner`` along the last axis of two broadcastable arrays."""
        return np.sum(U * V * self.signature(U.shape[-1]), axis=-1)


EUCLIDEAN = AmbientSpace("euclidean")
LORENTZIAN = AmbientSpace("lorentzian")
SPHERE = AmbientSpace("sphere")
HYPERBOLOID = AmbientSpace("hyperboloid")


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


def _e(n: int, i: int) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _metric_inverse(imm: ImmersionEvaluator, first: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    n = len(first)
    g = np.array([[imm.ambient.inner(first[i], first[j]) for j in range(n)] for i in range(n)])
    if n == 0:
        return g, g
    if np.linalg.cond(g) > _COND_LIMIT:
        raise ChartDegenerateError("induced metric is numerically singular at this chart point")
    return g, np.linalg.inv(g)


@lru_cache(maxsize=64)
def _stencil_offsets(n: int, h: float) -> np.ndarray:
    """Chart offsets of the central-difference stencil, as a read-only array.

    Layout: center; then +h e_i, -h e_i per axis; then the four corner
    offsets of each axis pair i < j in the order ++, +-, -+, --.
    """
    offs = [np.zeros(n)]
    for i in range(n):
        offs.append(h * _e(n, i))
        offs.append(-h * _e(n, i))
    for i in range(n):
        for j in range(i + 1, n):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                offs.append(h * (si * _e(n, i) + sj * _e(n, j)))
    out = np.asarray(offs)
    out.flags.writeable = False
    return out


def _stencil_derivatives(vals: np.ndarray, n: int, h: float):
    """Center, central first and second derivatives from ``_stencil_offsets`` values.

    ``vals`` holds P stencils, (P, K, dim); the results are the centers
    (P, dim), first derivatives (P, n, dim) and second derivatives
    (P, n, n, dim).
    """
    center = vals[:, 0]
    plus, minus = vals[:, 1 : 1 + 2 * n : 2], vals[:, 2 : 2 + 2 * n : 2]
    first = (plus - minus) / (2.0 * h)
    second = np.empty((vals.shape[0], n, n, vals.shape[2]))
    idx = np.arange(n)
    second[:, idx, idx] = (plus - 2.0 * center[:, None] + minus) / h**2
    if n > 1:
        i, j = np.triu_indices(n, 1)
        corners = vals[:, 1 + 2 * n :].reshape(vals.shape[0], len(i), 4, -1)
        pp, pm, mp, mm = corners.transpose(2, 0, 1, 3)
        second[:, i, j] = second[:, j, i] = (pp - pm - mp + mm) / (4.0 * h**2)
    return center, first, second


def _mc_from_stencil(vals: np.ndarray, n: int, h: float, ambient: AmbientSpace) -> np.ndarray:
    """Mean curvature (P, dim) from P stencils (P, K, dim) laid out by ``_stencil_offsets``.

    Raises ``ChartDegenerateError`` when the induced metric of any stencil
    is numerically singular.
    """
    if n == 0:
        return np.zeros_like(vals[:, 0])
    center, first, second = _stencil_derivatives(vals, n, h)
    sig = ambient.signature(vals.shape[2])
    g = np.einsum("pid,pjd->pij", first * sig, first)
    if np.any(np.linalg.cond(g) > _COND_LIMIT):
        raise ChartDegenerateError("induced metric is numerically singular at this chart point")
    ginv = np.linalg.inv(g)
    trace = np.einsum("pij,pijd->pd", ginv, second)
    coeff = np.einsum("pij,pjd,d,pd->pi", ginv, first, sig, trace)
    H = trace - np.einsum("pk,pkd->pd", coeff, first)
    if ambient.intrinsic_to_quadric:
        H = H + (n / ambient.inner_rows(center, center))[:, None] * center
    return H


def _check_fd_step(h: float) -> None:
    if not (1e-4 <= h <= 1e-2):
        raise InvalidArgumentError("step h must lie in [1e-4, 1e-2]")


def _stencil_points(U: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """The stencil offsets around each of P chart points, as (P * K, n) rows."""
    return (U[:, None, :] + offs[None, :, :]).reshape(U.shape[0] * offs.shape[0], U.shape[1])


def _mean_curvature_rows(imm: ImmersionEvaluator, U: np.ndarray, h: float, richardson: bool = False) -> np.ndarray:
    """Mean curvature vectors (P, dim) at P chart points, from one ``at_rows`` call.

    With ``richardson`` the stencils of h and h/2 are evaluated together and
    the two estimates extrapolated to O(h^4).
    """
    steps = (h, h / 2.0) if richardson else (h,)
    for s in steps:
        _check_fd_step(s)
    n = imm.chart_dim
    offs = [_stencil_offsets(n, s) for s in steps]
    vals = imm.at_rows(np.concatenate([_stencil_points(U, o) for o in offs]))
    vals = vals.reshape(len(steps), U.shape[0], offs[0].shape[0], -1)
    H = [_mc_from_stencil(v, n, s, imm.ambient) for v, s in zip(vals, steps)]
    return (4.0 * H[1] - H[0]) / 3.0 if richardson else H[0]


def numeric_mean_curvature(imm: ImmersionEvaluator, u, h: float = 1e-3, richardson: bool = False) -> np.ndarray:
    """O(h^2) mean curvature vector of the immersed chart at u.

    With ``richardson`` the h and h/2 estimates are extrapolated to O(h^4);
    used by the acceptance runs where an extra digit matters.
    """
    uv = np.asarray(u, dtype=float).reshape(1, imm.chart_dim)
    return _mean_curvature_rows(imm, uv, h, richardson)[0]


def second_fundamental_form(imm: ImmersionEvaluator, u, h: float = 1e-3):
    """Normal components II_ij of the second fundamental form at u.

    For quadric ambients the component along the position vector is removed
    as well, leaving the second fundamental form inside the quadric.
    Returns (center, first derivatives, metric, II) for reuse by callers.
    """
    uv = np.asarray(u, dtype=float)
    n = imm.chart_dim
    vals = imm.at_rows(uv + _stencil_offsets(n, h))
    center, first, second = (a[0] for a in _stencil_derivatives(vals[None], n, h))
    g, II = _second_fundamental_form_at(imm, center, first, second)
    return center, first, g, II


def _second_fundamental_form_at(imm: ImmersionEvaluator, center: np.ndarray, first: np.ndarray, second: np.ndarray):
    """Metric and II_ij at one chart point, from its stencil derivatives."""
    n = imm.chart_dim
    g, _ = _metric_inverse(imm, first)
    frame = list(first) + ([center] if imm.ambient.intrinsic_to_quadric else [])
    II = [[second[i][j] - _general_tangential(imm, frame, second[i][j]) for j in range(n)] for i in range(n)]
    return g, II


def _general_tangential(imm: ImmersionEvaluator, frame: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    k = len(frame)
    G = np.array([[imm.ambient.inner(frame[i], frame[j]) for j in range(k)] for i in range(k)])
    if np.linalg.cond(G) > _COND_LIMIT:
        raise ChartDegenerateError("degenerate frame while projecting")
    coeff = np.linalg.solve(G, np.array([imm.ambient.inner(w, f) for f in frame]))
    return sum(coeff[i] * frame[i] for i in range(k))


# ---------------------------------------------------------------------------
# flow-equation residuals


def _gauge_flow(gauge: str):
    """The batch flow of a gauge and the ambient space its points lie in."""
    if gauge == "hyperbolic":
        return hyperbolic_flow_batch, HYPERBOLOID
    if gauge == "lorentz":
        return lorentz_flow_batch, LORENTZIAN
    raise InvalidArgumentError(f"unknown gauge {gauge!r}")


def _flow_rows(flow_batch, d, X: np.ndarray, t: float) -> np.ndarray:
    """``flow_batch(d, X, t)``, refusing a time whose flow overflows doubles as out of range."""
    try:
        return flow_batch(d, X, t)
    except OverflowError:
        raise TimeOutOfRangeError(f"the flow at t={t!r} leaves the range of doubles") from None


def descriptor_immersion(d, t: float | None = None, gauge: str = "hyperbolic") -> ImmersionEvaluator:
    """Chart evaluator of a descriptor, optionally pushed by one of its flows.

    The evaluator maps rows of chart points: ``immerse_rows`` and, at a
    time, ``_validate_rows`` followed by ``hyperbolic_flow_batch`` or
    ``lorentz_flow_batch``; one chart point is a batch of one.  Either way
    it receives chart points and returns points only.
    """
    if t is None:
        ambient = HYPERBOLOID
        rows = lambda U: immerse_rows(d, U)
    else:
        flow_batch, ambient = _gauge_flow(gauge)

        def rows(U: np.ndarray) -> np.ndarray:
            X = immerse_rows(d, U)
            _validate_rows(d, X)
            return _flow_rows(flow_batch, d, X, t)

    return ImmersionEvaluator(chart_dim(d), ambient, lambda u: rows(u.reshape(1, -1))[0], rows)


def _minkowski_rows(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """<v,w> of every row pair, with the arithmetic of ``minkowski_inner``."""
    return np.matmul(V[:, None, :-1], W[:, :-1, None])[:, 0, 0] - V[:, -1] * W[:, -1]


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

    The samples are immersed and validated once.  At each time the velocity
    is the central difference of two batched flows of all samples, and the
    differencing stencils of all samples are evaluated in one ``at_rows``
    call of the flowed chart; entry (s, j) has the bits of ``pde_residual``
    at sample s and time j alone.  Times must be finite, ``dt`` positive
    and finite, and every t + dt must stay before the gauge's bound.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidArgumentError(f"dt must be positive and finite, got {dt!r}")
    ts = [_finite_time(t) for t in times]
    flow_batch, _ = _gauge_flow(gauge)
    n = chart_dim(d)
    U = np.asarray(chart_samples, dtype=float)
    if U.ndim != 2 or U.shape[1] != n:
        raise InvalidArgumentError(f"chart needs {n} parameters, got samples of shape {U.shape[1:]}")
    window = existence_window(d)
    X = immerse_rows(d, U)
    _validate_rows(d, X)
    bound = window.t_max if gauge == "hyperbolic" else window.t_dprime
    for t in ts:
        if bound is not None and t + dt >= bound:
            raise TimeOutOfRangeError(f"t={t} leaves no margin dt={dt} before the bound {bound}")
    out = np.empty((U.shape[0], len(ts)))
    for j, t in enumerate(ts):
        velocity = (_flow_rows(flow_batch, d, X, t + dt) - _flow_rows(flow_batch, d, X, t - dt)) / (2.0 * dt)
        H = _mean_curvature_rows(descriptor_immersion(d, t, gauge), U, h, richardson)
        V = velocity - H
        if gauge == "hyperbolic":
            Xt = _flow_rows(flow_batch, d, X, t)
            V = V + _minkowski_rows(V, Xt)[:, None] * Xt  # tangential projection, <x,x> = -1
            out[:, j] = np.sqrt(np.maximum(_minkowski_rows(V, V), 0.0))
        else:
            out[:, j] = np.sqrt(np.abs(_minkowski_rows(V, V)))
    return out


def pde_residual(
    d, u, t: float, h: float = 1e-3, dt: float = 1e-4, gauge: str = "hyperbolic", richardson: bool = False
) -> float:
    """|d/dt flow - numeric mean curvature| at one chart point and time.

    The hyperbolic residual is projected to the tangent space of H^m(-1)
    before taking its (positive definite) norm; the Lorentzian residual uses
    sqrt(|<v,v>|).  A batch of one of ``pde_residual_grid``.
    """
    return float(pde_residual_grid(d, [u], [t], h, dt, gauge, richardson)[0, 0])


def evolve_and_compare(
    d,
    chart_samples: Sequence[np.ndarray],
    t0: float,
    t1: float,
    dt: float,
    h: float = 1e-3,
) -> float:
    """Forward Euler along the numeric mean curvature versus the closed form.

    Each sample is stepped by x <- x + dt * H_numeric(flow surface at t_k)
    and reprojected to the hyperboloid; the return value is the largest
    Euclidean distance to the closed-form position at t1.  Error is O(dt)
    from the stepping plus O(h^2) from the differencing.  H_numeric at step
    k depends on the flow surface at t0 + k dt only, not on the walked
    points, so it is evaluated up front for a block of steps at a time: one
    row-wise flow of every sample's stencil per step (the stencil rows are
    validated once, before the first step), then one differencing
    of all the block's stencils, then the sequential updates of all samples
    at once.
    """
    if not (0.0 < dt <= 1e-4):
        raise InvalidArgumentError(f"dt must be positive and at most 1e-4, got {dt!r}")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InvalidArgumentError(f"t0 and t1 must be finite, got {t0!r} and {t1!r}")
    _check_fd_step(h)
    steps = round((t1 - t0) / dt)
    if steps < 1:
        raise InvalidArgumentError(f"t1={t1} lies less than half a step dt={dt} after t0={t0}")
    samples = np.array(chart_samples, dtype=float)
    if samples.shape[0] == 0:
        raise InsufficientSamplesError("no chart samples given")
    n = chart_dim(d)
    if samples.shape[1:] != (n,):
        raise InvalidArgumentError(f"chart needs {n} parameters, got samples of shape {samples.shape[1:]}")
    window = existence_window(d)
    if window.t_max is not None and t1 >= window.t_max:
        raise TimeOutOfRangeError(f"t1={t1} reaches past the collapse time {window.t_max}")
    offs = _stencil_offsets(n, h)
    S, K = samples.shape[0], offs.shape[0]
    stencil_points = immerse_rows(d, _stencil_points(samples, offs))
    _validate_rows(d, stencil_points)  # once: the rows do not change from step to step
    X0 = immerse_rows(d, samples)
    _validate_rows(d, X0)
    X = hyperbolic_flow_batch(d, X0, t0)
    for k0 in range(0, steps, _EULER_BLOCK):
        ks = range(k0, min(k0 + _EULER_BLOCK, steps))
        flowed = np.stack([_hyperbolic_flow_rows(d, stencil_points, float(t0 + k * dt)) for k in ks])
        H = _mc_from_stencil(flowed.reshape(len(ks) * S, K, -1), n, h, HYPERBOLOID).reshape(len(ks), S, -1)
        for Hk in H:
            X = X + dt * Hk
            X = X / np.sqrt(-HYPERBOLOID.inner_rows(X, X))[:, None]
    worst = 0.0
    for x, target in zip(X, hyperbolic_flow_batch(d, X0, t0 + steps * dt)):
        worst = max(worst, float(np.linalg.norm(x - target)))
    return worst


# ---------------------------------------------------------------------------
# isoparametric transport check


def principal_curvatures(imm: ImmersionEvaluator, u, normals: list[np.ndarray], h: float = 1e-3) -> list[np.ndarray]:
    """Sorted shape-operator eigenvalues along each given unit normal."""
    _, _, g, II = second_fundamental_form(imm, u, h)
    return _shape_eigenvalues(imm, g, II, normals)


def _shape_eigenvalues(imm: ImmersionEvaluator, g: np.ndarray, II, normals: list[np.ndarray]) -> list[np.ndarray]:
    n = imm.chart_dim
    out = []
    for zeta in normals:
        S = np.array([[imm.ambient.inner(II[i][j], zeta) for j in range(n)] for i in range(n)])
        out.append(np.sort(np.linalg.eigvals(np.linalg.solve(g, S)).real))
    return out


# Each transport segment is split into sub-segments, each with a freshly
# seeded basis; the connection form is differenced in time with this step.
_TRANSPORT_SUBSEGMENTS = 4
_CONNECTION_DELTA = 1e-5


def _sub_steps(steps: int) -> int:
    """RK4 steps per sub-segment for a transport of ``steps`` steps per segment."""
    if steps < 1:
        raise InvalidArgumentError(f"the transport needs steps >= 1, got {steps!r}")
    return max(4, steps // _TRANSPORT_SUBSEGMENTS)


def _transport_seeds(stops: list[np.ndarray]) -> np.ndarray:
    """The chart points seeding the basis of every sub-segment along stops[0] -> stops[1] -> ..."""
    q = _TRANSPORT_SUBSEGMENTS
    return np.array([a + 0.5 * (seg / q + (seg + 1) / q) * (b - a) for a, b in zip(stops, stops[1:]) for seg in range(q)])


def _transport_chain(
    imm: ImmersionEvaluator,
    stops: list[np.ndarray],
    frame: list[np.ndarray],
    seed_center: np.ndarray,
    seed_first: np.ndarray,
    sub_steps: int,
    h: float,
) -> list[list[np.ndarray]]:
    """The frame transported along the straight chart segments between consecutive stops.

    Returns the frame at every stop after the first.  ``seed_center`` and
    ``seed_first`` are the points and first derivatives at
    ``_transport_seeds(stops)``, which fix each sub-segment's pivot order.
    A does not depend on the coefficients, so the basis at every point of
    every sub-segment is evaluated in one ``at_rows`` call before any
    integration; only the small RK4 loops run in order.
    """
    k = len(frame)
    if k == 0:
        return [[] for _ in stops[1:]]
    q, delta = _TRANSPORT_SUBSEGMENTS, _CONNECTION_DELTA
    orders = [_frame_order(imm, W) for W in _normal_candidates(imm, seed_center, seed_first)]
    subs = []
    for a, b in zip(stops, stops[1:]):
        for seg in range(q):
            ta, tb = seg / q, (seg + 1) / q
            dt = (tb - ta) / sub_steps
            # the times the RK4 loop below asks A for, in its own arithmetic:
            # t + dt need not equal the next step's t, and then both are kept
            keys: list[float] = []
            if k > 1:
                for i in range(sub_steps):
                    t = ta + i * dt
                    keys += [t, t + dt / 2.0, t + dt]
                keys = list(dict.fromkeys(keys))
            ts = np.array([ta, tb] + [s for t in keys for s in (t, t + delta, t - delta)])
            subs.append((ta, dt, keys, a + ts[:, None] * (b - a)))
    points = [p for *_, p in subs]
    W = _normal_candidates(imm, *_first_derivative_rows(imm, np.concatenate(points), h))
    blocks = np.split(W, np.cumsum([len(p) for p in points])[:-1])

    current = [np.asarray(z, dtype=float).copy() for z in frame]
    out = []
    for idx, ((ta, dt, keys, _), order, Wj) in enumerate(zip(subs, orders, blocks)):
        frames = _frames_along(imm, order, Wj)
        N0, N1 = frames[0], frames[1]
        coeff = np.array([[imm.ambient.inner(nu, z) for z in current] for nu in N0])
        if k == 1:
            current = [coeff[0, 0] * N1[0]]
        else:
            Nt, Np, Nm = frames[2::3], frames[3::3], frames[4::3]
            sig = imm.ambient.signature(frames.shape[-1])
            M = np.einsum("tid,tjd->tij", Nt * sig, (Np - Nm) / (2.0 * delta))
            A = dict(zip(keys, 0.5 * (M - M.transpose(0, 2, 1))))
            for i in range(sub_steps):
                t = ta + i * dt
                k1 = -A[t] @ coeff
                k2 = -A[t + dt / 2.0] @ (coeff + dt / 2.0 * k1)
                k3 = -A[t + dt / 2.0] @ (coeff + dt / 2.0 * k2)
                k4 = -A[t + dt] @ (coeff + dt * k3)
                coeff = coeff + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            current = [sum(coeff[i, j] * N1[i] for i in range(k)) for j in range(k)]
        if idx % q == q - 1:
            current = _strip_drift(imm, current)
            out.append(current)
    return out


def _strip_drift(imm: ImmersionEvaluator, frame: list[np.ndarray]) -> list[np.ndarray]:
    """Re-orthonormalize a transported frame in order, which keeps its orientation."""
    moved: list[np.ndarray] = []
    for w in frame:
        v = w.copy()
        for m in moved:
            v = v - imm.ambient.inner(v, m) * m
        q = imm.ambient.inner(v, v)
        if q <= 1e-18:
            raise ChartDegenerateError("normal frame degenerated during transport")
        moved.append(v / math.sqrt(q))
    return moved


def transport_normal_frame(
    imm: ImmersionEvaluator,
    u_from,
    u_to,
    frame: list[np.ndarray],
    steps: int = 48,
    h: float = 1e-3,
) -> list[np.ndarray]:
    """Parallel transport of a normal frame along a straight chart segment.

    The frame is expressed in a smooth moving orthonormal basis of the
    normal bundle and the coefficient equation c' = -A(t) c is integrated
    with a classical 4th order scheme; A is the (skew) connection form in
    the moving basis, so its entries stay at the geometric rotation rate
    even where boosted coordinates make raw projector matrices large.  The
    segment is split into sub-segments, each with a freshly seeded basis.
    Codimension one needs no integration: the single coefficient rides the
    smooth unit normal field unchanged.  A chain of one segment of
    ``_transport_chain``: one ``at_rows`` call for the seeds, one for the
    basis along all sub-segments.
    """
    sub_steps = _sub_steps(steps)
    stops = [np.asarray(u_from, dtype=float), np.asarray(u_to, dtype=float)]
    if len(frame) == 0:
        return []
    seed_center, seed_first = _first_derivative_rows(imm, _transport_seeds(stops), h)
    return _transport_chain(imm, stops, frame, seed_center, seed_first, sub_steps, h)[0]


def _chain_samples(samples: list[np.ndarray]) -> list[np.ndarray]:
    """Greedy nearest-neighbor ordering, keeping transport segments short."""
    rest = list(samples[1:])
    chain = [samples[0]]
    while rest:
        last = chain[-1]
        k = int(np.argmin([np.linalg.norm(u - last) for u in rest]))
        chain.append(rest.pop(k))
    return chain


def isoparametric_residual(
    d,
    t: float,
    chart_samples: Sequence[np.ndarray],
    transport_steps: int = 24,
    h: float = 1e-3,
) -> float:
    """Spread of principal curvatures along a transported normal frame.

    Starting from the first sample's orthonormal normal frame, the frame is
    transported sample to sample (chained nearest-neighbor); at every stop
    the sorted shape-operator eigenvalues along each frame vector are
    compared with the starting ones.  Codimension-0 descriptors have no
    normal directions and return 0.  The time must be finite, and
    ``transport_steps`` at least 1; a time whose flow overflows doubles is
    out of range.  The flowed chart is evaluated in two ``at_rows`` calls,
    see ``isoparametric_residual_of``.
    """
    t = _finite_time(t)
    _sub_steps(transport_steps)
    if dimensions(d).codim == 0:
        return 0.0
    imm = descriptor_immersion(d, t, "hyperbolic")
    return isoparametric_residual_of(imm, chart_samples, transport_steps, h)


def isoparametric_residual_of(
    imm: ImmersionEvaluator,
    chart_samples: Sequence[np.ndarray],
    transport_steps: int = 24,
    h: float = 1e-3,
) -> float:
    """The transported principal-curvature spread for a raw evaluator.

    No chart point the check needs depends on the transported frame, so
    they are evaluated before the integration, in two ``at_rows`` calls:
    first the differencing stencils of every sample (which also give the
    start frame) with the first-derivative stencils of every sub-segment
    seed, then the basis along every sub-segment (``_transport_chain``).
    """
    sub_steps = _sub_steps(transport_steps)
    samples = _chain_samples([np.asarray(u, dtype=float) for u in chart_samples])
    if len(samples) < 2:
        raise InsufficientSamplesError("need at least two chart samples")
    n = imm.chart_dim
    offs = _stencil_offsets(n, h)
    S, K = len(samples), offs.shape[0]
    seeds = _transport_seeds(samples)
    vals = imm.at_rows(np.concatenate([_stencil_points(np.array(samples), offs), _stencil_points(seeds, offs[: 1 + 2 * n])]))
    center, first, second = _stencil_derivatives(vals[: S * K].reshape(S, K, -1), n, h)
    seed_center, seed_first = _first_derivatives_of(vals[S * K :].reshape(len(seeds), 1 + 2 * n, -1), h)
    W0 = _normal_candidates(imm, center[:1], first[:1])
    frame = list(_frames_along(imm, _frame_order(imm, W0[0]), W0)[0])
    forms = [_second_fundamental_form_at(imm, c, f, s) for c, f, s in zip(center, first, second)]
    baseline = _shape_eigenvalues(imm, *forms[0], frame)
    spread = 0.0
    for form, moved in zip(forms[1:], _transport_chain(imm, samples, frame, seed_center, seed_first, sub_steps, h)):
        for e0, e1 in zip(baseline, _shape_eigenvalues(imm, *form, moved)):
            spread = max(spread, float(np.max(np.abs(e1 - e0))))
    return spread


# ---------------------------------------------------------------------------
# normal-bundle curvature


@dataclass(frozen=True)
class ConformalFactor:
    """e^(2 rho) scaling of a flat metric, with an analytic gradient."""

    rho: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


def poincare_ball_factor() -> ConformalFactor:
    """The hyperbolic metric 4 (1 - |y|^2)^(-2) on the unit ball."""
    return ConformalFactor(
        rho=lambda y: math.log(2.0 / (1.0 - float(np.dot(y, y)))),
        grad=lambda y: 2.0 * y / (1.0 - float(np.dot(y, y))),
    )


def _first_derivative_rows(imm: ImmersionEvaluator, U: np.ndarray, h: float):
    """Points (P, dim) and central first derivatives (P, n, dim) at P chart points.

    One ``at_rows`` call evaluates the 1 + 2n point stencils of all of them.
    """
    P, n = U.shape
    vals = imm.at_rows(_stencil_points(U, _stencil_offsets(n, h)[: 1 + 2 * n]))
    return _first_derivatives_of(vals.reshape(P, 1 + 2 * n, -1), h)


def _first_derivatives_of(vals: np.ndarray, h: float):
    """Centers and central first derivatives of P first-derivative stencils (P, 1 + 2n, dim)."""
    return vals[:, 0], (vals[:, 1::2] - vals[:, 2::2]) / (2.0 * h)


def _first_derivatives(imm: ImmersionEvaluator, u: np.ndarray, h: float):
    center, first = _first_derivative_rows(imm, np.asarray(u, dtype=float)[None, :], h)
    return center[0], first[0]


def _normal_candidates(imm: ImmersionEvaluator, center: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Each axis e_i minus its tangential part, at P points: (P, i, dim).

    The tangent frame is the chart derivatives, plus the position vector
    inside a quadric; its Gram matrix must be well conditioned.
    """
    T = np.concatenate([first, center[:, None, :]], axis=1) if imm.ambient.intrinsic_to_quadric else first
    P, kt, dim = T.shape
    eye = np.broadcast_to(np.eye(dim), (P, dim, dim))
    if kt == 0:
        return eye.copy()
    sig = imm.ambient.signature(dim)
    G = np.einsum("pad,pbd->pab", T * sig, T)
    if np.any(np.linalg.cond(G) > _COND_LIMIT):
        raise ChartDegenerateError("degenerate frame while projecting")
    # <e_i, f_a> is the i-th coordinate of f_a times the metric sign of axis i
    coeff = np.linalg.solve(G, T * sig)
    return eye - np.einsum("pai,pad->pid", coeff, T)


def _frame_order(imm: ImmersionEvaluator, W: np.ndarray) -> list[int]:
    """Gram-Schmidt pivot order of a normal frame, from the candidates (dim, dim) at its seed.

    Each step takes the remaining candidate axis whose part orthogonal to
    the chosen ones is largest.
    """
    available = list(range(W.shape[0]))
    order: list[int] = []
    basis: list[np.ndarray] = []
    for _ in range(W.shape[0] - imm.chart_dim - (1 if imm.ambient.intrinsic_to_quadric else 0)):
        R = W[available]
        for b in basis:
            R = R - imm.ambient.inner_rows(R, b)[:, None] * b
        q = np.abs(imm.ambient.inner_rows(R, R))
        j = int(np.argmax(q))
        if q[j] < 1e-18:
            raise ChartDegenerateError("could not seed a smooth normal frame")
        order.append(available.pop(j))
        basis.append(R[j] / math.sqrt(q[j]))
    return order


def _frames_along(imm: ImmersionEvaluator, order: list[int], W: np.ndarray) -> np.ndarray:
    """Orthonormal frames (P, k, dim) from candidates (P, dim, dim), by Gram-Schmidt in a frozen pivot order."""
    out: list[np.ndarray] = []
    for i in order:
        w = W[:, i]
        for b in out:
            w = w - imm.ambient.inner_rows(w, b)[:, None] * b
        q = np.abs(imm.ambient.inner_rows(w, w))
        if np.any(q < 1e-18):
            raise ChartDegenerateError("normal frame degenerated off-center")
        out.append(w / np.sqrt(q)[:, None])
    return np.stack(out, axis=1) if out else np.zeros((W.shape[0], 0, W.shape[2]))


def _normal_frame_field(imm: ImmersionEvaluator, u0: np.ndarray, h: float):
    """A smooth orthonormal normal frame near u0, as a row-wise field.

    The field maps a (P, n) array of chart points to the (P, k, dim) frames
    at them, with one ``at_rows`` call.  The Gram-Schmidt pivot order is
    chosen at u0 (``_frame_order``) and then frozen so the frame varies
    smoothly on the differencing stencil.
    """
    center, first = _first_derivative_rows(imm, np.asarray(u0, dtype=float)[None, :], h)
    order = _frame_order(imm, _normal_candidates(imm, center, first)[0])

    def field(U: np.ndarray) -> np.ndarray:
        return _frames_along(imm, order, _normal_candidates(imm, *_first_derivative_rows(imm, np.asarray(U, dtype=float), h)))

    return field


def _covariant_normal_derivative(
    imm: ImmersionEvaluator,
    Z: Callable[[np.ndarray], np.ndarray],
    j: int,
    u: np.ndarray,
    h: float,
    conformal: ConformalFactor | None,
) -> np.ndarray:
    """D_j Z at u: ambient covariant derivative projected to the normal space.

    The flat and spherical ambients differentiate componentwise; a conformal
    metric adds the standard conformally flat connection correction
    X(rho) Z + Z(rho) X - <X,Z> grad(rho).
    """
    n = imm.chart_dim
    center, first = _first_derivatives(imm, u, h)
    dZ = (Z(u + h * _e(n, j)) - Z(u - h * _e(n, j))) / (2.0 * h)
    if conformal is not None:
        Zu = Z(u)
        Xj = first[j]
        grad = conformal.grad(center)
        dZ = dZ + float(np.dot(grad, Xj)) * Zu + float(np.dot(grad, Zu)) * Xj - float(np.dot(Xj, Zu)) * grad
    frame = list(first) + ([center] if imm.ambient.intrinsic_to_quadric else [])
    return dZ - _general_tangential(imm, frame, dZ)


def normal_curvature_vectors(
    imm: ImmersionEvaluator,
    u,
    h: float = 1e-3,
    conformal: ConformalFactor | None = None,
) -> np.ndarray:
    """Normal-bundle curvature vectors R(d_i, d_j) zeta_a at one chart point.

    Computed from first principles as the commutator of covariant normal
    derivatives of a smooth normal frame, D_i D_j zeta - D_j D_i zeta, with
    nested central differences.  Inputs are the raw coordinate fields and
    the frame seeded at u, so results for conformally related metrics are
    directly comparable.  Shape: (pairs_ij, frame vectors, ambient dim).
    """
    uv = np.asarray(u, dtype=float)
    n = imm.chart_dim
    field = _normal_frame_field(imm, uv, h)
    k = field(uv[None, :]).shape[1]
    if k < 2 or n < 2:
        return np.zeros((0, 0, imm(uv).size))
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            row = []
            for a in range(k):
                Za = lambda v, a=a: field(v[None, :])[0, a]
                Gj = lambda v, a=a, j=j: _covariant_normal_derivative(imm, Za, j, v, h, conformal)
                Gi = lambda v, a=a, i=i: _covariant_normal_derivative(imm, Za, i, v, h, conformal)
                DiDj = _covariant_normal_derivative(imm, Gj, i, uv, h, conformal)
                DjDi = _covariant_normal_derivative(imm, Gi, j, uv, h, conformal)
                row.append(DiDj - DjDi)
            out.append(row)
    return np.asarray(out)


def flat_normal_residual(
    imm: ImmersionEvaluator,
    chart_samples: Sequence[np.ndarray],
    h: float = 1e-3,
    conformal: ConformalFactor | None = None,
) -> float:
    """Largest normal-curvature magnitude over samples, per unit tangent pair.

    Returns 0 by convention when the codimension (inside the quadric, when
    any) is at most 1, or when the chart has a single direction.
    """
    samples = [np.asarray(u, dtype=float) for u in chart_samples]
    if not samples:
        raise InsufficientSamplesError("no samples given")
    center, first = _first_derivatives(imm, samples[0], h)
    codim = center.size - imm.chart_dim - (1 if imm.ambient.intrinsic_to_quadric else 0)
    if codim <= 1 or imm.chart_dim < 2:
        return 0.0
    worst = 0.0
    for u in samples:
        _, fu = _first_derivatives(imm, u, h)
        R = normal_curvature_vectors(imm, u, h, conformal)
        idx = 0
        for i in range(imm.chart_dim):
            for j in range(i + 1, imm.chart_dim):
                scale = math.sqrt(abs(imm.ambient.inner(fu[i], fu[i])) * abs(imm.ambient.inner(fu[j], fu[j])))
                worst = max(worst, float(np.max(np.linalg.norm(R[idx], axis=-1))) / scale)
                idx += 1
    return worst


def _normal_projector_rows(imm: ImmersionEvaluator, U: np.ndarray, h: float) -> np.ndarray:
    """Matrices (P, dim, dim) of the orthogonal projections onto the normal spaces at P chart points.

    Column i of a projector is the image of the axis e_i, which is the i-th
    row ``_normal_candidates`` returns.
    """
    return _normal_candidates(imm, *_first_derivative_rows(imm, U, h)).transpose(0, 2, 1)


def normal_holonomy_defect(
    imm: ImmersionEvaluator,
    u_start,
    period,
    steps: int = 256,
    h: float = 1e-3,
) -> float:
    """Holonomy defect of the normal connection around a closed chart loop.

    Over a curve the normal curvature 2-form vanishes identically, so global
    flatness is measured by transporting an orthonormal normal frame around
    one chart period and comparing with the start.  The transport integrates
    the subspace-tracking equation zeta' = [P', P] zeta (P the normal
    projector along the loop) with a classical 4th order scheme; for a
    trivial-holonomy bundle the defect is at the differencing floor.  P does
    not depend on zeta, so the projectors at every time the scheme asks for,
    and at the partners of its central difference in time, are evaluated up
    front in one batch and all commutators are formed at once.
    """
    u0 = np.asarray(u_start, dtype=float)
    per = np.asarray(period, dtype=float)
    if steps < 1:
        raise InvalidArgumentError(f"the loop needs steps >= 1, got {steps!r}")
    if not np.all(np.isfinite(per)):
        raise InvalidArgumentError(f"the chart period must be finite, got {period!r}")
    if np.max(np.abs(imm(u0 + per) - imm(u0))) > 1e-9:
        raise InvalidArgumentError("the chart period does not close the loop")

    delta = 1e-4
    dt = 1.0 / steps
    # the times the RK4 loop below asks for, in its own arithmetic: t + dt
    # need not equal the next step's t, and then both are kept
    keys = list(dict.fromkeys(s for k in range(steps) for s in (k * dt, k * dt + dt / 2.0, k * dt + dt)))
    ts = np.array([s for t in keys for s in (t, t + delta, t - delta)])
    proj = _normal_projector_rows(imm, u0 + ts[:, None] * per, h)
    Pt = proj[0::3]
    dP = (proj[1::3] - proj[2::3]) / (2.0 * delta)
    C = dict(zip(keys, dP @ Pt - Pt @ dP))

    start = _normal_frame_field(imm, u0, h)(u0[None, :])[0].T
    Z = start.copy()
    for k in range(steps):
        t = k * dt
        k1 = C[t] @ Z
        k2 = C[t + dt / 2.0] @ (Z + dt / 2.0 * k1)
        k3 = C[t + dt / 2.0] @ (Z + dt / 2.0 * k2)
        k4 = C[t + dt] @ (Z + dt * k3)
        Z = Z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(np.max(np.abs(Z - start)))


# ---------------------------------------------------------------------------
# scalar ODE oracle for geodesic spheres


def geodesic_sphere_collapse_time(n: int, cosh_rho0: float) -> float:
    """Collapse time of a geodesic sphere from rho' = -n coth(rho).

    Integrates the radius equation with a stiff-safe stop at rho = 1e-4 and
    closes the gap with the exact local behavior rho^2 ~ 2 n (t* - t).
    """
    # imported here: scipy.integrate is most of the package's import time,
    # and this oracle is its only user
    from scipy.integrate import solve_ivp

    if cosh_rho0 <= 1.0:
        raise InvalidArgumentError("need cosh(rho0) > 1")
    rho0 = math.acosh(cosh_rho0)
    floor = 1e-4

    def rhs(_t, y):
        return [-n / math.tanh(y[0])]

    def hit_floor(_t, y):
        return y[0] - floor

    hit_floor.terminal = True
    hit_floor.direction = -1
    sol = solve_ivp(rhs, (0.0, 10.0 + rho0), [rho0], events=hit_floor, rtol=1e-11, atol=1e-12, max_step=0.01)
    if not sol.t_events[0].size:
        raise TimeOutOfRangeError("geodesic sphere did not reach the collapse neighborhood")
    t_near = float(sol.t_events[0][0])
    return t_near + floor**2 / (2.0 * n)
