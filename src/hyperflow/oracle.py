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
from typing import Callable, Sequence

import numpy as np

from .descriptors import chart_dim, dimensions, immerse
from .errors import (
    ChartDegenerateError,
    InsufficientSamplesError,
    InvalidArgumentError,
    TimeOutOfRangeError,
)
from .flow import existence_window, hyperbolic_flow, hyperbolic_flow_batch, lorentz_flow
from .lorentz import minkowski_inner

_COND_LIMIT = 1e12


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


EUCLIDEAN = AmbientSpace("euclidean")
LORENTZIAN = AmbientSpace("lorentzian")
SPHERE = AmbientSpace("sphere")
HYPERBOLOID = AmbientSpace("hyperboloid")


@dataclass(frozen=True)
class ImmersionEvaluator:
    """A pure chart map u -> point together with its ambient signature."""

    chart_dim: int
    ambient: AmbientSpace
    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, u) -> np.ndarray:
        return np.asarray(self.func(np.asarray(u, dtype=float)), dtype=float)


def _derivatives(imm: ImmersionEvaluator, u: np.ndarray, h: float):
    """Central first and second chart derivatives of the immersion at u."""
    n = imm.chart_dim
    center = imm(u)
    plus = [imm(u + h * _e(n, i)) for i in range(n)]
    minus = [imm(u - h * _e(n, i)) for i in range(n)]
    first = [(plus[i] - minus[i]) / (2.0 * h) for i in range(n)]
    second = [[None] * n for _ in range(n)]
    for i in range(n):
        second[i][i] = (plus[i] - 2.0 * center + minus[i]) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            pp = imm(u + h * (_e(n, i) + _e(n, j)))
            pm = imm(u + h * (_e(n, i) - _e(n, j)))
            mp = imm(u - h * (_e(n, i) - _e(n, j)))
            mm = imm(u - h * (_e(n, i) + _e(n, j)))
            mixed = (pp - pm - mp + mm) / (4.0 * h**2)
            second[i][j] = second[j][i] = mixed
    return center, first, second


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


def _stencil_offsets(n: int, h: float) -> np.ndarray:
    """Chart offsets of the central-difference stencil.

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
    return np.asarray(offs)


def _mc_from_stencil(vals: np.ndarray, n: int, h: float, ambient: AmbientSpace) -> np.ndarray:
    """Mean curvature from stencil values laid out by ``_stencil_offsets``."""
    center = vals[0]
    if n == 0:
        return np.zeros_like(center)
    first = [(vals[1 + 2 * i] - vals[2 + 2 * i]) / (2.0 * h) for i in range(n)]
    second = [[None] * n for _ in range(n)]
    for i in range(n):
        second[i][i] = (vals[1 + 2 * i] - 2.0 * center + vals[2 + 2 * i]) / h**2
    base = 1 + 2 * n
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            pp, pm, mp, mm = vals[base + 4 * k : base + 4 * k + 4]
            second[i][j] = second[j][i] = (pp - pm - mp + mm) / (4.0 * h**2)
            k += 1
    g = np.array([[ambient.inner(first[i], first[j]) for j in range(n)] for i in range(n)])
    if np.linalg.cond(g) > _COND_LIMIT:
        raise ChartDegenerateError("induced metric is numerically singular at this chart point")
    ginv = np.linalg.inv(g)
    trace = sum(ginv[i, j] * second[i][j] for i in range(n) for j in range(n))
    coeff = ginv @ np.array([ambient.inner(trace, first[j]) for j in range(n)])
    H = trace - sum(coeff[k] * first[k] for k in range(n))
    if ambient.intrinsic_to_quadric:
        H = H + (n / ambient.inner(center, center)) * center
    return H


def numeric_mean_curvature(imm: ImmersionEvaluator, u, h: float = 1e-3, richardson: bool = False) -> np.ndarray:
    """O(h^2) mean curvature vector of the immersed chart at u.

    With ``richardson`` the h and h/2 estimates are extrapolated to O(h^4);
    used by the acceptance runs where an extra digit matters.
    """
    if not (1e-4 <= h <= 1e-2):
        raise InvalidArgumentError("step h must lie in [1e-4, 1e-2]")
    if richardson:
        coarse = numeric_mean_curvature(imm, u, h)
        fine = numeric_mean_curvature(imm, u, h / 2.0)
        return (4.0 * fine - coarse) / 3.0
    uv = np.asarray(u, dtype=float)
    n = imm.chart_dim
    if n == 0:
        return np.zeros_like(imm(uv))
    vals = np.array([imm(uv + off) for off in _stencil_offsets(n, h)])
    return _mc_from_stencil(vals, n, h, imm.ambient)


def second_fundamental_form(imm: ImmersionEvaluator, u, h: float = 1e-3):
    """Normal components II_ij of the second fundamental form at u.

    For quadric ambients the component along the position vector is removed
    as well, leaving the second fundamental form inside the quadric.
    Returns (center, first derivatives, metric, II) for reuse by callers.
    """
    uv = np.asarray(u, dtype=float)
    center, first, second = _derivatives(imm, uv, h)
    n = imm.chart_dim
    g, ginv = _metric_inverse(imm, first)
    frame = list(first)
    if imm.ambient.intrinsic_to_quadric:
        frame = frame + [center]
    II = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = second[i][j]
            w = w - _general_tangential(imm, frame, w)
            II[i][j] = w
    return center, first, g, II


def _general_tangential(imm: ImmersionEvaluator, frame: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    k = len(frame)
    G = np.array([[imm.ambient.inner(frame[i], frame[j]) for j in range(k)] for i in range(k)])
    if np.linalg.cond(G) > _COND_LIMIT:
        raise ChartDegenerateError("degenerate frame while projecting")
    coeff = np.linalg.solve(G, np.array([imm.ambient.inner(w, f) for f in frame]))
    return sum(coeff[i] * frame[i] for i in range(k))


def _normal_basis(imm: ImmersionEvaluator, center: np.ndarray, first: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of the normal space (inside the quadric, when any)."""
    frame = list(first)
    if imm.ambient.intrinsic_to_quadric:
        frame = frame + [center]
    dim = center.size
    basis: list[np.ndarray] = []
    cands = []
    for i in range(dim):
        v = _e(dim, i)
        v = v - _general_tangential(imm, frame, v) if frame else v
        cands.append(v)
    need = dim - len(frame)
    for _ in range(need):
        norms = []
        for v in cands:
            w = v.copy()
            for b in basis:
                w -= imm.ambient.inner(w, b) * b
            norms.append((abs(imm.ambient.inner(w, w)), w))
        k = int(np.argmax([q for q, _ in norms]))
        q, w = norms[k]
        cands.pop(k)
        if q < 1e-18:
            raise ChartDegenerateError("could not complete a normal basis")
        basis.append(w / math.sqrt(q))
    return basis


# ---------------------------------------------------------------------------
# flow-equation residuals


def descriptor_immersion(d, t: float | None = None, gauge: str = "hyperbolic") -> ImmersionEvaluator:
    """Chart evaluator of a descriptor, optionally pushed by one of its flows."""
    dims = dimensions(d)
    if t is None:
        func = lambda u: immerse(d, u)
        ambient = HYPERBOLOID
    elif gauge == "hyperbolic":
        func = lambda u: hyperbolic_flow(d, immerse(d, u), t)
        ambient = HYPERBOLOID
    elif gauge == "lorentz":
        func = lambda u: lorentz_flow(d, immerse(d, u), t)
        ambient = LORENTZIAN
    else:
        raise InvalidArgumentError(f"unknown gauge {gauge!r}")
    return ImmersionEvaluator(chart_dim(d), ambient, func)


def pde_residual(
    d, u, t: float, h: float = 1e-3, dt: float = 1e-4, gauge: str = "hyperbolic", richardson: bool = False
) -> float:
    """|d/dt flow - numeric mean curvature| at one chart point and time.

    The hyperbolic residual is projected to the tangent space of H^m(-1)
    before taking its (positive definite) norm; the Lorentzian residual uses
    sqrt(|<v,v>|).
    """
    uv = np.asarray(u, dtype=float)
    window = existence_window(d)
    if gauge == "hyperbolic":
        bound = window.t_max
        flow = lambda s: hyperbolic_flow(d, immerse(d, uv), s)
    else:
        bound = window.t_dprime
        flow = lambda s: lorentz_flow(d, immerse(d, uv), s)
    if bound is not None and t + dt >= bound:
        raise TimeOutOfRangeError(f"t={t} leaves no margin dt={dt} before the bound {bound}")
    velocity = (flow(t + dt) - flow(t - dt)) / (2.0 * dt)
    imm = descriptor_immersion(d, t, gauge)
    H = numeric_mean_curvature(imm, uv, h, richardson=richardson)
    v = velocity - H
    if gauge == "hyperbolic":
        x = flow(t)
        v = v + minkowski_inner(v, x) * x  # tangential projection, <x,x> = -1
        return math.sqrt(max(minkowski_inner(v, v), 0.0))
    return math.sqrt(abs(minkowski_inner(v, v)))


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
    from the stepping plus O(h^2) from the differencing.  All samples share
    one batched flow evaluation per step, so the walk stays fast at small dt.
    """
    if dt <= 0 or dt > 1e-4:
        raise InvalidArgumentError("dt must be positive and at most 1e-4")
    window = existence_window(d)
    if window.t_max is not None and t1 >= window.t_max:
        raise TimeOutOfRangeError(f"t1={t1} reaches past the collapse time {window.t_max}")
    steps = int(round((t1 - t0) / dt))
    n = chart_dim(d)
    offs = _stencil_offsets(n, h)
    K = offs.shape[0]
    samples = [np.asarray(u, dtype=float) for u in chart_samples]
    stencil_points = np.vstack([[immerse(d, u + off) for off in offs] for u in samples])
    X = np.array([hyperbolic_flow(d, immerse(d, u), t0) for u in samples])
    for k in range(steps):
        flowed = hyperbolic_flow_batch(d, stencil_points, t0 + k * dt)
        for s in range(len(samples)):
            H = _mc_from_stencil(flowed[s * K : (s + 1) * K], n, h, HYPERBOLOID)
            X[s] = X[s] + dt * H
            X[s] = X[s] / math.sqrt(-minkowski_inner(X[s], X[s]))
    worst = 0.0
    for s, u in enumerate(samples):
        target = hyperbolic_flow(d, immerse(d, u), t0 + steps * dt)
        worst = max(worst, float(np.linalg.norm(X[s] - target)))
    return worst


# ---------------------------------------------------------------------------
# isoparametric transport check


def principal_curvatures(imm: ImmersionEvaluator, u, normals: list[np.ndarray], h: float = 1e-3) -> list[np.ndarray]:
    """Sorted shape-operator eigenvalues along each given unit normal."""
    _, first, g, II = second_fundamental_form(imm, u, h)
    n = imm.chart_dim
    out = []
    for zeta in normals:
        S = np.array([[imm.ambient.inner(II[i][j], zeta) for j in range(n)] for i in range(n)])
        out.append(np.sort(np.linalg.eigvals(np.linalg.solve(g, S)).real))
    return out


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
    smooth unit normal field unchanged.
    """
    a = np.asarray(u_from, dtype=float)
    b = np.asarray(u_to, dtype=float)
    k = len(frame)
    if k == 0:
        return []
    current = [np.asarray(z, dtype=float).copy() for z in frame]
    n_sub = 4
    for seg in range(n_sub):
        ta, tb = seg / n_sub, (seg + 1) / n_sub
        seed = a + 0.5 * (ta + tb) * (b - a)
        field = _normal_frame_field(imm, seed, h)

        def N(t: float) -> list[np.ndarray]:
            return field(a + t * (b - a))

        N0 = N(ta)
        coeff = np.array([[imm.ambient.inner(nu, z) for z in current] for nu in N0])
        if k == 1:
            current = [coeff[0, 0] * N(tb)[0]]
            continue

        delta = 1e-5
        memo: dict[float, np.ndarray] = {}

        def A(t: float) -> np.ndarray:
            got = memo.get(t)
            if got is not None:
                return got
            Nt, Np, Nm = N(t), N(t + delta), N(t - delta)
            M = np.array(
                [
                    [imm.ambient.inner(Nt[i], (Np[j] - Nm[j]) / (2.0 * delta)) for j in range(k)]
                    for i in range(k)
                ]
            )
            M = 0.5 * (M - M.T)
            memo[t] = M
            return M

        sub_steps = max(4, steps // n_sub)
        dt = (tb - ta) / sub_steps
        for i in range(sub_steps):
            t = ta + i * dt
            k1 = -A(t) @ coeff
            k2 = -A(t + dt / 2.0) @ (coeff + dt / 2.0 * k1)
            k3 = -A(t + dt / 2.0) @ (coeff + dt / 2.0 * k2)
            k4 = -A(t + dt) @ (coeff + dt * k3)
            coeff = coeff + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        N1 = N(tb)
        current = [sum(coeff[i, j] * N1[i] for i in range(k)) for j in range(k)]

    # strip accumulated drift without touching the orientation
    moved: list[np.ndarray] = []
    for w in current:
        v = w.copy()
        for m in moved:
            v = v - imm.ambient.inner(v, m) * m
        q = imm.ambient.inner(v, v)
        if q <= 1e-18:
            raise ChartDegenerateError("normal frame degenerated during transport")
        moved.append(v / math.sqrt(q))
    return moved


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
    normal directions and return 0.
    """
    dims = dimensions(d)
    if dims.codim == 0:
        return 0.0
    imm = descriptor_immersion(d, t, "hyperbolic")
    return isoparametric_residual_of(imm, chart_samples, transport_steps, h)


def isoparametric_residual_of(
    imm: ImmersionEvaluator,
    chart_samples: Sequence[np.ndarray],
    transport_steps: int = 24,
    h: float = 1e-3,
) -> float:
    """The transported principal-curvature spread for a raw evaluator."""
    samples = _chain_samples([np.asarray(u, dtype=float) for u in chart_samples])
    if len(samples) < 2:
        raise InsufficientSamplesError("need at least two chart samples")
    center, first, _ = _derivatives(imm, samples[0], h)
    frame = _normal_basis(imm, center, first)
    baseline = principal_curvatures(imm, samples[0], frame, h)
    spread = 0.0
    for prev, here in zip(samples, samples[1:]):
        frame = transport_normal_frame(imm, prev, here, frame, transport_steps, h)
        eigs = principal_curvatures(imm, here, frame, h)
        for e0, e1 in zip(baseline, eigs):
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


def _first_derivatives(imm: ImmersionEvaluator, u: np.ndarray, h: float):
    n = imm.chart_dim
    center = imm(u)
    first = [(imm(u + h * _e(n, i)) - imm(u - h * _e(n, i))) / (2.0 * h) for i in range(n)]
    return center, first


def _normal_frame_field(imm: ImmersionEvaluator, u0: np.ndarray, h: float):
    """A smooth orthonormal normal frame near u0, as a callable u -> vectors.

    The Gram-Schmidt pivot order is frozen at u0 so the frame varies smoothly
    on the differencing stencil.
    """
    center, first = _first_derivatives(imm, u0, h)
    tangent = list(first) + ([center] if imm.ambient.intrinsic_to_quadric else [])
    dim = center.size
    order: list[int] = []
    basis: list[np.ndarray] = []
    available = list(range(dim))
    for _ in range(dim - len(tangent)):
        best, best_q, best_w = None, -1.0, None
        for i in available:
            w = _e(dim, i) - _general_tangential(imm, tangent, _e(dim, i))
            for b in basis:
                w = w - imm.ambient.inner(w, b) * b
            q = abs(imm.ambient.inner(w, w))
            if q > best_q:
                best, best_q, best_w = i, q, w
        if best_q < 1e-18:
            raise ChartDegenerateError("could not seed a smooth normal frame")
        order.append(best)
        available.remove(best)
        basis.append(best_w / math.sqrt(best_q))

    def field(u: np.ndarray) -> list[np.ndarray]:
        c, f = _first_derivatives(imm, u, h)
        frame = list(f) + ([c] if imm.ambient.intrinsic_to_quadric else [])
        out: list[np.ndarray] = []
        for i in order:
            w = _e(dim, i) - _general_tangential(imm, frame, _e(dim, i))
            for b in out:
                w = w - imm.ambient.inner(w, b) * b
            q = imm.ambient.inner(w, w)
            if abs(q) < 1e-18:
                raise ChartDegenerateError("normal frame degenerated off-center")
            out.append(w / math.sqrt(abs(q)))
        return out

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
    k = len(field(uv))
    if k < 2 or n < 2:
        return np.zeros((0, 0, imm(uv).size))
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            row = []
            for a in range(k):
                Za = lambda v, a=a: field(v)[a]
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


def _normal_projector(imm: ImmersionEvaluator, u: np.ndarray, h: float) -> np.ndarray:
    """Matrix of the orthogonal projection onto the normal space at u."""
    center, first = _first_derivatives(imm, u, h)
    frame = list(first) + ([center] if imm.ambient.intrinsic_to_quadric else [])
    dim = center.size
    P = np.eye(dim)
    sig = np.ones(dim)
    if imm.ambient.lorentzian_signature:
        sig[-1] = -1.0
    k = len(frame)
    G = np.array([[imm.ambient.inner(frame[i], frame[j]) for j in range(k)] for i in range(k)])
    F = np.column_stack(frame)
    # tangential projector w -> F G^-1 F^T eta w in the ambient signature
    P -= F @ np.linalg.solve(G, (F * sig[:, None]).T)
    return P


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
    trivial-holonomy bundle the defect is at the differencing floor.
    """
    u0 = np.asarray(u_start, dtype=float)
    per = np.asarray(period, dtype=float)
    if np.max(np.abs(imm(u0 + per) - imm(u0))) > 1e-9:
        raise InvalidArgumentError("the chart period does not close the loop")

    def P(t: float) -> np.ndarray:
        return _normal_projector(imm, u0 + t * per, h)

    delta = 1e-4

    def rhs(t: float, Z: np.ndarray) -> np.ndarray:
        Pt = P(t)
        dP = (P(t + delta) - P(t - delta)) / (2.0 * delta)
        return (dP @ Pt - Pt @ dP) @ Z

    start = np.column_stack(_normal_frame_field(imm, u0, h)(u0))
    Z = start.copy()
    dt = 1.0 / steps
    for k in range(steps):
        t = k * dt
        k1 = rhs(t, Z)
        k2 = rhs(t + dt / 2.0, Z + dt / 2.0 * k1)
        k3 = rhs(t + dt / 2.0, Z + dt / 2.0 * k2)
        k4 = rhs(t + dt, Z + dt * k3)
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
