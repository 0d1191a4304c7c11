"""Forward and backward limiting behavior of the closed-form flows.

Forward (t -> T): finite-time flows collapse onto a focal set (possibly one
point); eternal flows converge either to a totally geodesic submanifold or to
a single ideal point, decided recursively through the construction.
Backward (t -> -infinity): every non-geodesic flow escapes to the ideal
boundary and its rescaled projections converge to a submanifold of S^(m-1)
of the same dimension, described in closed form by the umbilical and product
boundary maps.

Reports carry evaluated sample sets together with the chart maps that
produced them, so downstream checks (dimension estimates, flat-normal-bundle
residuals, consistency against raw trajectories) can re-sample at will.
Boundary limits are only ever labeled by the checks actually performed
(smoothness proxies and normal-bundle flatness); minimality or
isoparametricity on the ideal boundary is frame dependent and never claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ball import umbilic_boundary_rows
from .descriptors import (
    Ambient,
    EuclideanIso,
    FullProduct,
    ProductOfSpheres,
    Umbilic,
    _product_split,
    _umbilic_embed,
    _umbilic_placement,
    _umbilic_split,
    chart_box,
    classify_shape,
    dimensions,
    immerse,
    immerse_rows,
)
from .errors import GeometryError, InvalidArgumentError, StationaryNoLimitError
from .flow import GaugeParams, _hyperbolic_flow_rows, _umbilic_inner_flow_rows, existence_window, sphere_leaf_flow
from . import oracle

FORWARD_STATIONARY = "stationary"
FORWARD_FOCAL = "focal_collapse"
FORWARD_GEODESIC = "totally_geodesic"
FORWARD_IDEAL_POINT = "ideal_point"
BACKWARD_STATIONARY = "stationary"
BACKWARD_IDEAL = "ideal_submanifold"


@dataclass
class ForwardLimit:
    variant: str
    collapse_time: float | None = None
    samples: np.ndarray | None = None
    ideal_point: np.ndarray | None = None
    immersion: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class BackwardLimit:
    variant: str
    samples: np.ndarray | None = None
    dim: int | None = None
    frame_label: str = "standard"
    chart_map: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class LimitReport:
    forward: ForwardLimit
    backward: BackwardLimit


# ---------------------------------------------------------------------------
# classification


def _forward_variant(d) -> str:
    if classify_shape(d).totally_geodesic or dimensions(d).n == 0:
        return FORWARD_STATIONARY
    window = existence_window(d)
    if window.t_max is not None:
        return FORWARD_FOCAL
    if isinstance(d, FullProduct):
        # eternal full products have a point leaf; the hyperbolic factor
        # relaxes onto the totally geodesic H^l(-1) through the origin
        return FORWARD_GEODESIC
    if isinstance(d, Umbilic):
        if d.umb.kind == "euclidean":
            return FORWARD_IDEAL_POINT
        inner_variant = _forward_variant(d.inner)
        if inner_variant in (FORWARD_STATIONARY, FORWARD_GEODESIC):
            return FORWARD_GEODESIC
        if inner_variant == FORWARD_IDEAL_POINT:
            return FORWARD_IDEAL_POINT
        raise GeometryError("an eternal wrapper cannot contain a collapsing flow")
    return FORWARD_STATIONARY  # Ambient


def classify_limits(d) -> LimitReport:
    """Variant skeleton of both limits, without evaluating any samples."""
    fwd = ForwardLimit(variant=_forward_variant(d), collapse_time=existence_window(d).t_max)
    tg = classify_shape(d).totally_geodesic or dimensions(d).n == 0
    bwd = BackwardLimit(variant=BACKWARD_STATIONARY if tg else BACKWARD_IDEAL)
    return LimitReport(fwd, bwd)


def evaluate_limits(d, chart_samples: Sequence[np.ndarray]) -> LimitReport:
    """Both limits, each evaluated at the given chart samples."""
    return LimitReport(forward_limit(d, chart_samples), backward_limit(d, chart_samples))


# ---------------------------------------------------------------------------
# forward limits


def _focal_immersion(d) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form limit of the hyperbolic flow at its finite maximal time."""
    window = existence_window(d)
    T = window.t_max
    n = dimensions(d).n

    if isinstance(d, FullProduct):
        g = GaugeParams(n=n, r=d.r, l=d.l)
        wT = window.t_dprime  # the ambient gauge maps T exactly onto T''

        def focal(u: np.ndarray) -> np.ndarray:
            x = immerse(d, u)
            xv, y = _product_split(d, x)
            scaled = _collapsed_leaf(d.leaf, y, wT)
            out = np.concatenate([g.a1(wT) * xv[:-1], scaled, [g.a1(wT) * xv[-1]]])
            return math.exp(-n * T) * out

        return focal

    if isinstance(d, Umbilic):
        umb = d.umb
        eta = umb.eta_array
        if umb.kind != "euclidean" and window.t_prime is None:
            # the inner flow never moves; the whole hypersurface shrinks to
            # the single point under the scaling factor hitting zero
            point = math.exp(-n * T) * eta
            return lambda u: point.copy()
        scale = 0.0
        if umb.alpha != 1.0:
            rad = 2.0 * n * window.t_dprime * umb.one_minus_alpha2 + 1.0
            scale = math.sqrt(max(rad, 0.0))

        def focal(u: np.ndarray) -> np.ndarray:
            x = immerse(d, u)
            f1 = _umbilic_inner_flow_limit(d, x, window.t_prime)
            if umb.alpha == 1.0:
                return math.exp(-n * T) * f1 - math.sinh(n * T) * umb.beta * umb.xi_array
            return math.exp(-n * T) * (scale * (f1 - eta) + eta)

        return focal

    raise GeometryError("only finite-time flows have focal limits")


def _collapsed_leaf(leaf: ProductOfSpheres, y: np.ndarray, t: float) -> np.ndarray:
    if leaf.is_point:
        return y.copy()
    out = np.empty_like(y)
    k = 0
    for p, s in leaf.factors:
        out[k : k + p + 1] = math.sqrt(max(1.0 - 2.0 * p * t / s, 0.0)) * y[k : k + p + 1]
        k += p + 1
    return out


def _umbilic_inner_flow_limit(d: Umbilic, x: np.ndarray, s: float) -> np.ndarray:
    """f_1 at its collapse time, taking the continuous extension at s = T'."""
    inner = d.inner
    coords = _umbilic_split(d, x)
    if isinstance(inner, ProductOfSpheres):
        R2 = d.umb.a**2 - 1.0
        n1 = inner.dim
        te = (R2 / (2.0 * n1)) * -math.expm1(-2.0 * n1 * s / R2)
        moved = math.exp(n1 * s / R2) * _collapsed_leaf(inner, coords, te)
        return _umbilic_embed(d, moved)
    if isinstance(inner, EuclideanIso):
        out = coords.copy()
        if inner.spheres is not None:
            k0 = inner.flat_dim
            k1 = k0 + inner.spheres.coords_dim
            rel = coords[k0:k1] - inner.offset_array[k0:k1]
            out[k0:k1] = inner.offset_array[k0:k1] + _collapsed_leaf(inner.spheres, rel, s)
        return _umbilic_embed(d, out)
    R = _umbilic_placement(d.umb).scale ** 2
    return _umbilic_embed(d, _focal_immersion_point(inner, coords, s / R))


def _focal_immersion_point(inner, coords: np.ndarray, s: float) -> np.ndarray:
    # the inner chart point is recovered implicitly: the focal recursion only
    # needs the limit position of the given inner-model point
    window = existence_window(inner)
    if window.t_max is None or abs(s - window.t_max) > 1e-9:
        return _hyperbolic_flow_rows(inner, coords[None, :], s)[0]
    if isinstance(inner, FullProduct):
        n = dimensions(inner).n
        g = GaugeParams(n=n, r=inner.r, l=inner.l)
        wT = window.t_dprime
        xv, y = _product_split(inner, coords)
        scaled = _collapsed_leaf(inner.leaf, y, wT)
        return math.exp(-n * s) * np.concatenate([g.a1(wT) * xv[:-1], scaled, [g.a1(wT) * xv[-1]]])
    if isinstance(inner, Umbilic):
        umb = inner.umb
        n = dimensions(inner).n
        if umb.kind != "euclidean" and window.t_prime is None:
            return math.exp(-n * s) * umb.eta_array
        f1 = _umbilic_inner_flow_limit(inner, coords, window.t_prime)
        if umb.alpha == 1.0:
            return math.exp(-n * s) * f1 - math.sinh(n * s) * umb.beta * umb.xi_array
        rad = 2.0 * n * window.t_dprime * umb.one_minus_alpha2 + 1.0
        return math.exp(-n * s) * (math.sqrt(max(rad, 0.0)) * (f1 - umb.eta_array) + umb.eta_array)
    raise GeometryError("unexpected focal recursion")


def _geodesic_limit_immersion(d) -> Callable[[np.ndarray], np.ndarray]:
    """Pointwise limit immersion of an eternal, non-flat flow."""
    if isinstance(d, FullProduct):

        def limit(u: np.ndarray) -> np.ndarray:
            x = immerse(d, u)
            xv, y = _product_split(d, x)
            return np.concatenate([xv[:-1] / math.sqrt(d.r), np.zeros_like(y), [xv[-1] / math.sqrt(d.r)]])

        return limit
    if isinstance(d, Umbilic):
        umb = d.umb
        inner = d.inner
        inner_variant = _forward_variant(inner)
        if inner_variant == FORWARD_STATIONARY:
            inner_limit = lambda u: immerse(inner, u)
        else:
            inner_limit = _geodesic_limit_immersion(inner)
        pl = _umbilic_placement(umb)
        factor = math.sqrt(umb.one_minus_alpha2)

        def limit(u: np.ndarray) -> np.ndarray:
            h = pl.eta + pl.scale * (pl.J @ inner_limit(u))
            return factor * (h - pl.eta)

        return limit
    raise GeometryError("only eternal wrappers have totally geodesic limits")


def _ideal_point_of(d) -> np.ndarray:
    """The single ideal point an eternal flat flow converges to."""
    if isinstance(d, Umbilic) and d.umb.kind == "euclidean":
        xi = d.umb.xi_array
        return xi[:-1] / xi[-1]
    if isinstance(d, Umbilic):
        inner_point = _ideal_point_of(d.inner)
        return _embed_ideal(d, inner_point)
    raise GeometryError("only eternal flat flows converge to an ideal point")


def _embed_ideal(d: Umbilic, p: np.ndarray) -> np.ndarray:
    """Ideal boundary of the inner model embedded through the level's frame.

    Takes one point or rows along the last axis; a row gives the same bits
    either way, as in ``_umbilic_embed``.
    """
    pl = _umbilic_placement(d.umb)
    ones = np.ones(p.shape[:-1] + (1,))
    lift = np.matmul(pl.J, np.concatenate([p, ones], axis=-1)[..., None])[..., 0]
    return lift[..., :-1] / lift[..., -1:]


def forward_limit(d, chart_samples: Sequence[np.ndarray]) -> ForwardLimit:
    """Evaluate the forward limit at the given chart samples."""
    variant = _forward_variant(d)
    window = existence_window(d)
    samples_u = [np.asarray(u, dtype=float) for u in chart_samples]
    if variant == FORWARD_STATIONARY:
        pts = np.array([immerse(d, u) for u in samples_u]) if samples_u else None
        return ForwardLimit(variant, samples=pts, immersion=lambda u: immerse(d, u))
    if variant == FORWARD_FOCAL:
        focal = _focal_immersion(d)
        pts = np.array([focal(u) for u in samples_u])
        return ForwardLimit(variant, collapse_time=window.t_max, samples=pts, immersion=focal)
    if variant == FORWARD_GEODESIC:
        limit = _geodesic_limit_immersion(d)
        pts = np.array([limit(u) for u in samples_u])
        return ForwardLimit(variant, samples=pts, immersion=limit)
    point = _ideal_point_of(d)
    return ForwardLimit(variant, ideal_point=point)


# ---------------------------------------------------------------------------
# backward limits


def backward_chart_map(d) -> Callable[[np.ndarray], np.ndarray]:
    """Chart map of the ideal limit set reached as t -> -infinity.

    A batch of one of ``backward_chart_rows``.
    """
    rows = backward_chart_rows(d)
    return lambda u: rows(np.asarray(u, dtype=float).reshape(1, -1))[0]


def backward_chart_rows(d) -> Callable[[np.ndarray], np.ndarray]:
    """The backward limit chart on rows: (K, n) chart points to (K, m) ideal points.

    Row k has the same bits as the chart at ``U[k]`` alone, whatever the batch.
    """
    if classify_shape(d).totally_geodesic or dimensions(d).n == 0:
        raise StationaryNoLimitError("totally geodesic flows do not move")
    if isinstance(d, FullProduct):
        n = dimensions(d).n
        n_leaf = n - d.l
        R2 = d.r - 1.0
        ratio = math.sqrt(d.r / R2)

        def chart(U: np.ndarray) -> np.ndarray:
            X = immerse_rows(d, U)
            Y = X[:, d.l : -1]
            if not d.leaf.is_point:
                q_star = -(R2 / (2.0 * n_leaf)) * math.log1p(n_leaf / (n * R2))
                Y = sphere_leaf_flow(d.leaf, Y, q_star, radius2=R2).spherical
            return np.concatenate([X[:, : d.l], ratio * Y], axis=1) / X[:, -1:]

        return chart
    if isinstance(d, Umbilic):
        if d.umb.alpha == 0.0:
            inner_chart = backward_chart_rows(d.inner)
            return lambda U: _embed_ideal(d, inner_chart(U))
        t_alpha = existence_window(d).t_alpha
        return lambda U: umbilic_boundary_rows(d.umb, _umbilic_inner_flow_rows(d, immerse_rows(d, U), t_alpha))
    raise StationaryNoLimitError("the ambient hyperboloid does not move")


def backward_limit(d, chart_samples: Sequence[np.ndarray], estimate_dim: bool = True) -> BackwardLimit:
    """Evaluate the backward ideal limit set at the given chart samples.

    The dimension estimate PCA-ranks tight sample clusters pushed through
    the limit chart (4 n + 1 points per base sample, cluster radius 3e-7,
    singular values thresholded at 1e-6 of the largest).
    """
    flags = classify_shape(d)
    if flags.totally_geodesic or dimensions(d).n == 0:
        return BackwardLimit(BACKWARD_STATIONARY)
    rows = backward_chart_rows(d)
    samples_u = [np.asarray(u, dtype=float) for u in chart_samples]
    pts = rows(np.array(samples_u)) if samples_u else np.array([])
    dim_est = None
    if estimate_dim and samples_u:
        dim_est = _pca_dimension(rows, samples_u, dimensions(d).n)
    return BackwardLimit(BACKWARD_IDEAL, samples=pts, dim=dim_est, chart_map=backward_chart_map(d))


def _pca_dimension(
    rows: Callable[[np.ndarray], np.ndarray],
    bases: Sequence[np.ndarray],
    n: int,
    radius: float = 3e-7,
    threshold: float = 1e-6,
) -> int:
    rng = np.random.default_rng(20240901)
    k = 4 * n
    ranks = []
    for u in bases:
        cloud = np.array([u] + [u + radius * rng.standard_normal(u.size) for _ in range(k)])
        pts = rows(cloud)
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        ranks.append(int(np.sum(sv > threshold * sv[0])))
    values, counts = np.unique(ranks, return_counts=True)
    return int(values[np.argmax(counts)])


# ---------------------------------------------------------------------------
# flat normal bundle of the limit


def verify_flat_normal_bundle(d, limit: BackwardLimit, h: float = 1e-3) -> float:
    """Numeric normal-curvature residual of a backward ideal limit set.

    Codimension <= 1 in the boundary sphere is trivially flat (0 by
    convention).  One-dimensional limits are checked by the loop holonomy of
    the normal connection around the periodic chart; higher-dimensional ones
    by the curvature commutator of covariant normal derivatives.
    """
    if limit.variant != BACKWARD_IDEAL or limit.chart_map is None:
        raise InvalidArgumentError("need an evaluated ideal backward limit")
    dims = dimensions(d)
    sphere_dim = dims.m - 1
    codim = sphere_dim - dims.n
    if codim <= 1:
        return 0.0
    imm = oracle.ImmersionEvaluator(dims.n, oracle.SPHERE, limit.chart_map, backward_chart_rows(d))
    box = chart_box(d)
    mids = np.array([(lo + hi) / 2.0 for lo, hi in box])
    if dims.n == 1:
        period = np.array([2.0 * math.pi])
        if np.max(np.abs(imm(mids + period) - imm(mids))) > 1e-9:
            # non-periodic chart: the base is contractible, no holonomy exists
            return 0.0
        return oracle.normal_holonomy_defect(imm, mids, period, h=h)
    widths = np.array([(hi - lo) / 4.0 for lo, hi in box])
    samples = [mids, mids + widths / 2.0, mids - widths / 2.0]
    return oracle.flat_normal_residual(imm, samples, h=h)


# ---------------------------------------------------------------------------
# consistency helpers (shared by the verification battery and tests)


def hausdorff_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two finite sample sets."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    d2 = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=-1)
    return float(max(d2.min(axis=1).max(), d2.min(axis=0).max()))
