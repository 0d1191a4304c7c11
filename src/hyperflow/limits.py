"""Forward and backward limiting behavior of the closed-form flows.

Forward (t -> T): finite-time flows collapse onto a focal set (possibly one
point), which is the hyperbolic flow's continuous extension to T: the row
flow evaluated at its endpoint.  Every eternal flow (t_max None) has the
asymptotic endpoint of the Lorentzian row flow at s = +infinity as its
limit: each level keeps its leading coefficient in s.  A timelike leading
term, normalised by sqrt(2ns), is the totally geodesic submanifold the flow
relaxes onto (the submanifold itself when it is stationary); a null one,
which only a horospherical level drifts along, names the ideal point by its
ball image F[:-1] / F[-1].
Backward (t -> -infinity): every non-geodesic flow escapes to the ideal
boundary and its rescaled projections converge to a submanifold of S^(m-1)
of the same dimension.  Hyperbolic t -> -infinity is the Lorentzian light-cone
time s* = -1/(2n), where <F, F> = 0 by the norm law: the limit is the ball
image F[:-1] / F[-1] of the Lorentzian row flow at s* in its endpoint mode,
one map for every descriptor kind.

Both limits are maps over rows of chart points, and reports carry evaluated
sample sets together with the chart maps that produced them (batches of one
of the row maps), so downstream checks (dimension estimates, flat-normal-bundle
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

from .descriptors import Umbilic, _is_stationary, _levels, chart_box, dimensions, immerse_rows
from .errors import InvalidArgumentError, StationaryNoLimitError
from .flow import _flow_rows, existence_window
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
    """The forward variant of d from its plan and the kinds of its levels, without evaluating any samples."""
    if _is_stationary(d):
        return FORWARD_STATIONARY
    if existence_window(d).t_max is not None:
        return FORWARD_FOCAL
    # an eternal leading term is null only below hyperbolic levels, on a horosphere: the walk's bottom level
    *_, bottom = _levels(d)
    return FORWARD_IDEAL_POINT if isinstance(bottom, Umbilic) else FORWARD_GEODESIC


def classify_limits(d) -> LimitReport:
    """Variant skeleton of both limits, without evaluating any samples."""
    fwd = ForwardLimit(variant=_forward_variant(d), collapse_time=existence_window(d).t_max)
    bwd = BackwardLimit(variant=BACKWARD_STATIONARY if _is_stationary(d) else BACKWARD_IDEAL)
    return LimitReport(fwd, bwd)


def evaluate_limits(d, chart_samples: Sequence[np.ndarray]) -> LimitReport:
    """Both limits, each evaluated at the given chart samples."""
    return LimitReport(forward_limit(d, chart_samples), backward_limit(d, chart_samples))


# ---------------------------------------------------------------------------
# forward limits


def _forward_rows(d) -> Callable[[np.ndarray], np.ndarray]:
    """The forward limit on rows: (K, n) chart points to (K, m+1) rows, in one row evaluation.

    A focal flow's limit is its continuous extension to T: the chart rows
    are flowed by the walk ``_flow_rows`` in its hyperbolic endpoint mode.
    An eternal flow's is the walk's asymptotic Lorentzian endpoint at
    s = +infinity, the leading coefficient of each row: on H^m(-1) when it
    is timelike, null when the limit is an ideal point.  Either way the
    rows come from ``immerse_rows``, which refuses a row off a level of d.
    Row k has the same bits as the chart at ``U[k]`` alone.
    """
    T = existence_window(d).t_max
    if T is None:
        return lambda U: _flow_rows(d, immerse_rows(d, U), [math.inf], "lorentz", end=True)[0]
    return lambda U: _flow_rows(d, immerse_rows(d, U), [T], "hyperbolic", end=True)[0]


def _chart_rows(d, chart_samples: Sequence[np.ndarray]) -> np.ndarray:
    """The chart samples as (P, n) rows, refused by the one shape check (``oracle._rows``); no samples give (0, n)."""
    n = dimensions(d).n
    return oracle._rows(chart_samples, n) if len(chart_samples) else np.empty((0, n))


def forward_limit(d, chart_samples: Sequence[np.ndarray]) -> ForwardLimit:
    """Evaluate the forward limit at the given chart samples, in one row evaluation of ``_forward_rows``.

    ``immersion`` is a batch of one of the same row map.  An ideal point is
    the same for every row, so it is read at the centre of the chart box
    and no samples are kept; they pass the shape check all the same.
    """
    variant, rows, U = _forward_variant(d), _forward_rows(d), _chart_rows(d, chart_samples)
    if variant == FORWARD_IDEAL_POINT:
        C = rows(np.array([[(lo + hi) / 2.0 for lo, hi in chart_box(d)]]))[0]
        return ForwardLimit(variant, ideal_point=C[:-1] / C[-1])
    pts = rows(U) if len(U) else np.array([])
    return ForwardLimit(variant, existence_window(d).t_max, pts, immersion=_batch_of_one(rows))


# ---------------------------------------------------------------------------
# backward limits


def backward_chart_map(d) -> Callable[[np.ndarray], np.ndarray]:
    """Chart map of the ideal limit set reached as t -> -infinity.

    A batch of one of ``backward_chart_rows``.
    """
    return _batch_of_one(backward_chart_rows(d))


def _batch_of_one(rows: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    return lambda u: rows(np.asarray(u, dtype=float).reshape(1, -1))[0]


def backward_chart_rows(d) -> Callable[[np.ndarray], np.ndarray]:
    """The backward limit chart on rows: (K, n) chart points to (K, m) ideal points.

    The ball image F[:-1] / F[-1] of the Lorentzian flow at its light-cone
    time s* = -1/(2n), where <F, F> = 0 by the norm law; the hyperbolic
    time t -> -infinity is s* in the Lorentzian gauge.  The flowed rows
    are those of ``immerse_rows``, which refuses a row off a level of d.
    Row k has the same bits as the chart at ``U[k]`` alone, whatever the batch.
    """
    if _is_stationary(d):
        raise StationaryNoLimitError("totally geodesic flows do not move")
    s_star = [-1.0 / (2.0 * dimensions(d).n)]

    def chart(U: np.ndarray) -> np.ndarray:
        F = _flow_rows(d, immerse_rows(d, U), s_star, "lorentz", end=True)[0]
        return F[:, :-1] / F[:, -1:]

    return chart


def backward_limit(d, chart_samples: Sequence[np.ndarray], estimate_dim: bool = True) -> BackwardLimit:
    """Evaluate the backward ideal limit set at the given chart samples.

    The dimension estimate PCA-ranks tight sample clusters pushed through
    the limit chart (4 n + 1 points per base sample, cluster radius 3e-7,
    singular values thresholded at 1e-6 of the largest).
    """
    if _is_stationary(d):
        return BackwardLimit(BACKWARD_STATIONARY)
    rows, U = backward_chart_rows(d), _chart_rows(d, chart_samples)
    pts = rows(U) if len(U) else np.array([])
    dim_est = _pca_dimension(rows, U, dimensions(d).n) if estimate_dim and len(U) else None
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
    clouds = [[u] + [u + radius * rng.standard_normal(u.size) for _ in range(k)] for u in bases]
    # one chart evaluation for every cloud; each row has its own bits whatever the batch
    pts = rows(np.array(clouds).reshape(-1, n)).reshape(len(bases), k + 1, -1)
    sv = np.linalg.svd(pts - pts.mean(axis=1, keepdims=True), compute_uv=False)
    values, counts = np.unique(np.sum(sv > threshold * sv[:, :1], axis=1), return_counts=True)
    return int(values[np.argmax(counts)])


# ---------------------------------------------------------------------------
# flat normal bundle of the limit


def verify_flat_normal_bundle(d, limit: BackwardLimit, h: float = 1e-3) -> float:
    """Numeric normal-curvature residual of a backward ideal limit set.

    Codimension <= 1 in the boundary sphere is trivially flat (0 by
    convention).  One-dimensional limits are checked by the loop holonomy of
    the normal connection around the periodic chart, after one chart
    evaluation of the period's two ends shows that it closes (0 if not): a
    normal frame carried once around the loop by the transport of the
    isoparametric check.  Higher-dimensional ones are checked by the
    curvature commutator of covariant normal derivatives.
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
        defect = oracle._holonomy_defect(imm, mids, np.array([2.0 * math.pi]), h=h)
        # None for a non-periodic chart: the base is contractible, no holonomy exists
        return 0.0 if defect is None else defect
    widths = np.array([(hi - lo) / 4.0 for lo, hi in box])
    samples = [mids, mids + widths / 2.0, mids - widths / 2.0]
    return oracle.flat_normal_residual(imm, samples, h=h)


# ---------------------------------------------------------------------------
# consistency helpers (shared by the verification battery and tests)


def hausdorff_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two finite, non-empty sample sets of points of one dimension."""
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    if A.size == 0 or B.size == 0:
        raise InvalidArgumentError("the Hausdorff distance needs two non-empty sets")
    A = oracle._rows(A, A.shape[-1], "points need {} coordinates, got points")
    B = oracle._rows(B, A.shape[1], "points need {} coordinates, got points")
    d2 = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=-1)
    return float(max(d2.min(axis=1).max(), d2.min(axis=0).max()))
