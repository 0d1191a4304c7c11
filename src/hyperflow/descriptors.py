"""Recursive grammar of isoparametric submanifolds of H^m(-1).

A descriptor names a submanifold by how it is built:

* ``Ambient(m, r)``          -- the hyperboloid H^m(-r) itself (codimension 0);
* ``FullProduct(l, r, leaf)``-- H^l(-r) x M' placed with the Lorentz block on
  the first l and last coordinates and the spherical leaf M' (a product of
  spheres, or a single point) in the middle block;
* ``Umbilic(umb, inner)``    -- a submanifold of the totally umbilical
  hypersurface {<x, xi> = a} in H^m(-1), whose inner structure is another
  descriptor, a product of spheres, or a Euclidean configuration, matching
  the hypersurface's intrinsic type.

All descriptor values are immutable and hashable; vector data is stored as
tuples and materialized to ndarrays on use.  The static facts of a
descriptor (``dimensions``, ``chart_box``, ``classify_shape``, the existence
window of its flows and its Lorentzian time range) come from one plan per
instance, built once from the plan of its inner level by ``_build_plan``,
the one walk over descriptor kinds for them; the plan of an umbilic level
also holds the placement that embeds and splits its points, affine
(x = eta + scale J z) or horospherical.  An umbilic level branches once on
its kind: a hyperbolic level leads the walks to its inner descriptor, any
other asks its leaf, a ``ProductOfSpheres`` or ``EuclideanIso``, which owns
its layout: its facts, chart, membership, flow, mean curvature and JSON form.
Charts are explicit: hyperbolic factors use polar coordinates on R^l,
sphere factors use angles, so every immersion is a smooth map from a box in
R^n that finite differencing can probe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    DomainError,
    EmptyHypersurfaceError,
    InvalidArgumentError,
    TimeOutOfRangeError,
)
from .lorentz import as_vector, minkowski_inner

_XI_NORM_TOL = 1e-12
_POINT_TOL = 1e-8


# ---------------------------------------------------------------------------
# umbilical hypersurface data


@dataclass(frozen=True)
class UmbilicData:
    """Invariants of the totally umbilical hypersurface {<x, xi> = a}.

    ``beta = 1/sqrt(<xi,xi> + a^2)`` and ``alpha = beta a``; the hypersurface
    is intrinsically hyperbolic, Euclidean or spherical according to
    <xi,xi> = +1, 0, -1, its ``kind`` (equivalently alpha <, =, > 1, which
    ``derive_umbilic`` keeps by refusing an alpha that rounds to 1 or past
    it).  When alpha != 1 the center ``eta = alpha beta/(1-alpha^2) xi``
    satisfies <x - eta, x - eta> = 1/(alpha^2 - 1) on the hypersurface.
    ``c`` is the constant beta/(alpha+1) of the boundary map.
    """

    xi: tuple[float, ...]
    a: float
    alpha: float
    beta: float
    c: float
    kind: str
    totally_geodesic: bool
    eta: tuple[float, ...] | None
    #: 1 - alpha^2 evaluated as <xi,xi> beta^2; exact where the direct
    #: difference would cancel catastrophically near alpha = 1
    one_minus_alpha2: float = 0.0

    @property
    def m(self) -> int:
        return len(self.xi) - 1

    @property
    def xi_array(self) -> np.ndarray:
        return np.asarray(self.xi, dtype=float)

    @property
    def eta_array(self) -> np.ndarray | None:
        return None if self.eta is None else np.asarray(self.eta, dtype=float)


def derive_umbilic(xi, a: float) -> UmbilicData:
    """Canonical umbilical data from a normal direction and its level.

    ``xi`` must have <xi,xi> in {-1, 0, +1}, to within 1e-12 max(1, |xi|^2)
    with the Euclidean |xi|; the sign of ``a`` is normalized
    to a >= 0 by flipping xi.  Raises when the hypersurface would be empty
    on the upper sheet (<xi,xi> + a^2 <= 0, or a time orientation of xi
    incompatible with a > 0), and when doubles cannot hold the level's kind:
    <xi,xi> or <xi,xi> + a^2 overflows, or alpha rounds to 1 or past it.
    """
    xiv = as_vector(xi)
    with np.errstate(over="ignore", invalid="ignore"):
        q = minkowski_inner(xiv, xiv)
        size2 = float(np.dot(xiv, xiv))
    if not math.isfinite(q):
        raise InvalidArgumentError(f"umbilic.xi is too large: <xi,xi> overflows (|xi| = {np.max(np.abs(xiv)):.3e})")
    q_exact = round(q)
    # <xi,xi> rounds like its terms, so the tolerance scales with the Euclidean |xi|^2
    if q_exact not in (-1, 0, 1) or abs(q - q_exact) > _XI_NORM_TOL * max(1.0, size2):
        raise InvalidArgumentError(f"<xi,xi> = {q!r} must be -1, 0 or +1")
    a = float(a)
    if not math.isfinite(a):
        raise InvalidArgumentError(f"umbilic.a must be finite, got {a!r}")
    if a < 0:
        xiv, a = -xiv, -a
    if q_exact + a * a <= 0:
        raise EmptyHypersurfaceError(f"<xi,xi> + a^2 = {q_exact + a * a:.6f} <= 0: empty hypersurface")
    if q_exact <= 0 and xiv[-1] >= 0:
        raise EmptyHypersurfaceError(
            "a non-spacelike xi with a > 0 must point to the past (xi_{m+1} < 0) "
            "for the hypersurface to meet the upper sheet"
        )

    if q_exact == 0:
        alpha, beta, one = 1.0, 1.0 / a, 0.0
        eta = None
        kind = "euclidean"
    else:
        kind = "hyperbolic" if q_exact == 1 else "spherical"
        beta = 1.0 / math.sqrt(q_exact + a * a)
        alpha = beta * a
        # the kind picks every formula of the level, so alpha must keep to its side of 1
        if beta == 0.0 or not (alpha < 1.0 if kind == "hyperbolic" else alpha > 1.0):
            raise InvalidArgumentError(f"umbilic.a = {a!r} is too large for a {kind} level: alpha rounds to 1 or <xi,xi> + a^2 overflows")
        one = q_exact * beta * beta  # = 1 - alpha^2 without cancellation
        # alpha beta / (1 - alpha^2) collapses to a / (q beta) = q a
        eta = tuple((q_exact * a) * xiv)
    return UmbilicData(
        xi=tuple(xiv),
        a=a,
        alpha=alpha,
        beta=beta,
        c=beta / (alpha + 1.0),
        kind=kind,
        totally_geodesic=(a == 0.0),
        eta=eta,
        one_minus_alpha2=one,
    )


# ---------------------------------------------------------------------------
# leaf types


@dataclass(frozen=True)
class ProductOfSpheres:
    """S^{p_1}(s_1) x ... x S^{p_k}(s_k), or a single point on a sphere.

    Factors are (dimension, squared radius) pairs placed in consecutive
    coordinate blocks of size p_i + 1.  The point variant has no factors and
    a fixed unit ``point_position``; its actual location is
    sqrt(R^2) * point_position on the context sphere of squared radius R^2.
    As the leaf of a spherical umbilic level it lies on the level's sphere,
    of squared radius a^2 - 1.
    """

    factors: tuple[tuple[int, float], ...] = ()
    point_position: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.factors and self.point_position is not None:
            raise InvalidArgumentError("a product of spheres is either factors or a point, not both")
        if not self.factors and self.point_position is None:
            raise InvalidArgumentError("a point leaf needs an explicit unit position")
        fac = tuple((int(p), float(s)) for p, s in self.factors)
        for p, s in fac:
            if p < 1 or not 0 < s < math.inf:
                raise InvalidArgumentError(f"bad sphere factor (p={p}, s={s})")
        object.__setattr__(self, "factors", fac)
        if self.point_position is not None:
            pos = tuple(float(v) for v in self.point_position)
            if not abs(np.linalg.norm(pos) - 1.0) <= _XI_NORM_TOL:  # refuses nan and infinities too
                raise InvalidArgumentError(f"point.position must be a finite unit vector, got {pos!r}")
            object.__setattr__(self, "point_position", pos)

    @property
    def is_point(self) -> bool:
        return not self.factors

    @property
    def dim(self) -> int:
        return sum(p for p, _ in self.factors)

    @property
    def coords_dim(self) -> int:
        if self.is_point:
            return len(self.point_position)
        return sum(p + 1 for p, _ in self.factors)

    @property
    def ambient_radius2(self) -> float | None:
        """Squared radius of the sphere the product fills; None for a point."""
        if self.is_point:
            return None
        return sum(s for _, s in self.factors)

    # The leaf interface of an umbilic level, shared with ``EuclideanIso``: the level passes its
    # umbilical data (and its placement for the mean curvature); Z holds its inner coordinates, as rows.

    def _level_facts(self, umb: UmbilicData):
        """n, chart box, total geodesy (a great subsphere fills the sphere), flatness, the inner maximal time."""
        tg = self.is_point or len(self.factors) == 1
        return self.dim, _sphere_box(self), tg, _leaf_flat(self), _leaf_spherical_collapse(self, umb.a**2 - 1.0)

    def _chart_rows(self, U: np.ndarray, umb: UmbilicData) -> np.ndarray:
        return _leaf_immersion(self, U, umb.a**2 - 1.0)

    def _check_rows(self, Z: np.ndarray, umb: UmbilicData) -> None:
        _check_leaf_rows(self, Z, umb.a**2 - 1.0)

    def _flow_rows(self, Z: np.ndarray, ss: list[float], umb: UmbilicData, end: bool) -> np.ndarray:
        """The spherical flow of the leaf at every inner time of ss, (T, K, m)."""
        return _sphere_leaf_flow(self, Z, ss, umb.a**2 - 1.0, end).spherical

    def _mean_curvature(self, z: np.ndarray, umb: UmbilicData, pl: _AffinePlacement) -> np.ndarray:
        """The leaf's mean curvature in its sphere, pushed through the level's columns."""
        if self.is_point:
            return np.zeros(pl.J.shape[0])
        return pl.J @ (_leaf_euclidean_H(self, z) + (self.dim / (umb.a**2 - 1.0)) * z)

    def _to_json(self) -> dict:
        if self.is_point:
            return {"type": "point", "position": list(self.point_position)}
        return {"type": "product_of_spheres", "factors": [[p, s] for p, s in self.factors]}


@dataclass(frozen=True)
class EuclideanIso:
    """Flat R^k times an optional product of spheres inside Euclidean space.

    ``ambient_dim`` defaults to the coordinates the blocks occupy; a larger
    value pads with constant coordinates.  ``offset`` translates the whole
    configuration.  Totally geodesic (an affine subspace) iff there are no
    sphere factors.
    """

    flat_dim: int
    spheres: ProductOfSpheres | None = None
    offset: tuple[float, ...] | None = None
    ambient_dim: int | None = None

    def __post_init__(self):
        if self.flat_dim < 0:
            raise InvalidArgumentError("flat_dim must be >= 0")
        if self.spheres is not None and self.spheres.is_point:
            raise InvalidArgumentError("use offset, not a point leaf, to translate a Euclidean flat")
        base = self.flat_dim + (self.spheres.coords_dim if self.spheres else 0)
        amb = base if self.ambient_dim is None else int(self.ambient_dim)
        if amb < base:
            raise InvalidArgumentError(f"ambient_dim {amb} cannot hold the blocks ({base})")
        object.__setattr__(self, "ambient_dim", amb)
        if self.offset is not None:
            off = tuple(float(v) for v in self.offset)
            if len(off) != amb or not all(map(math.isfinite, off)):
                raise InvalidArgumentError(f"euclidean.offset must be {amb} finite numbers, got {off!r}")
            object.__setattr__(self, "offset", off)

    @property
    def dim(self) -> int:
        return self.flat_dim + (self.spheres.dim if self.spheres else 0)

    @property
    def offset_array(self) -> np.ndarray:
        if self.offset is None:
            return np.zeros(self.ambient_dim)
        return np.asarray(self.offset, dtype=float)

    def _level_facts(self, umb: UmbilicData):
        s = self.spheres
        box = (_FLAT_BOX,) * self.flat_dim + (() if s is None else _sphere_box(s))
        return self.dim, box, s is None, s is None or _leaf_flat(s), None if s is None else _leaf_euclidean_collapse(s)

    def _chart_rows(self, U: np.ndarray, umb: UmbilicData) -> np.ndarray:
        w = np.tile(self.offset_array, (U.shape[0], 1))
        k = self.flat_dim
        w[:, :k] += U[:, :k]
        if self.spheres is not None:
            w[:, k : k + self.spheres.coords_dim] += _leaf_immersion(self.spheres, U[:, k:], None)
        return w

    def _check_rows(self, Z: np.ndarray, umb: UmbilicData) -> None:
        """Sphere blocks about the offset, padding coordinates at it."""
        rel = Z - self.offset_array
        k = self.flat_dim
        if self.spheres is not None:
            k += self.spheres.coords_dim
            _check_leaf_rows(self.spheres, rel[:, self.flat_dim : k], None)
        if np.any(np.abs(rel[:, k:]) > _POINT_TOL):
            raise DomainError("padding coordinates of the Euclidean configuration are away from its offset")

    def _flow_rows(self, Z: np.ndarray, ss: list[float], umb: UmbilicData, end: bool) -> np.ndarray:
        """The Euclidean flow at every inner time of ss, (T, K, m): sphere blocks shrink about the offset."""
        Zt = np.broadcast_to(Z, (len(ss),) + Z.shape).copy()
        if self.spheres is not None:
            block = slice(self.flat_dim, self.flat_dim + self.spheres.coords_dim)
            off = self.offset_array[block]
            Zt[..., block] = off + (Z[:, block] - off) * _leaf_column_scales(self.spheres, ss, end)[:, None, :]
        return Zt

    def _mean_curvature(self, z: np.ndarray, umb: UmbilicData, pl: _HorosphericalPlacement) -> np.ndarray:
        """Euclidean mean curvature of the sphere blocks, pushed through the horospherical chart."""
        Hw = np.zeros_like(z)
        if self.spheres is not None:
            block = slice(self.flat_dim, self.flat_dim + self.spheres.coords_dim)
            Hw[block] = _leaf_euclidean_H(self.spheres, (z - self.offset_array)[block])
        return pl.W @ Hw - (float(np.dot(z, Hw)) / pl.a) * pl.xi

    def _to_json(self) -> dict:
        return {
            "type": "euclidean",
            "flat_dim": self.flat_dim,
            "spheres": self.spheres._to_json() if self.spheres else None,
            "offset": list(self.offset) if self.offset else None,
            "ambient_dim": self.ambient_dim,
        }


# ---------------------------------------------------------------------------
# descriptor variants


@dataclass(frozen=True)
class Ambient:
    """The whole hyperboloid H^m(-r) as a codimension-0 submanifold."""

    m: int
    r: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgumentError(f"bad ambient H^{self.m}(-{self.r}): ambient.m must be at least 1")
        if not 0 < self.r < math.inf:
            raise InvalidArgumentError(f"bad ambient H^{self.m}(-{self.r}): ambient.r must be positive and finite")


@dataclass(frozen=True)
class FullProduct:
    """H^l(-r) x leaf inside H^m(-1), m = l + leaf coordinates."""

    l: int
    r: float
    leaf: ProductOfSpheres

    def __post_init__(self):
        if self.l < 1:
            raise InvalidArgumentError("the Lorentz factor needs l >= 1")
        if not 1 <= self.r < math.inf:
            raise InvalidArgumentError(f"a full product requires a finite full_product.r >= 1, got {self.r!r}")
        if not self.leaf.is_point:
            if self.r <= 1:
                raise InvalidArgumentError("a non-point leaf requires r > 1")
            if abs(self.leaf.ambient_radius2 - (self.r - 1.0)) > 1e-9:
                raise InvalidArgumentError(
                    f"leaf fills a sphere of squared radius {self.leaf.ambient_radius2}, "
                    f"but r - 1 = {self.r - 1.0}"
                )


@dataclass(frozen=True)
class Umbilic:
    """A submanifold of the umbilical hypersurface {<x, xi> = a} in H^m(-1)."""

    umb: UmbilicData
    inner: Union["Ambient", "FullProduct", "Umbilic", ProductOfSpheres, EuclideanIso]

    def __post_init__(self):
        umb, inner = self.umb, self.inner
        m = umb.m
        if umb.kind == "hyperbolic":
            if not isinstance(inner, (Ambient, FullProduct, Umbilic)):
                raise InvalidArgumentError("a hyperbolic hypersurface needs a hyperbolic descriptor inside")
            inner_m = dimensions(inner).m
            if inner_m != m - 1:
                raise InvalidArgumentError(f"inner ambient dimension {inner_m} != {m - 1}")
            if isinstance(inner, Ambient) and abs(inner.r - 1.0) > 0:
                raise InvalidArgumentError("the inner hyperbolic model is normalized to curvature -1")
        elif umb.kind == "spherical":
            if not isinstance(inner, ProductOfSpheres):
                raise InvalidArgumentError("a spherical hypersurface needs a product of spheres inside")
            if inner.coords_dim != m:
                raise InvalidArgumentError(f"leaf occupies {inner.coords_dim} coordinates, expected {m}")
            want = umb.a**2 - 1.0
            if not inner.is_point and abs(inner.ambient_radius2 - want) > 1e-9:
                raise InvalidArgumentError(
                    f"leaf squared radius {inner.ambient_radius2} != a^2 - 1 = {want}"
                )
        else:
            if not isinstance(inner, EuclideanIso):
                raise InvalidArgumentError("a Euclidean hypersurface needs a Euclidean configuration inside")
            if inner.ambient_dim != m - 1:
                raise InvalidArgumentError(f"Euclidean ambient {inner.ambient_dim} != {m - 1}")
        n = dimensions(self).n
        if not (0 <= n < m):
            raise InvalidArgumentError(f"umbilic level requires 0 <= n < m, got n={n}, m={m}")


IsoDescriptor = Union[Ambient, FullProduct, Umbilic]


# ---------------------------------------------------------------------------
# static facts: one plan per descriptor level


class Dimensions(NamedTuple):
    n: int
    m: int
    codim: int


class ShapeFlags(NamedTuple):
    minimal: bool
    totally_geodesic: bool
    intrinsically_flat: bool


@dataclass(frozen=True)
class ExistenceWindow:
    """Maximal times of one descriptor's flows; None marks an unbounded end.

    ``t_prime`` is the maximal time of the flow inside the wrapping model
    (inner hyperbolic, spherical leaf, or Euclidean), ``t_dprime`` the
    Lorentzian collapse bound, ``t_max`` the hyperbolic maximal time
    ln(1 + 2n t_dprime)/(2n), ``t_alpha`` the backward gauge limit of the
    inner time (None when the level is a geodesic wrapper and the limit
    chains into ``inner``), and ``lorentz_lower`` the conversion bound
    -r/(2n) below which Lorentzian times have no hyperbolic counterpart.
    """

    t_prime: float | None
    t_dprime: float | None
    t_max: float | None
    t_alpha: float | None
    lorentz_lower: float | None
    inner: "ExistenceWindow | None" = None


_ANGLE_POLAR = (0.35, math.pi - 0.35)
_ANGLE_AZIMUTH = (-math.pi + 0.3, math.pi - 0.3)
_FLAT_BOX = (-1.2, 1.2)


def _sphere_box(leaf: ProductOfSpheres) -> tuple[tuple[float, float], ...]:
    return tuple(b for p, _ in leaf.factors for b in (_ANGLE_POLAR,) * (p - 1) + (_ANGLE_AZIMUTH,))


def _leaf_flat(leaf: ProductOfSpheres) -> bool:
    return all(p <= 1 for p, _ in leaf.factors)


def _leaf_euclidean_collapse(leaf: ProductOfSpheres) -> float | None:
    if leaf.is_point:
        return None
    return min(s / (2.0 * p) for p, s in leaf.factors)


def _leaf_spherical_collapse(leaf: ProductOfSpheres, radius2: float) -> float | None:
    """Maximal time of the spherical gauge of the leaf flow; None if stationary (a point, or minimal)."""
    if leaf.is_point:
        return None
    ratio = leaf.ambient_radius2 / leaf.dim
    if all(abs(s / p - ratio) <= 1e-12 * max(1.0, ratio) for p, s in leaf.factors):
        return None
    # the Euclidean-to-spherical leaf time -(R^2/2n') ln(1 - 2n't/R^2) at the Euclidean collapse
    te = _leaf_euclidean_collapse(leaf)
    arg = 1.0 - 2.0 * leaf.dim * te / radius2
    if arg <= 0:
        raise TimeOutOfRangeError(f"q logarithm argument {arg:.3e} <= 0 at t={te}")
    return -(radius2 / (2.0 * leaf.dim)) * math.log(arg)


class _Plan(NamedTuple):
    """The static facts of one descriptor level; an umbilic level also holds its placement, and its run if it starts one."""

    dims: Dimensions
    box: tuple[tuple[float, float], ...]
    shape: ShapeFlags
    window: ExistenceWindow
    lorentz_range: tuple[float | None, float | None]
    placement: _AffinePlacement | _HorosphericalPlacement | None = None
    run: _LevelRun | None = None


def _plan(d) -> _Plan:
    """The plan of d, built on first use and kept on the instance.

    It is an attribute outside the dataclass fields, so equality, hashing,
    ``repr`` and the JSON form never see it; ``dataclasses.replace`` makes a
    new instance, which builds its own.  An umbilic level builds it in its
    constructor, so a descriptor tree has its plans once it is built.  The
    plan is a function of the frozen fields alone, so threads that build it
    at once build equal plans and need no lock.
    """
    plan = getattr(d, "_plan", None)
    if plan is None:
        plan = _build_plan(d)
        object.__setattr__(d, "_plan", plan)
    return plan


def _build_plan(d) -> _Plan:
    """Every static fact of d from its own fields and the plan of its inner level.

    The one walk over descriptor kinds for these facts.  An umbilic level
    reads its inner descriptor's plan instead of recursing, so each fact is
    evaluated once per level.
    """
    if isinstance(d, Ambient):
        lower = -d.r / (2.0 * d.m)
        window = ExistenceWindow(None, None, None, None, lower)
        return _Plan(Dimensions(d.m, d.m, 0), (_FLAT_BOX,) * d.m, ShapeFlags(True, True, d.m <= 1), window, (lower, None))
    if isinstance(d, FullProduct):
        leaf = d.leaf
        n, m = d.l + leaf.dim, d.l + leaf.coords_dim
        tg = leaf.is_point and abs(d.r - 1.0) <= 1e-12
        t_dprime = _leaf_euclidean_collapse(leaf)
        t_prime = _leaf_spherical_collapse(leaf, d.r - 1.0)
        t_max = None if t_dprime is None else math.log1p(2.0 * n * t_dprime) / (2.0 * n)
        window = ExistenceWindow(t_prime, t_dprime, t_max, None, -1.0 / (2.0 * n))
        shape = ShapeFlags(tg, tg, d.l <= 1 and _leaf_flat(leaf))
        return _Plan(Dimensions(n, m, m - n), (_FLAT_BOX,) * d.l + _sphere_box(leaf), shape, window, (-d.r / (2.0 * d.l), t_dprime))
    if not isinstance(d, Umbilic):
        raise InvalidArgumentError(f"not a descriptor: {type(d).__name__}")
    umb, inner = d.umb, d.inner
    # from the by-value cache, so equal levels (a tree loaded again from JSON) share one placement
    placement = _umbilic_placement(umb)
    inner_window = run = None
    if umb.kind == "hyperbolic":
        plan = _plan(inner)
        run = _level_run(placement, inner, plan.run)
        n, box, inner_window = plan.dims.n, plan.box, plan.window
        inner_tg, inner_flat = plan.shape.totally_geodesic, plan.shape.intrinsically_flat
        # alpha < 1 on a hyperbolic level
        t_prime = None if inner_window.t_max is None else (1.0 / umb.one_minus_alpha2) * inner_window.t_max
    else:
        n, box, inner_tg, inner_flat, t_prime = inner._level_facts(umb)
    tg = umb.totally_geodesic and inner_tg
    dims, shape = Dimensions(n, umb.m, umb.m - n), ShapeFlags(tg, tg, inner_flat)
    if n == 0:
        return _Plan(dims, box, shape, ExistenceWindow(None, None, None, None, None), (None, None), placement, run)
    alpha, one = umb.alpha, umb.one_minus_alpha2
    if umb.kind == "euclidean":
        t_dprime = t_prime
        t_alpha = -1.0 / (2.0 * n)
    else:
        if t_prime is None:
            t_dprime = None if umb.kind == "hyperbolic" else -1.0 / (2.0 * n * one)
        else:
            t_dprime = math.expm1(2.0 * n * one * t_prime) / (2.0 * n * one)
        t_alpha = None if umb.totally_geodesic else math.log(alpha**2) / (2.0 * n * one)
    t_max = None if t_dprime is None else math.log1p(2.0 * n * t_dprime) / (2.0 * n)
    window = ExistenceWindow(t_prime, t_dprime, t_max, t_alpha, -1.0 / (2.0 * n), inner_window)
    lower = -1.0 / (2.0 * n * one) if umb.kind == "hyperbolic" else None
    return _Plan(dims, box, shape, window, (lower, t_dprime), placement, run)


def dimensions(d) -> Dimensions:
    """Submanifold dimension, ambient dimension and codimension."""
    return _plan(d).dims


def chart_box(d) -> list[tuple[float, float]]:
    """Per-coordinate sampling box of the canonical chart."""
    return list(_plan(d).box)


def classify_shape(d) -> ShapeFlags:
    """Minimality, total geodesy and intrinsic flatness from the closed form.

    For this construction universe minimal and totally geodesic coincide:
    every non-geodesic level contributes a nonzero normal mean curvature
    component that nothing downstream can cancel.
    """
    return _plan(d).shape


def existence_window(d) -> ExistenceWindow:
    """Existence window of a descriptor's flows, chained through its inner levels."""
    return _plan(d).window


def _is_stationary(d) -> bool:
    """Whether the hyperbolic flow of d is stationary: totally geodesic, or a point (n = 0).

    The one predicate of the hyperbolic flow, which returns such rows
    unchanged, and of the limits, which call both of them stationary.
    """
    plan = _plan(d)
    return plan.shape.totally_geodesic or plan.dims.n == 0


# ---------------------------------------------------------------------------
# charts


# The chart helpers below work on rows, a (K, k) array of chart parameters.
# Each row gets the arithmetic the one-point chart always had, so a row
# gives the same bits alone as in any batch: reductions go through a stacked
# matmul, which runs the same BLAS dot/gemv kernel per row as the 1-d call,
# and sinh, cosh, sin and cos come from ``math`` per entry, because numpy's
# vectorized versions differ from them in the last bit for some inputs.


def _row_dots(A: np.ndarray) -> np.ndarray:
    """Euclidean |a|^2 of every row, with the kernel of ``np.dot(a, a)``."""
    return np.matmul(A[..., None, :], A[..., :, None])[..., 0, 0]


def _hyperbolic_chart(S: np.ndarray, r: float) -> np.ndarray:
    """Polar chart R^l -> H^l(-r) on rows, Lorentz coordinates with time last."""
    q = np.sqrt(_row_dots(S))
    qs = q.tolist()
    out = np.empty((S.shape[0], S.shape[1] + 1))
    # sinh(q)/q, and 1 + q^2/6 where |q| < 1e-6: the IEEE operations of the scalar forms
    small = q < 1e-6
    sinhc = np.array(list(map(math.sinh, qs))) / np.where(small, 1.0, q)
    sinhc[small] = 1.0 + q[small] * q[small] / 6.0
    out[:, :-1] = sinhc[:, None] * S
    out[:, -1] = list(map(math.cosh, qs))
    return math.sqrt(r) * out


def _sphere_chart(angles: np.ndarray, radius2: float) -> np.ndarray:
    """Polar angles -> points of S^p(radius2) in R^(p+1), on rows."""
    K, p = angles.shape
    cols = angles.T.tolist()
    x = np.empty((K, p + 1))
    x[:, 0] = list(map(math.cos, cols[0]))
    sin_prod = np.array(list(map(math.sin, cols[0])))
    for i in range(1, p):
        x[:, i] = sin_prod * np.array(list(map(math.cos, cols[i])))
        sin_prod = sin_prod * np.array(list(map(math.sin, cols[i])))
    x[:, p] = sin_prod
    return math.sqrt(radius2) * x


def _leaf_immersion(leaf: ProductOfSpheres, U: np.ndarray, ambient_radius2: float | None) -> np.ndarray:
    if leaf.is_point:
        pos = math.sqrt(max(ambient_radius2, 0.0)) * np.asarray(leaf.point_position, dtype=float)
        return np.tile(pos, (U.shape[0], 1))
    blocks, k = [], 0
    for p, s in leaf.factors:
        blocks.append(_sphere_chart(U[:, k : k + p], s))
        k += p
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


# placement of a full product: V occupies the first l and last coordinates


def _product_assemble(d: FullProduct, xv: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Place Lorentz and leaf blocks; one point, or rows along the last axis."""
    return np.concatenate([xv[..., :-1], y, xv[..., -1:]], axis=-1)


def _product_split(d: FullProduct, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lorentz block (time last) and leaf block of one point, without checks."""
    return np.concatenate([x[: d.l], [x[-1]]]), x[d.l : -1]


def _check_product_rows(d: FullProduct, X: np.ndarray) -> None:
    """Product membership of every row of X, the product level of ``_validate_levels``.

    The Lorentz block must lie on the upper sheet of H^l(-r), within
    ``_POINT_TOL``, and the leaf block on the leaf (``_check_leaf_rows``);
    otherwise DomainError.
    """
    V = np.concatenate([X[:, : d.l], X[:, -1:]], axis=1)
    q = np.sum(V[:, :-1] ** 2, axis=1) - V[:, -1] ** 2
    if np.any((np.abs(q + d.r) > _POINT_TOL * max(1.0, d.r)) | (V[:, -1] <= 0)):
        raise DomainError("Lorentz block is not on the upper sheet of H^l(-r)")
    _check_leaf_rows(d.leaf, X[:, d.l : -1], d.r - 1.0)


def _check_leaf_rows(leaf: ProductOfSpheres, Y: np.ndarray, radius2: float | None) -> None:
    """Leaf membership of every row of Y, within ``_POINT_TOL``; otherwise DomainError.

    Each factor block must lie on its sphere; a point leaf must sit at its
    fixed position on the sphere of squared radius ``radius2`` that holds it,
    as ``_leaf_immersion`` places it.
    """
    if leaf.is_point:
        want = math.sqrt(max(radius2, 0.0)) * np.asarray(leaf.point_position)
        if np.any(np.abs(Y - want) > _POINT_TOL):
            raise DomainError("point leaf block is away from its fixed position")
        return
    k = 0
    for p, s in leaf.factors:
        block = Y[:, k : k + p + 1]
        if np.any(np.abs(np.sum(block * block, axis=1) - s) > _POINT_TOL * max(1.0, s)):
            raise DomainError(f"leaf factor block has squared radius != {s}")
        k += p + 1


# leaf flows: sphere factor blocks scale about the origin of their block


class SphereLeafFlow(NamedTuple):
    spherical: np.ndarray
    euclidean: np.ndarray
    euclidean_time: float


def _leaf_column_scales(leaf: ProductOfSpheres, ts: list[float], end: bool = False) -> np.ndarray:
    """Euclidean flow of a leaf as column scales, (T, coords) for the times ts.

    Each factor block scales by sqrt(1 - 2 p t / s); at the endpoint
    (``end``) a radicand that vanishes is taken as zero.  A collapse names
    the first time in list order, then the first factor at it.
    """
    if leaf.is_point:
        return np.ones((len(ts), len(leaf.point_position)))
    p, s = np.array(leaf.factors).T
    with np.errstate(over="ignore"):
        rad = 1.0 - 2.0 * p * np.array(ts)[:, None] / s
    if end:
        np.maximum(rad, 0.0, out=rad)
    elif (rad <= 0.0).any():
        k, i = np.argwhere(rad <= 0.0)[0]
        p_i, s_i = leaf.factors[i]
        raise TimeOutOfRangeError(f"sphere factor S^{p_i}({s_i}) collapsed before t={ts[k]}")
    return np.repeat(np.sqrt(rad, out=rad), p.astype(int) + 1, axis=1)


def _sphere_leaf_flow(leaf: ProductOfSpheres, Y: np.ndarray, ss: list[float], R2: float, end: bool = False) -> SphereLeafFlow:
    """The leaf flow of Y at every spherical time of ss: arrays gain a leading time axis, times are a list.

    The spherical flow inside S^N(R^2) is recovered from the Euclidean one by
    f_2(y, s) = e^(n' s / R^2) F_2(y, t(s)) with
    t(s) = (R^2 / 2n')(1 - e^(-2 n' s / R^2)).  Points and minimal products
    are stationary.
    """
    if leaf.is_point:
        still = np.broadcast_to(Y, (len(ss),) + Y.shape)
        return SphereLeafFlow(still.copy(), still.copy(), [0.0] * len(ss))
    n1 = leaf.dim
    te = [(R2 / (2.0 * n1)) * -math.expm1(-2.0 * n1 * s / R2) for s in ss]
    lead = (len(ss),) + (1,) * (Y.ndim - 1)
    eu = Y * _leaf_column_scales(leaf, te, end).reshape(lead + (Y.shape[-1],))
    growth = np.array([math.exp(n1 * s / R2) for s in ss]).reshape(lead + (1,))
    return SphereLeafFlow(growth * eu, eu, te)


# placement of an umbilic level: deterministic orthonormal complement of xi


def _complement_basis(span: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of the complement of mutually orthogonal, non-null span vectors."""
    dim = span[0].size
    cand = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        v = e.copy()
        for w in span:
            v -= (minkowski_inner(v, w) / minkowski_inner(w, w)) * w
        cand.append(v)
    # candidate rows: the stacked matmuls give each row the bits of ``minkowski_inner`` (see ``_row_dots``)
    C = np.array(cand)
    basis: list[np.ndarray] = []
    need = dim - len(span)
    for _ in range(need):
        # against the newest basis vector only: earlier rounds took the others out of every candidate
        if basis:
            u = basis[-1]
            ip = np.matmul(C[:, None, :-1], u[:-1, None])[:, 0, 0] - C[:, -1] * u[-1]
            C -= (ip / minkowski_inner(u, u))[:, None] * u
        k = int(np.argmax(np.abs(_row_dots(C[:, :-1]) - C[:, -1] * C[:, -1])))
        v = C[k].copy()
        C = np.delete(C, k, axis=0)
        q = minkowski_inner(v, v)
        if abs(q) < 1e-12:
            raise InvalidArgumentError("degenerate complement while placing an umbilic level")
        basis.append(v / math.sqrt(abs(q)))
    return basis


# Each placement holds G, the signed transpose of its columns: G @ rel are
# the signature products <rel, b> with the columns b, which split a point.
# Each matrix also comes as a row gather when every row has at most one
# non-zero entry, as every level with an axis-aligned xi has; such a
# matrix applies to rows by one ``np.take`` instead of a gemv per row.
# A run is a chain of consecutive geodesic levels (x = J z) whose gathers
# hold only 0 and +-1.  Composed, such gathers are again one: each row
# copies one entry, times a product of 0 and +-1, plus +0.0, which are the
# bits the levels give one at a time.  The plan of each level of a run
# holds the run's composed J and G from that level down, so the level
# walks cross the whole run in one gather each way.


class _RowGather(NamedTuple):
    """M z for a matrix M with at most one non-zero entry per row: z[cols] * coef, row by row."""

    cols: np.ndarray       # column of each row's entry; 0 on a zero row
    coef: np.ndarray       # the entry, 0.0 on a zero row


def _row_gather(M: np.ndarray) -> _RowGather | None:
    """M as a row gather, or None when some row has two non-zero entries."""
    nz = M != 0.0
    if np.any(np.count_nonzero(nz, axis=1) > 1):
        return None
    cols = np.argmax(nz, axis=1)
    return _RowGather(cols, M[np.arange(M.shape[0]), cols])


def _apply_rows(M: np.ndarray, gather: _RowGather | None, Z: np.ndarray) -> np.ndarray:
    """M z for one point z or every row z along the last axis of Z, as a new array.

    A dense M is one stacked matmul, which sums each row from zero with the
    kernel of the 1-d product.  A gather takes each row's one entry and adds
    +0.0, so an exact zero reads +0.0 as that zero-started sum gives it: the
    two agree bit for bit on finite rows.  Past them the gather keeps an
    infinite entry that the sum's 0 * inf turns into NaN.
    """
    if gather is None:
        return np.matmul(M, Z[..., None])[..., 0]
    return _gather_rows(gather, Z)


def _gather_rows(gather: _RowGather, Z: np.ndarray) -> np.ndarray:
    out = np.take(Z, gather.cols, axis=-1, mode="clip")  # C-ordered, as the matmul; every column is in range
    out *= gather.coef
    out += 0.0
    return out


def _compose(outer: _RowGather, inner: _RowGather) -> _RowGather:
    """The gather of z -> outer(inner(z)); with unit coefficients it gives the bits of the two in turn."""
    return _RowGather(inner.cols[outer.cols], inner.coef[outer.cols] * outer.coef)


def _unit_gather(gather: _RowGather | None) -> bool:
    return gather is not None and bool(np.all((gather.coef == 0.0) | (np.abs(gather.coef) == 1.0)))


class _LevelRun(NamedTuple):
    """A run from one level down: x = J z and z = G x across all its levels, for z in ``below``."""

    below: object          # the first descriptor below the run
    J_rows: _RowGather
    G_rows: _RowGather


def _level_run(pl: _AffinePlacement, inner, inner_run: _LevelRun | None) -> _LevelRun | None:
    """The run that starts at a hyperbolic level, from its placement and the run of its inner level; None off a run."""
    if not (pl.linear and _unit_gather(pl.J_rows) and _unit_gather(pl.G_rows)):
        return None
    if inner_run is None:
        return _LevelRun(inner, pl.J_rows, pl.G_rows)
    return _LevelRun(inner_run.below, _compose(pl.J_rows, inner_run.J_rows), _compose(inner_run.G_rows, pl.G_rows))


class _AffinePlacement(NamedTuple):  # x = eta + scale J z
    J: np.ndarray          # (m+1, m) columns: m-1 spacelike then 1 future timelike, or m spacelike
    scale: float           # sqrt(R), R = 1/(1 - alpha^2); 1.0 on a spherical level, exact both ways
    eta: np.ndarray
    G: np.ndarray
    J_rows: _RowGather | None
    G_rows: _RowGather | None
    linear: bool           # a geodesic level: scale 1.0 and eta 0, so x = J z


class _HorosphericalPlacement(NamedTuple):
    x0: np.ndarray         # base point of the horospherical chart
    W: np.ndarray          # (m+1, m-1) spacelike columns, orthogonal to xi and x0
    xi: np.ndarray
    a: float
    G: np.ndarray
    W_rows: _RowGather | None
    G_rows: _RowGather | None


def _signed_transpose(B: np.ndarray, timelike_last: bool) -> np.ndarray:
    """G with G @ rel = <rel, b> for the columns b of B; the last has <b, b> = -1 if ``timelike_last``."""
    G = B.T.copy()
    G[:, -1] = -G[:, -1]  # <rel, b> = rel . b with the time entry of b negated
    if timelike_last:
        G[-1] = -G[-1]
    return G


def _affine_placement(umb: UmbilicData, J: np.ndarray, scale: float, timelike_last: bool) -> _AffinePlacement:
    G = _signed_transpose(J, timelike_last)
    return _AffinePlacement(J, scale, umb.eta_array, G, _row_gather(J), _row_gather(G), umb.totally_geodesic)


@lru_cache(maxsize=None)
def _umbilic_placement(umb: UmbilicData):
    """The frame of an umbilic hypersurface, cached by value; a level's plan holds it."""
    xi = umb.xi_array
    m = umb.m
    if umb.kind == "hyperbolic":
        cols = _complement_basis([xi])
        timelike = [v for v in cols if minkowski_inner(v, v) < 0]
        spacelike = [v for v in cols if minkowski_inner(v, v) > 0]
        if len(timelike) != 1 or len(spacelike) != m - 1:
            raise InvalidArgumentError("complement of a spacelike xi must have signature (m-1, 1)")
        t = timelike[0]
        R = 1.0 / umb.one_minus_alpha2
        eta = umb.eta_array
        base = eta + math.sqrt(R) * t
        if base[-1] <= 0:
            t = -t
        return _affine_placement(umb, np.column_stack(spacelike + [t]), math.sqrt(R), True)
    if umb.kind == "spherical":
        cols = _complement_basis([xi])
        if any(minkowski_inner(v, v) < 0 for v in cols):
            raise InvalidArgumentError("complement of a timelike xi must be spacelike")
        return _affine_placement(umb, np.column_stack(cols), 1.0, False)
    # euclidean: horospherical chart around a canonical base point; the span
    # of {xi, x0} is projected out through the orthogonal pair {x0, xi/a + x0}
    # because the null xi itself cannot normalize a projection
    a = umb.a
    nu = np.concatenate([-xi[:-1], [xi[-1]]])
    x0 = -xi / (2.0 * a) - (a / (2.0 * xi[-1] ** 2)) * nu
    zeta = xi / a + x0
    # x0 grows like a, so for a large a the pair's <w, w> (-1 and +1 exactly)
    # can round to 0 or overflow, and its products round like a^2: the
    # columns then leave the complement of span{xi, nu} = span{x0, zeta},
    # and the chart its level, long before that
    with np.errstate(all="ignore"):
        norms = [minkowski_inner(w, w) for w in (x0, zeta)]
        off = math.inf
        if all(0.0 < abs(q) < math.inf for q in norms):
            try:
                W = np.column_stack(_complement_basis([x0, zeta]))
            except InvalidArgumentError:
                pass  # a complement lost to rounding has no columns on it: off stays inf
            else:
                G = _signed_transpose(W, False)
                # <w, xi> and <w, nu> for every column w, on the scale of xi and nu
                off = float(np.max(np.abs(G @ np.column_stack([xi, nu])))) / abs(xi[-1])
    if not off <= _POINT_TOL:
        raise InvalidArgumentError(
            f"umbilic.a = {a!r} is too large for a euclidean level: the horospherical chart's "
            f"span vectors have <w,w> = {norms[0]!r}, {norms[1]!r} (exactly -1 and +1), and its "
            f"columns leave the complement of xi and nu by {off:.3e}"
        )
    return _HorosphericalPlacement(x0, W, xi, a, G, _row_gather(W), _row_gather(G))


def _umbilic_embed(d: Umbilic, inner_point: np.ndarray) -> np.ndarray:
    """Map inner-model points into H^m(-1) through the level's placement.

    Takes one point or rows along the last axis; a row gives the same bits
    either way (see ``_row_dots``), and the same whether the placement
    applies as a gather or a matmul (``_apply_rows``).
    """
    pl = _plan(d).placement
    if isinstance(pl, _AffinePlacement):
        x = _apply_rows(pl.J, pl.J_rows, inner_point)
        if not pl.linear:  # x holds no -0.0, so a geodesic level's 1.0 and 0 would leave every bit
            x *= pl.scale
            x += pl.eta
        return x
    w = inner_point
    shift = (_row_dots(w) / (2.0 * pl.a))[..., None] * pl.xi
    x = _apply_rows(pl.W, pl.W_rows, w)
    x += pl.x0
    x -= shift
    return x


def _umbilic_split_rows(d: Umbilic, X: np.ndarray) -> np.ndarray:
    """Inner-model coordinates of ambient points, without membership checks.

    Takes one point or rows along the last axis.  The signature products
    with the placement columns are the placement's G applied to each row
    (``_apply_rows``), as in ``_umbilic_embed``, so a row gives the same
    bits alone as in any batch.
    """
    pl = _plan(d).placement
    if isinstance(pl, _AffinePlacement):
        # on a geodesic level X - 0 and / 1.0 change at most the sign of a zero, which the products drop
        rel = X if pl.linear else (X - pl.eta) / pl.scale
    else:
        rel = X - pl.x0
    return _apply_rows(pl.G, pl.G_rows, rel)


def _umbilic_columns(d: Umbilic, C: np.ndarray) -> np.ndarray:
    """J C on rows of an affine level: its placement's columns without scale or center."""
    pl = _plan(d).placement
    return _apply_rows(pl.J, pl.J_rows, C)


# The level walks (``flow._flow_rows``, ``_validate_levels``, ``_immerse``)
# loop over ``_levels``.  Across a run the three maps below are one gather
# each; elsewhere they are the level's own.


def _levels(d):
    """The levels the walks visit, top first: d, then ``_below`` each hyperbolic umbilic level (past the whole run it starts), down to the first other descriptor."""
    while isinstance(d, Umbilic) and d.umb.kind == "hyperbolic":
        yield d
        d = _below(d)
    yield d


def _below(d: Umbilic):
    """The inner level of d, or the first descriptor below the run that d starts."""
    run = _plan(d).run
    return d.inner if run is None else run.below


def _split_across(d: Umbilic, X: np.ndarray) -> np.ndarray:
    """Coordinates in ``_below(d)`` of ambient points: ``_umbilic_split_rows`` of every level down to it."""
    run = _plan(d).run
    return _umbilic_split_rows(d, X) if run is None else _gather_rows(run.G_rows, X)


def _embed_across(d: Umbilic, Z: np.ndarray) -> np.ndarray:
    """Points of ``_below(d)`` in H^m(-1): ``_umbilic_embed`` of every level up from it."""
    run = _plan(d).run
    return _umbilic_embed(d, Z) if run is None else _gather_rows(run.J_rows, Z)


def _columns_across(d: Umbilic, C: np.ndarray) -> np.ndarray:
    """``_umbilic_columns`` of every level up from ``_below(d)``; a run's levels are linear, so its columns are its embedding."""
    run = _plan(d).run
    return _umbilic_columns(d, C) if run is None else _gather_rows(run.J_rows, C)


def _quadric_rows(d, X) -> np.ndarray:
    """X as float rows, refused unless every row is a finite point of the upper sheet of <x,x> = -r.

    The one quadric membership predicate of the rows: |<x,x> + r| at most
    max(1e-8 max(1, r), 1e-12 |x|^2), the second term being the rounding
    scale of the signature form at x.
    """
    Xv = np.atleast_2d(np.asarray(X, dtype=float))
    m = dimensions(d).m
    if Xv.ndim != 2 or Xv.shape[1] != m + 1:
        raise InvalidArgumentError(f"expected rows of length {m + 1}, got shape {Xv.shape}")
    r_top = _ambient_r(d)
    # rows too large to square give nan here, and nan fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.sum(Xv[:, :-1] ** 2, axis=1) - Xv[:, -1] ** 2
        tol = np.maximum(1e-8 * max(1.0, r_top), 1e-12 * np.sum(Xv * Xv, axis=1))
        on = (np.abs(q + r_top) <= tol) & (Xv[:, -1] > 0)
    if not (on.all() and np.isfinite(Xv).all()):
        raise InvalidArgumentError("rows are not on the ambient hyperboloid")
    return Xv


def _validate_rows(d, X) -> np.ndarray:
    """Every membership check of a point of d, on a whole batch; returns the rows of ``_quadric_rows``.

    Rows off the ambient quadric (``_quadric_rows``), on the lower sheet or
    not finite raise InvalidArgumentError.  Rows off any level of d, at any
    depth, raise DomainError: a product block, an umbilic
    hypersurface, an umbilic leaf, or the point of an n = 0 descriptor (the
    walk of ``_validate_levels``, which ``mean_curvature`` runs too).  The
    chart (``immerse_rows``) returns only rows that pass it, and the
    one-point flows check their point with it; the batch flows check only
    the quadric.
    """
    Xv = _quadric_rows(d, X)
    _validate_levels(d, Xv)
    return Xv


def _validate_levels(d, X: np.ndarray) -> None:
    """Membership of every row of X in the submanifold of d: the one membership walk.

    X holds rows already on the ambient quadric.  The walk visits the levels
    of the flow walk (``_levels``) and checks each: the blocks of a full
    product (``_check_product_rows``), the round trip of each umbilic
    hypersurface through its placement, and the leaf of an umbilic level:
    the factor spheres of a product of spheres, the fixed position of a
    point, and for a Euclidean configuration its sphere blocks about the
    offset and its padding coordinates at the offset.  A row off any level,
    by more than ``_POINT_TOL``, raises DomainError.  A run's round trip
    restores every coordinate its levels keep and zeros the ones they take
    out, each an exact copy of a coordinate of X, so it fails exactly when
    the round trip of one of its levels fails.
    """
    for level in _levels(d):
        if isinstance(level, Ambient):
            return
        if isinstance(level, FullProduct):
            _check_product_rows(level, X)
            return
        Z = _split_across(level, X)
        if np.any(np.abs(_embed_across(level, Z) - X) > _POINT_TOL):
            raise DomainError("point is not on the umbilical hypersurface of this level")
        if level.umb.kind != "hyperbolic":
            level.inner._check_rows(Z, level.umb)
        X = Z


def immerse(d, u) -> np.ndarray:
    """Evaluate the canonical chart of a descriptor at chart parameters u.

    A batch of one of ``immerse_rows``.
    """
    return immerse_rows(d, np.asarray(u, dtype=float).reshape(1, -1))[0]


def immerse_rows(d, U) -> np.ndarray:
    """The canonical chart at every row of a (K, n) array: (K, m+1) points.

    Row k has the same bits as ``immerse(d, U[k])``, whatever the batch.
    The rows pass every membership check of ``_validate_rows`` before they
    are returned, so no caller flows or differences a row off a level of d:
    a row off the ambient hyperboloid raises InvalidArgumentError, one off
    a level DomainError.  Finite chart parameters whose point leaves the
    range of doubles (past |u| of about 710 in a hyperbolic factor) raise
    InvalidArgumentError naming the first such row.
    """
    Uv = np.asarray(U, dtype=float)
    n = dimensions(d).n
    if Uv.ndim != 2:
        raise InvalidArgumentError(f"chart rows must form a 2-d array, got shape {Uv.shape}")
    if Uv.shape[1] != n:
        raise InvalidArgumentError(f"chart needs {n} parameters, got {Uv.shape[1]}")
    if not np.isfinite(Uv).all():
        raise InvalidArgumentError("chart parameters must be finite")
    return _validate_rows(d, _finite_chart(d, Uv))


def _finite_chart(d, U: np.ndarray) -> np.ndarray:
    """``_immerse(d, U)``, where a row that overflows ``math`` or numpy is refused with its chart parameters."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _immerse(d, U)
    except (OverflowError, FloatingPointError):
        pass
    for u in U[:-1]:  # rows are independent: the first one that overflows alone refuses itself
        _finite_chart(d, u[None])
    raise InvalidArgumentError(f"chart parameters {U[-1].tolist()} carry the chart out of the range of doubles")


def _immerse(d, U: np.ndarray) -> np.ndarray:
    """The chart of the bottom of ``_levels(d)`` at U, embedded through each level above it."""
    *above, bottom = _levels(d)
    if isinstance(bottom, Ambient):
        x = _hyperbolic_chart(U, bottom.r)
    elif isinstance(bottom, FullProduct):
        xv = _hyperbolic_chart(U[:, : bottom.l], bottom.r)
        x = _product_assemble(bottom, xv, _leaf_immersion(bottom.leaf, U[:, bottom.l :], bottom.r - 1.0))
    else:
        x = _embed_across(bottom, bottom.inner._chart_rows(U, bottom.umb))
    for level in reversed(above):
        x = _embed_across(level, x)
    return x


# ---------------------------------------------------------------------------
# closed-form mean curvature


class MeanCurvature(NamedTuple):
    hyperbolic: np.ndarray
    lorentzian: np.ndarray


def _leaf_euclidean_H(leaf: ProductOfSpheres, y: np.ndarray) -> np.ndarray:
    """Euclidean mean curvature of a product of spheres: -(p_i/s_i) per block."""
    if leaf.is_point:
        return np.zeros_like(y)
    H = np.empty_like(y)
    k = 0
    for p, s in leaf.factors:
        H[k : k + p + 1] = -(p / s) * y[k : k + p + 1]
        k += p + 1
    return H


def _hyperbolic_H(d, x: np.ndarray) -> np.ndarray:
    """Mean curvature of the descriptor's immersion inside H^m(-1) (or H^m(-r)) at a point x of it.

    A formula only: x must already have passed ``_validate_levels``.
    """
    if isinstance(d, Ambient):
        return np.zeros_like(x)
    n = dimensions(d).n
    if isinstance(d, FullProduct):
        xv, y = _product_split(d, x)
        HL = _product_assemble(d, (d.l / d.r) * xv, _leaf_euclidean_H(d.leaf, y))
        return HL - n * x
    umb, pl = d.umb, _plan(d).placement
    z = _umbilic_split_rows(d, x)
    if umb.kind == "hyperbolic":
        H1 = (pl.J @ _hyperbolic_H(d.inner, z)) / pl.scale
    else:
        H1 = d.inner._mean_curvature(z, umb, pl)
    return H1 - n * umb.alpha * (umb.alpha * x + umb.beta * umb.xi_array)


def _ambient_r(d) -> float:
    """The r of the ambient hyperboloid H^m(-r): ``d.r`` for ``Ambient``, 1 for every other descriptor."""
    return d.r if isinstance(d, Ambient) else 1.0


def mean_curvature(d, x) -> MeanCurvature:
    """Closed-form mean curvature at a point of the immersion.

    Returns both the hyperbolic vector H (tangent to the hyperboloid) and the
    Lorentzian vector H^L = H + (n/r) x of the same submanifold viewed in
    R^(m,1).  A point off the upper sheet of the ambient hyperboloid (by
    the one quadric predicate, ``_quadric_rows``, of the flows and the
    chart), or off any level of d (a product block, an umbilic
    hypersurface, an umbilic leaf, or the point of an n = 0 descriptor;
    the walk of ``_validate_levels``), raises DomainError.
    """
    dims = dimensions(d)
    xv = as_vector(x, dims.m)
    r_top = _ambient_r(d)
    try:
        _quadric_rows(d, xv[None, :])
    except InvalidArgumentError:
        raise DomainError("point is not on the ambient hyperboloid") from None
    _validate_levels(d, xv[None, :])
    H = _hyperbolic_H(d, xv)
    return MeanCurvature(hyperbolic=H, lorentzian=H + (dims.n / r_top) * xv)


# ---------------------------------------------------------------------------
# JSON wire format (tagged unions, keys lower_snake_case)


def descriptor_to_json(d) -> dict:
    if isinstance(d, Ambient):
        return {"type": "ambient", "m": d.m, "r": d.r}
    if isinstance(d, FullProduct):
        return {"type": "full_product", "l": d.l, "r": d.r, "leaf": d.leaf._to_json()}
    if isinstance(d, Umbilic):
        return {
            "type": "umbilic",
            "xi": [float(v) for v in d.umb.xi],
            "a": d.umb.a,
            "inner": descriptor_to_json(d.inner) if d.umb.kind == "hyperbolic" else d.inner._to_json(),
        }
    raise InvalidArgumentError(f"not a descriptor: {type(d).__name__}")


# Deepest nesting of descriptors (Ambient, FullProduct, Umbilic) that the JSON
# loader accepts; a geodesic chain of depth 24 is 25 deep.  The loader, the JSON
# writer and the closed-form mean curvature recurse once per level, so far deeper
# input would exhaust the interpreter's recursion limit instead of being refused.
MAX_DESCRIPTOR_DEPTH = 64


def descriptor_from_json(obj: dict):
    """A descriptor from its JSON form; malformed, non-integer or too deeply nested fields raise InvalidArgumentError."""
    return _descriptor_from_json(obj, 1)


def _json_int(value, field: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not truncated or parsed."""
    if type(value) is not int:
        raise InvalidArgumentError(f"{field} must be an integer, got {value!r}")
    return value


def _json_object(value, field: str) -> dict:
    """A JSON object; arrays, numbers, strings and null are refused."""
    if not isinstance(value, dict):
        raise InvalidArgumentError(f"{field} must be a JSON object, got {value!r}")
    return value


def _json_float(value, field: str) -> float:
    """A finite JSON number as a double; NaN, infinities, strings and booleans are refused, not parsed or read as 1.0 and 0.0."""
    if (type(value) is float and math.isfinite(value)) or (type(value) is int and abs(value) <= sys.float_info.max):
        return float(value)
    raise InvalidArgumentError(f"{field} must be a finite number in the range of doubles, got {value!r}")


def _json_array(value, field: str) -> list:
    """A JSON array; objects, numbers, strings and null are refused."""
    if not isinstance(value, (list, tuple)):
        raise InvalidArgumentError(f"{field} must be a JSON array, got {value!r}")
    return value


def _json_vector(value, field: str) -> tuple[float, ...]:
    """A JSON array of numbers as doubles, each element refused as by ``_json_float``."""
    return tuple(_json_float(v, f"{field}[{i}]") for i, v in enumerate(_json_array(value, field)))


def _descriptor_from_json(obj: dict, depth: int):
    if depth > MAX_DESCRIPTOR_DEPTH:
        raise InvalidArgumentError(f"descriptor JSON is nested deeper than {MAX_DESCRIPTOR_DEPTH} descriptors")
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidArgumentError("descriptor JSON must be a tagged object")
    tag = obj["type"]
    try:
        if tag == "ambient":
            return Ambient(_json_int(obj["m"], "ambient.m"), _json_float(obj.get("r", 1.0), "ambient.r"))
        if tag == "full_product":
            l, r = _json_int(obj["l"], "full_product.l"), _json_float(obj["r"], "full_product.r")
            return FullProduct(l, r, _leaf_from_json(obj["leaf"], "full_product.leaf"))
        if tag == "umbilic":
            return Umbilic(derive_umbilic(_json_vector(obj["xi"], "umbilic.xi"), _json_float(obj["a"], "umbilic.a")), _inner_from_json(obj["inner"], depth + 1))
    except KeyError as exc:
        raise InvalidArgumentError(f"descriptor JSON is missing field {exc}") from exc
    raise InvalidArgumentError(f"unknown descriptor type {tag!r}")


def _leaf_from_json(obj: dict, field: str) -> ProductOfSpheres:
    obj = _json_object(obj, field)
    if obj.get("type") == "point":
        return ProductOfSpheres(point_position=_json_vector(obj["position"], "point.position"))
    if obj.get("type") == "product_of_spheres":
        factors = []
        for i, pair in enumerate(_json_array(obj["factors"], "product_of_spheres.factors")):
            at = f"product_of_spheres.factors[{i}]"
            if len(_json_array(pair, at)) != 2:
                raise InvalidArgumentError(f"{at} must be a [dimension, radius] pair, got {pair!r}")
            factors.append((_json_int(pair[0], f"{at} dimension"), _json_float(pair[1], f"{at} radius")))
        return ProductOfSpheres(tuple(factors))
    raise InvalidArgumentError(f"{field}: unknown leaf type {obj.get('type')!r}")


def _inner_from_json(obj: dict, depth: int):
    tag = _json_object(obj, "umbilic.inner").get("type")
    if tag in ("point", "product_of_spheres"):
        return _leaf_from_json(obj, "umbilic.inner")
    if tag == "euclidean":
        ambient_dim = obj.get("ambient_dim")
        return EuclideanIso(
            flat_dim=_json_int(obj["flat_dim"], "euclidean.flat_dim"),
            spheres=_leaf_from_json(obj["spheres"], "euclidean.spheres") if obj.get("spheres") is not None else None,
            offset=_json_vector(obj["offset"], "euclidean.offset") if obj.get("offset") is not None else None,
            ambient_dim=None if ambient_dim is None else _json_int(ambient_dim, "euclidean.ambient_dim"),
        )
    return _descriptor_from_json(obj, depth)
