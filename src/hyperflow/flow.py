"""Closed-form mean curvature flow in both the Lorentzian and hyperbolic gauges.

For a submanifold M of H^m(-1) the two flows are linked by an explicit time
change: F(x,t) = sqrt(1 + 2nt/r) f(x, (r/2n) ln(1 + 2nt/r)) and conversely
f(x,t) = e^(-nt/r) F(x, (r/2n)(e^(2nt/r) - 1)).  The Lorentzian flow of the
descriptor grammar is assembled recursively:

* a minimal submanifold of H^m(-r) evolves by pure scaling sqrt(1 + 2nt/r);
* a full product evolves factorwise, with the spherical leaf following its
  Euclidean flow (squared factor radii shrink linearly, s_i - 2 p_i t);
* a submanifold of an umbilical hypersurface with invariant alpha evolves as
  F = sqrt(2nt(1-alpha^2)+1) (f_1(x, s_alpha(t)) - eta) + eta for alpha != 1
  and F = f_1(x,t) - n t beta xi in the degenerate horospherical case, where
  f_1 is the flow inside the hypersurface.

The hyperbolic gauge is evaluated through stable direct formulas and agrees
with the gauge composition to rounding.  Both flows have one evaluation path,
a recursion over rows of points (``_hyperbolic_flow_rows``,
``_lorentz_flow_rows``); a row gives the same bits alone as in any batch, and
the one-point entry points are validated batches of one.  Existence windows
collect the inner maximal time T', the Lorentzian bound T'', the hyperbolic
maximal time T and the backward gauge limit; unbounded times are represented
by None, never by a floating sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .descriptors import (
    Ambient,
    EuclideanIso,
    FullProduct,
    ProductOfSpheres,
    Umbilic,
    _POINT_TOL,
    _check_product_rows,
    _umbilic_embed,
    _umbilic_placement,
    _umbilic_split_rows,
    dimensions,
)
from .errors import DomainError, GaugeDomainError, InvalidArgumentError, TimeOutOfRangeError
from .lorentz import as_vector


# ---------------------------------------------------------------------------
# scalar time-gauge helpers


@dataclass(frozen=True)
class GaugeParams:
    """Scalar evaluators shared by the closed forms of one flow level.

    ``n`` is the submanifold dimension and ``r`` the squared radius of the
    relevant hyperboloid; ``l`` (Lorentz factor dimension) and ``alpha`` are
    set where the corresponding formulas apply.  Every evaluator raises when
    its radicand or logarithm leaves the real domain.
    """

    n: int
    r: float = 1.0
    l: int | None = None
    alpha: float | None = None
    one_minus_alpha2: float | None = None

    def w(self, t: float) -> float:
        """Hyperbolic-to-Lorentz time substitution (e^(2nt/r) - 1) r/(2n)."""
        return (self.r / (2.0 * self.n)) * math.expm1(2.0 * self.n * t / self.r)

    def a1(self, t: float) -> float:
        """Scaling of the minimal H^l(-r) factor, sqrt(1 + 2lt/r)."""
        rad = 1.0 + 2.0 * self.l * t / self.r
        if rad <= 0:
            raise TimeOutOfRangeError(f"a1 radicand 1 + 2lt/r = {rad:.3e} <= 0 at t={t}")
        return math.sqrt(rad)

    def a2(self, t: float, n_leaf: int, radius2: float) -> float:
        """Whole-sphere scaling sqrt(1 - 2 n' t / R^2) of the leaf gauge."""
        rad = 1.0 - 2.0 * n_leaf * t / radius2
        if rad <= 0:
            raise TimeOutOfRangeError(f"a2 radicand {rad:.3e} <= 0 at t={t}")
        return math.sqrt(rad)

    def q(self, t: float, n_leaf: int, radius2: float) -> float:
        """Euclidean-to-spherical leaf time, -(R^2/2n') ln(1 - 2n't/R^2)."""
        arg = 1.0 - 2.0 * n_leaf * t / radius2
        if arg <= 0:
            raise TimeOutOfRangeError(f"q logarithm argument {arg:.3e} <= 0 at t={t}")
        return -(radius2 / (2.0 * n_leaf)) * math.log(arg)

    def _one(self) -> float:
        if self.one_minus_alpha2 is not None:
            return self.one_minus_alpha2
        return 1.0 - self.alpha**2

    def s_alpha(self, t: float) -> float:
        """Inner-flow time of the umbilical level, ln(2nt(1-a^2)+1)/(2n(1-a^2))."""
        one = self._one()
        arg = 2.0 * self.n * t * one + 1.0
        if arg <= 0:
            raise TimeOutOfRangeError(f"s_alpha logarithm argument {arg:.3e} <= 0 at t={t}")
        return math.log(arg) / (2.0 * self.n * one)

    def s_alpha_of_w(self, t: float) -> float:
        """s_alpha(w(t)) in the overflow-safe form ln((1-a^2)e^(2nt) + a^2)/(2n(1-a^2))."""
        one = self._one()
        if self.alpha == 0.0:
            return t
        z = 2.0 * self.n * t
        if one > 0 and z > 500.0:
            # far forward: factor e^z out of the logarithm
            return (z + math.log(one) + math.log1p(self.alpha**2 * math.exp(-z) / one)) / (2.0 * self.n * one)
        arg = one * math.exp(z) + self.alpha**2
        if arg <= 0:
            raise TimeOutOfRangeError(f"s_alpha(w(t)) argument {arg:.3e} <= 0 at t={t}")
        return math.log(arg) / (2.0 * self.n * one)

    def v_alpha(self, t: float) -> float:
        """Direct hyperbolic-gauge scaling sqrt((1-a^2) + a^2 e^(-2nt)).

        Evaluated in a form whose intermediate exponential never exceeds the
        final (representable) value: backward in time the factor e^(-nt) is
        pulled out of the root.
        """
        one = self._one()
        if self.alpha == 0.0:
            return 1.0
        if t >= 0.0:
            rad = one + self.alpha**2 * math.exp(-2.0 * self.n * t)
            if rad <= 0:
                raise TimeOutOfRangeError(f"v_alpha radicand {rad:.3e} <= 0 at t={t}")
            return math.sqrt(rad)
        rad = one * math.exp(2.0 * self.n * t) + self.alpha**2
        if rad <= 0:
            raise TimeOutOfRangeError(f"v_alpha radicand {rad:.3e} <= 0 at t={t}")
        return math.exp(-self.n * t) * math.sqrt(rad)


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


def _leaf_euclidean_collapse(leaf: ProductOfSpheres) -> float | None:
    if leaf.is_point:
        return None
    return min(s / (2.0 * p) for p, s in leaf.factors)


def _leaf_is_minimal(leaf: ProductOfSpheres) -> bool:
    if leaf.is_point:
        return True
    ratio = leaf.ambient_radius2 / leaf.dim
    return all(abs(s / p - ratio) <= 1e-12 * max(1.0, ratio) for p, s in leaf.factors)


def _leaf_spherical_collapse(leaf: ProductOfSpheres, radius2: float) -> float | None:
    """Maximal time of the spherical gauge of the leaf flow; None if stationary."""
    if leaf.is_point or _leaf_is_minimal(leaf):
        return None
    te = _leaf_euclidean_collapse(leaf)
    g = GaugeParams(n=leaf.dim)
    return g.q(te, leaf.dim, radius2)


@lru_cache(maxsize=None)
def existence_window(d) -> ExistenceWindow:
    """Recursively computed existence window of a descriptor's flows."""
    dims = dimensions(d)
    n = dims.n
    if n == 0:
        return ExistenceWindow(None, None, None, None, None)
    if isinstance(d, Ambient):
        return ExistenceWindow(None, None, None, None, -d.r / (2.0 * d.m))
    lower = -1.0 / (2.0 * n)
    if isinstance(d, FullProduct):
        t_dprime = _leaf_euclidean_collapse(d.leaf)
        t_prime = None if d.leaf.is_point else _leaf_spherical_collapse(d.leaf, d.r - 1.0)
        t_max = None if t_dprime is None else math.log1p(2.0 * n * t_dprime) / (2.0 * n)
        return ExistenceWindow(t_prime, t_dprime, t_max, None, lower)
    if isinstance(d, Umbilic):
        umb, inner = d.umb, d.inner
        if isinstance(inner, ProductOfSpheres):
            t_prime = _leaf_spherical_collapse(inner, umb.a**2 - 1.0)
            inner_window = None
        elif isinstance(inner, EuclideanIso):
            t_prime = None if inner.spheres is None else _leaf_euclidean_collapse(inner.spheres)
            inner_window = None
        else:
            inner_window = existence_window(inner)
            scale = 1.0 / umb.one_minus_alpha2  # alpha < 1 here
            t_prime = None if inner_window.t_max is None else scale * inner_window.t_max
        alpha = umb.alpha
        if alpha == 1.0:
            t_dprime = t_prime
            t_alpha = -1.0 / (2.0 * n)
        else:
            one = umb.one_minus_alpha2
            if t_prime is None:
                t_dprime = None if alpha < 1.0 else -1.0 / (2.0 * n * one)
            else:
                t_dprime = math.expm1(2.0 * n * one * t_prime) / (2.0 * n * one)
            t_alpha = None if alpha == 0.0 else math.log(alpha**2) / (2.0 * n * one)
        t_max = None if t_dprime is None else math.log1p(2.0 * n * t_dprime) / (2.0 * n)
        return ExistenceWindow(t_prime, t_dprime, t_max, t_alpha, lower, inner_window)
    raise InvalidArgumentError(f"not a descriptor: {type(d).__name__}")


# ---------------------------------------------------------------------------
# leaf flows


class SphereLeafFlow(NamedTuple):
    spherical: np.ndarray
    euclidean: np.ndarray
    euclidean_time: float


def _leaf_column_scales(leaf: ProductOfSpheres, t: float) -> np.ndarray:
    """Euclidean flow of a leaf as column scales: each block scales by sqrt(1 - 2 p t / s)."""
    if leaf.is_point:
        return np.ones(len(leaf.point_position))
    out = np.empty(leaf.coords_dim)
    k = 0
    for p, s in leaf.factors:
        rad = 1.0 - 2.0 * p * t / s
        if rad <= 0:
            raise TimeOutOfRangeError(f"sphere factor S^{p}({s}) collapsed before t={t}")
        out[k : k + p + 1] = math.sqrt(rad)
        k += p + 1
    return out


def sphere_leaf_flow(leaf: ProductOfSpheres, y, s: float, radius2: float | None = None) -> SphereLeafFlow:
    """Spherical flow of a leaf at spherical time s, with its Euclidean gauge.

    The spherical flow inside S^N(R^2) is recovered from the Euclidean one by
    f_2(y, s) = e^(n' s / R^2) F_2(y, t(s)) with
    t(s) = (R^2 / 2n')(1 - e^(-2 n' s / R^2)).  Points and minimal products
    are stationary.  ``y`` is one point or rows along the last axis.  Returns
    the spherical point, its Euclidean gauge point F_2(y, t(s)), and the
    Euclidean time t(s).
    """
    yv = np.asarray(y, dtype=float)
    R2 = leaf.ambient_radius2 if radius2 is None else radius2
    if leaf.is_point:
        return SphereLeafFlow(yv.copy(), yv.copy(), 0.0)
    n1 = leaf.dim
    te = (R2 / (2.0 * n1)) * -math.expm1(-2.0 * n1 * s / R2)
    eu = yv * _leaf_column_scales(leaf, te)
    return SphereLeafFlow(math.exp(n1 * s / R2) * eu, eu, te)


# ---------------------------------------------------------------------------
# membership checks


def _quadric_rows(d, X) -> np.ndarray:
    """X as float rows, refused unless every row is a finite point of the upper sheet of <x,x> = -r.

    The one quadric membership predicate of the flows: |<x,x> + r| at most
    max(1e-8 max(1, r), 1e-12 |x|^2), the second term being the rounding
    scale of the signature form at x.
    """
    Xv = np.atleast_2d(np.asarray(X, dtype=float))
    m = dimensions(d).m
    if Xv.ndim != 2 or Xv.shape[1] != m + 1:
        raise InvalidArgumentError(f"expected rows of length {m + 1}, got shape {Xv.shape}")
    r_top = d.r if isinstance(d, Ambient) else 1.0
    # rows too large to square give nan here, and nan fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.sum(Xv[:, :-1] ** 2, axis=1) - Xv[:, -1] ** 2
        tol = np.maximum(1e-8 * max(1.0, r_top), 1e-12 * np.sum(Xv * Xv, axis=1))
        on = (np.abs(q + r_top) <= tol) & (Xv[:, -1] > 0)
    if not (on.all() and np.isfinite(Xv).all()):
        raise InvalidArgumentError("flow input rows are not on the ambient hyperboloid")
    return Xv


def _validate_rows(d, X: np.ndarray) -> None:
    """Every membership check of the one-point flows, on a whole batch.

    Rows off the ambient quadric (``_quadric_rows``), on the lower sheet or
    not finite raise InvalidArgumentError; rows off a product block or an
    umbilic level, at any depth of the recursion, raise DomainError.  The
    batch flows check only the quadric, so callers that flow unvalidated
    rows call this once per batch.
    """
    _validate_levels(d, _quadric_rows(d, X))


def _validate_levels(d, X: np.ndarray) -> None:
    """Product blocks and umbilic levels, following the recursion of ``_hyperbolic_flow_rows``."""
    if dimensions(d).n == 0 or isinstance(d, Ambient):
        return
    if isinstance(d, FullProduct):
        _check_product_rows(d, X)
        return
    Z = _umbilic_split_rows(d, X)
    if np.any(np.abs(_umbilic_embed(d, Z) - X) > _POINT_TOL):
        raise DomainError("point is not on the umbilical hypersurface of this level")
    if isinstance(d.inner, (Ambient, FullProduct, Umbilic)):
        _validate_levels(d.inner, Z)


def _finite_time(t) -> float:
    """The flow time as a float; nan and infinite times are refused."""
    tv = float(t)
    if not math.isfinite(tv):
        raise InvalidArgumentError(f"flow time must be finite, got {t!r}")
    return tv


def _hyperbolic_time(d, t) -> float:
    """A finite flow time before the hyperbolic maximal time T, as a float."""
    tv = _finite_time(t)
    window = existence_window(d)
    if window.t_max is not None and tv >= window.t_max:
        raise TimeOutOfRangeError(f"t={t} >= hyperbolic maximal time T={window.t_max}")
    return tv


# ---------------------------------------------------------------------------
# Lorentzian flow


def lorentz_flow(d, x, t: float) -> np.ndarray:
    """Closed-form Lorentzian flow of a descriptor, on its maximal domain.

    The maximal domain can extend below the conversion bound -r/(2n); such
    times are legal here but are refused by the gauge conversions.  A batch
    of one of ``lorentz_flow_batch``, after every membership check that
    ``_validate_rows`` makes.
    """
    X = as_vector(x, dimensions(d).m)[None, :]
    _validate_rows(d, X)
    return _lorentz_flow_rows(d, X, _finite_time(t))[0]


def lorentz_flow_batch(d, X, t: float) -> np.ndarray:
    """Lorentzian flow of many points at once; rows of X are worked in bulk.

    Rows must already lie on the immersed submanifold: only the ambient
    quadric is checked here, as in ``hyperbolic_flow_batch``.  Times at or
    past the Lorentzian collapse bound raise TimeOutOfRangeError, and
    non-finite times InvalidArgumentError.
    """
    tv = _finite_time(t)
    return _lorentz_flow_rows(d, _quadric_rows(d, X), tv)


def _lorentz_flow_rows(d, X: np.ndarray, t: float) -> np.ndarray:
    dims = dimensions(d)
    n = dims.n
    if n == 0:
        return X.copy()
    if isinstance(d, Ambient):
        return GaugeParams(n=d.m, r=d.r, l=d.m).a1(t) * X
    if isinstance(d, FullProduct):
        a1 = GaugeParams(n=n, r=d.r, l=d.l).a1(t)
        cols = np.empty(dims.m + 1)
        cols[: d.l] = a1
        cols[-1] = a1
        cols[d.l : dims.m] = _leaf_column_scales(d.leaf, t)
        return X * cols[None, :]
    if isinstance(d, Umbilic):
        umb = d.umb
        if abs(umb.one_minus_alpha2) < 1e-8:
            # horospherical branch; also the stable limit of the generic one
            return _umbilic_inner_flow_rows(d, X, t) - n * t * umb.beta * umb.xi_array[None, :]
        window = existence_window(d)
        if window.t_dprime is not None and t >= window.t_dprime:
            raise TimeOutOfRangeError(f"t={t} >= Lorentzian collapse bound {window.t_dprime}")
        g = GaugeParams(n=n, alpha=umb.alpha, one_minus_alpha2=umb.one_minus_alpha2)
        scale = math.sqrt(_positive_radicand(2.0 * n * t * umb.one_minus_alpha2 + 1.0, t))
        f1 = _umbilic_inner_flow_rows(d, X, g.s_alpha(t))
        return scale * (f1 - umb.eta_array[None, :]) + umb.eta_array[None, :]
    raise InvalidArgumentError(f"not a descriptor: {type(d).__name__}")


def _positive_radicand(rad: float, t: float) -> float:
    if rad <= 0:
        raise TimeOutOfRangeError(f"flow radicand {rad:.3e} <= 0 at t={t}")
    return rad


# ---------------------------------------------------------------------------
# hyperbolic flow


def hyperbolic_flow(d, x, t: float) -> np.ndarray:
    """Closed-form hyperbolic flow; ancient, defined for every t < T.

    A batch of one of ``hyperbolic_flow_batch``, after every membership
    check that ``_validate_rows`` makes.
    """
    X = as_vector(x, dimensions(d).m)[None, :]
    _validate_rows(d, X)
    return _hyperbolic_flow_rows(d, X, _hyperbolic_time(d, t))[0]


def hyperbolic_flow_batch(d, X, t: float) -> np.ndarray:
    """Hyperbolic flow of many points at once; rows of X are worked in bulk.

    Rows must already lie on the immersed submanifold: only the ambient
    quadric is checked here.  ``_validate_rows`` makes the other membership
    checks of ``hyperbolic_flow`` on a whole batch.  Non-finite times raise
    InvalidArgumentError.
    """
    tv = _hyperbolic_time(d, t)
    return _hyperbolic_flow_rows(d, _quadric_rows(d, X), tv)


def _hyperbolic_flow_rows(d, X: np.ndarray, t: float) -> np.ndarray:
    dims = dimensions(d)
    n = dims.n
    if n == 0 or isinstance(d, Ambient):
        return X.copy()
    if isinstance(d, FullProduct):
        wt = GaugeParams(n=n).w(t)  # the gauge of the ambient H^m(-1)
        a1 = GaugeParams(n=n, r=d.r, l=d.l).a1(wt)
        cols = np.empty(dims.m + 1)
        cols[: d.l] = a1
        cols[-1] = a1
        cols[d.l : dims.m] = _leaf_column_scales(d.leaf, wt)
        return math.exp(-n * t) * (X * cols[None, :])
    if isinstance(d, Umbilic):
        umb = d.umb
        g = GaugeParams(n=n, alpha=umb.alpha, one_minus_alpha2=umb.one_minus_alpha2)
        if abs(umb.one_minus_alpha2) < 1e-8:
            f1 = _umbilic_inner_flow_rows(d, X, g.w(t))
            return math.exp(-n * t) * f1 - math.sinh(n * t) * umb.beta * umb.xi_array[None, :]
        v = g.v_alpha(t)
        f1 = _umbilic_inner_flow_rows(d, X, g.s_alpha_of_w(t))
        return v * f1 - (v - math.exp(-n * t)) * umb.eta_array[None, :]
    raise InvalidArgumentError(f"not a descriptor: {type(d).__name__}")


def _umbilic_inner_flow_rows(d: Umbilic, X: np.ndarray, s: float) -> np.ndarray:
    """The flow f_1 inside the umbilical hypersurface, on rows of ambient points."""
    inner = d.inner
    Z = _umbilic_split_rows(d, X)
    if isinstance(inner, ProductOfSpheres):
        Z = sphere_leaf_flow(inner, Z, s, radius2=d.umb.a**2 - 1.0).spherical
    elif isinstance(inner, EuclideanIso):
        if inner.spheres is not None:
            k0 = inner.flat_dim
            k1 = k0 + inner.spheres.coords_dim
            off = inner.offset_array[k0:k1]
            Z[:, k0:k1] = off + (Z[:, k0:k1] - off) * _leaf_column_scales(inner.spheres, s)
    else:
        # the hypersurface is H^(m-1)(-R); flowing its unit-curvature model for
        # time s/R and rescaling by sqrt(R) is the flow inside the hypersurface
        Z = _hyperbolic_flow_rows(inner, Z, s / _umbilic_placement(d.umb).scale ** 2)
    return _umbilic_embed(d, Z)


# ---------------------------------------------------------------------------
# gauge conversions between the two flows


def gauge_hyperbolic_to_lorentz(f: Callable[[np.ndarray, float], np.ndarray], n: int, r: float, x, t: float) -> np.ndarray:
    """F(x,t) = sqrt(1 + 2nt/r) f(x, (r/2n) ln(1 + 2nt/r)); needs t > -r/(2n)."""
    if t <= -r / (2.0 * n):
        raise GaugeDomainError(
            f"t={t} <= -r/(2n) = {-r / (2.0 * n)}: no hyperbolic counterpart below the time cone bound"
        )
    scale = math.sqrt(1.0 + 2.0 * n * t / r)
    s = (r / (2.0 * n)) * math.log1p(2.0 * n * t / r)
    return scale * np.asarray(f(x, s), dtype=float)


def gauge_lorentz_to_hyperbolic(F: Callable[[np.ndarray, float], np.ndarray], n: int, r: float, x, t: float) -> np.ndarray:
    """f(x,t) = e^(-nt/r) F(x, (r/2n)(e^(2nt/r) - 1)); inverse of the other gauge."""
    s = (r / (2.0 * n)) * math.expm1(2.0 * n * t / r)
    return math.exp(-n * t / r) * np.asarray(F(x, s), dtype=float)
