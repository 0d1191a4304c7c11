"""Closed-form mean curvature flow in both the Lorentzian and hyperbolic gauges.

For a submanifold M of H^m(-1) the two flows are linked by an explicit time
change: F(x,t) = sqrt(1 + 2nt/r) f(x, (r/2n) ln(1 + 2nt/r)) and conversely
f(x,t) = e^(-nt/r) F(x, (r/2n)(e^(2nt/r) - 1)).  The Lorentzian flow of the
descriptor grammar is assembled level by level:

* a minimal submanifold of H^m(-r) evolves by pure scaling sqrt(1 + 2nt/r);
* a full product evolves factorwise, with the spherical leaf following its
  Euclidean flow (squared factor radii shrink linearly, s_i - 2 p_i t);
* a submanifold of an umbilical hypersurface with invariant alpha evolves as
  F = sqrt(2nt(1-alpha^2)+1) (f_1(x, s_alpha(t)) - eta) + eta on a hyperbolic
  or spherical level and F = f_1(x,t) - n t beta xi on a horospherical one, where
  f_1 is the flow inside the hypersurface: the recursion into a hyperbolic
  level's inner descriptor, or the leaf's own flow (``descriptors``, where
  the leaves keep their layouts; this module reads no leaf field);
* a run of geodesic (alpha = 0) levels whose placements are exact row
  gathers is one step: below the run's top level each has R = 1, eta = 0
  and, in the hyperbolic gauge, s_alpha(w(t)) = t, so the flow of the
  descriptor below the run crosses it by one split and one embed
  (``descriptors._split_across`` and ``_embed_across``), bit for bit.

The hyperbolic flow keeps the rows of a stationary descriptor (totally
geodesic, or n = 0) unchanged.  That of any other full product is the gauge
composition: the Lorentzian product flow at w(t) = (e^(2nt) - 1)/(2n),
scaled by e^(-nt), both scalars coming from
``_lorentz_to_hyperbolic_scalars``.  Only the umbilic levels use direct
stable forms, which agree with the composition to rounding and stay finite
where w(t) overflows; the horospherical level takes
its inner time and e^(-nt) from the same time change.  Both flows have one
evaluation path, a recursion over rows of points and a list of times
(``_hyperbolic_flow_rows``, ``_lorentz_flow_rows``, returning (T, K, m+1)):
each level, or run of geodesic levels, computes its time scalars (the
roots sqrt(1 + 2lt/r) and sqrt(1 - 2pt/s) as arrays over the times, with
the bits of the scalar forms; exp, expm1, log and log1p with ``math``, time
by time) and splits and embeds its rows once for all times.  An entry
(t, row) has the same bits as that row alone at that time alone; the batch
flows are calls with one time and the one-point entry points validated
batches of one.  This module holds no membership code: the public flows
check the rows their callers pass in
with the predicates of ``descriptors`` (``_validate_rows`` for one point,
the ambient quadric for a batch), and the chart ``immerse_rows`` returns
only rows that passed every membership check, so the row cores take chart
rows as they come.  The public flows refuse
t >= T; the endpoint mode of ``_hyperbolic_flow_rows`` evaluates the
continuous extension at t = T, which is the forward focal limit, and that of
``_lorentz_flow_rows`` the extension of geodesic (alpha = 0) levels to the
light-cone time -1/(2n), whose ball image is the backward limit.  At
s = +infinity the endpoint mode of ``_lorentz_flow_rows`` is asymptotic:
each level keeps its leading coefficient in s, which is the forward limit
of every eternal descriptor (a timelike coefficient over sqrt(2ns) is the
totally geodesic limit, a null one names the ideal point).  The
existence window of a descriptor (``existence_window``, re-exported here) is
part of its plan in ``descriptors``: the inner maximal time T', the
Lorentzian bound T'', the hyperbolic maximal time T and the backward gauge
limit, computed once per level; unbounded times are represented by None,
never by a floating sentinel.

Doubles hold the ancient flows only a few hundred time units back.  The
oracle, ``run`` and the battery flow chart rows through ``_flow_times``,
which refuses the first time whose flow fails or leaves doubles.  The public
flows stay raw, since a far-back time is legal there, and so do the limits'
endpoint modes and the Euler walk's stencil blocks, whose kernel refuses
non-finite stencils itself.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .descriptors import (
    Ambient,
    ExistenceWindow,
    FullProduct,
    ProductOfSpheres,
    SphereLeafFlow,
    Umbilic,
    _below,
    _columns_across,
    _embed_across,
    _is_stationary,
    _leaf_column_scales,
    _plan,
    _quadric_rows,
    _sphere_leaf_flow,
    _split_across,
    _validate_rows,
    dimensions,
    existence_window,
)
from .errors import GaugeDomainError, InvalidArgumentError, TimeOutOfRangeError
from .lorentz import as_vector


# ---------------------------------------------------------------------------
# scalar time-gauge helpers


def _a1(l: int, r: float, ts: list[float]) -> np.ndarray:
    """Scaling sqrt(1 + 2lt/r) of the minimal H^l(-r) factor at every time of ts, (T,), refused at the first radicand <= 0."""
    with np.errstate(over="ignore"):
        rad = 1.0 + 2.0 * l * np.array(ts) / r
    if (rad <= 0.0).any():
        k = int(np.argmax(rad <= 0.0))
        raise TimeOutOfRangeError(f"a1 radicand 1 + 2lt/r = {rad[k]:.3e} <= 0 at t={ts[k]}")
    return np.sqrt(rad, out=rad)


def _s_alpha(n: int, one: float, t: float) -> float:
    """Inner-flow time of the umbilical level, ln(2nt(1-a^2)+1)/(2n(1-a^2)); ``one`` is 1 - a^2."""
    arg = 2.0 * n * t * one + 1.0
    if arg <= 0:
        raise TimeOutOfRangeError(f"s_alpha logarithm argument {arg:.3e} <= 0 at t={t}")
    return math.log(arg) / (2.0 * n * one)


def _s_alpha_of_w(n: int, alpha: float, one: float, t: float) -> float:
    """s_alpha(w(t)) in the overflow-safe form ln((1-a^2)e^(2nt) + a^2)/(2n(1-a^2))."""
    if alpha == 0.0:
        return t
    z = 2.0 * n * t
    if one > 0 and z > 500.0:
        # far forward: factor e^z out of the logarithm
        return (z + math.log(one) + math.log1p(alpha**2 * math.exp(-z) / one)) / (2.0 * n * one)
    arg = one * math.exp(z) + alpha**2
    if arg <= 0:
        raise TimeOutOfRangeError(f"s_alpha(w(t)) argument {arg:.3e} <= 0 at t={t}")
    return math.log(arg) / (2.0 * n * one)


def _v_alpha(n: int, alpha: float, one: float, t: float) -> float:
    """Direct hyperbolic-gauge scaling sqrt((1-a^2) + a^2 e^(-2nt)).

    Evaluated in a form whose intermediate exponential never exceeds the
    final (representable) value: backward in time the factor e^(-nt) is
    pulled out of the root.
    """
    if alpha == 0.0:
        return 1.0
    if t >= 0.0:
        rad = one + alpha**2 * math.exp(-2.0 * n * t)
        if rad <= 0:
            raise TimeOutOfRangeError(f"v_alpha radicand {rad:.3e} <= 0 at t={t}")
        return math.sqrt(rad)
    rad = one * math.exp(2.0 * n * t) + alpha**2
    if rad <= 0:
        raise TimeOutOfRangeError(f"v_alpha radicand {rad:.3e} <= 0 at t={t}")
    return math.exp(-n * t) * math.sqrt(rad)


def _per_time(values: list[float]) -> np.ndarray:
    """Per-time scalars as a (T, 1, 1) array, to scale (T, K, c) rows time by time."""
    return np.array(values)[:, None, None]


# ---------------------------------------------------------------------------
# leaf flow


def sphere_leaf_flow(leaf: ProductOfSpheres, y, s: float, radius2: float | None = None) -> SphereLeafFlow:
    """Spherical flow of a leaf at spherical time s inside S^N(R^2), with its Euclidean gauge.

    A batch of one of the leaf flow of ``descriptors``; R^2 defaults to the
    sphere the leaf fills.  ``y`` is one point or rows along the last axis.
    Returns the spherical point, its Euclidean gauge point F_2(y, t(s)), and
    the Euclidean time t(s).
    """
    flow = _sphere_leaf_flow(leaf, np.asarray(y, dtype=float), [s], leaf.ambient_radius2 if radius2 is None else radius2)
    return SphereLeafFlow(flow.spherical[0], flow.euclidean[0], flow.euclidean_time[0])


# ---------------------------------------------------------------------------
# flow times


def _finite_time(t) -> float:
    """The flow time as a float; nan and infinite times are refused."""
    tv = float(t)
    if not math.isfinite(tv):
        raise InvalidArgumentError(f"flow time must be finite, got {t!r}")
    return tv


def _hyperbolic_times(d, times) -> list[float]:
    """Finite flow times before the hyperbolic maximal time T, as floats; the first bad time is refused."""
    t_max = existence_window(d).t_max
    out = []
    for t in times:
        tv = _finite_time(t)
        if t_max is not None and tv >= t_max:
            raise TimeOutOfRangeError(f"t={t} >= hyperbolic maximal time T={t_max}")
        out.append(tv)
    return out


def _lorentz_times(d, times) -> list[float]:
    """Finite flow times as floats; the Lorentzian flow checks its collapse bound itself."""
    return [_finite_time(t) for t in times]


# ---------------------------------------------------------------------------
# Lorentzian flow


def lorentz_flow(d, x, t: float) -> np.ndarray:
    """Closed-form Lorentzian flow of a descriptor, on its maximal domain.

    The maximal domain can extend below the conversion bound -r/(2n); such
    times are legal here but are refused by the gauge conversions.  A batch
    of one of ``lorentz_flow_batch``, after every membership check that
    ``_validate_rows`` makes: a point off the ambient hyperboloid raises
    InvalidArgumentError, a point off any level of d DomainError.
    """
    X = as_vector(x, dimensions(d).m)[None, :]
    _validate_rows(d, X)
    return _lorentz_flow_rows(d, X, _lorentz_times(d, [t]))[0, 0]


def lorentz_flow_batch(d, X, t: float) -> np.ndarray:
    """Lorentzian flow of many points at once; rows of X are worked in bulk.

    Rows must already lie on the immersed submanifold: only the ambient
    quadric is checked here, as in ``hyperbolic_flow_batch``.  Times at or
    past the Lorentzian collapse bound raise TimeOutOfRangeError, and
    non-finite times InvalidArgumentError.  One time of ``_lorentz_flow_rows``.
    """
    ts = _lorentz_times(d, [t])
    return _lorentz_flow_rows(d, _quadric_rows(d, X), ts)[0]


def _lorentz_flow_rows(d, X: np.ndarray, ts: list[float], end: bool = False) -> np.ndarray:
    """The Lorentzian flow of rows X (K, m+1) at every time of ts, as (T, K, m+1).

    Entry (j, k) has the bits of the flow of row k alone at ts[j] alone.
    Each level computes its time scalars, with ``math`` or as arrays of the
    same bits (see the module docstring), in the order of one time's
    recursion, and works the rows once for all times, in place on the new
    array of its inner flow.
    With ``end`` an alpha = 0 level, whose scaling vanishes at the light-cone
    time -1/(2n), is its continuous extension there: the Lorentzian flow of
    its inner level, embedded (R = 1 and eta = 0 on a geodesic hypersurface).

    With ``end`` and ts = [inf], the asymptotic endpoint of an eternal flow,
    each level keeps its leading coefficient C in s, (1, K, m+1):
    * a stationary level keeps its rows (F = sqrt(1 + 2ns) X, or X if n = 0);
    * a full product (an eternal one has a point leaf, so n = l) grows like
      sqrt(1 + 2ls/r) on its H^l(-r) block: C against sqrt(2ns) is that
      block over sqrt(r), the leaf block zero;
    * a horospherical level drifts by -n s beta xi: C = -(beta/2) xi
      against 2ns, null and the same for every row;
    * a hyperbolic level is F = eta + sqrt(R) J F_in(z, (1 - alpha^2) s), so
      C = J C_in, exact against sqrt(2ns) as sqrt(R (1 - alpha^2)) = 1; a
      null C_in keeps its direction, up to the factor sqrt(1 - alpha^2).
    A spherical level collapses in finite time and is refused.  A timelike C
    is the totally geodesic limit, a null one names the ideal point
    F[:-1] / F[-1] tends to.
    """
    n = dimensions(d).n
    far = end and ts == [math.inf]
    if n == 0 or (far and _is_stationary(d)):
        return np.broadcast_to(X, (len(ts),) + X.shape).copy()
    if isinstance(d, Ambient):
        return _a1(d.m, d.r, ts)[:, None, None] * X
    if isinstance(d, FullProduct):
        if far:
            C = X / math.sqrt(d.r)
            C[:, d.l : -1] = 0.0
            return C[None]
        return _product_rows(d, X, ts)
    umb, pl = d.umb, _plan(d).placement
    if far and umb.kind == "euclidean":
        return np.broadcast_to(-0.5 * umb.beta * pl.xi, (1,) + X.shape).copy()
    if far and umb.kind == "spherical":
        raise TimeOutOfRangeError("s = inf: a spherical level collapses in finite time, its flow is not eternal")
    if far or (end and umb.totally_geodesic):
        # J C_in at s = inf; a geodesic level's embedding is J z too, so across a run both are one gather
        return _columns_across(d, _lorentz_flow_rows(_below(d), _split_across(d, X), ts, end))
    one = umb.one_minus_alpha2
    if umb.kind == "euclidean":
        drift = _per_time([n * t * umb.beta for t in ts])
        f1 = _umbilic_inner_flow_rows(d, X, ts)
        f1 -= drift * pl.xi
        return f1
    window = existence_window(d)
    scale = []
    for t in ts:
        if window.t_dprime is not None and t >= window.t_dprime:
            raise TimeOutOfRangeError(f"t={t} >= Lorentzian collapse bound {window.t_dprime}")
        scale.append(math.sqrt(_positive_radicand(2.0 * n * t * one + 1.0, t)))
    f1 = _umbilic_inner_flow_rows(d, X, [_s_alpha(n, one, t) for t in ts])
    f1 -= pl.eta
    f1 *= _per_time(scale)
    f1 += pl.eta
    return f1


def _product_rows(d: FullProduct, X: np.ndarray, lorentz_ts: list[float], end: bool = False) -> np.ndarray:
    """The Lorentzian flow of a full product at every time of lorentz_ts, (T, K, m+1).

    The H^l(-r) factor scales by sqrt(1 + 2lt/r) and the leaf by its
    Euclidean flow; ``end`` takes a leaf radicand that vanishes as zero.
    """
    a1 = _a1(d.l, d.r, lorentz_ts)
    m = X.shape[1] - 1
    cols = np.empty((len(lorentz_ts), m + 1))
    cols[:, : d.l] = a1[:, None]
    cols[:, -1] = a1
    cols[:, d.l : m] = _leaf_column_scales(d.leaf, lorentz_ts, end)
    return X * cols[:, None, :]


def _positive_radicand(rad: float, t: float) -> float:
    if rad <= 0:
        raise TimeOutOfRangeError(f"flow radicand {rad:.3e} <= 0 at t={t}")
    return rad


# ---------------------------------------------------------------------------
# hyperbolic flow


def hyperbolic_flow(d, x, t: float) -> np.ndarray:
    """Closed-form hyperbolic flow; ancient, defined for every t < T.

    A batch of one of ``hyperbolic_flow_batch``, after every membership
    check that ``_validate_rows`` makes: a point off the ambient hyperboloid
    raises InvalidArgumentError, a point off any level of d DomainError.
    """
    X = as_vector(x, dimensions(d).m)[None, :]
    _validate_rows(d, X)
    return _hyperbolic_flow_rows(d, X, _hyperbolic_times(d, [t]))[0, 0]


def hyperbolic_flow_batch(d, X, t: float) -> np.ndarray:
    """Hyperbolic flow of many points at once; rows of X are worked in bulk.

    Rows must already lie on the immersed submanifold, as the rows of
    ``immerse_rows`` do: only the ambient quadric is checked here.
    ``descriptors._validate_rows`` makes the other membership checks of
    ``hyperbolic_flow`` on a whole batch.  Non-finite times raise
    InvalidArgumentError.  One time of ``_hyperbolic_flow_rows``.
    """
    ts = _hyperbolic_times(d, [t])
    return _hyperbolic_flow_rows(d, _quadric_rows(d, X), ts)[0]


def _hyperbolic_flow_rows(d, X: np.ndarray, ts: list[float], end: bool = False) -> np.ndarray:
    """The hyperbolic flow of rows X (K, m+1) at every time of ts, as (T, K, m+1).

    Entry (j, k) has the bits of the flow of row k alone at ts[j] alone:
    each level computes its time scalars, with ``math`` or as arrays of the
    same bits, in the order of one time's recursion, splits and embeds its
    rows once, and scales them for all times at once, in place on the new
    array they are built in.  A stationary descriptor (totally geodesic, or
    n = 0: the predicate the limits use) keeps its rows at every time,
    exactly; its gauge composition would round the factor 1 + expm1(2nt) to 0 a few
    time units back.  With ``end`` it is the continuous extension to t = T:
    every level takes its window's exact times, T'' for the ambient gauge
    of a product and T' for the inner flow, instead of their images of t,
    and radicands that vanish there are taken as zero.
    """
    if _is_stationary(d):
        return np.broadcast_to(X, (len(ts),) + X.shape).copy()
    n = dimensions(d).n
    window = existence_window(d) if end else None
    if isinstance(d, FullProduct):
        # the gauge composition e^(-nt) F(x, w(t)) of the ambient H^m(-1)
        s, decay = _lorentz_to_hyperbolic_scalars(n, 1.0, ts)
        rows = _product_rows(d, X, [window.t_dprime] * len(ts) if end else s, end)
        rows *= _per_time(decay)
        return rows
    umb, pl = d.umb, _plan(d).placement
    one = umb.one_minus_alpha2
    if end and window.t_prime is None:
        # the level's own scaling vanishes at T: the hypersurface shrinks to one point
        point = _per_time([math.exp(-n * t) for t in ts]) * pl.eta
        return np.broadcast_to(point, (len(ts),) + X.shape).copy()
    if umb.kind == "euclidean":
        s, decay = _lorentz_to_hyperbolic_scalars(n, 1.0, ts)
        f1 = _umbilic_inner_flow_rows(d, X, [window.t_prime] * len(ts) if end else s, end)
        drift = _per_time([math.sinh(n * t) * umb.beta for t in ts])
        f1 *= _per_time(decay)
        f1 -= drift * pl.xi
        return f1
    v = [_v_alpha(n, umb.alpha, one, t) for t in ts]
    f1 = _umbilic_inner_flow_rows(d, X, [window.t_prime] * len(ts) if end else [_s_alpha_of_w(n, umb.alpha, one, t) for t in ts], end)
    shift = _per_time([vk - math.exp(-n * t) for vk, t in zip(v, ts)])
    f1 *= _per_time(v)
    f1 -= shift * pl.eta
    return f1


def _umbilic_inner_flow_rows(d: Umbilic, X: np.ndarray, ss: list[float], end: bool = False) -> np.ndarray:
    """The flow f_1 inside the umbilical hypersurface, (T, K, m+1) for rows X and inner times ss.

    A level that starts a run of geodesic levels flows the descriptor below
    the run and crosses the run in one split and one embed.  Each level of
    the run keeps every bit of the flow below it: its R is 1.0, its
    s_alpha(w(t)) is t, its scaling 1.0 and its center a signed zero, and
    its embedding leaves no -0.0 for that zero to flip; its one exponential,
    e^(-ns), is finite at every time the level above the run accepted.
    """
    plan, below, Z = _plan(d), _below(d), _split_across(d, X)
    if d.umb.kind != "hyperbolic":
        Zt = below._flow_rows(Z, ss, d.umb, end)
    elif end and plan.run is not None:
        # at the endpoint each level of the run takes its own T', so the level below the run takes its T
        Zt = _hyperbolic_flow_rows(below, Z, [existence_window(below).t_max] * len(ss), end)
    else:
        # the hypersurface is H^(m-1)(-R); flowing its unit-curvature model for
        # time s/R and rescaling by sqrt(R) is the flow inside the hypersurface
        R = plan.placement.scale ** 2
        Zt = _hyperbolic_flow_rows(below, Z, [s / R for s in ss], end)
    return _embed_across(d, Zt)


# ---------------------------------------------------------------------------
# the checked flow of rows over times


def _flow_times(d, X: np.ndarray, times, gauge: str = "hyperbolic") -> np.ndarray:
    """The gauge's flow of chart rows X at every time, (T, K, m+1), in one core call, refused where it leaves doubles.

    The times are checked in list order as by the gauge's batch flow, which
    refuses a non-finite time with InvalidArgumentError.  A time list that the
    check or the core refuses, or whose flowed rows or their squared norms
    are not finite, is flowed again one time at a time, and the first time
    in list order that fails is refused: with its own TimeOutOfRangeError,
    or, where its flow overflows doubles, with TimeOutOfRangeError("the
    flow at t=... leaves the range of doubles").  No numpy warning escapes.
    """
    check, flow_rows, _ = _gauge(gauge)
    try:
        return _finite_flow(flow_rows, d, X, check(d, times))
    except (OverflowError, TimeOutOfRangeError):
        for t in times:
            ts = check(d, [t])
            try:
                _finite_flow(flow_rows, d, X, ts)
            except OverflowError:
                raise TimeOutOfRangeError(f"the flow at t={ts[0]!r} leaves the range of doubles") from None
        raise


def _finite_flow(flow_rows, d, X: np.ndarray, ts: list[float]) -> np.ndarray:
    """``flow_rows(d, X, ts)``, with an OverflowError in place of numpy's warning when a row or its square leaves doubles."""
    with np.errstate(over="ignore", invalid="ignore"):
        F = flow_rows(d, X, ts)
        # every row's squared norm, (T, K): nothing as large as F is allocated
        finite = np.isfinite(np.einsum("tki,tki->tk", F, F)).all()
    if not finite:
        raise OverflowError("a flowed row or its squared norm is not finite")
    return F


def _gauge(gauge: str):
    """A gauge's time check, its flow of rows over times, and the kind of ambient space its flowed points lie in.

    The one place a gauge name is read: the oracle takes its ambient space
    from the kind (``oracle._gauge_ambient``).
    """
    if gauge == "hyperbolic":
        return _hyperbolic_times, _hyperbolic_flow_rows, "hyperboloid"
    if gauge == "lorentz":
        return _lorentz_times, _lorentz_flow_rows, "lorentzian"
    raise InvalidArgumentError(f"unknown gauge {gauge!r}")


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
    (s,), (decay,) = _lorentz_to_hyperbolic_scalars(n, r, [t])
    return decay * np.asarray(F(x, s), dtype=float)


def _lorentz_to_hyperbolic_scalars(n: int, r: float, ts: list[float]) -> tuple[list[float], list[float]]:
    """For every t of ts, the Lorentzian time (r/2n)(e^(2nt/r) - 1) and the factor e^(-nt/r) of f(x,t)."""
    s = [(r / (2.0 * n)) * math.expm1(2.0 * n * t / r) for t in ts]
    decay = [math.exp(-n * t / r) for t in ts]
    return s, decay
