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
  f_1 is the flow inside the hypersurface: the flow of a hyperbolic level's
  inner descriptor, one level further down the same walk, or the leaf's own
  flow (``descriptors``, where the leaves keep their layouts; this module
  reads no leaf field);
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
its inner time and e^(-nt) from the same time change.  Both flows, in both
gauges and every endpoint mode, have one evaluation path over rows of
points and a list of times: the walk ``_flow_rows``, returning
(T, K, m+1), a loop that goes down the levels of the descriptor once and
back up, with no recursion.  On the way down each level, or run of geodesic
levels, computes its time scalars (the roots sqrt(1 + 2lt/r) and
sqrt(1 - 2pt/s) as arrays over the times, with the bits of the scalar
forms; exp, expm1, log and log1p with ``math``, time by time), refuses a
bad time, and splits its rows once for all times; on the way up it embeds
them and applies its scale and shift in the order of its formula.  An entry
(t, row) has the same bits as that row alone at that time alone; the batch
flows are calls with one time and the one-point entry points validated
batches of one.  This module holds no membership code: the public flows
check the rows their callers pass in
with the predicates of ``descriptors`` (``_validate_rows`` for one point,
the ambient quadric for a batch), and the chart ``immerse_rows`` returns
only rows that passed every membership check, so the walk takes chart
rows as they come.  The public flows refuse
t >= T; the hyperbolic endpoint mode of the walk evaluates the continuous
extension at t = T, which is the forward focal limit, and its Lorentzian
endpoint mode the extension of geodesic (alpha = 0) levels to the
light-cone time -1/(2n), whose ball image is the backward limit.  At
s = +infinity the Lorentzian endpoint mode is asymptotic:
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
    _below,
    _columns_across,
    _embed_across,
    _is_stationary,
    _leaf_column_scales,
    _levels,
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


def _positive_radicand(rad: float, t: float) -> float:
    if rad <= 0:
        raise TimeOutOfRangeError(f"flow radicand {rad:.3e} <= 0 at t={t}")
    return rad


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
# the public flows


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
    return _flow_rows(d, X, _lorentz_times(d, [t]), "lorentz")[0, 0]


def lorentz_flow_batch(d, X, t: float) -> np.ndarray:
    """Lorentzian flow of many points at once; rows of X are worked in bulk.

    Rows must already lie on the immersed submanifold: only the ambient
    quadric is checked here, as in ``hyperbolic_flow_batch``.  Times at or
    past the Lorentzian collapse bound raise TimeOutOfRangeError, and
    non-finite times InvalidArgumentError.  One time of ``_flow_rows``.
    """
    ts = _lorentz_times(d, [t])
    return _flow_rows(d, _quadric_rows(d, X), ts, "lorentz")[0]


def hyperbolic_flow(d, x, t: float) -> np.ndarray:
    """Closed-form hyperbolic flow; ancient, defined for every t < T.

    A batch of one of ``hyperbolic_flow_batch``, after every membership
    check that ``_validate_rows`` makes: a point off the ambient hyperboloid
    raises InvalidArgumentError, a point off any level of d DomainError.
    """
    X = as_vector(x, dimensions(d).m)[None, :]
    _validate_rows(d, X)
    return _flow_rows(d, X, _hyperbolic_times(d, [t]))[0, 0]


def hyperbolic_flow_batch(d, X, t: float) -> np.ndarray:
    """Hyperbolic flow of many points at once; rows of X are worked in bulk.

    Rows must already lie on the immersed submanifold, as the rows of
    ``immerse_rows`` do: only the ambient quadric is checked here.
    ``descriptors._validate_rows`` makes the other membership checks of
    ``hyperbolic_flow`` on a whole batch.  Non-finite times raise
    InvalidArgumentError.  One time of ``_flow_rows``.
    """
    ts = _hyperbolic_times(d, [t])
    return _flow_rows(d, _quadric_rows(d, X), ts)[0]



# ---------------------------------------------------------------------------
# the flow walk


def _flow_rows(d, X: np.ndarray, ts: list[float], gauge: str = "hyperbolic", end: bool = False) -> np.ndarray:
    """The gauge's flow of rows X (K, m+1) at every time of ts, as (T, K, m+1): the one flow path.

    Entry (j, k) has the bits of the flow of row k alone at ts[j] alone.  The
    walk goes down the levels of d once (``descriptors._levels``): each
    umbilic level computes its time scalars and refuses a bad time, then
    splits the rows into its inner model, across its whole run when it
    starts one.  The bottom takes its own flow; a stationary one (totally
    geodesic, or n = 0: the predicate the limits use) keeps its rows
    exactly, where the gauge composition would round 1 + expm1(2nt) to 0 a
    few time units back.  Back up, each level embeds the rows and applies
    its scale and shift (the formulas of the module docstring) in place, in
    the order of its formula; the hyperbolic e^(-nt) of the shift is taken
    only then, so a time the inner flow refuses is refused first.  Only the
    top level can be in the Lorentzian gauge: below it the walk is
    hyperbolic, unless ``end`` keeps the gauge across a level.

    ``end`` is the continuous extension at an endpoint.  In the hyperbolic
    gauge at T every level takes its window's exact times, T'' for a
    product's ambient gauge and T' for the inner flow (T for the level below
    a run), and radicands that vanish there are taken as zero; a level with
    no T' shrinks to the point e^(-nt) eta.  In the Lorentzian gauge at the
    light-cone time -1/(2n) an alpha = 0 level is the Lorentzian flow of its
    inner level, embedded by its columns J.  At ts = [inf] each level keeps
    its leading coefficient C in s, (1, K, m+1): a stationary level its rows,
    a full product (n = l) its H^l(-r) block over sqrt(r) and a zero leaf
    block, against sqrt(2ns); a horospherical level -(beta/2) xi, null,
    against 2ns; a hyperbolic level J C_in, as sqrt(R (1 - alpha^2)) = 1.  A
    spherical level collapses in finite time and is refused there.
    """
    lorentz = gauge == "lorentz"
    ups = []  # (level, placement, n, times, the formula of its scale and shift, scale, drift) above the bottom, top first
    for d in _levels(d):
        plan = _plan(d)
        n, window, far = plan.dims.n, plan.window, lorentz and end and ts == [math.inf]
        if _is_stationary(d) and (far or n == 0 or not lorentz):
            rows = np.broadcast_to(X, (len(ts),) + X.shape).copy()
            break
        if isinstance(d, Ambient):
            rows = _a1(d.m, d.r, ts)[:, None, None] * X
            break
        if isinstance(d, FullProduct):
            if far:
                rows = X[None] / math.sqrt(d.r)
                rows[..., d.l : -1] = 0.0
                break
            s, decay = (ts, None) if lorentz else _lorentz_to_hyperbolic_scalars(n, 1.0, ts)
            if end and not lorentz:
                s = [window.t_dprime] * len(ts)
            a1 = _a1(d.l, d.r, s)
            cols = np.empty((len(ts), X.shape[1]))
            cols[:, : d.l] = a1[:, None]
            cols[:, -1] = a1
            cols[:, d.l : -1] = _leaf_column_scales(d.leaf, s, end)
            rows = X * cols[:, None, :]
            if decay is not None:
                rows *= _per_time(decay)
            break
        umb, pl = d.umb, plan.placement
        one = umb.one_minus_alpha2
        if far and umb.kind != "hyperbolic":
            if umb.kind == "spherical":
                raise TimeOutOfRangeError("s = inf: a spherical level collapses in finite time, its flow is not eternal")
            rows = np.broadcast_to(-0.5 * umb.beta * pl.xi, (1,) + X.shape).copy()
            break
        if end and not lorentz and window.t_prime is None:
            # the level's own scaling vanishes at T: the hypersurface shrinks to one point
            rows = np.broadcast_to(_per_time([math.exp(-n * t) for t in ts]) * pl.eta, (len(ts),) + X.shape).copy()
            break
        if far or (lorentz and end and umb.totally_geodesic):
            # J C_in at s = inf; a geodesic level's embedding is J z too, so across a run both are one gather
            ups.append((d, pl, n, ts, "columns", None, None))
            X = _split_across(d, X)
            continue
        if umb.kind == "euclidean":
            ss, decay = (ts, None) if lorentz else _lorentz_to_hyperbolic_scalars(n, 1.0, ts)
            drift = [n * t * umb.beta for t in ts] if lorentz else [math.sinh(n * t) * umb.beta for t in ts]
            ups.append((d, pl, n, ts, "horospherical", decay, drift))
        elif lorentz:
            root = []
            for t in ts:
                if window.t_dprime is not None and t >= window.t_dprime:
                    raise TimeOutOfRangeError(f"t={t} >= Lorentzian collapse bound {window.t_dprime}")
                root.append(math.sqrt(_positive_radicand(2.0 * n * t * one + 1.0, t)))
            ss = [_s_alpha(n, one, t) for t in ts]
            ups.append((d, pl, n, ts, "lorentzian", root, None))
        else:
            v = [_v_alpha(n, umb.alpha, one, t) for t in ts]
            ss = None if end else [_s_alpha_of_w(n, umb.alpha, one, t) for t in ts]
            ups.append((d, pl, n, ts, "hyperbolic", v, None))
        end, lorentz = end and not lorentz, False
        if end:
            ss = [window.t_prime] * len(ts)
        X = _split_across(d, X)
        if umb.kind != "hyperbolic":
            rows = d.inner._flow_rows(X, ss, umb, end)
            break
        if end and plan.run is not None:
            # at the endpoint each level of the run takes its own T', so the level below the run takes its T
            ts = [existence_window(_below(d)).t_max] * len(ts)
        else:
            # the hypersurface is H^(m-1)(-R); flowing its unit-curvature model for
            # time s/R and rescaling by sqrt(R) is the flow inside the hypersurface
            R = pl.scale**2
            ts = [s / R for s in ss]
    for d, pl, n, ts, form, scale, drift in reversed(ups):
        if form == "columns":
            rows = _columns_across(d, rows)
            continue
        rows = _embed_across(d, rows)
        if form == "horospherical":
            if scale is not None:
                rows *= _per_time(scale)
            rows -= _per_time(drift) * pl.xi
        elif form == "lorentzian":
            rows -= pl.eta
            rows *= _per_time(scale)
            rows += pl.eta
        else:
            # e^(-nt) after the inner flow, which refuses its own bad times first
            shift = _per_time([vk - math.exp(-n * t) for vk, t in zip(scale, ts)])
            rows *= _per_time(scale)
            rows -= shift * pl.eta
    return rows


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
    check = _gauge(gauge)[0]
    try:
        return _finite_flow(d, X, check(d, times), gauge)
    except (OverflowError, TimeOutOfRangeError):
        for t in times:
            ts = check(d, [t])
            try:
                _finite_flow(d, X, ts, gauge)
            except OverflowError:
                raise TimeOutOfRangeError(f"the flow at t={ts[0]!r} leaves the range of doubles") from None
        raise


def _finite_flow(d, X: np.ndarray, ts: list[float], gauge: str) -> np.ndarray:
    """``_flow_rows(d, X, ts, gauge)``, with an OverflowError in place of numpy's warning when a row or its square leaves doubles."""
    with np.errstate(over="ignore", invalid="ignore"):
        F = _flow_rows(d, X, ts, gauge)
        # every row's squared norm, (T, K): nothing as large as F is allocated
        finite = np.isfinite(np.einsum("tki,tki->tk", F, F)).all()
    if not finite:
        raise OverflowError("a flowed row or its squared norm is not finite")
    return F


def _gauge(gauge: str):
    """A gauge's time check, the kind of ambient space its flowed points lie in, and its time bound in an existence window.

    The one place a gauge name is checked: the checked flow passes a name
    that passed here on to the walk, and the oracle takes its ambient space
    (``oracle._gauge_ambient``) and its residual times' bound from here.
    """
    if gauge == "hyperbolic":
        return _hyperbolic_times, "hyperboloid", lambda window: window.t_max
    if gauge == "lorentz":
        return _lorentz_times, "lorentzian", lambda window: window.t_dprime
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
