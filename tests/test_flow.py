"""Closed-form flows, time gauges, leaf flows and existence windows."""

import hashlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperflow import flow as flow_module
from hyperflow.catalog import CATALOG
from hyperflow.descriptors import (
    Ambient,
    EuclideanIso,
    FullProduct,
    ProductOfSpheres,
    Umbilic,
    _is_stationary,
    _leaf_column_scales,
    _leaf_spherical_collapse,
    _umbilic_embed,
    _umbilic_split_rows,
    derive_umbilic,
    dimensions,
    immerse,
    immerse_rows,
    mean_curvature,
)
from hyperflow.errors import DomainError, GaugeDomainError, GeometryError, InvalidArgumentError, TimeOutOfRangeError
from hyperflow.flow import (
    _a1,
    _flow_rows,
    _hyperbolic_times,
    _lorentz_to_hyperbolic_scalars,
    _s_alpha,
    _s_alpha_of_w,
    _v_alpha,
    _validate_rows,
    existence_window,
    gauge_hyperbolic_to_lorentz,
    gauge_lorentz_to_hyperbolic,
    hyperbolic_flow,
    hyperbolic_flow_batch,
    lorentz_flow,
    lorentz_flow_batch,
    sphere_leaf_flow,
)
from hyperflow.limits import backward_limit, forward_limit
from hyperflow.lorentz import Membership, ambient_membership, minkowski_inner
from hyperflow.scenario import OracleSettings, Sampling, chart_samples, lorentz_time_range, run_invariant_battery, sample_times
from conftest import geodesic_chain, near_horospherical_circle
from test_descriptors import BIT_CASES, PLAN_CASES

LN2 = math.log(2.0)


class TestLorentzFlow:
    def test_ambient_scaling(self):
        d = Ambient(2, 1.0)
        x = np.array([0.0, 0.0, 1.0])
        for t in (0.3, 1.0, -0.2):
            assert np.allclose(lorentz_flow(d, x, t), math.sqrt(1 + 4 * t) * x)

    def test_tube_formula(self):
        d = CATALOG["tube_h3"]
        s, theta, t = 0.4, 0.9, 0.3
        x = immerse(d, [s, theta])
        F = lorentz_flow(d, x, t)
        expected = [
            math.sqrt(1 + t) * math.sqrt(2) * math.sinh(s),
            math.sqrt(1 - 2 * t) * math.cos(theta),
            math.sqrt(1 - 2 * t) * math.sin(theta),
            math.sqrt(1 + t) * math.sqrt(2) * math.cosh(s),
        ]
        assert np.allclose(F, expected, atol=1e-14)

    def test_horocycle_translates(self):
        d = CATALOG["horocycle_h2"]
        x = np.array([0.0, 0.0, 1.0])
        xi = np.array([1.0, 0.0, -1.0])
        for t in (-2.0, 0.7, 5.0):
            assert np.allclose(lorentz_flow(d, x, t), x - t * xi, atol=1e-14)

    def test_time_out_of_range_reports_bound(self):
        d = CATALOG["tube_h3"]
        x = immerse(d, [0.1, 0.2])
        with pytest.raises(TimeOutOfRangeError):
            lorentz_flow(d, x, 0.5)
        with pytest.raises(TimeOutOfRangeError):
            lorentz_flow(d, x, -1.1)  # below -r/(2l) = -1

    def test_defined_below_the_gauge_bound(self):
        # the Lorentzian domain extends below -1/(2n); conversions refuse it
        d = CATALOG["circle_h2"]
        x = immerse(d, [0.3])
        F = lorentz_flow(d, x, -0.8)
        assert minkowski_inner(F, F) == pytest.approx(-1.0 + 1.6, abs=1e-12)


class TestHyperbolicFlow:
    def test_circle_at_half_log_two(self):
        d = CATALOG["circle_h2"]
        x = np.array([math.sqrt(3.0), 0.0, 2.0])
        f = hyperbolic_flow(d, x, LN2 / 2.0)
        assert np.allclose(f, [1.0, 0.0, math.sqrt(2.0)], atol=1e-12)

    def test_circle_height_law(self):
        # the third coordinate is cosh of the shrinking geodesic radius, 2 e^-t
        d = CATALOG["circle_h2"]
        x = np.array([math.sqrt(3.0), 0.0, 2.0])
        for t in (-1.5, 0.0, 0.3, 0.6):
            assert hyperbolic_flow(d, x, t)[2] == pytest.approx(2.0 * math.exp(-t), abs=1e-12)

    def test_horocycle_trajectory(self):
        d = CATALOG["horocycle_h2"]
        x = np.array([0.0, 0.0, 1.0])
        for t in (-3.0, 0.4, 8.0):
            assert np.allclose(
                hyperbolic_flow(d, x, t), [-math.sinh(t), 0.0, math.cosh(t)], atol=1e-9
            )

    def test_ambient_is_stationary(self):
        d = CATALOG["ambient_h3"]
        x = immerse(d, [0.1, -0.4, 0.8])
        for t in (-50.0, 0.0, 50.0):
            assert np.array_equal(hyperbolic_flow(d, x, t), x)

    def test_collapse_time_refused(self):
        d = CATALOG["circle_h2"]
        x = immerse(d, [0.2])
        with pytest.raises(TimeOutOfRangeError):
            hyperbolic_flow(d, x, LN2)

    @pytest.mark.parametrize("name", sorted(BIT_CASES))
    def test_batch_matches_scalar(self, name):
        _assert_rows_match_scalar_flow(name, hyperbolic_flow_batch, hyperbolic_flow)


class TestGauges:
    def test_minimal_scaling(self):
        f = lambda x, t: np.asarray(x, dtype=float)
        x = np.array([0.0, 0.0, 1.0])
        assert np.allclose(gauge_hyperbolic_to_lorentz(f, 1, 1.0, x, 1.5), 2.0 * x)

    def test_time_zero_is_fixed(self):
        d = CATALOG["tube_h3"]
        x = immerse(d, [0.3, 0.4])
        F = gauge_hyperbolic_to_lorentz(lambda xx, tt: hyperbolic_flow(d, xx, tt), 2, 1.0, x, 0.0)
        assert np.allclose(F, x, atol=1e-15)

    def test_bound_is_refused(self):
        f = lambda x, t: np.asarray(x, dtype=float)
        with pytest.raises(GaugeDomainError):
            gauge_hyperbolic_to_lorentz(f, 1, 1.0, [0.0, 0.0, 1.0], -0.5)

    def test_horocycle_closed_form(self):
        xi = np.array([1.0, 0.0, -1.0])
        F = lambda x, t: np.asarray(x, dtype=float) - t * xi
        x = np.array([0.0, 0.0, 1.0])
        for t in (-1.0, 0.5, 2.0):
            got = gauge_lorentz_to_hyperbolic(F, 1, 1.0, x, t)
            expected = math.exp(-t) * x + 0.5 * (math.exp(-t) - math.exp(t)) * xi
            assert np.allclose(got, expected, atol=1e-12)

    def test_round_trip_identity(self, catalog_entry, rng):
        name, d = catalog_entry
        n = dimensions(d).n
        if n == 0:
            pytest.skip("stationary point")
        w = existence_window(d)
        us = chart_samples(d, 3, 13)[:5]
        times = sample_times(None, w.t_max, 10, rng, span=2.0 / n)
        F = lambda xx, tt: lorentz_flow(d, xx, tt)
        worst = 0.0
        for u in us:
            x = immerse(d, u)
            for t in times:
                via = gauge_lorentz_to_hyperbolic(F, n, 1.0, x, float(t))
                worst = max(worst, float(np.max(np.abs(hyperbolic_flow(d, x, float(t)) - via))))
        assert worst < 1e-12


class TestSphereLeafFlow:
    def test_clifford_pair_is_stationary(self):
        leaf = ProductOfSpheres(((1, 1.0), (1, 1.0)))
        y = np.array([1.0, 0.0, 0.0, 1.0])
        for s in (-3.0, 0.5, 4.0):
            out = sphere_leaf_flow(leaf, y, s)
            assert np.allclose(out.spherical, y, atol=1e-12)

    def test_uneven_pair_collapses_at_log_two(self):
        leaf = ProductOfSpheres(((1, 3.0), (1, 1.0)))
        y = np.array([math.sqrt(3.0), 0.0, 1.0, 0.0])
        # euclidean gauge: t(s) = 1 - e^{-s}; collapse of the small factor at t=1/2
        out = sphere_leaf_flow(leaf, y, 0.3)
        assert out.euclidean_time == pytest.approx(1.0 - math.exp(-0.3))
        s_collapse = LN2
        near = sphere_leaf_flow(leaf, y, s_collapse - 1e-9)
        # the surviving factor tends to the great circle of squared radius 4
        assert float(near.spherical[:2] @ near.spherical[:2]) == pytest.approx(4.0, abs=1e-6)
        assert float(near.spherical[2:] @ near.spherical[2:]) == pytest.approx(0.0, abs=1e-6)
        with pytest.raises(TimeOutOfRangeError):
            sphere_leaf_flow(leaf, y, s_collapse + 0.1)

    def test_point_leaf_is_stationary(self):
        leaf = ProductOfSpheres(point_position=(0.0, 1.0))
        y = np.array([0.0, 1.4])
        out = sphere_leaf_flow(leaf, y, 2.0, radius2=1.96)
        assert np.allclose(out.spherical, y)

    def test_euclidean_gauge_relation(self):
        # F_2(y, t(s)) = a2(t(s)) f_2(y, s) ties the two leaf gauges together,
        # with the whole-sphere scaling a2(t) = sqrt(1 - 2n't/R^2) and the
        # Euclidean-to-spherical time q(t) = -(R^2/2n') ln(1 - 2n't/R^2), R^2 = 4
        leaf = ProductOfSpheres(((1, 3.0), (1, 1.0)))
        y = np.array([0.0, math.sqrt(3.0), -1.0, 0.0])
        n_leaf, radius2 = leaf.dim, 4.0
        for s in (-1.0, 0.2, 0.5):
            out = sphere_leaf_flow(leaf, y, s)
            arg = 1.0 - 2.0 * n_leaf * out.euclidean_time / radius2
            assert arg > 0
            a2 = math.sqrt(arg)
            assert np.allclose(out.euclidean, a2 * out.spherical, atol=1e-14)
            assert -(radius2 / (2.0 * n_leaf)) * math.log(arg) == pytest.approx(s, abs=1e-12)


class TestExistenceWindows:
    def test_circle(self):
        w = existence_window(CATALOG["circle_h2"])
        assert w.t_dprime == pytest.approx(1.5, abs=1e-9)
        assert w.t_max == pytest.approx(LN2, abs=1e-9)
        assert w.t_alpha == pytest.approx(-1.5 * math.log(4.0 / 3.0), abs=1e-12)
        assert w.lorentz_lower == -0.5

    def test_tube(self):
        w = existence_window(CATALOG["tube_h3"])
        assert w.t_dprime == pytest.approx(0.5, abs=1e-12)
        assert w.t_max == pytest.approx(math.log(3.0) / 4.0, abs=1e-9)

    def test_horocycle_is_eternal(self):
        w = existence_window(CATALOG["horocycle_h2"])
        assert w.t_prime is None and w.t_dprime is None and w.t_max is None
        assert w.t_alpha == -0.5

    def test_clifford_leaf_time(self):
        w = existence_window(CATALOG["clifford_tube_h5"])
        assert w.t_prime == pytest.approx(LN2)  # spherical collapse of the leaf
        assert w.t_dprime == pytest.approx(0.5)
        assert w.t_max == pytest.approx(math.log(4.0) / 6.0)

    def test_nested_wrappers_chain(self):
        w = existence_window(CATALOG["circle_in_h4_nested"])
        assert w.t_max == pytest.approx(LN2, abs=1e-9)
        assert w.t_alpha is None  # geodesic wrapper: the limit chains inward
        assert w.inner is not None and w.inner.inner is not None
        assert w.inner.inner.t_alpha == pytest.approx(-1.5 * math.log(4.0 / 3.0))

    def test_window_consistency_relation(self, catalog_entry):
        name, d = catalog_entry
        w = existence_window(d)
        n = dimensions(d).n
        if w.t_dprime is not None:
            assert w.t_max == pytest.approx(math.log1p(2 * n * w.t_dprime) / (2 * n), abs=1e-12)
        else:
            assert w.t_max is None


class TestNormLaw:
    def test_norm_law_everywhere(self, catalog_entry, rng):
        name, d = catalog_entry
        n = dimensions(d).n
        lo, hi = lorentz_time_range(d)
        us = chart_samples(d, 4, 21)
        times = sample_times(lo, hi, 30, rng)
        worst = 0.0
        for u in us:
            x = immerse(d, u)
            for t in times:
                F = lorentz_flow(d, x, float(t))
                worst = max(
                    worst, abs(minkowski_inner(F, F) - (minkowski_inner(x, x) - 2 * n * t))
                )
        assert worst < 1e-9

    def test_umbilic_form_of_the_law(self, rng):
        # for umbilical descriptors the law reads <F,F> = -1 - 2nt
        for name in ("circle_h2", "horocycle_h2", "equidistant_h2", "geodesic_sphere_h3"):
            d = CATALOG[name]
            n = dimensions(d).n
            lo, hi = lorentz_time_range(d)
            x = immerse(d, chart_samples(d, 2, 3)[0])
            for t in sample_times(lo, hi, 20, rng):
                F = lorentz_flow(d, x, float(t))
                assert abs(minkowski_inner(F, F) + 1.0 + 2 * n * t) < 1e-9


class TestAncientness:
    def test_no_time_rejection_far_backward(self, catalog_entry):
        # evaluation at t = -1000 must never be refused on time-domain
        # grounds; entries whose coordinates exceed the double range saturate
        # arithmetically instead
        name, d = catalog_entry
        x = immerse(d, chart_samples(d, 2, 3)[0])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                hyperbolic_flow(d, x, -1000.0)
        except OverflowError:
            pass
        except GeometryError as exc:  # pragma: no cover - would be a bug
            pytest.fail(f"time-domain rejection at t=-1000: {exc}")

    def test_checked_flow_refuses_by_row(self, monkeypatch):
        # three rows whose squared norms are each 0.4 of the largest double:
        # their sum overflows, but no row's squared norm does, so they pass;
        # a row of squared norm 1.2 of it is refused
        big = math.sqrt(0.4 * sys.float_info.max)
        F = np.zeros((1, 3, 4))
        F[0, :, 0] = big
        monkeypatch.setattr(flow_module, "_flow_rows", lambda d, X, ts, gauge: F.copy())
        assert np.array_equal(flow_module._finite_flow(None, None, [0.0], "hyperbolic"), F)
        F[0, 0, 1:3] = big
        with pytest.raises(OverflowError):
            flow_module._finite_flow(None, None, [0.0], "hyperbolic")

    def test_membership_deep_in_the_past(self, catalog_entry):
        name, d = catalog_entry
        n = max(dimensions(d).n, 1)
        x = immerse(d, chart_samples(d, 2, 3)[0])
        y = hyperbolic_flow(d, x, -300.0 / n)
        assert ambient_membership(y, 1.0) is Membership.ON_HYPERBOLOID


class TestNearDegenerateHypersurface:
    def test_branch_switch_keeps_the_flow_sane(self):
        # an equidistant hypersurface at enormous distance has alpha within
        # 1e-8 of 1; it keeps the hyperbolic formula of its kind, whose
        # 1 - alpha^2 = <xi,xi> beta^2 carries no catastrophic cancellation
        from hyperflow.descriptors import Umbilic, derive_umbilic

        d = Umbilic(derive_umbilic([1.0, 0.0, 0.0], 1e5), Ambient(1))
        assert abs(d.umb.one_minus_alpha2) < 1e-8
        assert d.umb.one_minus_alpha2 == d.umb.beta**2  # no cancellation
        n = dimensions(d).n
        x = immerse(d, [0.4])
        rounding_floor = 1e-12 * float(x @ x)  # the form cancels 1e10-sized squares
        for t in (-2.0, 0.0, 1.5):
            F = lorentz_flow(d, x, t)
            f = hyperbolic_flow(d, x, t)
            assert np.all(np.isfinite(F)) and np.all(np.isfinite(f))
            assert abs(minkowski_inner(F, F) + 1.0 + 2 * n * t) < rounding_floor
            assert ambient_membership(f, 1.0) is Membership.ON_HYPERBOLOID

    @pytest.mark.parametrize("a", [10.0, 1e3, 2e4])
    def test_near_horospherical_circle_reaches_its_forward_limit(self, a):
        # a spherical level takes its own formula however close alpha is to 1,
        # so the flow ends where the level's existence window says it does
        d = near_horospherical_circle(a)
        u = chart_samples(d, 3, 7)[0]
        f = hyperbolic_flow(d, immerse(d, u), existence_window(d).t_max - 1e-9)
        assert np.max(np.abs(f - forward_limit(d, [u]).samples[0])) <= 1e-4

    def test_flow_is_smooth_in_the_level(self):
        # the two successive differences in a across a = 1e4 agree: no branch
        # switches between the three levels
        circles = [near_horospherical_circle(a) for a in (9999.0, 1e4, 10001.0)]
        u = chart_samples(circles[0], 3, 7)[0]
        for flow, time in ((hyperbolic_flow, lambda d: existence_window(d).t_max / 2.0), (lorentz_flow, lambda d: 0.5)):
            f = [flow(d, immerse(d, u), time(d)) for d in circles]
            assert np.max(np.abs((f[2] - f[1]) - (f[1] - f[0]))) <= 1e-5

    @pytest.mark.parametrize("seed", [7, 3])
    @pytest.mark.parametrize("a", [1e3, 2e4])
    def test_near_horospherical_circle_passes_the_forward_limit_check(self, a, seed):
        report = run_invariant_battery(near_horospherical_circle(a), Sampling(3, seed), OracleSettings())
        checks = {c.name: c for c in report.checks}
        assert checks["forward_limit_consistency"].passed
        if a == 2e4:
            assert checks["norm_law"].max_residual <= 1e-6


class TestGaugeScalars:
    def test_rejects_outside_real_domain(self):
        # n = 2, r = 2, l = 1, alpha = 2/sqrt(3)
        alpha = 2.0 / math.sqrt(3.0)
        with pytest.raises(TimeOutOfRangeError):
            _a1(1, 2.0, [-1.5])
        with pytest.raises(TimeOutOfRangeError):
            _s_alpha(2, 1.0 - alpha**2, 2.0)
        # the leaf time q at the Euclidean collapse t = 3 of a 2-dimensional
        # leaf, with R^2 = 4: its logarithm argument 1 - 2*2*3/4 is negative
        leaf = ProductOfSpheres(((1, 6.0), (1, 8.0)))
        with pytest.raises(TimeOutOfRangeError, match="q logarithm argument"):
            _leaf_spherical_collapse(leaf, 4.0)

    def test_time_arrays_keep_the_scalar_bits(self):
        # the array forms of sqrt(1 + 2lt/r) and sqrt(1 - 2pt/s) against the math forms
        rng = np.random.default_rng(3)
        ts = (rng.normal(size=200) * 10.0 ** rng.integers(-12, 0, size=200)).tolist() + [0.0, -0.0, 0.2]
        assert _a1(3, 2.5, ts).tolist() == [math.sqrt(1.0 + 2.0 * 3 * t / 2.5) for t in ts]
        leaf = ProductOfSpheres(((1, 3.0), (2, 1.7)))
        want = [[math.sqrt(1.0 - 2.0 * p * t / s) for p, s in leaf.factors for _ in range(p + 1)] for t in ts]
        assert _leaf_column_scales(leaf, ts).tolist() == want

    def test_time_array_refusals_name_the_first_time_then_factor(self):
        # S^2(1.0) collapses at t = 0.25 and S^1(3.0) at t = 1.5: at t = 2.0
        # both have, and the first factor is named at the first bad time
        leaf = ProductOfSpheres(((1, 3.0), (2, 1.0)))
        with pytest.raises(TimeOutOfRangeError, match=r"S\^1\(3\.0\) collapsed before t=2\.0$"):
            _leaf_column_scales(leaf, [0.1, 2.0, 0.6])
        with pytest.raises(TimeOutOfRangeError, match=r"S\^2\(1\.0\) collapsed before t=0\.6$"):
            _leaf_column_scales(leaf, [0.1, 0.6, 2.0])
        assert _leaf_column_scales(leaf, [0.6], end=True).tolist() == [[math.sqrt(0.6)] * 2 + [0.0] * 3]
        with pytest.raises(TimeOutOfRangeError, match=r"= -2\.000e\+00 <= 0 at t=-3\.0$"):
            _a1(1, 2.0, [0.5, -3.0, -4.0])

    def test_alpha_zero_is_the_identity_gauge(self):
        for t in (-700.0, -2.0, 0.0, 2.0):
            assert _s_alpha_of_w(3, 0.0, 1.0, t) == t
            assert _v_alpha(3, 0.0, 1.0, t) == 1.0


def _on_quadric(y: np.ndarray) -> np.ndarray:
    """y rescaled onto the upper sheet of H(-1)."""
    return y / math.sqrt(-minkowski_inner(y, y))


def _off_level(d, x: np.ndarray, depth: int, rng) -> np.ndarray:
    """x moved off the level at ``depth`` (0 = outermost), staying on every level above it.

    The level below the innermost descriptor is its leaf: a point moved off
    a spherical leaf keeps its distance from the sphere's center, and every
    point of a Euclidean inner model lies on the horosphere.
    """
    if depth == 0:
        return _on_quadric(x + 1e-4 * rng.normal(size=x.size))
    z = _umbilic_split_rows(d, x)
    if isinstance(d.inner, ProductOfSpheres):
        moved = z + 1e-4 * rng.normal(size=z.size)
        z = (np.linalg.norm(z) / np.linalg.norm(moved)) * moved
    elif isinstance(d.inner, EuclideanIso):
        z = z + 1e-4 * rng.normal(size=z.size)
    else:
        z = _off_level(d.inner, z, depth - 1, rng)
    return _umbilic_embed(d, z)


def _levels(d) -> int:
    """Nesting depth at which _off_level can still move a point off a level."""
    if isinstance(d, Ambient):
        return 0
    if isinstance(d, FullProduct):
        return 1
    inner = d.inner
    if isinstance(inner, (Ambient, FullProduct, Umbilic)):
        return 1 + _levels(inner)
    # a single sphere factor fills the level's sphere, and a flat without
    # spheres or padding fills the horosphere: no point is off such a leaf
    if isinstance(inner, ProductOfSpheres):
        return 2 if inner.is_point or len(inner.factors) > 1 else 1
    return 2 if inner.spheres is not None or inner.ambient_dim > inner.flat_dim else 1


# umbilic levels whose leaf a point can leave while it stays on the level
LEAF_CASES = {
    "torus_leaf": Umbilic(derive_umbilic((0.0, 0.0, 0.0, 0.0, -1.0), 2.0), ProductOfSpheres(((1, 1.0), (1, 2.0)))),
    "point_leaf": Umbilic(derive_umbilic((0.0, 0.0, -1.0), 2.0), ProductOfSpheres(point_position=(1.0, 0.0))),
    "horo_circle": Umbilic(derive_umbilic((1.0, 0.0, 0.0, -1.0), 1.0), EuclideanIso(0, ProductOfSpheres(((1, 1.0),)))),
    "horo_padded_line": Umbilic(derive_umbilic((1.0, 0.0, 0.0, -1.0), 1.0), EuclideanIso(1, offset=(0.3, 0.5), ambient_dim=2)),
}


def _outcome(call):
    try:
        call()
    except GeometryError as exc:
        return type(exc)
    return None


class TestValidateRows:
    """The row validator refuses exactly what the scalar flow refuses."""

    @pytest.mark.parametrize("name", sorted(CATALOG) + sorted(LEAF_CASES))
    def test_same_verdicts_as_the_scalar_flow(self, name):
        d = {**CATALOG, **LEAF_CASES}[name]
        rng = np.random.default_rng(8)
        U = np.array((chart_samples(d, 3, 4) * 3)[:3])  # a point descriptor has one chart sample
        X = immerse_rows(d, U)
        _validate_rows(d, X)  # on-level rows pass
        mean_curvature(d, X[0])
        cases = [("lower sheet", -X[0]), ("off quadric", 1.01 * X[0])]
        cases += [(f"off level {k}", _off_level(d, X[1], k, rng)) for k in range(_levels(d))]
        for label, bad in cases:
            scalar = _outcome(lambda: hyperbolic_flow(d, bad, 0.0))
            rows = _outcome(lambda: _validate_rows(d, np.vstack([X[2], bad])))
            assert rows is scalar, (name, label)
            assert _outcome(lambda: lorentz_flow(d, bad, 0.0)) is scalar, (name, label)
            # mean_curvature refuses a point off the ambient quadric with DomainError too
            assert _outcome(lambda: mean_curvature(d, bad)) is (None if scalar is None else DomainError), (name, label)
            if not isinstance(d, Ambient):
                assert scalar is not None, (name, label)

    @pytest.mark.parametrize("gap, flows, mean", [(5e-7, None, None), (5e-6, InvalidArgumentError, DomainError)])
    def test_quadric_tolerance_of_a_scaled_ambient(self, gap, flows, mean):
        # on H^3(-100) the quadric tolerance is 1e-8 r = 1e-6: a point with
        # <x,x> + r = 5e-7 is on it for the flows and for mean_curvature
        # alike, and one with 5e-6 is off it for all of them
        d = Ambient(3, 100.0)
        x = np.array([0.0, 0.0, 0.0, math.sqrt(100.0 - gap)])
        assert _outcome(lambda: hyperbolic_flow(d, x, 0.0)) is flows
        assert _outcome(lambda: lorentz_flow(d, x, 0.0)) is flows
        assert _outcome(lambda: _validate_rows(d, x[None, :])) is flows
        assert _outcome(lambda: mean_curvature(d, x)) is mean

    @pytest.mark.parametrize(
        "name, inner_point",
        [("torus_leaf", [math.sqrt(2.0), 0.0, 1.0, 0.0]), ("horo_circle", [0.0, 2.0]), ("point_leaf", None)],
    )
    def test_points_off_the_leaf_are_refused(self, name, inner_point):
        # on the level's hypersurface but off its leaf; (0, 0, 1) is not the point descriptor's point
        d = LEAF_CASES[name]
        x = np.array([0.0, 0.0, 1.0]) if inner_point is None else _umbilic_embed(d, np.array(inner_point))
        for call in (
            lambda: hyperbolic_flow(d, x, 0.1),
            lambda: lorentz_flow(d, x, 0.1),
            lambda: _validate_rows(d, x[None, :]),
            lambda: mean_curvature(d, x),
        ):
            assert _outcome(call) is DomainError, name

    def test_nested_inner_level_is_checked(self):
        # a point on the outer geodesic level but off the inner one
        d = CATALOG["circle_in_h4_nested"]
        x = immerse(d, [0.4])
        bad = _off_level(d, x, 2, np.random.default_rng(2))
        assert abs(minkowski_inner(bad, np.asarray(d.umb.xi)) - d.umb.a) < 1e-12
        assert _outcome(lambda: _validate_rows(d, bad[None, :])) is _outcome(lambda: hyperbolic_flow(d, bad, 0.1))
        assert _outcome(lambda: _validate_rows(d, bad[None, :])) is not None


def _assert_rows_match_scalar_flow(name: str, flow_batch, flow) -> None:
    """Rows of a batch flow equal the scalar entry point, its batch of one, bit for bit.

    Every case, the tilted placements included: the placement products run
    one stacked matmul per row, whatever the batch.
    """
    d = BIT_CASES[name]
    X = immerse_rows(d, np.array(chart_samples(d, 3, 17)[:6]))
    lo, hi = lorentz_time_range(d) if flow is lorentz_flow else (None, existence_window(d).t_max)
    for t in sample_times(lo, hi, 5, np.random.default_rng(5)).tolist() + [0.0]:
        rows = flow_batch(d, X, t)
        assert rows.shape == X.shape
        for x, row in zip(X, rows):
            assert row.tobytes() == flow(d, x, t).tobytes(), (name, flow.__name__, t)


class TestLorentzFlowBatch:
    """Rows of ``lorentz_flow_batch`` against the scalar entry point, its batch of one."""

    @pytest.mark.parametrize("name", sorted(BIT_CASES))
    def test_rows_match_scalar_flow(self, name):
        _assert_rows_match_scalar_flow(name, lorentz_flow_batch, lorentz_flow)

    def test_time_bounds_refused_like_the_scalar_flow(self, catalog_entry):
        name, d = catalog_entry
        X = immerse_rows(d, np.array(chart_samples(d, 3, 2)[:3]))
        lo, hi = lorentz_time_range(d)
        beyond = ([hi + 0.1] if hi is not None else []) + ([lo - 0.1] if lo is not None else [])
        for t in [b for b in (hi, lo) if b is not None] + beyond:
            batch = _outcome(lambda: lorentz_flow_batch(d, X, t))
            assert batch is _outcome(lambda: lorentz_flow(d, X[0], t)), (name, t)
            if t in beyond:
                assert batch is TimeOutOfRangeError, (name, t)

    def test_collapse_bound_message(self):
        d = CATALOG["circle_h2"]
        T2 = existence_window(d).t_dprime
        X = immerse_rows(d, np.array([[0.1], [2.0]]))
        with pytest.raises(TimeOutOfRangeError, match="Lorentzian collapse bound"):
            lorentz_flow_batch(d, X, T2)
        assert np.isfinite(lorentz_flow_batch(d, X, T2 * (1 - 1e-9))).all()

    @pytest.mark.parametrize("bad", ["off quadric", "lower sheet", "nan", "inf"])
    def test_off_hyperboloid_row_in_a_batch(self, catalog_entry, bad):
        name, d = catalog_entry
        X = immerse_rows(d, np.array(chart_samples(d, 3, 6)[:4]))
        X[2] = {"off quadric": 1.01 * X[2], "lower sheet": -X[2], "nan": np.nan, "inf": np.inf}[bad]
        for flow_batch in (lorentz_flow_batch, hyperbolic_flow_batch):
            with pytest.raises(InvalidArgumentError, match="not on the ambient hyperboloid"):
                flow_batch(d, X, 0.01)

    def test_one_quadric_verdict_for_both_entry_points(self):
        # deep in the past |x|^2 is large; a relative error of 3e-9 in the
        # time coordinate is past the rounding floor 1e-12 |x|^2 of the quadric
        d = CATALOG["equidistant_h2"]
        x = hyperbolic_flow(d, immerse(d, [0.3]), -4.0)
        assert float(np.dot(x, x)) > 6000.0
        bad = x.copy()
        bad[-1] *= 1.0 + 3e-9
        for call in (
            lambda: hyperbolic_flow(d, bad, 0.0),
            lambda: hyperbolic_flow_batch(d, bad[None, :], 0.0),
            lambda: lorentz_flow_batch(d, bad[None, :], 0.0),
        ):
            with pytest.raises(InvalidArgumentError, match="not on the ambient hyperboloid"):
                call()

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_refused(self, catalog_entry, t):
        # every entry point refuses the time itself, before any row is flowed to nan
        name, d = catalog_entry
        X = immerse_rows(d, np.array(chart_samples(d, 3, 6)[:3]))
        for call in (
            lambda: hyperbolic_flow(d, X[0], t),
            lambda: lorentz_flow(d, X[0], t),
            lambda: hyperbolic_flow_batch(d, X, t),
            lambda: lorentz_flow_batch(d, X, t),
        ):
            with pytest.raises(InvalidArgumentError, match="flow time must be finite"):
                call()

    @pytest.mark.parametrize("flow_batch", [lorentz_flow_batch, hyperbolic_flow_batch])
    def test_rows_of_the_wrong_width_refused(self, flow_batch):
        # (0, 0, 0, 1) is on the quadric of R^(3,1), one dimension too many for H^2
        for d in (Ambient(2, 1.0), CATALOG["circle_h2"]):
            with pytest.raises(InvalidArgumentError, match="rows of length 3"):
                flow_batch(d, np.array([[0.0, 0.0, 0.0, 1.0]]), 0.1)


class TestFlowCore:
    """The row flows over a time list: entry (t, row) against the one-time call, bit for bit."""

    @pytest.mark.parametrize("name", sorted(BIT_CASES))
    def test_entries_match_single_time_calls(self, name):
        d = BIT_CASES[name]
        X = immerse_rows(d, np.array(chart_samples(d, 3, 17)[:6]))
        rng = np.random.default_rng(8)
        ts = sample_times(None, existence_window(d).t_max, 7, rng).tolist() + [0.0, -3.0]
        grid = _flow_rows(d, X, ts)
        assert grid.shape == (len(ts),) + X.shape
        for t, rows in zip(ts, grid):
            assert rows.tobytes() == hyperbolic_flow_batch(d, X, t).tobytes(), (name, t)
        ts = sample_times(*lorentz_time_range(d), 7, rng).tolist() + [0.0]
        grid = _flow_rows(d, X, ts, "lorentz")
        assert grid.shape == (len(ts),) + X.shape
        for t, rows in zip(ts, grid):
            assert rows.tobytes() == lorentz_flow_batch(d, X, t).tobytes(), (name, t)

    @pytest.mark.parametrize("name", sorted(n for n, d in BIT_CASES.items() if existence_window(d).t_max is not None))
    def test_endpoint_entries_match_single_time_calls(self, name):
        d = BIT_CASES[name]
        X = immerse_rows(d, np.array(chart_samples(d, 3, 17)[:6]))
        T = existence_window(d).t_max
        ts = [T, 0.5 * T, T, -1.0]
        grid = _flow_rows(d, X, ts, end=True)
        for t, rows in zip(ts, grid):
            assert rows.tobytes() == _flow_rows(d, X, [t], end=True)[0].tobytes(), (name, t)

    @pytest.mark.parametrize("name", sorted(n for n, d in BIT_CASES.items() if isinstance(d, FullProduct)))
    def test_product_is_the_gauge_composition(self, name):
        # f(x, t) = e^(-nt) F(x, w(t)), bit for bit; at the endpoint the
        # Lorentzian time is T'' and the collapsed leaf radicand is zero
        d = BIT_CASES[name]
        n = dimensions(d).n
        X = immerse_rows(d, np.array(chart_samples(d, 3, 17)[:6]))
        ts = sample_times(None, existence_window(d).t_max, 7, np.random.default_rng(8)).tolist() + [0.0, -3.0]
        s, decay = _lorentz_to_hyperbolic_scalars(n, 1.0, ts)
        lorentz = _flow_rows(d, X, s, "lorentz")
        for j, rows in enumerate(_flow_rows(d, X, ts)):
            assert rows.tobytes() == (decay[j] * lorentz[j]).tobytes(), (name, ts[j])
            x, t = X[j % len(X)], ts[j]
            composed = gauge_lorentz_to_hyperbolic(lambda y, w: lorentz_flow(d, y, w), n, 1.0, x, t)
            assert hyperbolic_flow(d, x, t).tobytes() == composed.tobytes(), (name, t)
        T = existence_window(d).t_max
        ts = [T, 0.5 * T, -1.0]
        _, decay = _lorentz_to_hyperbolic_scalars(n, 1.0, ts)
        at_end = _flow_rows(d, X, [existence_window(d).t_dprime], "lorentz", end=True)[0]
        for j, rows in enumerate(_flow_rows(d, X, ts, end=True)):
            assert rows.tobytes() == (decay[j] * at_end).tobytes(), (name, ts[j])

    def test_empty_time_list(self):
        d = CATALOG["circle_in_h4_nested"]
        X = immerse_rows(d, np.array(chart_samples(d, 3, 17)[:4]))
        assert _flow_rows(d, X, []).shape == (0,) + X.shape
        assert _flow_rows(d, X, [], "lorentz").shape == (0,) + X.shape

    @pytest.mark.parametrize("name", ["circle_h2", "tube_h3", "clifford_tube_h5", "circle_in_h4_nested"])
    def test_time_list_reaching_T_is_refused_like_one_time(self, name):
        d = CATALOG[name]
        X = immerse_rows(d, np.array(chart_samples(d, 3, 2)[:3]))
        T = existence_window(d).t_max
        for bad in (T, T + 0.5):
            with pytest.raises(TimeOutOfRangeError) as one:
                hyperbolic_flow_batch(d, X, bad)
            with pytest.raises(TimeOutOfRangeError) as listed:
                _hyperbolic_times(d, [-1.0, 0.5 * T, bad, T + 1.0])
            assert str(listed.value) == str(one.value) == f"t={bad} >= hyperbolic maximal time T={T}"


def _geodesic_product(l: int):
    """The totally geodesic H^l(-1) in H^(l+1): a full product with r = 1 and a point leaf."""
    return FullProduct(l, 1.0, ProductOfSpheres(point_position=(1.0,)))


class TestStationaryFlow:
    """Totally geodesic descriptors keep their rows under the hyperbolic flow, at every time."""

    @pytest.mark.parametrize("l", [1, 9, 10, 70, 71])
    def test_geodesic_product_is_stationary(self, l):
        # the gauge composition e^(-nt) F(x, w(t)) drifted by 2% at l = 1,
        # t = -18, by 0.21 at l = 9, t = -2, and was refused from l = 10 on
        d = _geodesic_product(l)
        X = immerse_rows(d, np.array(chart_samples(d, 2, 5)[:4]))
        ts = [-19.0, -18.0, -2.0, 0.0, 0.5, 3.0]
        for rows in _flow_rows(d, X, ts):
            assert rows.tobytes() == X.tobytes()
        for t in ts:
            assert hyperbolic_flow(d, X[0], t).tobytes() == X[0].tobytes()
            assert hyperbolic_flow_batch(d, X, t).tobytes() == X.tobytes()

    def test_geodesic_umbilic_level_is_stationary(self):
        d = Umbilic(derive_umbilic([1.0, 0.0, 0.0, 0.0, 0.0], 0.0), _geodesic_product(2))
        X = immerse_rows(d, np.array(chart_samples(d, 3, 5)[:4]))
        for rows in _flow_rows(d, X, [-30.0, -2.0, 4.0]):
            assert rows.tobytes() == X.tobytes()

    def test_the_limits_share_the_predicate(self):
        from hyperflow import descriptors, limits

        assert flow_module._is_stationary is limits._is_stationary is descriptors._is_stationary
        assert descriptors._is_stationary(_geodesic_product(10))
        assert not descriptors._is_stationary(FullProduct(10, 1.5, ProductOfSpheres(point_position=(1.0,))))


# umbilic leaves with the layouts no catalog entry has: a flat with a sphere
# factor and an offset, sphere blocks in padding, a point, a minimal product
# of two circles, a torus off the level's great spheres, a padded line
LEAF_PIN_CASES = {
    name: {**PLAN_CASES, **LEAF_CASES}[name]
    for name in ("tilted_horosphere", "padded_horosphere", "point_in_sphere", "minimal_leaf_in_sphere", "torus_leaf", "horo_padded_line")
}


def _leaf_layout_outputs(d) -> dict:
    """Chart rows, both row flows with their endpoint modes, and the mean curvature, by label."""
    n = dimensions(d).n
    X = immerse_rows(d, np.array(chart_samples(d, 3, 17)[:6]))
    rng = np.random.default_rng(8)
    T = existence_window(d).t_max
    out = {
        "immerse_rows": X,
        "hyperbolic": _flow_rows(d, X, sample_times(None, T, 4, rng).tolist() + [0.0, -3.0]),
        "lorentz": _flow_rows(d, X, sample_times(*lorentz_time_range(d), 4, rng).tolist() + [0.0], "lorentz"),
        "mean_curvature": np.array([mean_curvature(d, x) for x in X]),
    }
    # a totally geodesic flow has no light-cone endpoint: its radicand vanishes there
    if not (n > 0 and _is_stationary(d)):
        out["lorentz_light_cone"] = _flow_rows(d, X, [-1.0 / (2.0 * max(n, 1))], "lorentz", end=True)
    if T is None:
        out["lorentz_far"] = _flow_rows(d, X, [math.inf], "lorentz", end=True)
    else:
        out["hyperbolic_end"] = _flow_rows(d, X, [T, 0.5 * T, -1.0], end=True)
    return out


def _leaf_layout_digests(d) -> dict:
    return {label: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest() for label, v in _leaf_layout_outputs(d).items()}


# sha256 of every output of _leaf_layout_outputs, recorded before the leaves
# took over their layouts from the umbilic level's code
LEAF_LAYOUT_SHA256 = {
    "horo_padded_line": {
        "immerse_rows": "2b8c075074d02d71d29abae44f81eac88b38681683954214d57b0f467c729c1e",
        "hyperbolic": "4f8fad145a1c822e2bb51dadf2376a324b22c9f5d1a3ddb6a1fd2de6c99d2f80",
        "lorentz": "26b2b93e4542c55eb6a8e4457a4fd7fc363ab1ac75071afafe739587edf238d2",
        "lorentz_light_cone": "7dc4d3793c80084ab016b2d9aedf3badb841a7f2533f27ac138c9da2b20eafe3",
        "mean_curvature": "485ce76abd19410242619e541b59ac44a3bdb75d069e2cdc022dfece55f155e7",
        "lorentz_far": "5f7ba2ff780ec96c0b237a2c9cef832a3fbc76fe2aa25bd1435077970736c033",
    },
    "minimal_leaf_in_sphere": {
        "immerse_rows": "34e8e90f6681b1203242ff1e20a84be12fabb3f467bd72f6a36520e279ed3eb0",
        "hyperbolic": "6cde9b945c99a71143a9dc602206125ddb037af0df66500707a2e110e084ba1d",
        "lorentz": "2a9c5b34816a66d0f0f7b3d1a566729674f50802c557c18bdc72574575b125ea",
        "lorentz_light_cone": "7f95bc299e088a2c4cd7a8e934859e61b292617a8e1dd28eee245d800c200b92",
        "mean_curvature": "361df805ca00a0d4be8beb044f35be9103cd0268e5bb2832e4ffa78544932de8",
        "hyperbolic_end": "9f4f04f7c0324b889369b9371ee0f975e197ae63d6bd05f718ffb969a46873f2",
    },
    "padded_horosphere": {
        "immerse_rows": "87e0bb0c151af1fc6716925980ff2a0b185a0a03f01419a0349f7d468febfe0d",
        "hyperbolic": "3a11b165ff3c8c01ab51c7dfd7f440ec4c621366d7e22fa239faab851e0ec603",
        "lorentz": "86949f0b96511f48ba56343944ed42f24e1ad2cecf7692b751169a3b2cee971a",
        "lorentz_light_cone": "d4cff9d474b7e4f861331d5b822a5931a6883810a74a93ca28e5b073df1fbc0b",
        "mean_curvature": "250765739fc47c5c35057d442f3581e4c22510026484aeb70772edfe19327e87",
        "hyperbolic_end": "85a28d3f88e31c2091e201fd0f9b84cbe664bf405a4a9e130979ecd09e9b0e94",
    },
    "point_in_sphere": {
        "immerse_rows": "4879a7fe350cd1065bb8fe7afe4c605e37cbba5f21c93f8c0ab1cdb45a5dd940",
        "hyperbolic": "f0f39ac351a37edfdd9a9b40ee19d6a39de31d1468859fe9a7eb519c6fa56911",
        "lorentz": "c7dac9f3c98983c79355c2d59002ec322e6c809c73646c09444a12914ece1539",
        "lorentz_light_cone": "4879a7fe350cd1065bb8fe7afe4c605e37cbba5f21c93f8c0ab1cdb45a5dd940",
        "mean_curvature": "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
        "lorentz_far": "4879a7fe350cd1065bb8fe7afe4c605e37cbba5f21c93f8c0ab1cdb45a5dd940",
    },
    "tilted_horosphere": {
        "immerse_rows": "d9a20ebc6d3fb732b850b38c4568f4293043b5a5fb31c4501d45616c3e8a5452",
        "hyperbolic": "672cbe0ae458c65a006cb92675343728148e29808bd4860819761ca49a10ebd7",
        "lorentz": "61e6083ae32b20968066600f169ff403e44cc7d5b825d18d7d9278fdc7c5bf3a",
        "lorentz_light_cone": "bc8f99f37d03a237578bd8527c6fe8eba1e9f6deae7efe0fac90c78d3027ef04",
        "mean_curvature": "c882c3dfc66965b2e21d47663653ea1e169a4f761d213ed61ddbad0ce9dbed23",
        "hyperbolic_end": "adb8c2bc1eb1dfcbbd68b0c9fce8e0ea51e3f88f43b45e95b586f1da10e2a90e",
    },
    "torus_leaf": {
        "immerse_rows": "1dbe82e3e619e9b045c05f11a8eb52ce7a16f40c4f42f5c3e2cf42aa5c4a8b6d",
        "hyperbolic": "5ff4ad82e0ba3f4d2e4c548d26f5ee1a6ae7c52597d03415c596ee6f02afe97c",
        "lorentz": "ae45a99dd45ac9296d0e831111efe21e7b1a1966c912844e9fce04dba7863faf",
        "lorentz_light_cone": "c04e26cbaa80f2028af3284aab78bbc3cfdb55485ebf8fed56dac144284c1b13",
        "mean_curvature": "43cedf93944f6d0076e72b22259484cbdd79173093fc6f3ff54136e3a45327f1",
        "hyperbolic_end": "81fe04d19d8a419e5a3daf6b3eec5df8c2100c1b1ef1710552e9551b5c566ef0",
    },
}


class TestLeafLayoutPins:
    """The leaves' charts, flows and mean curvature keep their bits."""

    @pytest.mark.parametrize("name", sorted(LEAF_PIN_CASES))
    def test_outputs_keep_their_bits(self, name):
        assert _leaf_layout_digests(LEAF_PIN_CASES[name]) == LEAF_LAYOUT_SHA256[name]


def _wrapped(d, *levels):
    """d inside umbilic levels, innermost first: (the leading entries of xi, zero-padded to the level's ambient, a)."""
    for head, a in levels:
        m = dimensions(d).m + 1
        d = Umbilic(derive_umbilic(list(head) + [0.0] * (m + 1 - len(head)), a), d)
    return d


GEODESIC = ((1.0,), 0.0)
# a unit spacelike xi off every axis: its geodesic level's placement is dense
TILTED_GEODESIC = ((0.48, 0.6, 0.64), 0.0)

# chains of geodesic levels with an axis-aligned xi, over each kind of inner
# level, chains whose run a tilted geodesic level or an a = 0.5 level breaks,
# and a chain of 24 levels that alternate the two, so no run folds any of them
LEVEL_RUN_CASES = {
    **{f"circle_h2_run{k}": geodesic_chain(k) for k in (1, 2, 8, 24)},
    "minus_e0_run": _wrapped(CATALOG["circle_h2"], *[((-1.0,), 0.0)] * 3),
    "tube_h3_run": _wrapped(CATALOG["tube_h3"], ((0.0, 0.0, 1.0), 0.0), ((0.0, -1.0), 0.0), GEODESIC),
    "horocycle_h2_run": _wrapped(CATALOG["horocycle_h2"], ((0.0, 1.0), 0.0), GEODESIC),
    "clifford_tube_h5_run": _wrapped(CATALOG["clifford_tube_h5"], ((0.0, 0.0, 0.0, -1.0), 0.0), ((0.0, 1.0), 0.0)),
    "equidistant_h2_run": _wrapped(CATALOG["equidistant_h2"], GEODESIC, ((0.0, 0.0, 1.0), 0.0), ((-1.0,), 0.0)),
    "ambient_h3_run": _wrapped(CATALOG["ambient_h3"], ((0.0, 1.0), 0.0), GEODESIC),
    "tilted_break": _wrapped(CATALOG["circle_h2"], GEODESIC, ((0.0, 1.0), 0.0), TILTED_GEODESIC, GEODESIC, ((0.0, 0.0, -1.0), 0.0)),
    "a05_break": _wrapped(CATALOG["circle_h2"], GEODESIC, ((0.0, 1.0), 0.5), GEODESIC, ((0.0, -1.0), 0.0)),
    # the top level's T' reads 1 ulp off the circle's T (each level takes ln(1 + expm1(.))), so the
    # endpoint flow below the run must be given the circle's own T
    "circle_a128_run2": _wrapped(Umbilic(derive_umbilic((0.0, 0.0, -1.0), 1.28), ProductOfSpheres(((1, 1.28**2 - 1.0),))), GEODESIC, GEODESIC),
    "mixed24": _wrapped(CATALOG["circle_h2"], *[TILTED_GEODESIC, ((0.0, 1.0), 0.5)] * 12),
}


def _hyperbolic_levels(d) -> list:
    """d and the inner levels of its hyperbolic levels, top first."""
    levels = [d]
    while isinstance(levels[-1], Umbilic) and levels[-1].umb.kind == "hyperbolic":
        levels.append(levels[-1].inner)
    return levels


def _off_level_refusals(d) -> list[str]:
    """The refusal of a point that lies on every level above one of d's levels but off that one, for each level.

    The point is a generic point of the hyperboloid that holds the level,
    embedded through the levels above it.
    """
    levels = _hyperbolic_levels(d)
    out = []
    for j, level in enumerate(levels):
        if isinstance(level, Ambient):
            continue
        probe = Ambient(dimensions(level).m)
        for above in reversed(levels[:j]):
            probe = Umbilic(above.umb, probe)
        X = immerse_rows(probe, np.array(chart_samples(probe, 1, 5)))
        with pytest.raises(GeometryError) as refused:
            _validate_rows(d, X)
        out.append(f"{j} {type(refused.value).__name__}: {refused.value}")
    return out


def _level_run_outputs(d) -> dict:
    """The outputs of ``_leaf_layout_outputs``, both limits' samples and the off-level refusals, by label."""
    out = _leaf_layout_outputs(d)
    S = chart_samples(d, 3, 17)[:6]
    fwd = forward_limit(d, S)
    out["forward_limit"] = fwd.samples if fwd.ideal_point is None else fwd.ideal_point
    if not _is_stationary(d):
        out["backward_limit"] = backward_limit(d, S, estimate_dim=False).samples
    out["off_level"] = np.frombuffer("\n".join(_off_level_refusals(d)).encode(), dtype=np.uint8)
    return out


def _level_run_digests(d) -> dict:
    return {label: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest() for label, v in _level_run_outputs(d).items()}


# sha256 of every output of _level_run_outputs, recorded before a run of
# geodesic levels crossed its levels in one gather
LEVEL_RUN_SHA256 = {
    "a05_break": {
        "backward_limit": "9f7b38e951b3d760a91390283f4b3fe9a861b1564fbdf2aece8093491c8f1873",
        "forward_limit": "6f3ea615199bca9fa55f1fd6d8cc080eead7c1c85b47e3b59c25a62090f09a32",
        "hyperbolic": "75d8a08798a00b02f3281a42be396c18d42ee7a29fbd7b36669da23d97cde047",
        "hyperbolic_end": "cc1bfca5dce80e081ee1fcf7e95ce5b4bf501efb1f1f283c7f1229bd8fbc83db",
        "immerse_rows": "7c70ef058d8d555743ca5172dccbb9ed400d0c28b7478cb06381be47a4be4a67",
        "lorentz": "440c6be2c2b808f50e75e0935dbd77c803ada24ff0a58ffa8c390cc44504688b",
        "lorentz_light_cone": "ef750fac1c8d72b93d0c31b05567037e865d5ec758b2d31303b77aeeac6bda47",
        "mean_curvature": "a1ec5179f116b21a5a59ccfb74b41523409d2685717584616b97c33302062302",
        "off_level": "52350da4b3866e355c8de93ba93741420c2f0ec3d32b110b7f22520c9ee5a950",
    },
    "ambient_h3_run": {
        "forward_limit": "5a10e41762711a8ca0e4849820b19b16026a6168d51931b6f6b91840bb7ba9eb",
        "hyperbolic": "537e35b311c6acd45d520c2c735a8eed022baf1e62626dd1095ec1bd6d4e5e0d",
        "immerse_rows": "5a10e41762711a8ca0e4849820b19b16026a6168d51931b6f6b91840bb7ba9eb",
        "lorentz": "7911f08ef5f894d8e4d1c75aa68b1e98c02f9245fdeb2b79cb99fdab2714c640",
        "lorentz_far": "5a10e41762711a8ca0e4849820b19b16026a6168d51931b6f6b91840bb7ba9eb",
        "mean_curvature": "e8e185dc9a865e7ffa88109a254fde3fa5d9abe17f47ac2641fa6602e02b2a42",
        "off_level": "ad1e2408f91dbb0c93d6810ddb317d7be9171dd029811169f98d5d334cfae49e",
    },
    "circle_a128_run2": {
        "backward_limit": "47cb083d56950a7608933f9926b83fdb2e34b6d962a59e522be70ea0593b7ae9",
        "forward_limit": "0fb3c52bb342778dc5e052fcd14dbfd844c2db460b0b13dc03bb56bae5da6e3e",
        "hyperbolic": "a6123c09b491a4b1ccb2b84abf6fcd2d518773aaee3eff297433f04294cf2327",
        "hyperbolic_end": "f32c367de394a8670c8423f8045781fd9629a0cba84f0bd4e82f2303895180d9",
        "immerse_rows": "bd5e2f236a26944f7b7820b3807b2db126e0f5c30c7d4bf2a5e1cf97d7cb0140",
        "lorentz": "9d9bb65e9a76f19a04f933969299c1a3fa6cb2fc171bd3318d56778cb798e156",
        "lorentz_light_cone": "5eebe6ba31320056fda173f7bcadb94c1de89d672725e7bfb7637ebd5b07097d",
        "mean_curvature": "e6113e1280d3c51381a19f330639e0962b7489e9132e35b23dfcadc83cd060dc",
        "off_level": "12900d7056f67531aaa6f53820373e390e89536e2c1767daca239c7064bacf32",
    },
    "circle_h2_run1": {
        "backward_limit": "1bccdae77410683ed22012f244d7050efb8ecbcad753348cf5844cdfdae418fd",
        "forward_limit": "33284118e4e0d42915cc19c540a188f9e60884c74825f4b7d7ae682d75062986",
        "hyperbolic": "9b3461beae483b237fa85b532daf89b9d5304c21f6e789b39b6f5f69490d700f",
        "hyperbolic_end": "3d0cf42b6b83224904f4c82fe4cbca2ce99a195870b96d278f3c2a44ff765bb1",
        "immerse_rows": "54c238b9d6cb391d907403337c4b21186cf870a16925649993c655967b4d5cad",
        "lorentz": "b4523bffc5232f1034f90fe317b8ae4d53ee5a1e0f147512e8040eb392264760",
        "lorentz_light_cone": "645a6b045eea45dfc9d7faa342d56f5fc76ec7c4c8bc1eabaf64c04f25219e59",
        "mean_curvature": "6c6ba8a1a7b00c9d64ada4011f8d130bc0271f75a3b932d64a53a1ea1dc93b51",
        "off_level": "ad1e2408f91dbb0c93d6810ddb317d7be9171dd029811169f98d5d334cfae49e",
    },
    "circle_h2_run2": {
        "backward_limit": "e60787c5537560737041ffe0492109d8bf09e204302d2092f7f95b6e91e258e5",
        "forward_limit": "562d8fb349bd161e4580c3247d54c579e6201eb42a764174b82f40c93f79c31b",
        "hyperbolic": "18dbcd96cb04e3b6924e77a8222705781c8fdde5ca55e8b11c4f574a66de0e34",
        "hyperbolic_end": "01371b46420e2ecefa484b3df11af9af13797dacf3ba820a877996ea7eea3453",
        "immerse_rows": "becc9f26e426e515d18f4c061e1347dde5b6c597358b194ebf8980d9d78ae1b6",
        "lorentz": "9a935dd6a74c41faf4f6436aba4b0b5b2fc317281b7fd0ec8791093037f0dfcf",
        "lorentz_light_cone": "780de4de7474c08932f5103488699d9f10093cfd1ee478d8d4269cb71674e0ab",
        "mean_curvature": "b520fb60bf0e1f1a0b6a3e0c7bec74bd278fd83856aa43321edc361d46213df8",
        "off_level": "12900d7056f67531aaa6f53820373e390e89536e2c1767daca239c7064bacf32",
    },
    "circle_h2_run24": {
        "backward_limit": "9dd3ce08a933ab1fb3f7abfc75165dd0b152fbeabc9669918ad400868dcbb3fe",
        "forward_limit": "1f612373113ab02ba59e51aa5e0530989d955d5f61bfca71198241676b7b03e3",
        "hyperbolic": "ec282656a3ddceb1ddc6457907efdf8ab289cb8445d50427bae3c1d5127b345d",
        "hyperbolic_end": "6b655e774414bd774ed26254c72f3d91218802eb5f6ced3fa89e81308ff64608",
        "immerse_rows": "fd620c7c3cded4fb152dc66629247ca7ab352f15e00e8590ef86be3123e8a311",
        "lorentz": "846651856aa4181e5600a8978dc10d5f23aeed24a57b51cc09610625827ed77c",
        "lorentz_light_cone": "933df6b6accbe6feb2c21cd3efa4e90a9a6f8e0f2598d9f47667602fc123fe85",
        "mean_curvature": "dd9d945c108309f69b50cea36a4468ea4301f0d3b6647b7f18a299679e376afa",
        "off_level": "f81d42384e23dd250d5f27e4ffafbb718eb27967038e116aa2601c700308bdfe",
    },
    "circle_h2_run8": {
        "backward_limit": "ec28b455e4eda7190a4d49b91290f5daddd2bf03e5f4edd525736c4432cfaf76",
        "forward_limit": "91961bbdcc4b60c29f845b33d044d82a7d6ea7290e60da052f4d4833be683b6a",
        "hyperbolic": "1513fd2ef57dc859527d1dea4e90e514b419c1b784e059a0840a7f90a5bbf54e",
        "hyperbolic_end": "32cb5913b18bfe3d77797ea3f3f16a5ecbf5052d7611664df9a595b34d6f1dea",
        "immerse_rows": "91a3e80cd42d8ae7ad5e0f6a81ab48f83f48fd00f4677cc26317f05ffe47c712",
        "lorentz": "71df10d38c37f2083af1e91298cd98bf953528c052e0269fb4b8a20dc860d42e",
        "lorentz_light_cone": "7505b173b72ff55d8c7b38d43f69f742e002d36a1bfa580ba79e7a9ee42eaefa",
        "mean_curvature": "bbedd59ad2374550b5da391e0263df27b7021bd40d1aec4c6b26378ff796d59e",
        "off_level": "1bc233648839a01c0631dfb002934ea95976df0f175aa74b3ec5e4e55a633a87",
    },
    "clifford_tube_h5_run": {
        "backward_limit": "0361f5cdba27e868c3bd0f7e0f483ecbbacb9aa4ce7930d6db77b7c8f678c927",
        "forward_limit": "f2e11e961e20ca0e9d20e60e6223f29077755725c7958efd2a3a7287a16755f8",
        "hyperbolic": "9d02e18d9042d65f8c7b86ce0e13f7149920f31b2706a0f60f98715ff4108662",
        "hyperbolic_end": "376d596dd8dca96dd42b01ad2fd5c20c53956c4eeb412ca8d1c508e15e460e91",
        "immerse_rows": "c371545234665df86d17893fee45ab4d2c1816a20d657b72c7e8cb08a1676512",
        "lorentz": "08dab7938759b323db91178525a1f7afc6a89d96a0b892119fb1453e0000a1a1",
        "lorentz_light_cone": "71872c8649fb4413ed18c56c28ba3f882bd9be896b7b1347f008aa43b673461c",
        "mean_curvature": "15306790ff6b61533a5accc66367521242c13c439a5ec18e10402e365c665198",
        "off_level": "60205d4bdf7e74d3db556a5f36451bb462a29bc045e8435086fc119fb8d97b5c",
    },
    "equidistant_h2_run": {
        "backward_limit": "0f9a695a48bc5482fb6a87f7902885da92b0aa3ef6388def53c7b63fe60a245c",
        "forward_limit": "4962e0305a1232404a6f747ee7092acbce9e42d696c96a071cf2601072420182",
        "hyperbolic": "fab40b8223a1282d16050049b232950f20309ce814b3b54b52f99c4a8346b652",
        "immerse_rows": "113d7206235d41b8c90d8e9830a89018fde6c991042afba88b7a1e93b3001101",
        "lorentz": "dc4fe43e65edbc66814f1ee2f113922091873942ca328c73b1e0eaf03c7e53b2",
        "lorentz_far": "4962e0305a1232404a6f747ee7092acbce9e42d696c96a071cf2601072420182",
        "lorentz_light_cone": "a738d1376fcdffef76eafa0f0b8d4ba937f0a1e9866ff6c3753342e9503922b6",
        "mean_curvature": "65450d8ddd7da566168ae3f15c0c42d3d93aa21c6a577b155ea3f234256a2fe6",
        "off_level": "fd8c9f0db369f24e19899bea06c77b0b2e2d6602c338a70e4ec1b0c6b9993a15",
    },
    "horocycle_h2_run": {
        "backward_limit": "119d2ef0e9afe3f5959c7f942b384cdd277682a5abbade0f5dbdbfcf71756d81",
        "forward_limit": "9166a844bb4ff59c00df2b7c418092a12274e2dcc16a0f6443b6b5c53a56badd",
        "hyperbolic": "28d34c57f697c65f8fc1d0539859a407d3ee8f8c3ab13720f7dd329acb999a58",
        "immerse_rows": "91067122292af19cb8e042dfed19c5ec1011f8ddc06500a1e7a03d2042054cc8",
        "lorentz": "deb61e1e33fcbb9c6c411483d3ee4e736d2ade6700bfee0d429de056ac28c085",
        "lorentz_far": "63a8ff1ce8d3cb355a92c8c1bb0ec29647d6e4836aa84bea65e8eb9247c0dd9c",
        "lorentz_light_cone": "9c1942d06c3a20c618e1c7de61b6b6138395ffe480c691cd8f79801c35b7a53d",
        "mean_curvature": "27130cddca73ac80d8d26d346fe8dba1f93a97d9874a08639a5ce88bcfdd6273",
        "off_level": "12900d7056f67531aaa6f53820373e390e89536e2c1767daca239c7064bacf32",
    },
    # recorded before the flows became one loop over the levels
    "mixed24": {
        "backward_limit": "58b1428a21affc0616b8039c62f56c6c0fe6a21bf76d8d23a22f5e5dbfcf2e18",
        "forward_limit": "31049e5cd2fe58f22fa2dc4f265816587176167af352adea9773de49d14599cd",
        "hyperbolic": "7145735512d3e9cea3ddf9dc7737c7043e86ff9d1679d5b07582fe105c46c421",
        "hyperbolic_end": "80e82b2b4fe04d6bef7a14fa6a01fc25491d1558e29b74bd312c570ef5037db5",
        "immerse_rows": "0f0395a63b3353cb8b430183b16a570823b92eaf136cf24932e750b1ed8d19ee",
        "lorentz": "a911b70874e6a370a7f2432094d9b5710f8ed0018b21b29d184f1f76ede431ac",
        "lorentz_light_cone": "31bd4b78ab4c98c4075ca40204ec93d1d68cf8409c592fddb80dd73b385fb473",
        "mean_curvature": "75d532807b66f49dc8f09146b9f8c7a793ddd86d34d98ec9d69213896bfc2aff",
        "off_level": "f81d42384e23dd250d5f27e4ffafbb718eb27967038e116aa2601c700308bdfe",
    },
    "minus_e0_run": {
        "backward_limit": "8a0633595605b06fea5dfb4a3724146248c22f45e7f66d5e4bfcc4b46944f090",
        "forward_limit": "7ba00c658630872fa5d6b23a809b4bb7281bfddc03514ded1659f07411a4b3e7",
        "hyperbolic": "39a8d52f4dc51e19fd6187cc3edea9e3d763000253116d0d35a73c526dc7302d",
        "hyperbolic_end": "519efb93ac553d5117da26f36a6004242c1ffac0b4053f35d3bcd24930c1e359",
        "immerse_rows": "299b44fd887841c149b214e67ff9b2f1adf208ba7cfc9c9ccb4c8d2163149f15",
        "lorentz": "de300510c5282bbbe6518d7629d1e4581ef935636d6b3c10f129add42eff06f4",
        "lorentz_light_cone": "2578183424af02678d6f257faa7d0d20a0304656867516c450f0e1f9ef081fcc",
        "mean_curvature": "b9840c0bc76ba60c52dc1a973d6f8d0a4ee7268935537f717e4851c8bbf7f9be",
        "off_level": "fd8c9f0db369f24e19899bea06c77b0b2e2d6602c338a70e4ec1b0c6b9993a15",
    },
    "tilted_break": {
        "backward_limit": "8f3186c173ea65fca93c607a9421ecec90d8f1feef6b1fefbba139631d949833",
        "forward_limit": "3c85052b045a08c7a384c1086f590793ab512c9568f3c72a9d82619db7028263",
        "hyperbolic": "15bc2b321ef74f26d963c1a5395d649aadc844119350b2c4d4f8de0d65006638",
        "hyperbolic_end": "95362aa5e1729d01261918ce1d538ac743fbee6bd4ebba4afe99cf02f753524e",
        "immerse_rows": "18bcfecf344d7df64a5b6388fae7c2f95c4f64ab8e1a66b7fa3ee7acbab4c2bb",
        "lorentz": "4048da74247aa35e38f3847a28a9c40e63413a9d88fe36aa39fa119c327098f2",
        "lorentz_light_cone": "98372198622d6a6fcf570e4faad3183d2d8701858115c8f17d152474c0e666e9",
        "mean_curvature": "02a72c4db63079a7ec8b43578ab184f0a8d2823e9c5b273c68239f0f7aaab9b9",
        "off_level": "8bc82f371a0f87a6fa0b0388d590d23fc32217b4df3da00213961009b84159de",
    },
    "tube_h3_run": {
        "backward_limit": "b447b48da9e2aab0a15edbb14acda5d237fc53f58a8fdf9785938dacc67723aa",
        "forward_limit": "2a61228ffb1dfd4789d7c035af674b7af709d0de9e063e442b3d43e5d3b9925f",
        "hyperbolic": "8fc5df3025406160b4114957e5384632fc205ace3ebe10c531f5874713f4b6da",
        "hyperbolic_end": "5576f3819898a01ae8589e5020839af5a985ab9cf0c644aded450f181144c198",
        "immerse_rows": "323a20fb836291343c65e89379d26109a38362218891b5a90fb8dba4a6a1fc7a",
        "lorentz": "305d1fc16c0fbef88af33e21391c48c0068f0778a668e54a0b0ead0693022ac5",
        "lorentz_light_cone": "ad1b4e86b67b6c2b587931fdbdf377905cc1faa2e13ee21bac47cf1b3a105a39",
        "mean_curvature": "3ce4809ace28d2c9b8c4211c1c9861df585dd87411900cd7e5522aa7a858f49a",
        "off_level": "56401f7e14954e4f17ef8e1ce61c577ceeaf3702bb539b86ef498a471cb767b2",
    },
}


class TestLevelRunPins:
    """Chains of geodesic levels, whole or broken, keep every output bit."""

    @pytest.mark.parametrize("name", sorted(LEVEL_RUN_CASES))
    def test_outputs_keep_their_bits(self, name):
        assert _level_run_digests(LEVEL_RUN_CASES[name]) == LEVEL_RUN_SHA256[name]


class TestLevelRuns:
    """A run of geodesic levels with unit gathers is crossed in one split and one embed."""

    @staticmethod
    def _visits(monkeypatch) -> list[int]:
        """The number of levels each walk over ``_levels`` visits, one entry a walk, through every module that holds it."""
        from hyperflow import descriptors, limits

        original, visits = descriptors._levels, []

        def levels(d):
            visits.append(0)
            k = len(visits) - 1
            for level in original(d):
                visits[k] += 1
                yield level

        for module in (descriptors, flow_module, limits):
            monkeypatch.setattr(module, "_levels", levels)
        return visits

    def test_plans_hold_the_run_from_each_level_down(self):
        from hyperflow.descriptors import _plan

        for depth in (1, 2, 8, 24):
            d = geodesic_chain(depth)
            levels = _hyperbolic_levels(d)
            for level in levels[:-1]:
                assert _plan(level).run.below is levels[-1]
            assert _plan(levels[-1]).run is None
        top, l1, tilted, l3, l4, circle = _hyperbolic_levels(LEVEL_RUN_CASES["tilted_break"])
        assert _plan(top).run.below is _plan(l1).run.below is tilted
        assert _plan(tilted).run is None and _plan(tilted).placement.J_rows is None
        assert _plan(l3).run.below is _plan(l4).run.below is circle
        top, l1, half, l3, circle = _hyperbolic_levels(LEVEL_RUN_CASES["a05_break"])
        assert _plan(top).run.below is _plan(l1).run.below is half
        assert _plan(half).run is None and _plan(l3).run.below is circle
        # a rotation in one coordinate plane keeps one non-zero entry a row, but not of unit size
        rotated = _wrapped(CATALOG["circle_h2"], ((0.6, 0.8), 0.0))
        assert _plan(rotated).placement.J_rows is not None and _plan(rotated).run is None

    def test_depth_24_walks_visit_two_levels(self, monkeypatch):
        d = geodesic_chain(24)
        S = chart_samples(d, 3, 7)
        X = immerse_rows(d, np.array(S))
        visits = self._visits(monkeypatch)
        calls = {
            "immerse_rows": lambda: immerse_rows(d, np.array(S)),
            "hyperbolic_flow": lambda: hyperbolic_flow(d, X[0], 0.1),
            "hyperbolic_flow_batch": lambda: hyperbolic_flow_batch(d, X, 0.1),
            "lorentz_flow_batch": lambda: lorentz_flow_batch(d, X, 0.1),
            "mean_curvature": lambda: mean_curvature(d, X[0]),
            "forward_limit": lambda: forward_limit(d, S),
            "backward_limit": lambda: backward_limit(d, S, estimate_dim=False),
        }
        for label, call in calls.items():
            visits.clear()
            call()
            # each walk crosses the 24 geodesic levels at once: the top level, then the circle below the run
            assert visits and set(visits) == {2}, (label, visits)
        assert len(visits) == 3  # the chart's walk, the membership walk, and the flow walk of the light-cone endpoint

    def test_broken_run_keeps_the_tilted_levels_dense_path(self, monkeypatch):
        from hyperflow import descriptors

        d = LEVEL_RUN_CASES["tilted_break"]
        tilted, circle = _hyperbolic_levels(d)[2], _hyperbolic_levels(d)[-1]
        pl = descriptors._plan(tilted).placement
        X = immerse_rows(d, np.array(chart_samples(d, 3, 7)))
        visits = self._visits(monkeypatch)
        own = []
        for name in ("_umbilic_split_rows", "_umbilic_embed"):
            original = getattr(descriptors, name)
            monkeypatch.setattr(descriptors, name, lambda level, A, _f=original: own.append(level) or _f(level, A))
        products = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda A, B: products.append(A.shape) or matmul(A, B))
        hyperbolic_flow_batch(d, X, 0.1)
        monkeypatch.undo()
        # two runs and the tilted level between them: the top, the tilted level, the run below it and the circle
        assert visits == [4]
        # only the tilted level splits and embeds by itself, through its dense matrices; the circle's level splits and embeds its leaf
        assert [level for level in own if level is not circle] == [tilted, tilted]
        assert pl.J.shape in products and pl.G.shape in products


# the levels the walk's property test draws its chains from, as _wrapped takes them
WALK_LEVELS = (GEODESIC, TILTED_GEODESIC, ((0.0, 1.0), 0.5), ((0.6, 0.8), 0.3), ((-1.0,), 0.0))


class TestWalkEntries:
    """Drawn chains over the catalog: every (time, row) entry of the walk has the bits of its one-row, one-time call."""

    @staticmethod
    def _modes(d) -> list:
        """(gauge, end, times) of both gauges and of each endpoint mode that applies to d."""
        n, T = dimensions(d).n, existence_window(d).t_max
        rng = np.random.default_rng(5)
        modes = [
            ("hyperbolic", False, sample_times(None, T, 3, rng).tolist() + [0.0]),
            ("lorentz", False, sample_times(*lorentz_time_range(d), 3, rng).tolist() + [0.0]),
            ("lorentz", True, [math.inf]) if T is None else ("hyperbolic", True, [T, 0.5 * T, -1.0]),
        ]
        if n > 0 and not _is_stationary(d):
            modes.append(("lorentz", True, [-1.0 / (2.0 * n)]))  # the light-cone time
        return modes

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOG)),
        levels=st.lists(st.sampled_from(WALK_LEVELS), min_size=1, max_size=6),
        seed=st.integers(0, 10**6),
    )
    def test_entries_match_one_row_one_time_calls(self, name, levels, seed):
        d = _wrapped(CATALOG[name], *levels)
        X = immerse_rows(d, np.array(chart_samples(d, 2, seed)[:3]))
        for gauge, end, ts in self._modes(d):
            grid = _flow_rows(d, X, ts, gauge, end)
            assert grid.shape == (len(ts),) + X.shape
            for j, t in enumerate(ts):
                for k in range(len(X)):
                    one = _flow_rows(d, X[k : k + 1], [t], gauge, end)[0, 0]
                    assert grid[j, k].tobytes() == one.tobytes(), (name, levels, gauge, end, t, k)
