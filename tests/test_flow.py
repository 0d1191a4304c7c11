"""Closed-form flows, time gauges, leaf flows and existence windows."""

import math
import warnings

import numpy as np
import pytest

from hyperflow.catalog import CATALOG
from hyperflow.descriptors import (
    Ambient,
    FullProduct,
    ProductOfSpheres,
    Umbilic,
    _umbilic_embed,
    _umbilic_split,
    dimensions,
    immerse,
    immerse_rows,
)
from hyperflow.errors import GaugeDomainError, GeometryError, InvalidArgumentError, TimeOutOfRangeError
from hyperflow.flow import (
    GaugeParams,
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
from hyperflow.lorentz import Membership, ambient_membership, minkowski_inner
from hyperflow.scenario import chart_samples, lorentz_time_range, sample_times
from test_descriptors import BIT_CASES

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
        # F_2(y, t(s)) = a2(t(s)) f_2(y, s) ties the two leaf gauges together
        leaf = ProductOfSpheres(((1, 3.0), (1, 1.0)))
        y = np.array([0.0, math.sqrt(3.0), -1.0, 0.0])
        g = GaugeParams(n=leaf.dim)
        for s in (-1.0, 0.2, 0.5):
            out = sphere_leaf_flow(leaf, y, s)
            a2 = g.a2(out.euclidean_time, leaf.dim, 4.0)
            assert np.allclose(out.euclidean, a2 * out.spherical, atol=1e-14)
            assert g.q(out.euclidean_time, leaf.dim, 4.0) == pytest.approx(s, abs=1e-12)


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

    def test_membership_deep_in_the_past(self, catalog_entry):
        name, d = catalog_entry
        n = max(dimensions(d).n, 1)
        x = immerse(d, chart_samples(d, 2, 3)[0])
        y = hyperbolic_flow(d, x, -300.0 / n)
        assert ambient_membership(y, 1.0) is Membership.ON_HYPERBOLOID


class TestNearDegenerateHypersurface:
    def test_branch_switch_keeps_the_flow_sane(self):
        # an equidistant hypersurface at enormous distance has alpha within
        # 1e-8 of 1; the horospherical branch takes over and the generic
        # formula's catastrophic cancellation never happens
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


class TestGaugeParams:
    def test_rejects_outside_real_domain(self):
        g = GaugeParams(n=2, r=2.0, l=1, alpha=2.0 / math.sqrt(3.0))
        with pytest.raises(TimeOutOfRangeError):
            g.a1(-1.5)
        with pytest.raises(TimeOutOfRangeError):
            g.s_alpha(2.0)
        with pytest.raises(TimeOutOfRangeError):
            g.q(3.0, 2, 4.0)

    def test_alpha_zero_is_the_identity_gauge(self):
        g = GaugeParams(n=3, alpha=0.0)
        for t in (-700.0, -2.0, 0.0, 2.0):
            assert g.s_alpha_of_w(t) == t
            assert g.v_alpha(t) == 1.0


def _on_quadric(y: np.ndarray) -> np.ndarray:
    """y rescaled onto the upper sheet of H(-1)."""
    return y / math.sqrt(-minkowski_inner(y, y))


def _off_level(d, x: np.ndarray, depth: int, rng) -> np.ndarray:
    """x moved off the level at ``depth`` (0 = outermost), staying on every level above it."""
    if depth == 0:
        return _on_quadric(x + 1e-4 * rng.normal(size=x.size))
    inner = _umbilic_split(d, x)
    return _umbilic_embed(d, _off_level(d.inner, inner, depth - 1, rng))


def _levels(d) -> int:
    """Nesting depth at which _off_level can still move a point off a level."""
    if isinstance(d, Umbilic) and isinstance(d.inner, (FullProduct, Umbilic)):
        return 1 + _levels(d.inner)
    return 0 if isinstance(d, Ambient) else 1


def _outcome(call):
    try:
        call()
    except GeometryError as exc:
        return type(exc)
    return None


class TestValidateRows:
    """The row validator refuses exactly what the scalar flow refuses."""

    def test_same_verdicts_as_the_scalar_flow(self, catalog_entry):
        name, d = catalog_entry
        rng = np.random.default_rng(8)
        U = np.array(chart_samples(d, 3, 4)[:3])
        X = immerse_rows(d, U)
        _validate_rows(d, X)  # on-level rows pass
        cases = [("lower sheet", -X[0]), ("off quadric", 1.01 * X[0])]
        cases += [(f"off level {k}", _off_level(d, X[1], k, rng)) for k in range(_levels(d))]
        for label, bad in cases:
            scalar = _outcome(lambda: hyperbolic_flow(d, bad, 0.0))
            rows = _outcome(lambda: _validate_rows(d, np.vstack([X[2], bad])))
            assert rows is scalar, (name, label)
            assert _outcome(lambda: lorentz_flow(d, bad, 0.0)) is scalar, (name, label)
            if not isinstance(d, Ambient):
                assert scalar is not None, (name, label)

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
