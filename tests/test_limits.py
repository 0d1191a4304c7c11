"""Limit classification and evaluated forward/backward limit sets."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from hyperflow import cli, descriptors, limits, oracle
from hyperflow.ball import ball_projection
from hyperflow.catalog import CATALOG
from hyperflow.descriptors import (
    Ambient,
    EuclideanIso,
    FullProduct,
    ProductOfSpheres,
    Umbilic,
    _is_stationary,
    _umbilic_embed,
    _umbilic_placement,
    _umbilic_split_rows,
    chart_box,
    classify_shape,
    derive_umbilic,
    descriptor_to_json,
    dimensions,
    immerse,
    immerse_rows,
)
from hyperflow.errors import DomainError, StationaryNoLimitError, TimeOutOfRangeError
from hyperflow.flow import (
    _flow_rows,
    existence_window,
    hyperbolic_flow,
    hyperbolic_flow_batch,
    lorentz_flow,
    lorentz_flow_batch,
    sphere_leaf_flow,
)
from hyperflow.limits import (
    BACKWARD_IDEAL,
    BACKWARD_STATIONARY,
    FORWARD_FOCAL,
    FORWARD_GEODESIC,
    FORWARD_IDEAL_POINT,
    FORWARD_STATIONARY,
    backward_chart_map,
    backward_chart_rows,
    backward_limit,
    classify_limits,
    forward_limit,
    hausdorff_distance,
    verify_flat_normal_bundle,
)
from hyperflow.lorentz import OrthonormalFrame, minkowski_inner
from hyperflow.scenario import chart_samples
from conftest import geodesic_chain, near_horospherical_circle
from test_descriptors import BIT_CASES

LN2 = math.log(2.0)

EXPECTED_VARIANTS = {
    "ambient_h3": (FORWARD_STATIONARY, BACKWARD_STATIONARY),
    "circle_h2": (FORWARD_FOCAL, BACKWARD_IDEAL),
    "horocycle_h2": (FORWARD_IDEAL_POINT, BACKWARD_IDEAL),
    "equidistant_h2": (FORWARD_GEODESIC, BACKWARD_IDEAL),
    "geodesic_sphere_h3": (FORWARD_FOCAL, BACKWARD_IDEAL),
    "tube_h3": (FORWARD_FOCAL, BACKWARD_IDEAL),
    "clifford_tube_h5": (FORWARD_FOCAL, BACKWARD_IDEAL),
    "circle_in_h4_nested": (FORWARD_FOCAL, BACKWARD_IDEAL),
}


# sha256 of the `hyperflow limits <entry> --seed <seed>` stdout
LIMITS_STDOUT_SHA256 = {
    ("ambient_h3", 3): "6043edcabe4a8043a90af08a655d4c9ded3b3a5218938d5ea4bed6f0720ee0a9",
    ("ambient_h3", 7): "dc4887fa9ad6b5ee7bb35d0a2716fb8cd1d35c171df43c63c3b51abfcddae977",
    ("circle_h2", 3): "61f6f6dd358ee73c7a88f01280ba27fa647c63c2e3bfe1995c71d569983c0781",
    ("circle_h2", 7): "b7af3d2506d5f09ac625d8ed6a37e52d08b7a9351747529d9c76efffccee698c",
    ("circle_in_h4_nested", 3): "c395c9ae764458524228b5c8635dc97e7f653388543332742bf1f6c070d0dbd9",
    ("circle_in_h4_nested", 7): "3975a0dd10c875344d053fcda9e3904c096905fe22b3923f391b46e0321c93a6",
    ("clifford_tube_h5", 3): "9ab8ae5b7bfe485a3463244413fea6e4f20498066db01aae52a5883d0b64417f",
    ("clifford_tube_h5", 7): "6268e355d6aa59fbe4b5a96c78fa43201179fb7e88b8edc0233664fdf27ba909",
    ("equidistant_h2", 3): "b604eac544cecfa81229a536179990e8732cf40ab2311a2819f4b4e7a8919a28",
    ("equidistant_h2", 7): "7a4acd3f5dcfb87c6b9683b03045d794771c3a37b049c32e9894cc922058822b",
    ("geodesic_sphere_h3", 3): "5853c2fb8c67f3f0efdf20e3817a88f75b7b4b345bc537af46ffdd24ba5fb159",
    ("geodesic_sphere_h3", 7): "6dbb6602229643a7afe546e266179db6ddfc87c1b606f2f035cab1092e79fabf",
    ("horocycle_h2", 3): "2f6025edf884feafa824482277bf22eaa64cd297fe7bb7350c779a1d18a7bee4",
    ("horocycle_h2", 7): "0c3a937b67099dea87f72e6e36deeb3816e8349781d3e9288de09a482b563f26",
    ("tube_h3", 3): "361e9808de4c89714fdab9f5adb9e8d7ce0ffd2b4a4bb0d9964bf326496969ff",
    ("tube_h3", 7): "e0e9aaa2b86d3f85f31dbc415b5d7c0626ac2e5af0e0beba31f66f66c5eeba5d",
}


class TestClassifyLimits:
    def test_catalog_variants(self, catalog_entry):
        name, d = catalog_entry
        rep = classify_limits(d)
        assert (rep.forward.variant, rep.backward.variant) == EXPECTED_VARIANTS[name]

    def test_hyperbola_type_relaxes_onto_a_geodesic(self):
        # H^1(-2) translated by a point: eternal, flat, yet not an ideal point
        d = FullProduct(1, 2.0, ProductOfSpheres(point_position=(1.0,)))
        rep = classify_limits(d)
        assert rep.forward.variant == FORWARD_GEODESIC
        assert rep.backward.variant == BACKWARD_IDEAL

    def test_totally_geodesic_is_stationary_both_ways(self):
        d = Umbilic(derive_umbilic([1.0, 0.0, 0.0, 0.0], 0.0), Ambient(2))
        rep = classify_limits(d)
        assert rep.forward.variant == FORWARD_STATIONARY
        assert rep.backward.variant == BACKWARD_STATIONARY


class TestForwardLimit:
    def test_circle_focal_point(self):
        d = CATALOG["circle_h2"]
        fwd = forward_limit(d, chart_samples(d, 3, 5))
        assert fwd.collapse_time == pytest.approx(LN2, abs=1e-12)
        assert np.max(np.abs(fwd.samples - np.array([0.0, 0.0, 1.0]))) < 1e-6

    def test_circle_flow_approaches_the_focal_point(self):
        d = CATALOG["circle_h2"]
        x = immerse(d, [0.4])
        focal = np.array([0.0, 0.0, 1.0])
        d_coarse = np.linalg.norm(hyperbolic_flow(d, x, LN2 - 1e-6) - focal)
        d_fine = np.linalg.norm(hyperbolic_flow(d, x, LN2 - 1e-9) - focal)
        assert d_coarse < 1e-2
        assert d_fine < d_coarse

    def test_geodesic_sphere_collapses_to_its_center_point(self):
        d = CATALOG["geodesic_sphere_h3"]
        fwd = forward_limit(d, chart_samples(d, 3, 5))
        spread = np.max(np.std(fwd.samples, axis=0))
        assert spread < 1e-12  # a single focal point
        assert minkowski_inner(fwd.samples[0], fwd.samples[0]) == pytest.approx(-1.0, abs=1e-12)

    def test_tube_collapses_to_the_core_curve(self):
        d = CATALOG["tube_h3"]
        fwd = forward_limit(d, chart_samples(d, 3, 5))
        # the sphere factor dies; survivors fill a curve on the hyperboloid
        assert np.max(np.abs(fwd.samples[:, 1:3])) < 1e-12
        for row in fwd.samples:
            assert minkowski_inner(row, row) == pytest.approx(-1.0, abs=1e-9)

    def test_equidistant_limit_is_the_geodesic(self):
        d = CATALOG["equidistant_h2"]
        fwd = forward_limit(d, chart_samples(d, 4, 5))
        assert np.max(np.abs(fwd.samples[:, 0])) < 1e-12  # on {x_1 = 0}
        picked = fwd.immersion(np.zeros(1))
        assert np.allclose(picked, [0.0, 0.0, 1.0], atol=1e-12)

    def test_equidistant_limit_is_numerically_minimal(self):
        d = CATALOG["equidistant_h2"]
        fwd = forward_limit(d, [])
        imm = oracle.ImmersionEvaluator(1, oracle.HYPERBOLOID, fwd.immersion)
        for u in ([0.0], [0.6], [-0.9]):
            assert np.max(np.abs(oracle.numeric_mean_curvature(imm, u))) < 1e-6

    def test_no_samples_give_empty_limits(self):
        # an empty sample list is not a malformed one: both limits return no samples
        d = CATALOG["tube_h3"]
        fwd, back = forward_limit(d, []), backward_limit(d, [])
        assert fwd.samples.shape == (0,) and back.samples.shape == (0,) and back.dim is None

    def test_horocycle_ideal_point(self):
        d = CATALOG["horocycle_h2"]
        fwd = forward_limit(d, [])
        assert np.allclose(fwd.ideal_point, [-1.0, 0.0], atol=1e-14)

    def test_horocycle_flow_reaches_the_ideal_point(self):
        d = CATALOG["horocycle_h2"]
        frame = OrthonormalFrame.standard(2)
        x = immerse(d, [0.7])
        y = ball_projection(frame, 1.0, hyperbolic_flow(d, x, 15.0)).coords
        assert np.linalg.norm(y - np.array([-1.0, 0.0])) < 1e-5

    def test_geodesic_limit_of_the_translated_hyperbola(self):
        d = FullProduct(1, 2.0, ProductOfSpheres(point_position=(1.0,)))
        fwd = forward_limit(d, chart_samples(d, 3, 5))
        for row in fwd.samples:
            assert row[1] == pytest.approx(0.0, abs=1e-15)
            assert minkowski_inner(row, row) == pytest.approx(-1.0, abs=1e-12)
        x = immerse(d, [0.5])
        far = hyperbolic_flow(d, x, 12.0)
        assert np.linalg.norm(far - fwd.immersion(np.array([0.5]))) < 1e-5


MOVING_CATALOG = sorted(name for name, d in CATALOG.items() if not classify_shape(d).totally_geodesic)
FORWARD_ROW_CASES = sorted(k for k, d in BIT_CASES.items() if classify_limits(d).forward.variant != FORWARD_IDEAL_POINT)
FOCAL_CASES = sorted(k for k, d in BIT_CASES.items() if classify_limits(d).forward.variant == FORWARD_FOCAL)


class TestForwardLimitRows:
    @pytest.mark.parametrize("seed", [7, 3])
    def test_limits_verb_output_is_pinned(self, catalog_entry, seed, capsys):
        name, _ = catalog_entry
        assert cli.main(["limits", name, "--seed", str(seed)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == LIMITS_STDOUT_SHA256[name, seed]

    @pytest.mark.parametrize("name", FORWARD_ROW_CASES)
    def test_rows_match_single_points_bitwise(self, name):
        d = BIT_CASES[name]
        us = chart_samples(d, 3, 11)[:7]
        fwd = forward_limit(d, us)
        assert fwd.samples.shape == (len(us), dimensions(d).m + 1)
        for u, x in zip(us, fwd.samples):
            assert x.tobytes() == fwd.immersion(u).tobytes(), name

    @pytest.mark.parametrize("name", FORWARD_ROW_CASES)
    def test_one_row_evaluation_per_call(self, name, monkeypatch):
        d = BIT_CASES[name]
        us = chart_samples(d, 3, 11)[:7]
        calls = []
        immerse_rows = limits.immerse_rows
        monkeypatch.setattr(limits, "immerse_rows", lambda d, U: calls.append(len(U)) or immerse_rows(d, U))
        forward_limit(d, us)
        assert calls == [len(us)]

    @pytest.mark.parametrize("name", FOCAL_CASES)
    def test_public_flows_refuse_the_endpoint(self, name):
        # only the forward limit continues the flow to t = T
        d = BIT_CASES[name]
        window = existence_window(d)
        x = immerse(d, chart_samples(d, 3, 7)[0])
        for flow in (hyperbolic_flow, lambda d, x, t: hyperbolic_flow_batch(d, x[None, :], t)):
            with pytest.raises(TimeOutOfRangeError, match="hyperbolic maximal time"):
                flow(d, x, window.t_max)
        for flow in (lorentz_flow, lambda d, x, t: lorentz_flow_batch(d, x[None, :], t)):
            with pytest.raises(TimeOutOfRangeError, match="Lorentzian collapse bound|collapsed before"):
                flow(d, x, window.t_dprime)


def _wrapped(d, depth, a):
    """d under ``depth`` hyperbolic levels {<x, xi> = a} with xi = (0.6, 0.8, 0, ..., 0)."""
    for _ in range(depth):
        d = Umbilic(derive_umbilic([0.6, 0.8] + [0.0] * dimensions(d).m, a), d)
    return d


def _eternal_cases():
    """Eternal, moving descriptors: every kind of level an eternal forward limit passes through."""
    cases = {
        "horocycle_h2": CATALOG["horocycle_h2"],
        "equidistant_h2": CATALOG["equidistant_h2"],
        "horosphere_h3": Umbilic(
            derive_umbilic((0.6, 0.0, 0.8, -1.0), 1.5), EuclideanIso(1, offset=(0.3, -0.4), ambient_dim=2)
        ),
        "equidistant_h3": Umbilic(derive_umbilic((0.0, 0.6, 0.8, 0.0), 0.7), Ambient(2)),
    }
    cases.update({f"product_l{l}": FullProduct(l, 1.0 + 0.5 * l, ProductOfSpheres(point_position=(0.6, 0.8))) for l in range(1, 6)})
    for base in ("horocycle_h2", "horosphere_h3", "equidistant_h2", "product_l2"):
        for depth, a in ((1, 0.0), (2, 0.5), (3, 2.0)):
            cases[f"{base}_in_{depth}"] = _wrapped(cases[base], depth, a)
    return cases


ETERNAL_CASES = _eternal_cases()


def _eternal_forward_reference(d):
    """The eternal forward limit as one closed-form map per descriptor kind, the asymptotic row core's reference.

    Returns (rows, None) for a totally geodesic limit and (None, p) for an
    ideal point p.  A point-leaf product relaxes onto H^l(-1), a
    horospherical level tends to the ideal point of its null xi, and a
    hyperbolic level embeds its inner limit: an ideal point through its
    frame, geodesic rows rescaled by sqrt(1 - alpha^2) about eta.
    """
    if _is_stationary(d):
        return (lambda U: immerse_rows(d, U)), None
    if isinstance(d, FullProduct):

        def geodesic(U):
            X = immerse_rows(d, U) / math.sqrt(d.r)
            X[:, d.l : -1] = 0.0
            return X

        return geodesic, None
    if d.umb.kind == "euclidean":
        xi = d.umb.xi_array
        return None, xi[:-1] / xi[-1]
    rows, ideal = _eternal_forward_reference(d.inner)
    if ideal is not None:
        return None, _embed_ideal_reference(d, ideal)
    eta, factor = _umbilic_placement(d.umb).eta, math.sqrt(d.umb.one_minus_alpha2)
    return (lambda U: factor * (_umbilic_embed(d, rows(U)) - eta)), None


def _ulps_apart(a, b):
    """The largest |a - b|, in units in the last place of the largest entry of b (of its row)."""
    return float(np.max(np.abs(a - b) / np.spacing(np.max(np.abs(b), axis=-1, keepdims=True))))


def _leading_rows(d, U):
    """The asymptotic endpoint of the Lorentzian row core at the chart rows U."""
    return _flow_rows(d, immerse_rows(d, U), [math.inf], "lorentz", end=True)[0]


class TestEternalForwardLimit:
    """Every eternal forward limit is the leading term of the Lorentzian row core as s -> +infinity."""

    def test_cases_are_eternal_and_moving(self):
        variants = {name: classify_limits(d).forward.variant for name, d in ETERNAL_CASES.items()}
        assert {name for name, v in variants.items() if v == FORWARD_IDEAL_POINT} == {
            name for name in ETERNAL_CASES if name.startswith(("horocycle", "horosphere"))
        }
        assert set(variants.values()) == {FORWARD_IDEAL_POINT, FORWARD_GEODESIC}

    @pytest.mark.parametrize("seed", [7, 3])
    @pytest.mark.parametrize("name", sorted(ETERNAL_CASES))
    def test_matches_the_per_kind_maps(self, name, seed):
        d = ETERNAL_CASES[name]
        us = chart_samples(d, 3, seed)
        fwd = forward_limit(d, us)
        rows, ideal = _eternal_forward_reference(d)
        if ideal is None:
            assert fwd.ideal_point is None
            assert _ulps_apart(fwd.samples, rows(np.array(us))) <= 4
        else:
            assert fwd.samples is None
            assert _ulps_apart(fwd.ideal_point, ideal) <= 4

    @pytest.mark.parametrize("name", sorted(ETERNAL_CASES))
    def test_normalised_flow_approaches_the_limit(self, name):
        d = ETERNAL_CASES[name]
        U = np.array(chart_samples(d, 3, 7))
        X, n = immerse_rows(d, U), dimensions(d).n
        fwd = forward_limit(d, U)
        errors = []
        for s in (1e4, 1e8, 1e12):
            F = _flow_rows(d, X, [s], "lorentz")[0]
            if fwd.variant == FORWARD_IDEAL_POINT:
                errors.append(np.max(np.linalg.norm(F[:, :-1] / F[:, -1:] - fwd.ideal_point, axis=1)))
            else:
                errors.append(np.max(np.abs(F / math.sqrt(2.0 * n * s) - fwd.samples)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-5

    @pytest.mark.parametrize("name", sorted(ETERNAL_CASES))
    def test_leading_term_is_timelike_or_null(self, name):
        # future-pointing, as F is for large s; timelike on H^m(-1) for a
        # geodesic limit; null, and one row for all, for an ideal point
        d = ETERNAL_CASES[name]
        C = _leading_rows(d, np.array(chart_samples(d, 3, 7)))
        q = np.sum(C[:, :-1] ** 2, axis=1) - C[:, -1] ** 2
        assert np.all(C[:, -1] > 0)
        if classify_limits(d).forward.variant == FORWARD_GEODESIC:
            assert np.max(np.abs(q + 1.0)) <= 1e-13
        else:
            assert np.max(np.abs(q)) <= 1e-15 * np.max(np.sum(C * C, axis=1))
            assert all(row.tobytes() == C[0].tobytes() for row in C)

    @pytest.mark.parametrize("name", sorted(ETERNAL_CASES))
    def test_rows_match_single_points_bitwise(self, name):
        d = ETERNAL_CASES[name]
        U = np.array(chart_samples(d, 3, 11)[:7])
        C = _leading_rows(d, U)
        for u, c in zip(U, C):
            assert c.tobytes() == _leading_rows(d, u[None, :])[0].tobytes()

    @pytest.mark.parametrize("name", sorted({**BIT_CASES, **ETERNAL_CASES}))
    def test_classification_agrees_and_evaluates_no_chart_point(self, name, monkeypatch):
        d = {**BIT_CASES, **ETERNAL_CASES}[name]
        for fn in ("immerse_rows", "_flow_rows"):
            monkeypatch.setattr(limits, fn, lambda *args, **kwargs: pytest.fail("classify_limits evaluated a chart point"))
        rep = classify_limits(d)
        monkeypatch.undo()
        fwd = forward_limit(d, chart_samples(d, 3, 7))
        assert (rep.forward.variant, rep.forward.collapse_time) == (fwd.variant, fwd.collapse_time)

    def test_an_ideal_point_takes_one_row(self, monkeypatch):
        d = ETERNAL_CASES["horocycle_h2_in_2"]
        calls = []
        immerse_rows = limits.immerse_rows
        monkeypatch.setattr(limits, "immerse_rows", lambda d, U: calls.append(len(U)) or immerse_rows(d, U))
        fwd = forward_limit(d, chart_samples(d, 3, 7))
        assert calls == [1] and fwd.samples is None
        assert np.linalg.norm(fwd.ideal_point) == pytest.approx(1.0, abs=1e-15)

    def test_one_flow_call_at_infinity(self, monkeypatch):
        d = ETERNAL_CASES["equidistant_h2_in_3"]
        calls = []
        core = limits._flow_rows
        monkeypatch.setattr(limits, "_flow_rows", lambda d, X, ts, gauge, end: calls.append((ts, gauge, end)) or core(d, X, ts, gauge, end))
        forward_limit(d, chart_samples(d, 3, 7))
        assert calls == [([math.inf], "lorentz", True)]

    def test_a_spherical_level_is_refused_at_infinity(self):
        # the far mode reads the level's kind: a spherical level's flow
        # collapses in finite time, so it has no asymptotic endpoint
        d = Umbilic(derive_umbilic((0.0, 0.0, 0.0, 0.0, -1.0), 2.0), ProductOfSpheres(((1, 1.5), (1, 1.5))))
        X = immerse_rows(d, np.array(chart_samples(d, 3, 7)))
        with pytest.raises(TimeOutOfRangeError, match="not eternal"):
            _flow_rows(d, X, [math.inf], "lorentz", end=True)


def _boosted_once(embed, phi: float = 1e-3):
    """``_embed_across`` whose first call, the chart's, is followed by a boost in the plane of the first and last coordinates.

    The boost keeps rows on H^m(-1) to rounding and moves them off every
    umbilic level of the catalog, which fix x_(m+1), x_1 or x_1 + x_(m+1);
    the later calls, the membership walk's round trips, are left as they are.
    """
    c, s = math.cosh(phi), math.sinh(phi)
    calls = []

    def moved(d, Z):
        X = embed(d, Z)
        if not calls:
            X = X.copy()
            X[..., 0], X[..., -1] = c * X[..., 0] + s * X[..., -1], s * X[..., 0] + c * X[..., -1]
        calls.append(d)
        return X

    return moved


class TestChartRowsAreChecked:
    # one catalog entry of each umbilic kind: hyperbolic, spherical,
    # euclidean, and a run of geodesic levels over a spherical one
    @pytest.mark.parametrize("name", ["equidistant_h2", "circle_h2", "horocycle_h2", "circle_in_h4_nested"])
    def test_every_chart_path_refuses_rows_off_a_level(self, name, monkeypatch):
        # the eternal forward limit, the backward chart and the unflowed
        # oracle evaluator flow or difference chart rows without a check of
        # their own: the chart refuses the rows before any of them sees one
        d = CATALOG[name]
        U = np.array(chart_samples(d, 3, 7))
        embed = descriptors._embed_across
        paths = {
            "immerse_rows": lambda: immerse_rows(d, U),
            "backward_chart_rows": lambda: backward_chart_rows(d)(U),
            "forward_limit": lambda: forward_limit(d, U),
            "descriptor_immersion": lambda: oracle.descriptor_immersion(d).at_rows(U),
        }
        for label, path in paths.items():
            monkeypatch.setattr(descriptors, "_embed_across", _boosted_once(embed))
            with pytest.raises(DomainError, match="not on the umbilical hypersurface"):
                path()
                pytest.fail(f"{label} returned rows off a level of {name}")


class TestBackwardLimit:
    def test_circle_fills_the_boundary_circle(self):
        d = CATALOG["circle_h2"]
        us = chart_samples(d, 4, 5)
        bwd = backward_limit(d, us)
        for u, p in zip(us, bwd.samples):
            x = immerse(d, u)
            assert np.allclose(p, x[:2] / math.sqrt(3.0), atol=1e-12)
        assert bwd.dim == 1

    def test_tube_limit_uses_the_leaf_at_q_star(self):
        d = CATALOG["tube_h3"]
        n, l, r = 2, 1, 2.0
        q_star = -((r - 1) / (2 * (n - l))) * math.log(1 + (n - l) / (n * (r - 1)))
        assert q_star == pytest.approx(-0.5 * math.log(1.5), abs=1e-15)
        us = chart_samples(d, 3, 5)
        bwd = backward_limit(d, us)
        assert bwd.dim == 2
        # the leaf is stationary (codimension 0 in its circle): the limit is
        # Phi(x, sqrt(2) y), unit norm
        for u, p in zip(us, bwd.samples):
            x = immerse(d, u)
            xv = np.array([x[0], x[3]])
            z = math.sqrt(2.0) * x[1:3]
            assert np.allclose(p, np.concatenate([[xv[0]], z]) / xv[1], atol=1e-12)

    def test_dimension_estimates_match(self, catalog_entry):
        name, d = catalog_entry
        if name == "ambient_h3":
            pytest.skip("stationary")
        bwd = backward_limit(d, chart_samples(d, 3, 9)[:6])
        assert bwd.dim == dimensions(d).n

    def test_flow_projections_converge_to_the_limit(self, catalog_entry):
        name, d = catalog_entry
        if name == "ambient_h3":
            pytest.skip("stationary")
        us = chart_samples(d, 3, 7)
        bwd = backward_limit(d, us, estimate_dim=False)
        frame = OrthonormalFrame.standard(dimensions(d).m)
        flowed = np.array(
            [ball_projection(frame, 1.0, hyperbolic_flow(d, immerse(d, u), -15.0)).coords for u in us]
        )
        assert hausdorff_distance(flowed, bwd.samples) < 1e-5

    def test_stationary_input_raises(self):
        with pytest.raises(StationaryNoLimitError):
            backward_chart_map(CATALOG["ambient_h3"])

    @pytest.mark.parametrize("name", sorted(k for k, d in BIT_CASES.items() if not classify_shape(d).totally_geodesic))
    def test_dimension_estimate_matches_the_per_cloud_loop(self, name):
        d = BIT_CASES[name]
        rows, n = backward_chart_rows(d), dimensions(d).n
        bases = chart_samples(d, 3, 11)[:5]
        rng = np.random.default_rng(20240901)
        ranks = []
        for u in bases:
            pts = rows(np.array([u] + [u + 3e-7 * rng.standard_normal(u.size) for _ in range(4 * n)]))
            sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            ranks.append(int(np.sum(sv > 1e-6 * sv[0])))
        values, counts = np.unique(ranks, return_counts=True)
        assert limits._pca_dimension(rows, bases, n) == values[np.argmax(counts)] == n

    @pytest.mark.parametrize("name", MOVING_CATALOG)
    def test_samples_and_dimension_estimate_take_one_chart_evaluation_each(self, name, monkeypatch):
        d = CATALOG[name]
        us = chart_samples(d, 3, 9)[:6]
        calls = []
        immerse_rows = limits.immerse_rows
        monkeypatch.setattr(limits, "immerse_rows", lambda d, U: calls.append(len(U)) or immerse_rows(d, U))
        backward_limit(d, us)
        assert calls == [len(us), len(us) * (4 * dimensions(d).n + 1)]

    @pytest.mark.parametrize("name", sorted(k for k, d in BIT_CASES.items() if not classify_shape(d).totally_geodesic))
    def test_chart_rows_match_single_points_bitwise(self, name):
        d = BIT_CASES[name]
        U = np.array(chart_samples(d, 3, 11)[:7])
        P = backward_chart_rows(d)(U)
        assert P.shape == (len(U), dimensions(d).m)
        chart = backward_chart_map(d)
        for u, p in zip(U, P):
            assert p.tobytes() == chart(u).tobytes(), name

    def test_horocycle_limit_parametrizes_the_punctured_circle(self):
        d = CATALOG["horocycle_h2"]
        chart = backward_chart_map(d)
        for s in (-2.0, 0.0, 1.5):
            p = chart(np.array([s]))
            expected = np.array([(1 - s**2), 2 * s]) / (1 + s**2)
            assert np.allclose(p, expected, atol=1e-12)


def _backward_chart_rows_reference(d):
    """The backward chart as one boundary map per descriptor kind.

    A full product flows its leaf to the spherical time q* and scales it by
    sqrt(r / (r - 1)); a geodesic level embeds its inner limit through its
    frame; any other umbilic level flows its inner model to t_alpha and
    applies the umbilical boundary map.
    """
    if isinstance(d, FullProduct):
        n = dimensions(d).n
        n_leaf = n - d.l
        R2 = d.r - 1.0
        ratio = math.sqrt(d.r / R2)

        def chart(U):
            X = immerse_rows(d, U)
            Y = X[:, d.l : -1]
            if not d.leaf.is_point:
                q_star = -(R2 / (2.0 * n_leaf)) * math.log1p(n_leaf / (n * R2))
                Y = sphere_leaf_flow(d.leaf, Y, q_star, radius2=R2).spherical
            return np.concatenate([X[:, : d.l], ratio * Y], axis=1) / X[:, -1:]

        return chart
    if d.umb.alpha == 0.0:
        inner_chart = _backward_chart_rows_reference(d.inner)
        return lambda U: _embed_ideal_reference(d, inner_chart(U))
    t_alpha = existence_window(d).t_alpha
    return lambda U: _umbilic_boundary_rows_reference(d.umb, _inner_flow_rows_reference(d, immerse_rows(d, U), t_alpha))


def _inner_flow_rows_reference(d, X, s):
    """The flow inside the umbilical hypersurface of d at inner time s, by the level's own split and embedding.

    A hyperbolic level's hypersurface is H^(m-1)(-R): its unit-curvature
    model flows for time s/R.  Any other level's leaf flows by its own code.
    """
    Z = _umbilic_split_rows(d, X)
    if d.umb.kind == "hyperbolic":
        Zt = _flow_rows(d.inner, Z, [s / _umbilic_placement(d.umb).scale ** 2])
    else:
        Zt = d.inner._flow_rows(Z, [s], d.umb, False)
    return _umbilic_embed(d, Zt)[0]


def _embed_ideal_reference(d, p):
    """Ideal points of the inner model, one or rows along the last axis, embedded through the level's frame.

    The ball image of J (p, 1), J the placement's columns.
    """
    pl = _umbilic_placement(d.umb)
    ones = np.ones(p.shape[:-1] + (1,))
    lift = np.matmul(pl.J, np.concatenate([p, ones], axis=-1)[..., None])[..., 0]
    return lift[..., :-1] / lift[..., -1:]


def _umbilic_boundary_rows_reference(umb, Y):
    """Conformal map from the umbilical hypersurface {<y, xi> = a} to S^(m-1), on rows.

    y -> (y_bar + c xi_bar) / (y_{m+1} + c xi_{m+1}) with c = beta/(alpha+1).
    """
    xi = umb.xi_array
    return (Y[:, :-1] + umb.c * xi[:-1]) / (Y[:, -1:] + umb.c * xi[-1])


class TestUmbilicBoundaryReference:
    """The umbilical boundary map that the light-cone chart is checked against."""

    def test_circle_samples(self):
        umb = derive_umbilic([0.0, 0.0, -1.0], 2.0)
        assert umb.c == pytest.approx(2.0 - math.sqrt(3.0))
        P = _umbilic_boundary_rows_reference(umb, np.array([[math.sqrt(3), 0.0, 2.0], [0.0, math.sqrt(3), 2.0]]))
        assert np.allclose(P, [[1, 0], [0, 1]], atol=1e-14)

    def test_equidistant_sample(self):
        umb = derive_umbilic([1.0, 0.0, 0.0], 1.0)
        P = _umbilic_boundary_rows_reference(umb, np.array([[1.0, 0.0, math.sqrt(2)]]))
        assert np.allclose(P, [[1, 0]], atol=1e-14)

    def test_unit_norm_on_random_samples(self, rng):
        umb = derive_umbilic([0.0, 0.0, 0.0, -1.0], 2.0)
        Z = rng.normal(size=(1000, 3))
        Z *= math.sqrt(3.0) / np.linalg.norm(Z, axis=1, keepdims=True)
        P = _umbilic_boundary_rows_reference(umb, np.concatenate([Z, np.full((1000, 1), 2.0)], axis=1))
        assert np.max(np.abs(np.linalg.norm(P, axis=1) - 1.0)) < 1e-10


class TestBackwardChartAtTheLightCone:
    """The light-cone chart against the per-kind boundary maps it replaced."""

    @staticmethod
    def _worst(d, seed):
        U = np.array(chart_samples(d, 3, seed))
        new = backward_chart_rows(d)(U)
        return float(np.max(np.abs(new - _backward_chart_rows_reference(d)(U))))

    @pytest.mark.parametrize("seed", [7, 3])
    @pytest.mark.parametrize("name", MOVING_CATALOG)
    def test_catalog_matches_the_boundary_maps(self, name, seed):
        assert self._worst(CATALOG[name], seed) <= 1e-15

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_geodesic_chains_match_the_boundary_maps(self, depth):
        assert self._worst(geodesic_chain(depth), 7) <= 1e-15

    @pytest.mark.parametrize("name", ["tilted_sphere", "tilted_equidistant", "tilted_horosphere"])
    def test_tilted_levels_match_the_boundary_maps(self, name):
        assert self._worst(BIT_CASES[name], 7) <= 1e-15

    @pytest.mark.parametrize("a", [10.0, 1e3])
    def test_near_horospherical_circles_match_the_boundary_maps(self, a):
        assert self._worst(near_horospherical_circle(a), 7) <= 1e-15

    @pytest.mark.parametrize("seed", [7, 3])
    @pytest.mark.parametrize("a", [10.0, 1e3, 2e4])
    def test_near_horospherical_limits_are_unit_norm(self, a, seed):
        d = near_horospherical_circle(a)
        bwd = backward_limit(d, chart_samples(d, 3, seed))
        assert bwd.dim == 1
        assert np.max(np.abs(np.linalg.norm(bwd.samples, axis=1) - 1.0)) <= 1e-12

    def test_far_horospherical_circle_limits_exit_zero(self, tmp_path, capsys):
        # regression: the per-kind boundary map refused these rows (exit 2)
        d = near_horospherical_circle(2e4)
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"name": "far_circle", "descriptor": descriptor_to_json(d)}))
        assert cli.main(["limits", str(path), "--seed", "3"]) == 0
        samples = np.array(json.loads(capsys.readouterr().out)["backward"]["samples"])
        assert np.max(np.abs(np.linalg.norm(samples, axis=1) - 1.0)) <= 1e-12

    def test_one_flow_call_at_the_light_cone_time(self, monkeypatch):
        d = CATALOG["circle_in_h4_nested"]
        calls = []
        core = limits._flow_rows
        monkeypatch.setattr(limits, "_flow_rows", lambda d, X, ts, gauge, end: calls.append((ts, gauge, end)) or core(d, X, ts, gauge, end))
        backward_chart_rows(d)(np.array(chart_samples(d, 3, 7)))
        assert calls == [([-1.0 / (2.0 * dimensions(d).n)], "lorentz", True)]

    def test_public_lorentz_flows_refuse_the_light_cone_time(self):
        # only the backward chart continues a geodesic level to s* = -1/(2n)
        d = CATALOG["circle_in_h4_nested"]
        x = immerse(d, chart_samples(d, 3, 7)[0])
        for flow in (lorentz_flow, lambda d, x, t: lorentz_flow_batch(d, x[None, :], t)):
            with pytest.raises(TimeOutOfRangeError):
                flow(d, x, -1.0 / (2.0 * dimensions(d).n))


class TestFlatNormalBundle:
    def test_nested_circle_limit(self):
        d = CATALOG["circle_in_h4_nested"]
        bwd = backward_limit(d, chart_samples(d, 3, 5))
        assert verify_flat_normal_bundle(d, bwd) < 1e-4

    def test_one_chart_evaluation_besides_the_loop(self, monkeypatch):
        # the period's two ends are one at_rows call, checked once, then the
        # loop is one more; the value is the public holonomy defect's
        d = CATALOG["circle_in_h4_nested"]
        bwd = backward_limit(d, chart_samples(d, 3, 7))
        calls = []
        at_rows, point = oracle.ImmersionEvaluator.at_rows, oracle.ImmersionEvaluator.__call__
        monkeypatch.setattr(oracle.ImmersionEvaluator, "at_rows", lambda imm, U: calls.append(len(U)) or at_rows(imm, U))
        monkeypatch.setattr(oracle.ImmersionEvaluator, "__call__", lambda imm, u: calls.append("point") or point(imm, u))
        value = verify_flat_normal_bundle(d, bwd)
        assert calls[0] == 2 and len(calls) == 2 and calls[1] > 2
        imm = oracle.ImmersionEvaluator(1, oracle.SPHERE, bwd.chart_map, limits.backward_chart_rows(d))
        mids = np.array([(lo + hi) / 2.0 for lo, hi in chart_box(d)])
        assert value == oracle.normal_holonomy_defect(imm, mids, [2.0 * math.pi])

    def test_open_chart_has_no_holonomy(self, monkeypatch):
        # a chart whose period does not close: 0 by convention, from the one
        # evaluation of the loop's two ends, and the loop is not evaluated
        d = CATALOG["circle_in_h4_nested"]
        bwd = backward_limit(d, chart_samples(d, 3, 7))
        rows = limits.backward_chart_rows(d)
        monkeypatch.setattr(limits, "backward_chart_rows", lambda d: lambda U: rows(0.9 * U))
        calls, at_rows = [], oracle.ImmersionEvaluator.at_rows
        monkeypatch.setattr(oracle.ImmersionEvaluator, "at_rows", lambda imm, U: calls.append(len(U)) or at_rows(imm, U))
        assert verify_flat_normal_bundle(d, bwd) == 0.0
        assert calls == [2]

    @staticmethod
    def _traced_peak(d, bwd):
        verify_flat_normal_bundle(d, bwd)  # the caches of the descriptor and the stencils
        tracemalloc.start()
        try:
            verify_flat_normal_bundle(d, bwd)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_holonomy_memory_scales_with_one_group(self, monkeypatch):
        # the loop's transport keeps the frames of one group of sub-segments
        # within _FRAME_BUDGET at a time: 3.7 MB on numpy 2.4 at depth 24 (26
        # coordinates, 24 normal directions, 64 sub-segments), against 20.1
        # MB when the frames of the whole loop are held at once
        d = geodesic_chain(24)
        bwd = backward_limit(d, chart_samples(d, 3, 7))
        groups, kept = [], oracle._kept_normal_frames
        monkeypatch.setattr(oracle, "_kept_normal_frames", lambda *a: groups.append(kept(*a)) or groups[-1])
        assert verify_flat_normal_bundle(d, bwd) == 0.0
        assert len(groups) > 1 and max(N.nbytes for N in groups) <= oracle._FRAME_BUDGET
        monkeypatch.setattr(oracle, "_kept_normal_frames", kept)
        peak = self._traced_peak(d, bwd)
        assert peak <= 7e6
        monkeypatch.setattr(oracle, "_FRAME_BUDGET", 1 << 40)
        assert peak <= 0.5 * self._traced_peak(d, bwd)

    def test_surface_limit_takes_the_curvature_commutator(self, monkeypatch):
        # a Clifford tube under one geodesic level has n = 3 and codimension 2
        # in the boundary sphere: its flatness is one flat_normal_residual
        # call on three samples, not the loop holonomy
        d = Umbilic(derive_umbilic([1.0] + [0.0] * 6, 0.0), CATALOG["clifford_tube_h5"])
        dims = dimensions(d)
        assert (dims.n, dims.m - 1 - dims.n) == (3, 2)
        bwd = backward_limit(d, chart_samples(d, 3, 7))
        calls, residual = [], oracle.flat_normal_residual
        monkeypatch.setattr(oracle, "flat_normal_residual", lambda imm, us, **kw: calls.append(len(us)) or residual(imm, us, **kw))
        monkeypatch.setattr(oracle, "_holonomy_defect", lambda *args, **kwargs: pytest.fail("the loop ran"))
        assert verify_flat_normal_bundle(d, bwd) < 1e-4
        assert calls == [3]

    def test_codimension_one_is_trivially_flat(self):
        d = CATALOG["tube_h3"]
        bwd = backward_limit(d, chart_samples(d, 3, 5))
        assert verify_flat_normal_bundle(d, bwd) == 0.0

    def test_clifford_limit_codimension_one(self):
        d = CATALOG["clifford_tube_h5"]
        bwd = backward_limit(d, chart_samples(d, 3, 5))
        assert verify_flat_normal_bundle(d, bwd) == 0.0


class TestCompositeRecursion:
    def test_equidistant_tube_over_a_full_product(self):
        # an umbilical wrapper whose inner structure is itself a full product
        # exercises the deepest recursion of windows, flows and both limits
        from hyperflow.flow import existence_window
        from hyperflow.scenario import run_invariant_battery

        d = Umbilic(derive_umbilic((1.0, 0.0, 0.0, 0.0, 0.0), 1.0), CATALOG["tube_h3"])
        assert dimensions(d) == (2, 4, 2)
        w = existence_window(d)
        assert w.t_prime == pytest.approx(math.log(3.0) / 2.0, abs=1e-12)
        assert w.t_dprime == pytest.approx(1.0, abs=1e-12)
        assert w.t_max == pytest.approx(math.log(5.0) / 4.0, abs=1e-12)
        assert run_invariant_battery(d).overall_pass
        us = chart_samples(d, 3, 5)[:4]
        fwd = forward_limit(d, us)
        assert fwd.variant == FORWARD_FOCAL
        for s in fwd.samples:
            assert minkowski_inner(s, s) == pytest.approx(-1.0, abs=1e-9)
        bwd = backward_limit(d, us)
        assert bwd.dim == 2
        assert np.allclose(np.linalg.norm(bwd.samples, axis=1), 1.0, atol=1e-10)


class TestHausdorff:
    def test_identical_sets(self, rng):
        A = rng.normal(size=(5, 3))
        assert hausdorff_distance(A, A) == 0.0

    def test_known_offset(self):
        A = np.array([[0.0, 0.0]])
        B = np.array([[3.0, 4.0], [0.0, 1.0]])
        assert hausdorff_distance(A, B) == pytest.approx(5.0)
