"""Descriptor grammar: umbilical data, immersions, mean curvature, shapes."""

import dataclasses
import hashlib
import json
import math
import pickle
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hyperflow import descriptors, flow, oracle
from hyperflow.catalog import CATALOG
from hyperflow.descriptors import (
    Ambient,
    EuclideanIso,
    FullProduct,
    MAX_DESCRIPTOR_DEPTH,
    ProductOfSpheres,
    Umbilic,
    chart_box,
    classify_shape,
    derive_umbilic,
    descriptor_from_json,
    descriptor_to_json,
    dimensions,
    immerse,
    immerse_rows,
    mean_curvature,
)
from hyperflow.errors import DomainError, EmptyHypersurfaceError, InvalidArgumentError, TimeOutOfRangeError
from hyperflow.flow import ExistenceWindow, existence_window
from hyperflow.limits import backward_limit, forward_limit
from hyperflow.lorentz import Membership, ambient_membership, minkowski_inner
from hyperflow.scenario import OracleSettings, Sampling, chart_samples, lorentz_time_range, run_invariant_battery, run_scenario

from conftest import geodesic_chain


class TestDeriveUmbilic:
    @pytest.mark.parametrize("xi", [(1.0, 0.0, 0.0), (0.0, 0.0, -1.0)])
    def test_a_large_level_keeps_its_side_of_one(self, xi):
        # accepted: alpha keeps to its kind's side of 1 (the CLI tests refuse a = 1e8)
        umb = derive_umbilic(xi, 1e7)
        assert (umb.alpha < 1.0) is (umb.kind == "hyperbolic") and umb.alpha != 1.0

    def test_circle_data(self):
        umb = derive_umbilic([0.0, 0.0, -1.0], 2.0)
        assert umb.beta == pytest.approx(1.0 / math.sqrt(3.0))
        assert umb.alpha == pytest.approx(2.0 / math.sqrt(3.0))
        assert np.allclose(umb.eta, [0.0, 0.0, 2.0])
        assert umb.c == pytest.approx(2.0 - math.sqrt(3.0))
        assert umb.kind == "spherical" and not umb.totally_geodesic

    def test_null_normal_forces_euclidean(self):
        umb = derive_umbilic([1.0, 0.0, -1.0], 1.0)
        assert umb.beta == pytest.approx(1.0)
        assert umb.alpha == 1.0
        assert umb.kind == "euclidean"
        assert umb.eta is None

    def test_geodesic_case(self):
        umb = derive_umbilic([1.0, 0.0, 0.0], 0.0)
        assert umb.alpha == 0.0 and umb.beta == 1.0
        assert umb.totally_geodesic
        assert np.allclose(umb.eta, np.zeros(3))

    def test_negative_level_is_normalized(self):
        umb = derive_umbilic([0.0, 0.0, 1.0], -2.0)
        assert umb.a == 2.0
        assert np.allclose(umb.xi, [0.0, 0.0, -1.0])

    @pytest.mark.parametrize(
        "xi,a",
        [((0.0, 0.0, -1.0), 1.0), ((0.0, 0.0, -1.0), 0.5), ((1.0, 0.0, -1.0), 0.0)],
    )
    def test_rejects_exactly_the_empty_inputs(self, xi, a):
        with pytest.raises(EmptyHypersurfaceError):
            derive_umbilic(xi, a)

    def test_accepts_the_boundary_of_emptiness(self):
        derive_umbilic((0.0, 0.0, -1.0), 1.0 + 1e-6)  # <xi,xi> + a^2 barely positive

    def test_unnormalized_xi_rejected(self):
        with pytest.raises(InvalidArgumentError):
            derive_umbilic([2.0, 0.0, 0.0], 1.0)

    def test_null_to_rounding_at_size_accepted(self):
        # <xi,xi> = -1.82e-12, two ulps of xi_t^2 = 4784: past an absolute
        # 1e-12, inside 1e-12 |xi|^2
        xi = [-60.352546003884505, -33.596284288269125, -3.5426017172414217, -69.164225970195]
        assert minkowski_inner(np.array(xi), np.array(xi)) == pytest.approx(-1.82e-12, rel=1e-2)
        assert derive_umbilic(xi, 1.5).kind == "euclidean"

    def test_off_null_xi_still_refused(self):
        # <xi,xi> = -2e-11 against a tolerance of 1e-12 |xi|^2 = 2e-12
        with pytest.raises(InvalidArgumentError, match="must be -1, 0 or"):
            derive_umbilic([1.0, 0.0, 0.0, 1.0 + 1e-11], 1.0)

    def test_center_radius_identity(self):
        # <x - eta, x - eta> = 1/(alpha^2 - 1) at points of the hypersurface
        umb = derive_umbilic([0.0, 0.0, -1.0], 2.0)
        x = np.array([math.sqrt(3.0), 0.0, 2.0])
        rel = x - np.asarray(umb.eta)
        assert minkowski_inner(rel, rel) == pytest.approx(1.0 / (umb.alpha**2 - 1.0))


class TestDimensions:
    def test_ambient(self):
        assert dimensions(Ambient(3)) == (3, 3, 0)

    def test_full_product_tube(self):
        assert dimensions(CATALOG["tube_h3"]) == (2, 3, 1)

    def test_circle(self):
        assert dimensions(CATALOG["circle_h2"]) == (1, 2, 1)

    def test_clifford(self):
        assert dimensions(CATALOG["clifford_tube_h5"]) == (3, 5, 2)

    def test_nested(self):
        assert dimensions(CATALOG["circle_in_h4_nested"]) == (1, 4, 3)


class TestImmerse:
    def test_circle_chart(self):
        d = CATALOG["circle_h2"]
        theta = 0.7
        x = immerse(d, [theta])
        expected = [math.sqrt(3) * math.cos(theta), math.sqrt(3) * math.sin(theta), 2.0]
        assert np.allclose(x, expected, atol=1e-12)

    def test_horocycle_chart(self):
        d = CATALOG["horocycle_h2"]
        assert np.allclose(immerse(d, [0.0]), [0, 0, 1], atol=1e-15)
        s = 0.8
        x = immerse(d, [s])
        # solve the two constraints directly: <x,xi> = 1 and <x,x> = -1
        assert minkowski_inner(x, [1.0, 0.0, -1.0]) == pytest.approx(1.0, abs=1e-12)
        assert minkowski_inner(x, x) == pytest.approx(-1.0, abs=1e-12)

    def test_tube_chart(self):
        d = CATALOG["tube_h3"]
        s, theta = 0.5, 1.2
        x = immerse(d, [s, theta])
        expected = [
            math.sqrt(2) * math.sinh(s),
            math.cos(theta),
            math.sin(theta),
            math.sqrt(2) * math.cosh(s),
        ]
        assert np.allclose(x, expected, atol=1e-12)

    def test_every_sample_is_on_the_hyperboloid(self, catalog_entry):
        name, d = catalog_entry
        for u in chart_samples(d, 4, 11):
            x = immerse(d, u)
            assert ambient_membership(x, 1.0) is Membership.ON_HYPERBOLOID

    def test_umbilic_constraints_along_the_chain(self):
        d = CATALOG["circle_in_h4_nested"]
        for u in chart_samples(d, 4, 2):
            x = immerse(d, u)
            assert abs(minkowski_inner(x, np.asarray(d.umb.xi)) - d.umb.a) < 1e-10

    def test_wrong_chart_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            immerse(CATALOG["tube_h3"], [0.1])


def _tilted_descriptors():
    """Levels whose placements have no zero or unit entries, so rounding shows."""
    xs = np.array([0.3, 0.4, 0.2, 0.0])
    xs[3] = -math.sqrt(1.0 + xs[:3] @ xs[:3])
    xh = np.array([1.2, 0.3, 0.1, 0.0, 0.5])
    xh[4] = math.sqrt(xh[:4] @ xh[:4] - 1.0)
    return {
        "tilted_sphere": Umbilic(derive_umbilic(xs, 1.7), ProductOfSpheres(((2, 1.7**2 - 1.0),))),
        "tilted_equidistant": Umbilic(derive_umbilic(xh, 0.4), CATALOG["tube_h3"]),
        "tilted_horosphere": Umbilic(
            derive_umbilic([0.6, 0.0, 0.8, 0.0, -1.0], 0.9),
            EuclideanIso(1, ProductOfSpheres(((1, 0.5),)), offset=(0.1, 0.2, -0.3)),
        ),
        "scaled_ambient": Ambient(4, 2.5),
    }


BIT_CASES = {**CATALOG, **{f"chain{k}": geodesic_chain(k) for k in range(1, 9)}, **_tilted_descriptors()}


def _plan_extra_cases():
    """Descriptors whose static facts take the rarer branches: leaves, nesting, near-horospherical levels."""
    return {
        "horo_circle_2e4": Umbilic(derive_umbilic((0.0, 0.0, -1.0), 2e4), ProductOfSpheres(((1, 2e4**2 - 1.0),))),
        "near_horo_circle_5e3": Umbilic(derive_umbilic((0.0, 0.0, -1.0), 5e3), ProductOfSpheres(((1, 5e3**2 - 1.0),))),
        "point_product": FullProduct(2, 2.0, ProductOfSpheres(point_position=(0.6, 0.8))),
        "geodesic_product": FullProduct(3, 1.0, ProductOfSpheres(point_position=(1.0,))),
        "minimal_leaf_product": FullProduct(1, 3.0, ProductOfSpheres(((1, 1.0), (1, 1.0)))),
        "point_in_sphere": Umbilic(derive_umbilic((0.0, 0.0, -1.0), 2.0), ProductOfSpheres(point_position=(1.0, 0.0))),
        "minimal_leaf_in_sphere": Umbilic(derive_umbilic((0.0, 0.0, 0.0, 0.0, -1.0), 3.0), ProductOfSpheres(((1, 4.0), (1, 4.0)))),
        "nested_equidistant": Umbilic(derive_umbilic((1.0, 0.0, 0.0, 0.0), 0.5), CATALOG["equidistant_h2"]),
        "padded_horosphere": Umbilic(
            derive_umbilic((1.0, 0.0, 0.0, 0.0, -1.0), 1.5),
            EuclideanIso(0, ProductOfSpheres(((1, 0.5),)), ambient_dim=3),
        ),
        "geodesic_in_equidistant_tube": Umbilic(
            derive_umbilic((0.0, 1.0, 0.0, 0.0, 0.0, 0.0), 0.0),
            Umbilic(derive_umbilic((1.0, 0.0, 0.0, 0.0, 0.0), 0.3), CATALOG["tube_h3"]),
        ),
    }


PLAN_CASES = {**BIT_CASES, **_plan_extra_cases()}


class TestImmerseRows:
    @pytest.mark.parametrize("name", sorted(BIT_CASES))
    def test_rows_match_single_points_bitwise(self, name):
        # a row gives the same bits alone as in a batch, signed zeros included
        d = BIT_CASES[name]
        n = dimensions(d).n
        rng = np.random.default_rng(5)
        U = np.array(chart_samples(d, 5, 13) + [rng.normal(size=n) * s for s in (1e-8, 1e-3, 1.0)])
        X = immerse_rows(d, U)
        assert X.shape == (len(U), dimensions(d).m + 1)
        for u, x in zip(U, X):
            single = immerse(d, u)
            assert x.tobytes() == single.tobytes()

    def test_charts_keep_the_one_point_arithmetic(self):
        # |s| as np.linalg.norm takes it, sinh/cosh/sin/cos from math: the
        # arithmetic of the one-point charts, which written trajectories keep
        d = Ambient(3, 2.5)
        U = np.array(chart_samples(d, 3, 4))
        for u, x in zip(U, immerse_rows(d, U)):
            q = float(np.linalg.norm(u))
            want = math.sqrt(2.5) * np.append(math.sinh(q) / q * u, math.cosh(q))
            assert x.tobytes() == want.tobytes()
        d = CATALOG["geodesic_sphere_h3"]  # the level x_4 = 2, placed on the first three axes
        U = np.array(chart_samples(d, 3, 4))
        for (a0, a1), x in zip(U, immerse_rows(d, U)):
            z = math.sqrt(3.0) * np.array([math.cos(a0), math.sin(a0) * math.cos(a1), math.sin(a0) * math.sin(a1)])
            assert x.tobytes() == np.append(z, 2.0).tobytes()

    def test_polar_chart_quotient_across_its_branch(self):
        # sinh(q)/q, and 1 + q^2/6 below 1e-6, as the scalar forms round them
        def sinhc(q: float) -> float:
            return 1.0 + q * q / 6.0 if abs(q) < 1e-6 else math.sinh(q) / q

        rng = np.random.default_rng(11)
        S = rng.normal(size=(60, 3)) * 10.0 ** rng.integers(-12, 2, size=(60, 1))
        edge = [1e-6, np.nextafter(1e-6, 0.0), np.nextafter(1e-6, 1.0), 5e-324, 0.0, 700.0]
        S = np.concatenate([S, np.array([[q, 0.0, 0.0] for q in edge])])
        for s, x in zip(S, descriptors._hyperbolic_chart(S, 2.0)):
            q = float(np.sqrt(np.dot(s, s)))
            assert x.tobytes() == (math.sqrt(2.0) * np.append(sinhc(q) * s, math.cosh(q))).tobytes()

    @pytest.mark.parametrize(
        "name, u0",
        [(name, u0) for name in ("tube_h3", "ambient_h3", "equidistant_h2") for u0 in (800.0, 1e300)] + [("horocycle_h2", 1e300)],
    )
    def test_chart_overflow_refused_naming_its_row(self, name, u0):
        # sinh overflows math past |u| of about 710, |u|^2 numpy near 1e154:
        # refused as bad input, naming the row, with no numpy warning
        d = CATALOG[name]
        U = np.full((3, dimensions(d).n), 0.1)
        U[1, 0] = u0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=r"chart parameters \[%s" % re.escape(repr(u0))):
                immerse_rows(d, U)
            immerse_rows(d, U[[0, 2]])  # the other rows are fine

    def test_bad_rows_rejected(self):
        d = CATALOG["tube_h3"]
        with pytest.raises(InvalidArgumentError):
            immerse_rows(d, np.zeros((3, 1)))
        with pytest.raises(InvalidArgumentError):
            immerse_rows(d, np.zeros(2))
        with pytest.raises(InvalidArgumentError):
            immerse_rows(d, np.array([[0.1, 0.2], [np.nan, 0.0]]))


class TestMeanCurvature:
    def test_ambient_is_minimal(self):
        d = Ambient(3, 1.0)
        x = immerse(d, [0.2, -0.1, 0.4])
        mc = mean_curvature(d, x)
        assert np.allclose(mc.hyperbolic, 0.0)
        assert np.allclose(mc.lorentzian, 3.0 * x)

    def test_circle_closed_form(self):
        d = CATALOG["circle_h2"]
        x = np.array([math.sqrt(3), 0.0, 2.0])
        mc = mean_curvature(d, x)
        assert np.allclose(mc.hyperbolic, [-4 / math.sqrt(3), 0.0, -2.0], atol=1e-12)
        norm = math.sqrt(minkowski_inner(mc.hyperbolic, mc.hyperbolic))
        assert norm == pytest.approx(2.0 / math.sqrt(3.0))
        # |H| equals coth of the geodesic radius, cosh(rho) = 2
        rho = math.acosh(2.0)
        assert norm == pytest.approx(1.0 / math.tanh(rho))

    def test_horocycle_closed_form(self):
        d = CATALOG["horocycle_h2"]
        mc = mean_curvature(d, [0.0, 0.0, 1.0])
        assert np.allclose(mc.hyperbolic, [-1.0, 0.0, 0.0], atol=1e-14)
        assert math.sqrt(minkowski_inner(mc.hyperbolic, mc.hyperbolic)) == pytest.approx(1.0)

    def test_tangency_to_the_hyperboloid(self, catalog_entry):
        name, d = catalog_entry
        for u in chart_samples(d, 3, 5)[:6]:
            x = immerse(d, u)
            mc = mean_curvature(d, x)
            assert abs(minkowski_inner(mc.hyperbolic, x)) < 1e-10

    def test_off_manifold_rejected(self):
        with pytest.raises(DomainError):
            mean_curvature(CATALOG["circle_h2"], [0.0, 0.0, 1.0])

    def test_agrees_with_numeric_oracle(self, catalog_entry):
        name, d = catalog_entry
        imm = oracle.descriptor_immersion(d)
        imm_l = oracle.ImmersionEvaluator(dimensions(d).n, oracle.LORENTZIAN, imm.func)
        worst_h = worst_l = 0.0
        for u in chart_samples(d, 100, 23, cap=100):
            x = immerse(d, u)
            mc = mean_curvature(d, x)
            worst_h = max(worst_h, float(np.max(np.abs(mc.hyperbolic - oracle.numeric_mean_curvature(imm, u, 1e-3)))))
            worst_l = max(worst_l, float(np.max(np.abs(mc.lorentzian - oracle.numeric_mean_curvature(imm_l, u, 1e-3)))))
        assert worst_h < 5e-4
        assert worst_l < 5e-4


class TestClassifyShape:
    def test_ambient(self):
        flags = classify_shape(Ambient(3))
        assert flags.minimal and flags.totally_geodesic and not flags.intrinsically_flat

    def test_circle_is_flat_not_minimal(self):
        flags = classify_shape(CATALOG["circle_h2"])
        assert not flags.minimal and flags.intrinsically_flat

    def test_tube_is_flat_product(self):
        flags = classify_shape(CATALOG["tube_h3"])
        assert not flags.minimal and flags.intrinsically_flat

    def test_geodesic_sphere_is_curved(self):
        assert not classify_shape(CATALOG["geodesic_sphere_h3"]).intrinsically_flat

    def test_minimal_equals_totally_geodesic_everywhere(self, catalog_entry):
        name, d = catalog_entry
        flags = classify_shape(d)
        assert flags.minimal == flags.totally_geodesic

    def test_totally_geodesic_wrapper(self):
        geodesic_h2 = Umbilic(derive_umbilic([1.0, 0.0, 0.0, 0.0], 0.0), Ambient(2))
        flags = classify_shape(geodesic_h2)
        assert flags.minimal and flags.totally_geodesic and not flags.intrinsically_flat


class TestTotallyGeodesicNumerically:
    def test_second_fundamental_form_vanishes(self):
        # a geodesic H^2 inside H^3, wrapped through a = 0
        d = Umbilic(derive_umbilic([1.0, 0.0, 0.0, 0.0], 0.0), Ambient(2))
        imm = oracle.descriptor_immersion(d)
        worst = 0.0
        for u in chart_samples(d, 3, 3)[:5]:
            _, _, _, II = oracle.second_fundamental_form(imm, u, 1e-3)
            for row in II:
                for w in row:
                    worst = max(worst, float(np.max(np.abs(w))))
        assert worst < 1e-8


class TestIsoparametricityOfTheConstruction:
    def test_principal_curvature_spread(self, catalog_entry):
        name, d = catalog_entry
        if dimensions(d).codim == 0:
            pytest.skip("codimension zero has no principal curvatures")
        spread = oracle.isoparametric_residual(d, 0.0, chart_samples(d, 3, 31)[:4])
        assert spread < 1e-6


class TestJsonRoundTrip:
    def test_catalog_round_trips(self, catalog_entry):
        name, d = catalog_entry
        assert descriptor_from_json(descriptor_to_json(d)) == d

    def test_euclidean_config_round_trips(self):
        e = EuclideanIso(1, ProductOfSpheres(((1, 2.0),)), offset=(0.0, 1.0, 0.5), ambient_dim=3)
        d = Umbilic(derive_umbilic([1.0, 0.0, 0.0, 0.0, -1.0], 1.0), e)
        assert descriptor_from_json(descriptor_to_json(d)) == d

    def test_point_leaf_round_trips(self):
        d = FullProduct(1, 3.0, ProductOfSpheres(point_position=(0.0, 1.0)))
        assert descriptor_from_json(descriptor_to_json(d)) == d

    def test_malformed_json_rejected(self):
        with pytest.raises(InvalidArgumentError):
            descriptor_from_json({"type": "mystery"})

    def test_depth_24_chain_loads(self):
        d = geodesic_chain(24)
        assert descriptor_from_json(descriptor_to_json(d)) == d

    def test_nesting_one_past_the_bound_refused(self):
        # JSON only: circle_h2 (one descriptor deep) wrapped in geodesic umbilic levels
        def chain_json(depth):
            obj, m = descriptor_to_json(CATALOG["circle_h2"]), 2
            for _ in range(depth - 1):
                m += 1
                obj = {"type": "umbilic", "xi": [1.0] + [0.0] * m, "a": 0.0, "inner": obj}
            return obj

        assert dimensions(descriptor_from_json(chain_json(MAX_DESCRIPTOR_DEPTH))).m == MAX_DESCRIPTOR_DEPTH + 1
        with pytest.raises(InvalidArgumentError, match=f"nested deeper than {MAX_DESCRIPTOR_DEPTH} descriptors"):
            descriptor_from_json(chain_json(MAX_DESCRIPTOR_DEPTH + 1))


class TestValidation:
    def test_full_product_needs_matching_radius(self):
        with pytest.raises(InvalidArgumentError):
            FullProduct(1, 2.0, ProductOfSpheres(((1, 2.5),)))

    def test_umbilic_kind_must_match_inner(self):
        with pytest.raises(InvalidArgumentError):
            Umbilic(derive_umbilic([0.0, 0.0, -1.0], 2.0), EuclideanIso(1))

    def test_spherical_leaf_radius_must_match(self):
        with pytest.raises(InvalidArgumentError):
            Umbilic(derive_umbilic([0.0, 0.0, -1.0], 2.0), ProductOfSpheres(((1, 2.0),)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: Ambient(2, v),
            lambda v: FullProduct(1, v, ProductOfSpheres(point_position=(1.0,))),
            lambda v: ProductOfSpheres(((1, v),)),
            lambda v: ProductOfSpheres(point_position=(v, 0.0)),
            lambda v: derive_umbilic([0.0, 0.0, -1.0], v),
            lambda v: derive_umbilic([v, 0.0, -1.0], 1.0),
            lambda v: EuclideanIso(1, offset=(v,)),
        ],
        ids=["ambient.r", "full_product.r", "factor radius", "point.position", "umbilic.a", "umbilic.xi", "euclidean.offset"],
    )
    def test_non_finite_fields_refused(self, build, value):
        # nan passes every comparison the checks make, so each refuses non-finite values first
        with pytest.raises(InvalidArgumentError):
            build(value)


# sha256 of the static facts of every PLAN_CASES descriptor (``_facts_text``),
# recorded before the facts moved into one plan per descriptor
FACTS_SHA256 = "a9ee9b5f1eb190e3f9d9239e0985bb18ebfd4cb1f6cadf7f24768894ebe030b0"


def _hex(value):
    """A fact as JSON-ready text: every float as float.hex, so the digest holds its bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, ExistenceWindow):
        return [_hex(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    return repr(value)


def _facts_text(cases) -> str:
    lines = []
    for name in sorted(cases):
        d = cases[name]
        facts = (dimensions(d), chart_box(d), classify_shape(d), existence_window(d), lorentz_time_range(d))
        lines.append(f"{name} {json.dumps(_hex(facts))}")
    return "\n".join(lines)


def _equidistant_under_geodesics(depth: int):
    """The equidistant curve of H^2 wrapped ``depth`` times in a geodesic umbilic inclusion."""
    d = Umbilic(derive_umbilic((1.0, 0.0, 0.0), 1.0), Ambient(1))
    for _ in range(depth):
        d = Umbilic(derive_umbilic([1.0] + [0.0] * (dimensions(d).m + 1), 0.0), d)
    return d


class TestPlan:
    def test_facts_keep_their_bits(self):
        assert hashlib.sha256(_facts_text(PLAN_CASES).encode()).hexdigest() == FACTS_SHA256

    def test_one_plan_per_descriptor_level(self, monkeypatch):
        built = []
        build = descriptors._build_plan
        monkeypatch.setattr(descriptors, "_build_plan", lambda d: built.append(d) or build(d))
        d = _equidistant_under_geodesics(16)
        # Ambient(1), the equidistant curve and 16 wrappers, each built once
        assert len(built) == 18
        assert len({id(level) for level in built}) == 18
        built.clear()
        us = chart_samples(d, 3, 7)
        forward_limit(d, us)
        backward_limit(d, us, estimate_dim=False)
        run_invariant_battery(d, Sampling(), OracleSettings(enabled=False))
        assert built == []

    def test_levels_hold_their_placement(self, monkeypatch):
        # equal levels share one placement from the by-value cache, a tree loaded again from JSON too
        d = geodesic_chain(8)
        back = descriptor_from_json(json.loads(json.dumps(descriptor_to_json(d))))
        level, again = d, back
        while isinstance(level, Umbilic):
            placement = vars(level)["_plan"].placement
            assert placement is descriptors._umbilic_placement(level.umb) is vars(again)["_plan"].placement
            level, again = level.inner, again.inner
        # embedding, splitting, validation, the flows and mean curvature read the plan, not the cache
        monkeypatch.setattr(descriptors, "_umbilic_placement", lambda umb: pytest.fail("placement looked up by value"))
        X = immerse_rows(back, np.array(chart_samples(back, 3, 7)))
        flow._validate_rows(back, X)
        assert flow._flow_rows(back, X, [0.1]).tobytes() == flow._flow_rows(d, X, [0.1]).tobytes()
        mean_curvature(back, X[0])

    def test_plan_is_invisible(self):
        planned, fresh = Ambient(3, 2.0), Ambient(3, 2.0)
        dimensions(planned)
        assert "_plan" in vars(planned) and "_plan" not in vars(fresh)
        assert planned == fresh and hash(planned) == hash(fresh)
        assert repr(planned) == repr(fresh) == "Ambient(m=3, r=2.0)"
        assert descriptor_to_json(planned) == descriptor_to_json(fresh)
        d = geodesic_chain(3)
        back = pickle.loads(pickle.dumps(d))
        assert back == d and hash(back) == hash(d)
        assert _facts_text({"d": back}) == _facts_text({"d": d})

    def test_replace_gets_its_own_plan(self):
        d = Ambient(3, 2.0)
        lorentz_time_range(d)
        other = dataclasses.replace(d, r=3.0)
        assert lorentz_time_range(other) == (-0.5, None)
        assert vars(other)["_plan"] is not vars(d)["_plan"]
        assert lorentz_time_range(d) == (-2.0 / 6.0, None)

    def test_concurrent_first_reads_agree(self):
        # threads that build one descriptor's plan at once build equal plans
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            d = FullProduct(1, 5.0, ProductOfSpheres(((1, 3.0), (1, 1.0))))
            with ThreadPoolExecutor(8) as pool:  # more workers than cores
                futures = [pool.submit(descriptors._plan, d) for _ in range(64)]
                plans = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert all(plan == vars(d)["_plan"] for plan in plans)
        assert existence_window(d) == existence_window(CATALOG["clifford_tube_h5"])


# ---------------------------------------------------------------------------
# placements applied as row gathers


def _axis_aligned_level(kind: str, m: int, rng: np.random.Generator):
    """A level of H^m with an axis-aligned xi: geodesic, hyperbolic (a > 0), spherical or Euclidean."""
    xi = np.zeros(m + 1)
    if kind == "spherical":
        xi[-1] = -1.0
        return Umbilic(derive_umbilic(xi, float(rng.uniform(1.1, 4.0))), ProductOfSpheres(point_position=(1.0,) + (0.0,) * (m - 1)))
    xi[int(rng.integers(0, m))] = float(rng.choice([-1.0, 1.0]))
    if kind == "euclidean":
        xi[-1] = -1.0
        return Umbilic(derive_umbilic(xi, float(rng.uniform(0.2, 5.0))), EuclideanIso(m - 1))
    return Umbilic(derive_umbilic(xi, 0.0 if kind == "geodesic" else float(rng.uniform(0.1, 3.0))), Ambient(m - 1))


def _signed_zero_rows(shape, rng: np.random.Generator) -> np.ndarray:
    """Rows over many scales, with about a third of the entries +0.0 or -0.0."""
    Z = rng.standard_normal(shape) * np.exp(rng.uniform(-5.0, 5.0, shape))
    zero = rng.random(shape) < 0.3
    Z[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return Z


def _matmul_embed(d, Z):
    """The embedding as one stacked matmul per placement, the product every gather must reproduce."""
    pl = descriptors._plan(d).placement
    if d.umb.kind == "euclidean":
        shift = (descriptors._row_dots(Z) / (2.0 * pl.a))[..., None] * pl.xi
        return pl.x0 + np.matmul(pl.W, Z[..., None])[..., 0] - shift
    return d.umb.eta_array + pl.scale * np.matmul(pl.J, Z[..., None])[..., 0]


def _matmul_split(d, X):
    pl = descriptors._plan(d).placement
    rel = X - pl.x0 if d.umb.kind == "euclidean" else (X - d.umb.eta_array) / pl.scale
    return np.matmul(pl.G, rel[..., None])[..., 0]


def _row_gathers(pl) -> list:
    """The row gathers of a placement's two matrices; None where a matrix stays dense."""
    return [pl.G_rows, pl.W_rows if isinstance(pl, descriptors._HorosphericalPlacement) else pl.J_rows]


def _umbilic_levels(d):
    while isinstance(d, Umbilic):
        yield d
        d = d.inner


@pytest.fixture
def matmul_placements(monkeypatch):
    """Call to make every placement built from then on dense, as if no matrix were axis-aligned."""

    def dense():
        monkeypatch.setattr(descriptors, "_row_gather", lambda M: None)
        descriptors._umbilic_placement.cache_clear()

    yield dense
    # undo first, so that no dense placement stays in the by-value cache
    monkeypatch.undo()
    descriptors._umbilic_placement.cache_clear()


class TestRowGather:
    @pytest.mark.parametrize("kind", ["geodesic", "hyperbolic", "spherical", "euclidean"])
    def test_gather_matches_the_stacked_matmul(self, kind):
        rng = np.random.default_rng(28)
        zeros = 0
        for _ in range(40):
            m = int(rng.integers(2, 9))
            d = _axis_aligned_level(kind, m, rng)
            pl = descriptors._plan(d).placement
            assert None not in _row_gathers(pl)
            cols = (pl.W if kind == "euclidean" else pl.J).shape[1]
            for lead in [(), (5,), (3, 4)]:
                Z = _signed_zero_rows(lead + (cols,), rng)
                X = _signed_zero_rows(lead + (m + 1,), rng)
                pairs = [(descriptors._umbilic_embed(d, Z), _matmul_embed(d, Z)), (descriptors._umbilic_split_rows(d, X), _matmul_split(d, X))]
                if kind != "euclidean":
                    pairs.append((descriptors._umbilic_columns(d, Z), np.matmul(pl.J, Z[..., None])[..., 0]))
                for got, want in pairs:
                    assert got.shape == want.shape and got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes()
                    assert np.array_equal(np.signbit(got), np.signbit(want))
                    zeros += int(np.count_nonzero(want == 0.0))
        # the rows' signed zeros reach the products
        assert zeros > 0

    @pytest.mark.parametrize("name", ["tilted_sphere", "tilted_equidistant", "tilted_horosphere"])
    def test_tilted_level_keeps_the_dense_product(self, name, monkeypatch):
        d = BIT_CASES[name]
        pl = descriptors._plan(d).placement
        G_rows, columns_rows = _row_gathers(pl)
        assert G_rows is None
        # the tilted horosphere's W is axis-aligned, its G is not
        assert (columns_rows is not None) == (name == "tilted_horosphere")
        rng = np.random.default_rng(7)
        Z = _signed_zero_rows((6, (pl.W if name == "tilted_horosphere" else pl.J).shape[1]), rng)
        X = immerse_rows(d, np.array(chart_samples(d, 3, 7)))
        products = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda A, B: products.append(A.shape) or matmul(A, B))
        embedded, split = descriptors._umbilic_embed(d, Z), descriptors._umbilic_split_rows(d, X)
        monkeypatch.undo()
        assert embedded.tobytes() == _matmul_embed(d, Z).tobytes()
        assert split.tobytes() == _matmul_split(d, X).tobytes()
        assert pl.G.shape in products
        if name == "tilted_horosphere":
            assert pl.W.shape not in products
        else:
            assert pl.J.shape in products

    @pytest.mark.parametrize("name", [n for n in sorted(CATALOG) if isinstance(CATALOG[n], Umbilic)])
    def test_catalog_levels_report_a_gather(self, name):
        for level in _umbilic_levels(CATALOG[name]):
            assert None not in _row_gathers(descriptors._plan(level).placement)

    def test_geodesic_chains_report_a_gather(self):
        for depth in range(1, 25):
            levels = list(_umbilic_levels(geodesic_chain(depth)))
            assert len(levels) == depth + 1
            for level in levels:
                assert None not in _row_gathers(descriptors._plan(level).placement)
                assert descriptors._plan(level).placement.linear == level.umb.totally_geodesic

    def test_run_gathers_are_the_levels_in_turn(self):
        # random chains of axis-aligned geodesic levels: a run's one gather
        # each way gives the bits of its levels' maps in turn, signed zeros,
        # infinities and the NaN of 0 * inf included
        rng = np.random.default_rng(29)
        for _ in range(30):
            d = Ambient(int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 9))):
                m = dimensions(d).m + 1
                xi = np.zeros(m + 1)
                xi[int(rng.integers(0, m))] = float(rng.choice([-1.0, 1.0]))
                d = Umbilic(derive_umbilic(xi, 0.0), d)
            levels = list(_umbilic_levels(d))
            assert descriptors._below(d) is levels[-1].inner
            Z = _signed_zero_rows((3, 5, dimensions(levels[-1].inner).m + 1), rng)
            X = _signed_zero_rows((3, 5, dimensions(d).m + 1), rng)
            Z[0, 0, 0], X[1, 2, -1] = math.inf, -math.inf
            down, up = X, Z
            with np.errstate(invalid="ignore"):
                for level in levels:
                    down = descriptors._umbilic_split_rows(level, down)
                for level in reversed(levels):
                    up = descriptors._umbilic_embed(level, up)
                pairs = [(descriptors._split_across(d, X), down), (descriptors._embed_across(d, Z), up), (descriptors._columns_across(d, Z), up)]
            for got, want in pairs:
                assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got[~np.isnan(got)]), np.signbit(want[~np.isnan(want)]))

    def test_gathered_row_keeps_inf_where_the_matmul_gives_nan(self):
        d = geodesic_chain(1)
        J = descriptors._plan(d).placement.J
        z = np.array([0.5, math.inf, -0.25])
        gathered = descriptors._umbilic_embed(d, z)
        with np.errstate(invalid="ignore"):
            dense = np.matmul(J, z[:, None])[:, 0]
        # every row that meets the infinite entry by a zero, the zero row too, sums 0 * inf = nan
        assert np.isnan(dense).sum() == np.count_nonzero(J[:, 1] == 0.0) == 3 and not np.isnan(gathered).any()
        assert np.isinf(gathered).sum() == 1 and gathered[J[:, 1] != 0.0] == math.inf
        assert gathered[0] == 0.0 and not np.signbit(gathered[0])

    @pytest.mark.parametrize(
        "caller, inner, times, named",
        [
            ("run", "circle_h2", (-709.5, -709.0, 2), "the flow at t=-709.5 leaves"),
            # the squares overflow first, from the middle of the grid on
            ("run", "horocycle_h2", (0.0, 800.0, 9), "the flow at t=400.0 leaves"),
            # t + dt is flowed first
            ("pde_residual_grid", "circle_h2", [0.1, -709.0, -709.5], "the flow at t=-708.9999 leaves"),
            ("isoparametric_residuals", "circle_h2", [0.1, -709.0, -709.5], "the flow at t=-709.0 leaves"),
        ],
    )
    def test_callers_refuse_non_finite_rows_as_before(self, tmp_path, matmul_placements, caller, inner, times, named):
        # far enough out the flowed rows hold inf, which the geodesic levels'
        # gathers keep and their stacked matmuls turn into nan: either way the
        # caller refuses with the same error, naming the same first bad time
        def refusal(d):
            us = chart_samples(d, 3, 7)[:3]
            if caller == "run":
                start, end, steps = times
                grid = {"start": start, "end": end, "steps": steps, "clip_to_existence": False}
                path = tmp_path / "scn.json"
                path.write_text(json.dumps({"name": "far", "descriptor": descriptor_to_json(d), "time_grid": grid, "outputs": ["trajectory"]}))
                call = lambda: run_scenario(path, tmp_path / "out")
            elif caller == "pde_residual_grid":
                call = lambda: oracle.pde_residual_grid(d, us, times)
            else:
                call = lambda: oracle.isoparametric_residuals(d, times, us)
            with pytest.raises(TimeOutOfRangeError) as err:
                call()
            return str(err.value)

        def chain():
            d = CATALOG[inner]
            for _ in range(2):
                d = Umbilic(derive_umbilic([1.0] + [0.0] * (dimensions(d).m + 1), 0.0), d)
            return d

        gathered = refusal(chain())
        assert named in gathered
        matmul_placements()
        d = chain()
        assert _row_gathers(descriptors._plan(d).placement) == [None, None]
        assert refusal(d) == gathered
        assert not list(tmp_path.glob("out/*.csv"))


class TestLargeHorosphericalLevel:
    @pytest.mark.parametrize("a", [7e5, 2e6, 5e6, 1e7, 5e7, 9e7, 1e8, 1e9, 1e154, 1e200])
    def test_refused_naming_umbilic_a(self, a):
        # the horospherical chart's span vectors have <w,w> = -1 and +1 and
        # grow like a, so the products that project them out round like a^2:
        # from about 7e5 on they can tilt the chart's columns off the
        # complement of xi and nu, and past about 8e7 one of the norms rounds
        # to 0 (or overflows); either way the level is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=r"umbilic\.a = .* too large for a euclidean level"):
                Umbilic(derive_umbilic((1.0, 0.0, -1.0), a), EuclideanIso(1))

    @pytest.mark.parametrize("a", [1e4, 1e6, 3e7])
    def test_still_builds_below_the_bound(self, a):
        # these a round the projections to columns exactly on the complement, so the chart is on its level
        d = Umbilic(derive_umbilic((1.0, 0.0, -1.0), a), EuclideanIso(1))
        assert dimensions(d) == (1, 2, 1)
        X = immerse_rows(d, np.array([[0.3], [-1.1]]))
        assert np.abs(X[:, 0] + X[:, 2] - a).max() <= 4.0 * np.finfo(float).eps * a  # <x, xi> = x_0 + x_2

    @pytest.mark.parametrize("a", [1e3, 1e4])
    def test_tilted_level_is_refused_where_its_chart_leaves_the_level(self, a):
        # with xi off the axes the columns leave the complement by about a^2
        # eps: 5e-6 at a = 1e3, where the chart was 1e-6 off its level
        with pytest.raises(InvalidArgumentError, match=r"umbilic\.a = .* too large for a euclidean level"):
            Umbilic(derive_umbilic((0.6, 0.8, -1.0), a), EuclideanIso(1))
        assert dimensions(Umbilic(derive_umbilic((0.6, 0.8, -1.0), 100.0), EuclideanIso(1))) == (1, 2, 1)

    def test_degenerate_complement_is_refused_naming_umbilic_a(self):
        # a tilted level this far out rounds its chart's complement basis to
        # a degenerate one, whose columns are off the complement altogether
        xi = (0.9635823387213032, -0.30249503772584907, -0.1420190434025425, -1.0198841012749205)
        with pytest.raises(InvalidArgumentError, match=r"umbilic\.a = .* too large for a euclidean level.* by inf"):
            Umbilic(derive_umbilic(xi, 1153678855.4227526), EuclideanIso(2))
