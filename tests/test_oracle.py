"""Finite-difference oracle: mean curvature, residuals, transports, ODE."""

import math

import numpy as np
import pytest

from hyperflow import oracle
from hyperflow.catalog import CATALOG
from hyperflow.descriptors import dimensions, immerse
from hyperflow.errors import ChartDegenerateError, TimeOutOfRangeError
from hyperflow.lorentz import minkowski_inner
from hyperflow.scenario import chart_samples


def circle_evaluator(radius: float) -> oracle.ImmersionEvaluator:
    return oracle.ImmersionEvaluator(
        1, oracle.EUCLIDEAN, lambda u: radius * np.array([math.cos(u[0]), math.sin(u[0])])
    )


class TestNumericMeanCurvature:
    def test_round_circle(self):
        H = oracle.numeric_mean_curvature(circle_evaluator(2.0), [0.0])
        assert np.allclose(H, [-0.5, 0.0], atol=1e-6)

    def test_unit_hyperbola_in_lorentz_plane(self):
        imm = oracle.ImmersionEvaluator(
            1, oracle.LORENTZIAN, lambda u: np.array([math.sinh(u[0]), math.cosh(u[0])])
        )
        H = oracle.numeric_mean_curvature(imm, [0.0])
        assert np.allclose(H, [0.0, 1.0], atol=1e-5)

    def test_product_of_circles(self):
        imm = oracle.ImmersionEvaluator(
            2,
            oracle.EUCLIDEAN,
            lambda u: np.array([math.cos(u[0]), math.sin(u[0]), math.cos(u[1]), math.sin(u[1])]),
        )
        H = oracle.numeric_mean_curvature(imm, [0.0, 0.0])
        assert np.allclose(H, [-1.0, 0.0, -1.0, 0.0], atol=1e-6)

    def test_sphere_intrinsic_strips_the_radial_part(self):
        # a great circle of S^2 is minimal inside the sphere; the plain
        # stencil leaves an O(h^2) radial residue, extrapolation removes it
        imm = oracle.ImmersionEvaluator(
            1, oracle.SPHERE, lambda u: np.array([math.cos(u[0]), math.sin(u[0]), 0.0])
        )
        assert np.max(np.abs(oracle.numeric_mean_curvature(imm, [0.3]))) < 1e-6
        assert np.max(np.abs(oracle.numeric_mean_curvature(imm, [0.3], richardson=True))) < 5e-9

    def test_convergence_order(self):
        # halving h divides the error by about four on the round circle
        exact = np.array([-0.5, 0.0])
        imm = circle_evaluator(2.0)
        err = lambda h: np.linalg.norm(oracle.numeric_mean_curvature(imm, [0.4], h) - _rot(exact, 0.4))
        ratio = err(2e-3) / err(1e-3)
        assert 3.0 <= ratio <= 5.0

    def test_degenerate_chart_rejected(self):
        imm = oracle.ImmersionEvaluator(2, oracle.EUCLIDEAN, lambda u: np.array([u[0], u[0], 0.0]))
        with pytest.raises(ChartDegenerateError):
            oracle.numeric_mean_curvature(imm, [0.0, 0.0])


def _rot(v, a):
    c, s = math.cos(a), math.sin(a)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


class TestAmbientIdentities:
    def test_lorentz_vs_hyperbolic_split(self, catalog_entry):
        # numeric H^L minus numeric H is (n/r) x for hyperboloid submanifolds
        name, d = catalog_entry
        n = dimensions(d).n
        imm_h = oracle.descriptor_immersion(d)
        imm_l = oracle.ImmersionEvaluator(imm_h.chart_dim, oracle.LORENTZIAN, imm_h.func)
        worst = 0.0
        for u in chart_samples(d, 2, 17)[:4]:
            x = immerse(d, u)
            HL = oracle.numeric_mean_curvature(imm_l, u)
            H = oracle.numeric_mean_curvature(imm_h, u)
            worst = max(worst, float(np.max(np.abs(HL - H - n * x))))
        assert worst < 5e-4

    @pytest.mark.parametrize("name", ["circle_h2", "equidistant_h2", "horocycle_h2"])
    def test_hypersurface_split(self, name):
        # numeric H in H^m minus the mapped inner-model H is -n alpha (alpha x + beta xi)
        from hyperflow.descriptors import _umbilic_placement, _umbilic_split

        d = CATALOG[name]
        umb = d.umb
        n = dimensions(d).n
        pl = _umbilic_placement(umb)
        imm = oracle.descriptor_immersion(d)
        if umb.kind == "spherical":
            inner_imm = oracle.ImmersionEvaluator(
                1, oracle.SPHERE, lambda u: _umbilic_split(d, immerse(d, u))
            )
            mapper = lambda Ht: pl.J @ Ht
        elif umb.kind == "hyperbolic":
            inner_imm = oracle.ImmersionEvaluator(
                1, oracle.HYPERBOLOID, lambda u: _umbilic_split(d, immerse(d, u)) / pl.scale
            )
            mapper = lambda Ht: (pl.J @ Ht) / pl.scale
        else:
            inner_imm = oracle.ImmersionEvaluator(
                1, oracle.EUCLIDEAN, lambda u: _umbilic_split(d, immerse(d, u))
            )

            def mapper(Ht, d=d, pl=pl):
                w = _umbilic_split(d, immerse(d, np.zeros(1)))
                return pl.W @ Ht - (float(w @ Ht) / pl.a) * pl.xi

        worst = 0.0
        for u in chart_samples(d, 3, 19)[:4]:
            x = immerse(d, u)
            H = oracle.numeric_mean_curvature(imm, u)
            H1 = mapper(oracle.numeric_mean_curvature(inner_imm, u))
            xi = np.asarray(umb.xi)
            resid = H - H1 + n * umb.alpha * (umb.alpha * x + umb.beta * xi)
            worst = max(worst, float(np.max(np.abs(resid))))
        assert worst < 5e-4


class TestPdeResidual:
    def test_ambient_both_gauges(self):
        d = CATALOG["ambient_h3"]
        for u in chart_samples(d, 2, 3)[:2]:
            assert oracle.pde_residual(d, u, 0.4, 1e-3, 1e-4, "lorentz", richardson=True) < 1e-8
            assert oracle.pde_residual(d, u, 0.4, 1e-3, 1e-4, "hyperbolic", richardson=True) < 1e-8

    def test_circle(self):
        d = CATALOG["circle_h2"]
        r = oracle.pde_residual(d, [0.3], 0.1, 1e-3, 1e-4, "hyperbolic")
        assert r < 5e-4

    def test_tube(self):
        d = CATALOG["tube_h3"]
        r = oracle.pde_residual(d, [0.2, 0.8], 0.2, 1e-3, 1e-4, "hyperbolic")
        assert r < 5e-4

    def test_margin_enforced(self):
        d = CATALOG["circle_h2"]
        with pytest.raises(TimeOutOfRangeError):
            oracle.pde_residual(d, [0.3], math.log(2.0) - 1e-6, 1e-3, 1e-4, "hyperbolic")


class TestEvolveAndCompare:
    def test_circle_short_walk(self):
        d = CATALOG["circle_h2"]
        err = oracle.evolve_and_compare(d, chart_samples(d, 2, 5)[:3], 0.0, 0.1, 1e-4)
        assert err < 1e-3

    def test_ambient_stationary(self):
        # the walk accumulates only the O(h^2) differencing residue
        d = CATALOG["ambient_h3"]
        err = oracle.evolve_and_compare(d, chart_samples(d, 2, 5)[:2], 0.0, 0.01, 1e-4, h=5e-4)
        assert err < 1e-9

    def test_geodesic_sphere_radius_ode(self):
        # the independent scalar oracle reproduces the circle collapse time
        T = oracle.geodesic_sphere_collapse_time(1, 2.0)
        assert abs(T - math.log(2.0)) < 1e-6


class TestIsoparametricResidual:
    def test_circle_along_the_flow(self):
        d = CATALOG["circle_h2"]
        assert oracle.isoparametric_residual(d, 0.3, chart_samples(d, 3, 7)[:4]) < 1e-5

    def test_tube_along_the_flow(self):
        d = CATALOG["tube_h3"]
        assert oracle.isoparametric_residual(d, 0.2, chart_samples(d, 3, 7)[:4]) < 1e-5

    def test_perturbed_circle_is_detected(self):
        d = CATALOG["circle_h2"]

        def perturbed(u):
            x = immerse(d, u)
            x = x + 0.05 * math.cos(3.0 * u[0]) * np.array([math.cos(u[0]), math.sin(u[0]), 0.0])
            return x / math.sqrt(-minkowski_inner(x, x))

        imm = oracle.ImmersionEvaluator(1, oracle.HYPERBOLOID, perturbed)
        samples = [np.array([0.1]), np.array([0.9]), np.array([1.7])]
        assert oracle.isoparametric_residual_of(imm, samples) > 1e-2


class TestRowEvaluation:
    def test_at_rows_falls_back_to_single_calls(self):
        imm = circle_evaluator(1.5)
        U = np.array([[0.1], [0.7], [-2.0]])
        X = imm.at_rows(U)
        assert X.shape == (3, 2)
        for u, x in zip(U, X):
            assert x.tobytes() == imm(u).tobytes()

    @pytest.mark.parametrize("t", [None, 0.2])
    def test_descriptor_rows_match_single_calls(self, catalog_entry, t):
        name, d = catalog_entry
        imm = oracle.descriptor_immersion(d, t)
        U = np.array(chart_samples(d, 3, 9)[:5])
        X = imm.at_rows(U)
        for u, x in zip(U, X):
            assert np.max(np.abs(x - imm(u))) <= 1e-15 * max(1.0, float(np.max(np.abs(x))))

    @pytest.mark.parametrize("t", [None, -0.4, 0.2])
    @pytest.mark.parametrize("name", [n for n in sorted(CATALOG) if dimensions(CATALOG[n]).codim > 0])
    def test_frame_field_rows(self, name, t):
        # the row-wise field agrees with one point at a time and is a
        # signature-orthonormal frame of the normal space inside the quadric
        d = CATALOG[name]
        dims = dimensions(d)
        imm = oracle.descriptor_immersion(d, t)
        h = 1e-3
        U = np.array(chart_samples(d, 3, 23)[:6])
        field = oracle._normal_frame_field(imm, U[0], h)
        F = field(U)
        assert F.shape == (len(U), dims.codim, dims.m + 1)
        for p, u in enumerate(U):
            assert np.max(np.abs(F[p] - field(u[None, :])[0])) < 1e-12
        sig = imm.ambient.signature(dims.m + 1)
        gram = np.einsum("pid,pjd->pij", F * sig, F)
        assert np.max(np.abs(gram - np.eye(dims.codim))) < 1e-12
        center, first = oracle._first_derivative_rows(imm, U, h)
        tangent = np.concatenate([first, center[:, None, :]], axis=1)
        scale = np.linalg.norm(tangent, axis=2)[:, None, :]
        assert np.max(np.abs(np.einsum("pid,pad->pia", F * sig, tangent)) / scale) < 1e-12

    def test_transport_round_trip(self):
        # transporting a codimension-2 frame out and back returns it
        d = CATALOG["clifford_tube_h5"]
        imm = oracle.descriptor_immersion(d, 0.1)
        a, b = np.array([0.2, 0.4, -0.3]), np.array([0.5, 0.9, 0.1])
        frame = list(oracle._normal_frame_field(imm, a, 1e-3)(a[None, :])[0])
        there = oracle.transport_normal_frame(imm, a, b, frame)
        back = oracle.transport_normal_frame(imm, b, a, there)
        assert np.max(np.abs(np.array(back) - np.array(frame))) < 1e-6


class TestFlatNormalBundle:
    def test_great_circle_holonomy(self):
        imm = oracle.ImmersionEvaluator(
            1,
            oracle.SPHERE,
            lambda u: np.array([0.0, 0.0, math.cos(u[0]), math.sin(u[0])]),
        )
        defect = oracle.normal_holonomy_defect(imm, [0.2], [2.0 * math.pi])
        assert defect < 1e-6

    def test_tilted_circle_holonomy(self):
        # still a great circle, but not coordinate-aligned
        c = 1.0 / math.sqrt(2.0)

        def chart(u):
            p = np.array([math.cos(u[0]), math.sin(u[0]) * c, math.sin(u[0]) * c, 0.0])
            return p

        imm = oracle.ImmersionEvaluator(1, oracle.SPHERE, chart)
        assert oracle.normal_holonomy_defect(imm, [0.1], [2.0 * math.pi]) < 1e-6

    def test_flat_torus_in_s3(self):
        # the diagonal torus has flat normal bundle inside the 3-sphere
        def chart(u):
            a, b = u
            return np.array([math.cos(a), math.sin(a), math.cos(b), math.sin(b)]) / math.sqrt(2.0)

        imm = oracle.ImmersionEvaluator(2, oracle.SPHERE, chart)
        res = oracle.flat_normal_residual(imm, [np.array([0.3, 0.9]), np.array([1.0, 0.2])])
        assert res == 0.0  # codimension 1 inside the sphere: flat by rank

    def test_twisted_surface_is_curved_flat_metric(self):
        imm = _twisted_surface()
        R = oracle.normal_curvature_vectors(imm, [0.3, 0.7])
        assert np.max(np.abs(R)) > 1e-4  # genuinely curved normal bundle

    def test_conformal_metric_agreement(self):
        # the normal curvature vectors agree between the flat metric and the
        # hyperbolic ball metric on the same tangent and normal inputs
        imm = _twisted_surface()
        ball = oracle.poincare_ball_factor()
        for u in ([0.3, 0.7], [1.1, 0.4]):
            R_flat = oracle.normal_curvature_vectors(imm, u)
            R_conf = oracle.normal_curvature_vectors(imm, u, conformal=ball)
            assert np.max(np.abs(R_flat - R_conf)) < 1e-4

    def test_plane_in_r4_is_flat(self):
        imm = oracle.ImmersionEvaluator(
            2, oracle.EUCLIDEAN, lambda u: np.array([u[0], u[1], 0.2 * u[0], 0.0])
        )
        assert oracle.flat_normal_residual(imm, [np.array([0.1, 0.2])]) < 1e-9


def _twisted_surface() -> oracle.ImmersionEvaluator:
    def chart(u):
        a, b = u
        return 0.3 * np.array([math.cos(a), math.sin(a), 0.8 * math.cos(a + b), math.sin(b)])

    return oracle.ImmersionEvaluator(2, oracle.EUCLIDEAN, chart)
