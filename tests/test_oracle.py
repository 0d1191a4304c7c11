"""Finite-difference oracle: mean curvature, residuals, transports, ODE."""

import math

import numpy as np
import pytest

from hyperflow import oracle
from hyperflow.catalog import CATALOG
from hyperflow.descriptors import dimensions, immerse
from hyperflow.errors import (
    ChartDegenerateError,
    InsufficientSamplesError,
    InvalidArgumentError,
    TimeOutOfRangeError,
)
from hyperflow.flow import existence_window, hyperbolic_flow, hyperbolic_flow_batch, lorentz_flow
from hyperflow.lorentz import minkowski_inner
from hyperflow.scenario import chart_samples, lorentz_time_range, sample_times


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

    @pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan, math.inf])
    def test_unusable_dt_refused(self, dt):
        with pytest.raises(InvalidArgumentError, match="dt must be positive and finite"):
            oracle.pde_residual(CATALOG["circle_h2"], [0.3], 0.1, dt=dt)

    @pytest.mark.parametrize("gauge", ["hyperbolic", "lorentz"])
    def test_non_finite_time_refused(self, gauge):
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            oracle.pde_residual(CATALOG["circle_h2"], [0.3], math.nan, gauge=gauge)

    def test_far_back_overflow_is_out_of_range(self):
        with pytest.raises(TimeOutOfRangeError, match="range of doubles"):
            oracle.pde_residual(CATALOG["circle_h2"], [0.3], -1e6)

    @pytest.mark.parametrize("seed", [7, 3])
    @pytest.mark.parametrize("gauge", ["hyperbolic", "lorentz"])
    def test_grid_is_pde_residual_at_every_point(self, catalog_entry, seed, gauge):
        # one stencil evaluation per time for all samples gives each (u, t)
        # the bits of its own call
        name, d = catalog_entry
        us = chart_samples(d, 3, seed)[:4]
        lo, hi = lorentz_time_range(d) if gauge == "lorentz" else (None, existence_window(d).t_max)
        times = sample_times(lo, hi, 4, np.random.default_rng(seed), span=1.5).tolist()
        grid = oracle.pde_residual_grid(d, us, times, gauge=gauge)
        assert grid.shape == (len(us), len(times))
        for s, u in enumerate(us):
            for j, t in enumerate(times):
                assert grid[s, j] == oracle.pde_residual(d, u, t, gauge=gauge), (name, s, j)


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

    @pytest.mark.parametrize(
        "args, error",
        [
            ((0.02, 0.0, 1e-5), InvalidArgumentError),  # backwards
            ((0.0, 3e-6, 1e-5), InvalidArgumentError),  # rounds to zero steps
            ((0.0, 0.01, math.nan), InvalidArgumentError),
            ((0.0, math.nan, 1e-5), InvalidArgumentError),
            ((math.inf, 0.01, 1e-5), InvalidArgumentError),
        ],
    )
    def test_unusable_times_refused(self, args, error):
        d = CATALOG["tube_h3"]
        with pytest.raises(error):
            oracle.evolve_and_compare(d, chart_samples(d, 2, 5)[:2], *args)

    @pytest.mark.parametrize("h", [1.0, 1e-6, math.nan])
    def test_step_h_outside_the_differencing_range_refused(self, h):
        d = CATALOG["tube_h3"]
        with pytest.raises(InvalidArgumentError, match="step h"):
            oracle.evolve_and_compare(d, chart_samples(d, 2, 5)[:2], 0.0, 1e-3, 1e-5, h=h)

    def test_samples_of_the_wrong_dimension_refused(self):
        with pytest.raises(InvalidArgumentError, match="chart needs 2"):
            oracle.evolve_and_compare(CATALOG["tube_h3"], [np.zeros(3)], 0.0, 1e-3, 1e-5)

    def test_no_samples_refused(self):
        with pytest.raises(InsufficientSamplesError):
            oracle.evolve_and_compare(CATALOG["tube_h3"], [], 0.0, 1e-3, 1e-5)

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

    def test_non_finite_time_refused(self):
        d = CATALOG["tube_h3"]
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            oracle.isoparametric_residual(d, math.nan, chart_samples(d, 3, 7)[:4])

    def test_far_back_overflow_is_out_of_range(self):
        d = CATALOG["tube_h3"]
        with pytest.raises(TimeOutOfRangeError, match="range of doubles"):
            oracle.isoparametric_residual(d, -1e6, chart_samples(d, 3, 7)[:4])

    @pytest.mark.parametrize("steps", [0, -3])
    def test_transport_without_steps_refused(self, steps):
        d = CATALOG["clifford_tube_h5"]
        us = chart_samples(d, 3, 7)[:3]
        with pytest.raises(InvalidArgumentError, match="steps >= 1"):
            oracle.isoparametric_residual(d, 0.1, us, transport_steps=steps)
        imm = oracle.descriptor_immersion(d, 0.1)
        frame = list(oracle._normal_frame_field(imm, us[0], 1e-3)(us[0][None, :])[0])
        with pytest.raises(InvalidArgumentError, match="steps >= 1"):
            oracle.transport_normal_frame(imm, us[0], us[1], frame, steps=steps)


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

    @pytest.mark.parametrize("t", [-0.1, 0.2])
    def test_lorentz_rows_match_single_calls(self, catalog_entry, t):
        # the Lorentzian gauge maps rows in one pass; a call is its batch of one
        name, d = catalog_entry
        imm = oracle.descriptor_immersion(d, t, "lorentz")
        assert imm.rows is not None and imm.ambient is oracle.LORENTZIAN
        U = np.array(chart_samples(d, 3, 9)[:5])
        X = imm.at_rows(U)
        assert X.shape == (len(U), dimensions(d).m + 1)
        for u, x in zip(U, X):
            assert x.tobytes() == imm(u).tobytes()
            assert x.tobytes() == lorentz_flow(d, immerse(d, u), t).tobytes()

    def test_lorentz_rows_keep_the_collapse_bound(self):
        # the rows map refuses the Lorentzian collapse time like the scalar flow
        d = CATALOG["circle_h2"]
        with pytest.raises(TimeOutOfRangeError):
            oracle.descriptor_immersion(d, existence_window(d).t_dprime, "lorentz").at_rows(np.array([[0.3]]))
        assert np.isfinite(oracle.descriptor_immersion(d, 0.1, "lorentz").at_rows(np.array([[0.3], [1.2]]))).all()

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
        defect = oracle.normal_holonomy_defect(_great_circle(), [0.2], [2.0 * math.pi])
        assert defect < 1e-6

    def test_tilted_circle_holonomy(self):
        # still a great circle, but not coordinate-aligned
        c = 1.0 / math.sqrt(2.0)

        def chart(u):
            p = np.array([math.cos(u[0]), math.sin(u[0]) * c, math.sin(u[0]) * c, 0.0])
            return p

        imm = oracle.ImmersionEvaluator(1, oracle.SPHERE, chart)
        assert oracle.normal_holonomy_defect(imm, [0.1], [2.0 * math.pi]) < 1e-6

    @pytest.mark.parametrize("steps", [0, -3])
    def test_loop_without_steps_refused(self, steps):
        imm = _great_circle()
        with pytest.raises(InvalidArgumentError, match="steps"):
            oracle.normal_holonomy_defect(imm, [0.2], [2.0 * math.pi], steps=steps)

    @pytest.mark.parametrize("period", [math.nan, math.inf])
    def test_non_finite_period_refused(self, period):
        with pytest.raises(InvalidArgumentError, match="period"):
            oracle.normal_holonomy_defect(_great_circle(), [0.2], [period])

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


def _great_circle() -> oracle.ImmersionEvaluator:
    return oracle.ImmersionEvaluator(
        1, oracle.SPHERE, lambda u: np.array([0.0, 0.0, math.cos(u[0]), math.sin(u[0])])
    )


def _torus_knot() -> oracle.ImmersionEvaluator:
    # a (1, 2) curve on the Clifford torus: its normal holonomy in S^3 is a
    # rotation by its total torsion, so the defect is far from zero
    return oracle.ImmersionEvaluator(
        1,
        oracle.SPHERE,
        lambda u: np.array([math.cos(u[0]), math.sin(u[0]), math.cos(2.0 * u[0]), math.sin(2.0 * u[0])])
        / math.sqrt(2.0),
    )


# Per-stencil and per-call forms of the batched oracle paths, kept as the
# references the batched code is compared against.


def _derivatives_reference(vals, n, h):
    center = vals[0]
    first = [(vals[1 + 2 * i] - vals[2 + 2 * i]) / (2.0 * h) for i in range(n)]
    second = [[None] * n for _ in range(n)]
    for i in range(n):
        second[i][i] = (vals[1 + 2 * i] - 2.0 * center + vals[2 + 2 * i]) / h**2
    base = 1 + 2 * n
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            pp, pm, mp, mm = vals[base + 4 * k : base + 4 * k + 4]
            second[i][j] = second[j][i] = (pp - pm - mp + mm) / (4.0 * h**2)
            k += 1
    return center, first, second


def _mc_reference(vals, n, h, ambient):
    center, first, second = _derivatives_reference(vals, n, h)
    g = np.array([[ambient.inner(first[i], first[j]) for j in range(n)] for i in range(n)])
    ginv = np.linalg.inv(g)
    trace = sum(ginv[i, j] * second[i][j] for i in range(n) for j in range(n))
    coeff = ginv @ np.array([ambient.inner(trace, first[j]) for j in range(n)])
    H = trace - sum(coeff[k] * first[k] for k in range(n))
    if ambient.intrinsic_to_quadric:
        H = H + (n / ambient.inner(center, center)) * center
    return H


def _stencils(imm, U, h):
    offs = oracle._stencil_offsets(imm.chart_dim, h)
    return imm.at_rows((U[:, None, :] + offs).reshape(-1, imm.chart_dim)).reshape(len(U), len(offs), -1)


def _projector_reference(imm, u, h):
    center, first = oracle._first_derivatives(imm, u, h)
    frame = list(first) + ([center] if imm.ambient.intrinsic_to_quadric else [])
    G = np.array([[imm.ambient.inner(a, b) for b in frame] for a in frame])
    F = np.column_stack(frame)
    sig = imm.ambient.signature(center.size)
    return np.eye(center.size) - F @ np.linalg.solve(G, (F * sig[:, None]).T)


def _holonomy_reference(imm, u0, per, steps, h=1e-3):
    u0, per = np.asarray(u0, dtype=float), np.asarray(per, dtype=float)
    P = lambda t: _projector_reference(imm, u0 + t * per, h)
    delta = 1e-4

    def rhs(t, Z):
        Pt = P(t)
        dP = (P(t + delta) - P(t - delta)) / (2.0 * delta)
        return (dP @ Pt - Pt @ dP) @ Z

    start = oracle._normal_frame_field(imm, u0, h)(u0[None, :])[0].T
    Z = start.copy()
    dt = 1.0 / steps
    for k in range(steps):
        t = k * dt
        k1 = rhs(t, Z)
        k2 = rhs(t + dt / 2.0, Z + dt / 2.0 * k1)
        k3 = rhs(t + dt / 2.0, Z + dt / 2.0 * k2)
        k4 = rhs(t + dt, Z + dt * k3)
        Z = Z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(np.max(np.abs(Z - start)))


def _transport_reference(imm, u_from, u_to, frame, steps, h):
    # one frame field, and two chart evaluations, per sub-segment
    a, b = np.asarray(u_from, dtype=float), np.asarray(u_to, dtype=float)
    k = len(frame)
    current = [np.asarray(z, dtype=float).copy() for z in frame]
    n_sub, delta = 4, 1e-5
    sub_steps = max(4, steps // n_sub)
    for seg in range(n_sub):
        ta, tb = seg / n_sub, (seg + 1) / n_sub
        field = oracle._normal_frame_field(imm, a + 0.5 * (ta + tb) * (b - a), h)
        dt = (tb - ta) / sub_steps
        N0, N1 = field(np.array([a + ta * (b - a), a + tb * (b - a)]))
        coeff = np.array([[imm.ambient.inner(nu, z) for z in current] for nu in N0])
        if k == 1:
            current = [coeff[0, 0] * N1[0]]
            continue

        def A(t):
            Nt, Np, Nm = field(np.array([a + s * (b - a) for s in (t, t + delta, t - delta)]))
            M = np.array([[imm.ambient.inner(x, (y - z) / (2.0 * delta)) for y, z in zip(Np, Nm)] for x in Nt])
            return 0.5 * (M - M.T)

        for i in range(sub_steps):
            t = ta + i * dt
            k1 = -A(t) @ coeff
            k2 = -A(t + dt / 2.0) @ (coeff + dt / 2.0 * k1)
            k3 = -A(t + dt / 2.0) @ (coeff + dt / 2.0 * k2)
            k4 = -A(t + dt) @ (coeff + dt * k3)
            coeff = coeff + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        current = [sum(coeff[i, j] * N1[i] for i in range(k)) for j in range(k)]
    moved = []
    for w in current:
        v = w.copy()
        for m in moved:
            v = v - imm.ambient.inner(v, m) * m
        moved.append(v / math.sqrt(imm.ambient.inner(v, v)))
    return moved


def _isoparametric_reference(imm, chart_samples, transport_steps=24, h=1e-3):
    # transport segment by segment, principal curvatures stop by stop
    samples = oracle._chain_samples([np.asarray(u, dtype=float) for u in chart_samples])
    frame = list(oracle._normal_frame_field(imm, samples[0], h)(samples[0][None, :])[0])
    baseline = oracle.principal_curvatures(imm, samples[0], frame, h)
    spread = 0.0
    for prev, here in zip(samples, samples[1:]):
        frame = _transport_reference(imm, prev, here, frame, transport_steps, h)
        for e0, e1 in zip(baseline, oracle.principal_curvatures(imm, here, frame, h)):
            spread = max(spread, float(np.max(np.abs(e1 - e0))))
    return spread


def _euler_reference(d, samples, t0, t1, dt, h=1e-3):
    n = dimensions(d).n
    offs = oracle._stencil_offsets(n, h)
    K = len(offs)
    stencil_points = np.vstack([[immerse(d, u + off) for off in offs] for u in samples])
    X = np.array([hyperbolic_flow(d, immerse(d, u), t0) for u in samples])
    steps = round((t1 - t0) / dt)
    for k in range(steps):
        flowed = hyperbolic_flow_batch(d, stencil_points, t0 + k * dt)
        for s in range(len(samples)):
            X[s] = X[s] + dt * _mc_reference(flowed[s * K : (s + 1) * K], n, h, oracle.HYPERBOLOID)
            X[s] = X[s] / math.sqrt(-minkowski_inner(X[s], X[s]))
    return max(
        float(np.linalg.norm(X[s] - hyperbolic_flow(d, immerse(d, u), t0 + steps * dt)))
        for s, u in enumerate(samples)
    )


class TestBatchedOracle:
    @pytest.mark.parametrize("t, gauge", [(None, "hyperbolic"), (0.2, "hyperbolic"), (0.2, "lorentz")])
    def test_mean_curvature_rows(self, catalog_entry, t, gauge):
        # P stacked stencils give what one call per stencil and the
        # per-stencil reference give
        name, d = catalog_entry
        imm = oracle.descriptor_immersion(d, t, gauge)
        n, h = imm.chart_dim, 1e-3
        vals = _stencils(imm, np.array(chart_samples(d, 3, 13)[:5]), h)
        H = oracle._mc_from_stencil(vals, n, h, imm.ambient)
        assert H.shape == (len(vals), vals.shape[2])
        for p in range(len(vals)):
            ref = _mc_reference(vals[p], n, h, imm.ambient)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(H[p] - oracle._mc_from_stencil(vals[p : p + 1], n, h, imm.ambient)[0])) <= 1e-12 * scale
            assert np.max(np.abs(H[p] - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["circle_h2", "tube_h3", "clifford_tube_h5", "circle_in_h4_nested"])
    def test_stencil_derivatives_bitwise(self, name):
        # the row-wise derivatives, and the second fundamental form built
        # on them, are the per-stencil ones bit for bit
        d = CATALOG[name]
        imm = oracle.descriptor_immersion(d, 0.1)
        n, h = imm.chart_dim, 1e-3
        U = np.array(chart_samples(d, 3, 19)[:4])
        vals = _stencils(imm, U, h)
        center, first, second = oracle._stencil_derivatives(vals, n, h)
        for p, u in enumerate(U):
            c0, f0, s0 = _derivatives_reference(vals[p], n, h)
            assert center[p].tobytes() == c0.tobytes()
            assert first[p].tobytes() == np.array(f0).tobytes()
            assert second[p].tobytes() == np.array(s0).tobytes()
            _, _, g, II = oracle.second_fundamental_form(imm, u, h)
            g0, _ = oracle._metric_inverse(imm, f0)
            frame = f0 + [c0]
            assert g.tobytes() == g0.tobytes()
            for i in range(n):
                for j in range(n):
                    w = s0[i][j] - oracle._general_tangential(imm, frame, s0[i][j])
                    assert II[i][j].tobytes() == w.tobytes()

    def test_degenerate_stencil_in_a_batch(self):
        imm = oracle.descriptor_immersion(CATALOG["tube_h3"])
        vals = _stencils(imm, np.array(chart_samples(CATALOG["tube_h3"], 2, 3)[:3]), 1e-3)
        vals[1] = vals[1, 0]  # a stencil collapsed to its center
        with pytest.raises(ChartDegenerateError):
            oracle._mc_from_stencil(vals, 2, 1e-3, imm.ambient)

    @pytest.mark.parametrize("name", ["tube_h3", "clifford_tube_h5", "geodesic_sphere_h3"])
    def test_euler_walk_matches_per_step_loop(self, name):
        # 150 steps: two full blocks and a partial one
        d = CATALOG[name]
        us = chart_samples(d, 2, 11)[:3]
        walked = oracle.evolve_and_compare(d, us, 0.0, 1.5e-3, 1e-5)
        assert abs(walked - _euler_reference(d, us, 0.0, 1.5e-3, 1e-5)) < 1e-12

    @pytest.mark.parametrize(
        "imm, U",
        [
            (_great_circle(), np.linspace(0.0, 6.0, 7)[:, None]),
            (_torus_knot(), np.linspace(0.0, 6.0, 7)[:, None]),
            # the Lorentzian signature, where a projector is not symmetric
            (oracle.descriptor_immersion(CATALOG["clifford_tube_h5"], 0.1), np.array(chart_samples(CATALOG["clifford_tube_h5"], 2, 5)[:4])),
        ],
        ids=["great_circle", "torus_knot", "clifford_tube_h5"],
    )
    def test_projector_rows(self, imm, U):
        h = 1e-3
        proj = oracle._normal_projector_rows(imm, U, h)
        for p, u in enumerate(U):
            assert np.max(np.abs(proj[p] - _projector_reference(imm, u, h))) < 1e-12

    @pytest.mark.parametrize("imm", [_great_circle(), _torus_knot()], ids=["great_circle", "torus_knot"])
    def test_holonomy_matches_per_call_loop(self, imm):
        defect = oracle.normal_holonomy_defect(imm, [0.3], [2.0 * math.pi], steps=64)
        assert abs(defect - _holonomy_reference(imm, [0.3], [2.0 * math.pi], 64)) < 1e-12

    def test_torus_knot_has_holonomy(self):
        assert oracle.normal_holonomy_defect(_torus_knot(), [0.3], [2.0 * math.pi]) > 1e-2

    @pytest.mark.parametrize(
        "imm, samples",
        [
            *[
                (oracle.descriptor_immersion(CATALOG[name], t), chart_samples(CATALOG[name], 3, 7)[:4])
                for name in ("circle_h2", "tube_h3", "clifford_tube_h5", "circle_in_h4_nested")
                for t in (-0.3, 0.1)
            ],
            # hand-written charts without a row map, of normal rank 2
            (_torus_knot(), [np.array([0.3]), np.array([1.1]), np.array([2.0]), np.array([-0.4])]),
            (_twisted_surface(), [np.array([0.1, 0.2]), np.array([0.5, -0.3]), np.array([0.9, 0.4])]),
        ],
    )
    def test_batched_spread_matches_per_segment_loop(self, imm, samples):
        assert abs(oracle.isoparametric_residual_of(imm, samples) - _isoparametric_reference(imm, samples)) <= 1e-13
