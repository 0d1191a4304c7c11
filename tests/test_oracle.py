"""Finite-difference oracle: mean curvature, residuals, transports, ODE."""

import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperflow
from hyperflow import descriptors, flow, limits, oracle
from hyperflow.catalog import CATALOG
from hyperflow.descriptors import FullProduct, ProductOfSpheres, dimensions, immerse
from hyperflow.errors import (
    ChartDegenerateError,
    InsufficientSamplesError,
    InvalidArgumentError,
    TimeOutOfRangeError,
)
from hyperflow.flow import existence_window, hyperbolic_flow, hyperbolic_flow_batch, lorentz_flow
from hyperflow.lorentz import minkowski_inner
from hyperflow.scenario import chart_samples, lorentz_time_range, sample_times

from conftest import geodesic_chain


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
        from hyperflow.descriptors import _umbilic_placement, _umbilic_split_rows

        d = CATALOG[name]
        umb = d.umb
        n = dimensions(d).n
        pl = _umbilic_placement(umb)
        imm = oracle.descriptor_immersion(d)
        if umb.kind == "spherical":
            inner_imm = oracle.ImmersionEvaluator(
                1, oracle.SPHERE, lambda u: _umbilic_split_rows(d, immerse(d, u))
            )
            mapper = lambda Ht: pl.J @ Ht
        elif umb.kind == "hyperbolic":
            inner_imm = oracle.ImmersionEvaluator(
                1, oracle.HYPERBOLOID, lambda u: _umbilic_split_rows(d, immerse(d, u)) / pl.scale
            )
            mapper = lambda Ht: (pl.J @ Ht) / pl.scale
        else:
            inner_imm = oracle.ImmersionEvaluator(
                1, oracle.EUCLIDEAN, lambda u: _umbilic_split_rows(d, immerse(d, u))
            )

            def mapper(Ht, d=d, pl=pl):
                w = _umbilic_split_rows(d, immerse(d, np.zeros(1)))
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

    @pytest.mark.parametrize("t", [-20.0, -100.0])
    def test_position_lost_to_rounding_is_degenerate(self, t):
        # finite stencil values whose <x,x> cancels to zero would make H infinite
        with pytest.raises(ChartDegenerateError, match="lost to rounding"):
            oracle.pde_residual(CATALOG["circle_h2"], [0.3], t)

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


def _conditioned_gram(cond: float) -> np.ndarray:
    """A symmetric positive definite 2x2 Gram of 2-norm condition number ``cond``, off the axes."""
    c, s = math.cos(0.4), math.sin(0.4)
    Q = np.array([[c, -s], [s, c]])
    return Q @ np.diag([1.0, 1.0 / cond]) @ Q.T


def _tangent_position_gram() -> np.ndarray:
    """The indefinite Gram of tube_h3's chart derivatives and position vector at one chart point."""
    imm = oracle.descriptor_immersion(CATALOG["tube_h3"])
    u = np.array(chart_samples(CATALOG["tube_h3"], 2, 3)[0])
    center, first = (a[0] for a in oracle._first_derivative_rows(imm, u[None, :], 1e-3))
    frame = np.vstack([first, center])
    return imm.ambient.inners(frame[:, None, :], frame[None, :, :])


_GRAMS = {
    "zero": np.zeros((2, 2)),
    "rank_one": np.outer([1.0, 2.0], [1.0, 2.0]),
    "cond_1e11": _conditioned_gram(1e11),
    "cond_1e13": _conditioned_gram(1e13),
    "tangent_plus_position": _tangent_position_gram(),
    "one_by_one": np.array([[-1.0]]),
    "one_by_one_zero": np.array([[0.0]]),
    "identity": np.eye(3),
    "nan": np.array([[1.0, math.nan], [math.nan, 1.0]]),
    "inf": np.array([[math.inf, 0.0], [0.0, 1.0]]),
}


# diagonally dominant, so Gershgorin's discs certify it
_DOMINANT = np.array([[2.0, 0.5], [0.5, 1.0]])


def _cond_refuses(G: np.ndarray) -> bool:
    """The Gram check as a 2-norm condition number computed from an SVD."""
    return not np.isfinite(G).all() or bool(np.any(np.linalg.cond(G) > oracle._COND_LIMIT))


class TestGramCheck:
    @pytest.mark.parametrize("name", list(_GRAMS))
    def test_decision_matches_condition_number(self, name):
        G = _GRAMS[name]
        refused = _cond_refuses(G)
        if refused:
            with pytest.raises(ChartDegenerateError):
                oracle._check_gram(G, "refused")
        else:
            oracle._check_gram(G, "refused")

    def test_reference_decisions(self):
        # the cases are on both sides of the limit, so the pin above says something
        refused = {name for name, G in _GRAMS.items() if _cond_refuses(G)}
        assert refused == {"zero", "rank_one", "cond_1e13", "one_by_one_zero", "nan", "inf"}
        assert np.linalg.eigvalsh(_GRAMS["tangent_plus_position"]).min() < 0.0

    @pytest.mark.parametrize("bad", ["zero", "rank_one", "cond_1e13", "nan", "inf"])
    def test_one_bad_gram_refuses_the_stack(self, bad):
        good = [_GRAMS["cond_1e11"], np.eye(2), _conditioned_gram(10.0)]
        oracle._check_gram(np.stack(good), "refused")
        with pytest.raises(ChartDegenerateError, match="refused"):
            oracle._check_gram(np.stack(good[:2] + [_GRAMS[bad]] + good[2:]), "refused")

    @pytest.mark.parametrize(
        "stack, decided",
        [
            # the discs certify the two cheap Grams and leave cond_1e11
            # (accepted) or cond_1e13 (refused) to eigvalsh
            ([np.eye(2), "cond_1e11", _DOMINANT], 1),
            ([np.eye(2), "cond_1e13", _DOMINANT], 1),
            (["cond_1e13", "cond_1e11", np.eye(2)], 2),
            # each Gram is bounded on its own: 1e-6 I and 1e6 I are both
            # certified, though the stack spans 1e12
            ([1e-6 * np.eye(2), 1e6 * np.eye(2), _DOMINANT], 0),
            # a row sum that overflows leaves its Gram to eigvalsh
            ([np.eye(2), np.full((2, 2), 1e308)], 1),
            (["nan", np.eye(2)], 0),
            ([np.eye(2), "inf"], 0),
        ],
    )
    def test_mixed_stack_keeps_every_decision(self, stack, decided, monkeypatch):
        G = np.stack([_GRAMS[g] if isinstance(g, str) else g for g in stack])
        seen, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: seen.append(len(A)) or eigvalsh(A))
        if _cond_refuses(G):
            with pytest.raises(ChartDegenerateError, match="refused"):
                oracle._check_gram(G, "refused")
        else:
            oracle._check_gram(G, "refused")
        assert sum(seen) == decided  # only the Grams that no disc bound certifies

    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 3, 3)])
    def test_empty_stack_is_accepted(self, shape, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: pytest.fail("eigvalsh ran"))
        assert oracle._check_gram(np.empty(shape), "refused") is None

    def test_signature_is_cached_and_read_only(self):
        sig = oracle.HYPERBOLOID.signature(4)
        assert sig is oracle.LORENTZIAN.signature(4)
        assert sig.tolist() == [1.0, 1.0, 1.0, -1.0]
        assert oracle.EUCLIDEAN.signature(4).tolist() == [1.0] * 4
        with pytest.raises(ValueError):
            sig[0] = 2.0


class TestEvolveAndCompare:
    @pytest.mark.parametrize(
        "name, seed, expected",
        [
            ("tube_h3", 7, 2.926192018532111e-07),
            ("clifford_tube_h5", 7, 6.633162878841942e-07),
            ("geodesic_sphere_h3", 7, 3.842689125137447e-07),
            ("tube_h3", 101, 2.6923336604777585e-07),
            ("clifford_tube_h5", 101, 6.043190778428179e-07),
            ("geodesic_sphere_h3", 101, 3.8426025065265597e-07),
        ],
    )
    def test_walk_values_pinned(self, name, seed, expected):
        # the benchmark's Euler walks, to the last bit
        d = CATALOG[name]
        assert oracle.evolve_and_compare(d, chart_samples(d, 2, seed)[:4], 0.0, 0.02, 1e-5) == expected

    def test_one_step_blocks_keep_the_bits(self, monkeypatch):
        d = CATALOG["tube_h3"]
        monkeypatch.setattr(oracle, "_WALK_BUDGET", 1)
        # the value was recorded with 64-step blocks
        assert oracle.evolve_and_compare(d, chart_samples(d, 2, 7)[:4], 0.0, 2e-3, 1e-5) == 2.805333148260972e-08

    def test_block_memory_is_bounded(self):
        # n = 20, 801-point stencils: with 64-step blocks this walk peaked at
        # 72.8 MB traced, and the budget walks it one step a block (3.6 MB
        # on numpy 2.4); the value was recorded with 64-step blocks, and
        # re-recorded (4.5696056226862545e-07 before) when the stencil
        # kernel's contractions became stacked matmuls
        d = FullProduct(1, 20.0, ProductOfSpheres(((19, 19.0),)))
        us = chart_samples(d, 2, 7)[:4]
        assert oracle.evolve_and_compare(d, us, 0.0, 64e-5, 1e-5) == 4.569604941965993e-07
        tracemalloc.start()
        try:
            oracle.evolve_and_compare(d, us, 0.0, 64e-5, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_chart_overflow_refused(self):
        # cosh(800) overflows math: refused as bad input, not a bare OverflowError
        with pytest.raises(InvalidArgumentError, match=r"chart parameters \[800\.0, 0\.1\]"):
            oracle.evolve_and_compare(CATALOG["tube_h3"], [[800.0, 0.1]], 0.0, 1e-3, 1e-5)

    def test_rounded_end_past_the_collapse_refused(self, monkeypatch):
        # t1 lies before T, but 2747 steps of 1e-4 end at 0.2747, past it:
        # refused before any flow, naming t1, dt and the end
        d = CATALOG["tube_h3"]
        T = existence_window(d).t_max
        monkeypatch.setattr(oracle, "_flow_rows", lambda *a, **k: pytest.fail("the walk started"))
        with pytest.raises(TimeOutOfRangeError, match=r"t1=0\.27465207\d* in steps of dt=0\.0001 ends at t=0\.2747,"):
            oracle.evolve_and_compare(d, chart_samples(d, 2, 5)[:2], 0.0, T - 1e-6, 1e-4)

    def test_nan_distance_is_not_lost(self, monkeypatch):
        # a nan target at t1 for one sample must not give the other samples'
        # distance: the start and target flow refuses it, naming the time
        d = CATALOG["circle_h2"]
        us = chart_samples(d, 2, 5)[:3]
        real = flow._flow_rows

        def flowed(d, X, ts, *args, **kwargs):
            out = real(d, X, ts, *args, **kwargs)
            if len(X) == len(us):  # the samples' start and target, not the stencils
                out[[j for j, t in enumerate(ts) if t > 0.0], 1] = math.nan
            return out

        monkeypatch.setattr(flow, "_flow_rows", flowed)
        with pytest.raises(TimeOutOfRangeError, match=r"t=0\.001 leaves the range of doubles"):
            oracle.evolve_and_compare(d, us, 0.0, 1e-3, 1e-4)

    def test_start_far_back_refused_naming_it(self, monkeypatch):
        # the samples' flow to t0 = -800 leaves doubles in its time scalars:
        # refused as out of range, naming t0, before any stencil is flowed
        d = CATALOG["circle_h2"]
        flows = []
        for module in (flow, oracle):  # the checked flow's core, and the walk's stencils
            real = module._flow_rows
            monkeypatch.setattr(module, "_flow_rows", lambda d, X, ts, *a, real=real: flows.append(len(X)) or real(d, X, ts, *a))
        with pytest.raises(TimeOutOfRangeError, match=r"the flow at t=-800\.0 leaves the range of doubles"):
            oracle.evolve_and_compare(d, chart_samples(d, 2, 7)[:2], -800.0, -799.999, 1e-4)
        assert flows == [2, 2]  # the start and target flow, then t0 alone

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

    @pytest.mark.parametrize("n, cosh_rho0", [(1, 2.0), (2, 3.0), (3, 1.5), (1, 1.0 + 1e-7), (1, 50.0)])
    def test_geodesic_sphere_collapse_times(self, n, cosh_rho0):
        # the sphere of radius rho0 in H^(n+1) collapses at ln(cosh rho0)/n
        T = oracle.geodesic_sphere_collapse_time(n, cosh_rho0)
        assert abs(T - math.log(cosh_rho0) / n) < 1e-12

    @pytest.mark.parametrize("n, cosh_rho0", [(0, 2.0), (1, 1.0), (1, 0.5)])
    def test_collapse_time_of_no_sphere_refused(self, n, cosh_rho0):
        with pytest.raises(InvalidArgumentError, match="need n >= 1"):
            oracle.geodesic_sphere_collapse_time(n, cosh_rho0)

    def test_collapse_time_runs_without_scipy(self):
        # the package depends on numpy only: neither the CLI nor the scalar oracle imports scipy
        src = str(Path(hyperflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, hyperflow.cli, hyperflow.oracle as o; o.geodesic_sphere_collapse_time(1, 2.0); print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"


# every catalog entry with normal directions, and chains of normal rank 5
# and 9; the depth-8 chain's transport at four times takes two groups
TIME_AXIS_CASES = {name: CATALOG[name] for name in sorted(CATALOG) if dimensions(CATALOG[name]).codim > 0}
TIME_AXIS_CASES["geodesic_chain4"] = geodesic_chain(4)
TIME_AXIS_CASES["geodesic_chain8"] = geodesic_chain(8)


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

    @pytest.mark.parametrize("name", ["circle_h2", "clifford_tube_h5", "circle_in_h4_nested"])
    def test_curvature_is_read_through_the_frames(self, name, monkeypatch):
        # the frame vectors are normal, so <d^2 X / du_i du_j, Z> = <II_ij, Z>:
        # the check forms no second fundamental form, and its one
        # Gram-Schmidt pass builds every frame, the transported ones included
        d = CATALOG[name]
        passes, gram_schmidt = [], oracle._gram_schmidt
        monkeypatch.setattr(oracle, "_tangential_parts", lambda *a: pytest.fail("projected off the tangent frame"))
        monkeypatch.setattr(oracle, "_gram_schmidt", lambda imm, Z, *buf: passes.append(Z.shape) or gram_schmidt(imm, Z, *buf))
        us = chart_samples(d, 3, 7)[:4]
        assert np.all(oracle.isoparametric_residuals(d, [-0.2, 0.0, 0.1], us) < 1e-5)
        frames = (dimensions(d).codim, 3, dimensions(d).m + 1)  # (k, times, dim)
        assert passes[0] == frames  # the first sample's frame at every time
        assert passes[-(len(us) - 1) :] == [frames] * (len(us) - 1)  # each segment's end frames

    def test_non_finite_time_refused(self):
        d = CATALOG["tube_h3"]
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            oracle.isoparametric_residual(d, math.nan, chart_samples(d, 3, 7)[:4])

    def test_far_back_overflow_is_out_of_range(self):
        d = CATALOG["tube_h3"]
        with pytest.raises(TimeOutOfRangeError, match="range of doubles"):
            oracle.isoparametric_residual(d, -1e6, chart_samples(d, 3, 7)[:4])

    def test_infinite_gram_is_degenerate(self, monkeypatch):
        # the rows are finite at -400, but their squares overflow: the
        # checked flow refuses the time; with its core standing in for it,
        # the squares in the frame's Gram matrix overflow and the frame is
        # refused as degenerate
        d = CATALOG["circle_h2"]
        with pytest.raises(TimeOutOfRangeError, match=r"^the flow at t=-400\.0 leaves the range of doubles$"):
            oracle.isoparametric_residual(d, -400.0, chart_samples(d, 3, 7)[:4])
        monkeypatch.setattr(oracle, "_flow_times", lambda d, X, ts, *a: flow._flow_rows(d, X, ts))
        with pytest.raises(ChartDegenerateError, match="degenerate frame"):
            oracle.isoparametric_residual(d, -400.0, chart_samples(d, 3, 7)[:4])

    @pytest.mark.parametrize("name", sorted(TIME_AXIS_CASES))
    def test_time_axis_matches_one_time_calls(self, name):
        # the time-stacked transports give every time the bits of its own call
        d = TIME_AXIS_CASES[name]
        ts = sample_times(None, existence_window(d).t_max, 4, np.random.default_rng(11), span=1.5).tolist()
        us = chart_samples(d, 3, 7)[:4]
        spreads = oracle.isoparametric_residuals(d, ts, us)
        assert spreads.shape == (len(ts),)
        for j, t in enumerate(ts):
            assert spreads[j] == oracle.isoparametric_residual(d, t, us), (name, t)

    @pytest.mark.parametrize("times", [[0.1], [-0.3, -0.1, 0.0, 0.05, 0.1]])
    def test_one_evaluation_for_all_times(self, times, monkeypatch):
        # one chart evaluation and one flow call, whatever the number of times
        d = CATALOG["clifford_tube_h5"]
        calls = {"at_rows": 0, "flow": 0}
        at_rows, core = oracle.ImmersionEvaluator.at_rows, oracle._flow_times
        count = lambda key: calls.__setitem__(key, calls[key] + 1)
        monkeypatch.setattr(oracle.ImmersionEvaluator, "at_rows", lambda imm, U: count("at_rows") or at_rows(imm, U))
        monkeypatch.setattr(oracle, "_flow_times", lambda *a, **k: count("flow") or core(*a, **k))
        assert oracle.isoparametric_residuals(d, times, chart_samples(d, 3, 7)[:4]).shape == (len(times),)
        assert calls == {"at_rows": 1, "flow": 1}

    def test_one_gram_schmidt_for_all_pivot_orders(self, monkeypatch):
        # the pivot orders of all rows at all times come from one pivot
        # pass, which sees only the owner rows: the first sample and the
        # sub-segment seeds of every time
        d = geodesic_chain(4)
        times, us = [-0.2, 0.0, 0.1], chart_samples(d, 3, 7)[:4]
        calls, pivots = [], []
        orders, inner_rows = oracle._pivot_orders, oracle.AmbientSpace.inner_rows
        monkeypatch.setattr(oracle, "_pivot_orders", lambda imm, W, owner: calls.append(owner) or orders(imm, W, owner))
        monkeypatch.setattr(oracle.AmbientSpace, "inner_rows", lambda amb, U, V: pivots.append(U.shape) or inner_rows(amb, U, V))
        oracle.isoparametric_residuals(d, times, us)
        assert len(calls) == 1
        owners = np.unique(calls[0])
        assert np.array_equal(calls[0][owners], owners)  # an owner takes its own order
        assert len(owners) == len(times) * (1 + oracle._TRANSPORT_SUBSEGMENTS * (len(us) - 1))
        dims = dimensions(d)
        assert pivots == [(len(owners), dims.m + 1, dims.m + 1)] * (2 * dims.codim)

    @pytest.mark.parametrize("depth, groups", [(4, 1), (8, 2), (24, 8)])
    def test_transport_groups_fit_the_budget(self, depth, groups, monkeypatch):
        # consecutive sub-segments whose frames fit _FRAME_BUDGET, one call
        # per group; at depth 24 one sub-segment is over the budget, so each
        # of the 8 is a group
        d = geodesic_chain(depth)
        frames, kept = [], oracle._kept_normal_frames
        monkeypatch.setattr(oracle, "_kept_normal_frames", lambda *a: frames.append(kept(*a)) or frames[-1])
        oracle.isoparametric_residuals(d, [-0.2, 0.0, 0.1], chart_samples(d, 3, 7)[:3])
        assert len(frames) == groups
        assert depth == 24 or max(f.nbytes for f in frames) <= oracle._FRAME_BUDGET

    # spreads and sha256 of the transported frames at -0.2, 0.0 and 0.1 of
    # chart_samples(chain, 3, 7)[:3]; the frames were recorded before the
    # transport was grouped, the spreads when the check stopped projecting
    # its second derivatives off the tangent frame
    CHAIN_PINS = {
        4: "27397a768fb2367c29dc8988ffd147f11343d1089e2d1bde5f3e666e7519ba3c",
        8: "5dc64d63628ceb09a9ac94dce53f220b28b046e10c96efceac73f55f4a414dfe",
        16: "36dc16146eb46bd4f054ddc6b57225d983142ca848707639027b0c609a4e5e5c",
        24: "fd87e9c841f0bbb685e9496f3d2b077e225a36de63fbd03e5a403da06d1c64fd",
    }

    @pytest.mark.parametrize("depth", sorted(CHAIN_PINS))
    def test_chain_spreads_keep_their_bits(self, depth, monkeypatch):
        d = geodesic_chain(depth)
        moved, chain = [], oracle._transport_chain
        monkeypatch.setattr(oracle, "_transport_chain", lambda *a: moved.append(chain(*a)) or moved[-1])
        spreads = oracle.isoparametric_residuals(d, [-0.2, 0.0, 0.1], chart_samples(d, 3, 7)[:3])
        assert [float(x).hex() for x in spreads] == ["0x1.2c0e400000000p-31", "0x1.8ee8400000000p-32", "0x1.ce7ce00000000p-33"]
        assert hashlib.sha256(moved[0].tobytes()).hexdigest() == self.CHAIN_PINS[depth]

    @staticmethod
    def _traced_peak(d, times, us):
        oracle.isoparametric_residuals(d, times, us)  # the caches of the descriptor and the stencils
        tracemalloc.start()
        try:
            oracle.isoparametric_residuals(d, times, us)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("depth, limit_mb", [(8, 1.5), (24, 7.0)])
    def test_memory_scales_with_one_group(self, depth, limit_mb, monkeypatch):
        # the frames of one group are alive at a time, not those of the whole
        # path: 1.37 and 3.85 MB on numpy 2.4, against 2.43 and 15.4 MB when
        # the budget makes the whole path one group
        d = geodesic_chain(depth)
        times, us = [-0.2, 0.0, 0.1], chart_samples(d, 3, 7)[:3]
        peak = self._traced_peak(d, times, us)
        assert peak <= limit_mb * 1e6
        monkeypatch.setattr(oracle, "_FRAME_BUDGET", 1 << 40)
        assert peak <= 0.7 * self._traced_peak(d, times, us)

    def test_time_lists(self):
        d = CATALOG["tube_h3"]
        us = chart_samples(d, 3, 7)[:4]
        assert oracle.isoparametric_residuals(d, [], us).shape == (0,)
        flat = CATALOG["ambient_h3"]
        assert oracle.isoparametric_residuals(flat, [0.0, 0.1], chart_samples(flat, 3, 7)[:4]).tolist() == [0.0, 0.0]
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            oracle.isoparametric_residuals(d, [0.1, math.nan], us)
        # the first time whose flow overflows is named
        with pytest.raises(TimeOutOfRangeError, match=r"t=-1000000\.0 leaves the range of doubles"):
            oracle.isoparametric_residuals(d, [0.1, -1e6, -2e6], us)

    @pytest.mark.parametrize(
        "times, named",
        [
            ([-1000.0, 5.0], "the flow at t=-1000.0 leaves the range of doubles"),
            ([5.0, -1000.0], "t=5.0 >= hyperbolic maximal time"),
        ],
    )
    def test_first_failing_time_is_named(self, times, named):
        # the first time in list order that fails is named, whether its flow
        # overflows doubles or it lies past T
        d = CATALOG["circle_h2"]
        with pytest.raises(TimeOutOfRangeError, match=f"^{re.escape(named)}"):
            oracle.isoparametric_residuals(d, times, chart_samples(d, 3, 7)[:4])

    @pytest.mark.parametrize("steps", [0, -3])
    def test_transport_without_steps_refused(self, steps):
        d = CATALOG["clifford_tube_h5"]
        us = chart_samples(d, 3, 7)[:3]
        with pytest.raises(InvalidArgumentError, match="steps >= 1"):
            oracle.isoparametric_residual(d, 0.1, us, transport_steps=steps)
        imm = oracle.descriptor_immersion(d, 0.1)
        frame = list(_frame_field(imm, us[0], 1e-3)(us[0][None, :])[0])
        with pytest.raises(InvalidArgumentError, match="steps >= 1"):
            oracle.transport_normal_frame(imm, us[0], us[1], frame, steps=steps)


NORMAL_FRAME_CASES = [(name, t) for name in sorted(TIME_AXIS_CASES) for t in (None, -0.4, 0.2)]


def _check_normal_frames(imm, U, h=1e-3):
    """``_normal_frames`` on the candidates at U and at U shifted, each shifted row following its sample, against the per-order reference; the owners' orders."""
    P = len(U)
    W = oracle._normal_candidates(imm, *oracle._first_derivative_rows(imm, np.concatenate([U, U + 0.01]), h))
    owner = np.concatenate([np.arange(P), np.arange(P)])
    Z = oracle._normal_frames(imm, W, owner)
    orders = _frame_orders_reference(imm, W[:P])
    for p, order in enumerate(orders.tolist()):
        ref = _frames_along_reference(imm, order, W[[p, P + p]])
        assert Z[[p, P + p]].tobytes() == ref.tobytes(), p
    return {tuple(o) for o in orders.tolist()}


class TestNormalFrames:
    @pytest.mark.parametrize("name, t", NORMAL_FRAME_CASES)
    def test_bitwise_left_looking_reference(self, name, t):
        # the right-looking pass gives every vector the bits of the
        # left-looking Gram-Schmidt in its owner's pivot order
        d = TIME_AXIS_CASES[name]
        _check_normal_frames(oracle.descriptor_immersion(d, t), np.array(chart_samples(d, 3, 23)[:6]))

    @pytest.mark.parametrize("name", ["clifford_tube_h5", "geodesic_chain4"])
    def test_owners_of_different_orders_in_one_batch(self, name):
        d = TIME_AXIS_CASES[name]
        orders = _check_normal_frames(oracle.descriptor_immersion(d, 0.2), np.array(chart_samples(d, 3, 23)[:6]))
        assert len(orders) >= 2

    def test_degenerate_candidates_refused(self):
        imm = oracle.descriptor_immersion(CATALOG["clifford_tube_h5"], 0.1)
        W = oracle._normal_candidates(imm, *oracle._first_derivative_rows(imm, np.array(chart_samples(CATALOG["clifford_tube_h5"], 2, 5)[:2]), 1e-3))
        with pytest.raises(ChartDegenerateError, match="seed a smooth normal frame"):
            oracle._normal_frames(imm, np.zeros_like(W), np.arange(len(W)))
        order = _frame_orders_reference(imm, W[:1])[0]
        W[1, order[1]] = W[1, order[0]]  # the second pivot of row 1 falls in the span of its first
        with pytest.raises(ChartDegenerateError, match="degenerated off-center"):
            oracle._normal_frames(imm, W, np.zeros(len(W), dtype=int))


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
        field = _frame_field(imm, U[0], h)
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
        frame = list(_frame_field(imm, a, 1e-3)(a[None, :])[0])
        there = oracle.transport_normal_frame(imm, a, b, frame)
        back = oracle.transport_normal_frame(imm, b, a, there)
        assert np.max(np.abs(np.array(back) - np.array(frame))) < 1e-6


class TestFlatNormalBundle:
    def test_nan_curvature_is_not_flat(self, monkeypatch):
        # a nan curvature vector must not be lost in the maximum over pairs
        d = CATALOG["clifford_tube_h5"]
        imm = oracle.descriptor_immersion(d, 0.1)
        real = oracle._normal_curvature_rows

        def nan_rows(*args):
            R, first = real(*args)
            return R * math.nan, first

        monkeypatch.setattr(oracle, "_normal_curvature_rows", nan_rows)
        assert math.isnan(oracle.flat_normal_residual(imm, chart_samples(d, 2, 7)[:2]))

    def test_one_evaluation_per_check(self, monkeypatch):
        # every frame of every sample's nested differences lies on its stencil
        d = CATALOG["clifford_tube_h5"]
        imm = oracle.descriptor_immersion(d, 0.1)
        calls = []
        at_rows = oracle.ImmersionEvaluator.at_rows
        monkeypatch.setattr(oracle.ImmersionEvaluator, "at_rows", lambda imm, U: calls.append(len(U)) or at_rows(imm, U))
        oracle.flat_normal_residual(imm, chart_samples(d, 2, 7)[:2])
        assert len(calls) == 1

    def test_chart_calls_of_one_point(self):
        # 9 stencil points, each with its 5-point first-derivative stencil
        calls = []
        chart = _twisted_surface().func
        imm = oracle.ImmersionEvaluator(2, oracle.EUCLIDEAN, lambda u: calls.append(u) or chart(u))
        oracle.normal_curvature_vectors(imm, [0.3, 0.7])
        assert len(calls) == 45

    @pytest.mark.parametrize("ball", [False, True])
    @pytest.mark.parametrize("u", [[0.3, 0.7], [1.1, 0.4]])
    def test_twisted_surface_matches_nested_reference(self, u, ball):
        imm = _twisted_surface()
        R = oracle.normal_curvature_vectors(imm, u, conformal=oracle.poincare_ball_factor() if ball else None)
        assert np.array_equal(R, _normal_curvature_reference(imm, u, ball=ball))

    @pytest.mark.parametrize("name", ["clifford_tube_h5", "flat_torus_in_s3", "plane_in_r4"])
    def test_rows_match_nested_reference(self, name):
        # a batch of samples gives each the bits of the nested one-point scheme
        if name == "clifford_tube_h5":
            d = CATALOG[name]
            imm, us = oracle.descriptor_immersion(d, 0.1), chart_samples(d, 2, 7)[:2]
        else:
            imm = {"flat_torus_in_s3": _flat_torus_in_s3, "plane_in_r4": _plane_in_r4}[name]()
            us = [np.array([0.3, 0.9]), np.array([1.0, 0.2])]
        R, _ = oracle._normal_curvature_rows(imm, np.array(us), 1e-3, None)
        for p, u in enumerate(us):
            assert np.array_equal(R[p], _normal_curvature_reference(imm, u)), (name, p)

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

    @pytest.mark.parametrize("period", [math.pi, 1.0])
    def test_open_period_refused(self, period):
        with pytest.raises(InvalidArgumentError, match="does not close"):
            oracle.normal_holonomy_defect(_great_circle(), [0.2], [period])

    @pytest.mark.parametrize("period", [math.nan, math.inf])
    def test_non_finite_period_refused(self, period):
        with pytest.raises(InvalidArgumentError, match="period"):
            oracle.normal_holonomy_defect(_great_circle(), [0.2], [period])

    def test_flat_torus_in_s3(self):
        # the diagonal torus has flat normal bundle inside the 3-sphere
        res = oracle.flat_normal_residual(_flat_torus_in_s3(), [np.array([0.3, 0.9]), np.array([1.0, 0.2])])
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
        assert oracle.flat_normal_residual(_plane_in_r4(), [np.array([0.1, 0.2])]) < 1e-9


def _twisted_surface() -> oracle.ImmersionEvaluator:
    def chart(u):
        a, b = u
        return 0.3 * np.array([math.cos(a), math.sin(a), 0.8 * math.cos(a + b), math.sin(b)])

    return oracle.ImmersionEvaluator(2, oracle.EUCLIDEAN, chart)


def _flat_torus_in_s3() -> oracle.ImmersionEvaluator:
    def chart(u):
        a, b = u
        return np.array([math.cos(a), math.sin(a), math.cos(b), math.sin(b)]) / math.sqrt(2.0)

    return oracle.ImmersionEvaluator(2, oracle.SPHERE, chart)


def _plane_in_r4() -> oracle.ImmersionEvaluator:
    return oracle.ImmersionEvaluator(2, oracle.EUCLIDEAN, lambda u: np.array([u[0], u[1], 0.2 * u[0], 0.0]))


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


def _torus_knot_in_r4() -> oracle.ImmersionEvaluator:
    # the same curve in flat R^4: three normal directions, the position
    # vector's among them, and a holonomy of its own
    return oracle.ImmersionEvaluator(
        1,
        oracle.EUCLIDEAN,
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


def _frame_orders_reference(imm, W):
    """Gram-Schmidt pivot orders (P, k) at the candidates (P, dim, dim): each step the remaining axis whose orthogonal part is largest."""
    P, dim, _ = W.shape
    k = dim - imm.chart_dim - (1 if imm.ambient.intrinsic_to_quadric else 0)
    rows = np.arange(P)
    order = np.empty((P, k), dtype=int)
    taken = np.zeros((P, dim), dtype=bool)
    for step in range(k):
        q = np.where(taken, -1.0, np.abs(imm.ambient.inner_rows(W, W)))
        j = order[:, step] = np.argmax(q, axis=1)
        taken[rows, j] = True
        b = (W[rows, j] / np.sqrt(q[rows, j])[:, None])[:, None, :]
        W = W - imm.ambient.inner_rows(W, b)[..., None] * b
    return order


def _frames_along_reference(imm, order, W):
    """Frames (P, k, dim) at the candidates (P, dim, dim): left-looking Gram-Schmidt in one pivot order, one inner product per vector pair."""
    out = np.empty((W.shape[0], len(order), W.shape[2]))
    for a, i in enumerate(order):
        w = W[:, i]
        for b in range(a):
            w = w - imm.ambient.inner_rows(w, out[:, b])[:, None] * out[:, b]
        out[:, a] = w / np.sqrt(np.abs(imm.ambient.inner_rows(w, w)))[:, None]
    return out


def _frame_field(imm, u0, h):
    """A normal frame field near u0, (P, n) -> (P, k, dim), its pivot order chosen at u0 and frozen; one chart evaluation per call."""
    center, first = oracle._first_derivative_rows(imm, np.asarray(u0, dtype=float)[None, :], h)
    order = _frame_orders_reference(imm, oracle._normal_candidates(imm, center, first))[0].tolist()
    return lambda U: _frames_along_reference(imm, order, oracle._normal_candidates(imm, *oracle._first_derivative_rows(imm, np.asarray(U, dtype=float), h)))


def _tangential_reference(imm, frame, w):
    """The part of w tangent to the frame, with its own Gram matrix and solve."""
    k = len(frame)
    G = np.array([[imm.ambient.inner(frame[i], frame[j]) for j in range(k)] for i in range(k)])
    coeff = np.linalg.solve(G, np.array([imm.ambient.inner(w, f) for f in frame]))
    return sum(coeff[i] * frame[i] for i in range(k))


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
    center, first = (a[0] for a in oracle._first_derivative_rows(imm, u[None, :], h))
    frame = list(first) + ([center] if imm.ambient.intrinsic_to_quadric else [])
    G = np.array([[imm.ambient.inner(a, b) for b in frame] for a in frame])
    F = np.column_stack(frame)
    sig = imm.ambient.signature(center.size)
    return np.eye(center.size) - F @ np.linalg.solve(G, (F * sig[:, None]).T)


def _normal_curvature_reference(imm, u, h=1e-3, ball=False):
    """The nested one-point scheme: every covariant derivative a closure that evaluates the chart again.

    ``ball`` adds the connection term of the Poincare ball metric, with its
    gradient 2 y / (1 - |y|^2) formed point by point.
    """
    uv = np.asarray(u, dtype=float)
    n = imm.chart_dim
    field = _frame_field(imm, uv, h)
    k = field(uv[None, :]).shape[1]
    if k < 2 or n < 2:
        return np.zeros((0, 0, imm(uv).size))

    def covariant(Z, j, v):
        # D_j Z at v: ambient derivative projected to the normal space
        center, first = (a[0] for a in oracle._first_derivative_rows(imm, v[None, :], h))
        step = h * np.eye(n)[j]
        dZ = (Z(v + step) - Z(v - step)) / (2.0 * h)
        if ball:
            Zu, Xj = Z(v), first[j]
            grad = 2.0 * center / (1.0 - float(np.dot(center, center)))
            dZ = dZ + float(np.dot(grad, Xj)) * Zu + float(np.dot(grad, Zu)) * Xj - float(np.dot(Xj, Zu)) * grad
        frame = list(first) + ([center] if imm.ambient.intrinsic_to_quadric else [])
        return dZ - oracle._tangential_parts(imm, frame, [dZ])[0]

    out = []
    for i in range(n):
        for j in range(i + 1, n):
            row = []
            for a in range(k):
                Za = lambda v, a=a: field(v[None, :])[0, a]
                Gj = lambda v, Za=Za, j=j: covariant(Za, j, v)
                Gi = lambda v, Za=Za, i=i: covariant(Za, i, v)
                row.append(covariant(Gj, i, uv) - covariant(Gi, j, uv))
            out.append(row)
    return np.asarray(out)


def _transport_reference(imm, u_from, u_to, frame, steps, h):
    # one frame field, and two chart evaluations, per sub-segment
    a, b = np.asarray(u_from, dtype=float), np.asarray(u_to, dtype=float)
    k = len(frame)
    current = [np.asarray(z, dtype=float).copy() for z in frame]
    n_sub, delta = 4, 1e-5
    sub_steps = max(4, steps // n_sub)
    for seg in range(n_sub):
        ta, tb = seg / n_sub, (seg + 1) / n_sub
        field = _frame_field(imm, a + 0.5 * (ta + tb) * (b - a), h)
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


def _holonomy_reference(imm, u0, per, steps, h=1e-3):
    # the frame seeded at u0 carried around the loop by the per-call
    # transport, in segments of 16 RK4 steps
    u0, per = np.asarray(u0, dtype=float), np.asarray(per, dtype=float)
    segments = max(1, steps // 16)
    start = frame = list(_frame_field(imm, u0, h)(u0[None, :])[0])
    for j in range(segments):
        frame = _transport_reference(imm, u0 + j / segments * per, u0 + (j + 1) / segments * per, frame, steps // segments, h)
    return float(np.max(np.abs(np.array(frame) - np.array(start))))


def _isoparametric_reference(imm, chart_samples, transport_steps=24, h=1e-3):
    # transport segment by segment, principal curvatures stop by stop
    samples = oracle._chain_samples([np.asarray(u, dtype=float) for u in chart_samples])
    frame = list(_frame_field(imm, samples[0], h)(samples[0][None, :])[0])
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


def _assert_mean_curvature_rows(d, t, gauge):
    """P stacked stencils give what one call per stencil gives, bit for bit, and the per-stencil reference to rounding."""
    imm = oracle.descriptor_immersion(d, t, gauge)
    n, h = imm.chart_dim, 1e-3
    vals = _stencils(imm, np.array(chart_samples(d, 3, 13)[:5]), h)
    H = oracle._mc_from_stencil(vals, n, h, imm.ambient)
    assert H.shape == (len(vals), vals.shape[2])
    for p in range(len(vals)):
        assert H[p].tobytes() == oracle._mc_from_stencil(vals[p : p + 1], n, h, imm.ambient)[0].tobytes()
        ref = _mc_reference(vals[p], n, h, imm.ambient)
        assert np.max(np.abs(H[p] - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


class TestBatchedOracle:
    @pytest.mark.parametrize("t, gauge", [(None, "hyperbolic"), (0.2, "hyperbolic"), (0.2, "lorentz")])
    def test_mean_curvature_rows(self, catalog_entry, t, gauge):
        _assert_mean_curvature_rows(catalog_entry[1], t, gauge)

    @pytest.mark.parametrize("t, gauge", [(None, "hyperbolic"), (0.01, "hyperbolic"), (0.01, "lorentz")])
    def test_mean_curvature_rows_of_long_contractions(self, t, gauge):
        # n = 20: 801-point stencils, and every contraction runs over 20 or 400 terms
        _assert_mean_curvature_rows(FullProduct(1, 20.0, ProductOfSpheres(((19, 19.0),))), t, gauge)

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
            g0 = oracle._induced_metric(imm, f0)
            frame = f0 + [c0]
            assert g.tobytes() == g0.tobytes()
            for i in range(n):
                for j in range(n):
                    w = s0[i][j] - _tangential_reference(imm, frame, s0[i][j])
                    assert II[i][j].tobytes() == w.tobytes()

    @pytest.mark.parametrize("name", ["circle_h2", "tube_h3", "clifford_tube_h5", "circle_in_h4_nested"])
    def test_one_frame_gram_per_chart_point(self, name, monkeypatch):
        # the metric and the tangent frame: two Gram checks, not 1 + n^2
        d = CATALOG[name]
        imm = oracle.descriptor_immersion(d, 0.1)
        checks = []
        real = oracle._check_gram
        monkeypatch.setattr(oracle, "_check_gram", lambda G, message: checks.append(G.shape) or real(G, message))
        oracle.second_fundamental_form(imm, chart_samples(d, 3, 19)[0])
        n = imm.chart_dim
        assert checks == [(n, n), (n + 1, n + 1)]

    @pytest.mark.parametrize("gauge", ["hyperbolic", "lorentz"])
    @pytest.mark.parametrize("richardson", [False, True])
    def test_grid_immerses_once(self, gauge, richardson, monkeypatch):
        # chart rows are immersed and validated once per grid, whatever the
        # number of times, and the flows are one call for the samples and
        # one for the stencils; the chart validates its rows itself
        d = CATALOG["clifford_tube_h5"]
        calls = {"immerse_rows": 0, "_validate_rows": 0, "flow": 0}
        for module, fn in ((oracle, "immerse_rows"), (descriptors, "_validate_rows")):
            real = getattr(module, fn)
            monkeypatch.setattr(module, fn, lambda *a, real=real, fn=fn: calls.__setitem__(fn, calls[fn] + 1) or real(*a))
        core = oracle._flow_times
        counted = lambda *a, **k: calls.__setitem__("flow", calls["flow"] + 1) or core(*a, **k)
        monkeypatch.setattr(oracle, "_flow_times", counted)
        us = chart_samples(d, 3, 7)[:3]
        for times in ([0.05], [-0.3, -0.1, 0.0, 0.05, 0.1]):
            calls.update(immerse_rows=0, _validate_rows=0, flow=0)
            grid = oracle.pde_residual_grid(d, us, times, gauge=gauge, richardson=richardson)
            assert grid.shape == (3, len(times))
            assert calls == {"immerse_rows": 1, "_validate_rows": 1, "flow": 2}

    def test_grid_refuses_the_first_overflowing_time(self):
        # time by time, t + dt is flowed first: the first time of the grid
        # that overflows is -1000, and its t + dt is named, not -2000's
        with pytest.raises(TimeOutOfRangeError, match="the flow at t=-999.9999 leaves the range of doubles"):
            oracle.pde_residual_grid(CATALOG["circle_h2"], [[0.3]], [0.1, -1000.0, -2000.0])

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
        "name, samples, t1, blocks",
        [
            # one flow of the samples at the walk's start and end, then a block
            # of the steps whose S K (m+1) doubles of stencils fit
            # _WALK_BUDGET: 864 bytes a step, so 270 steps, and 150 are walked
            ("tube_h3", 3, 1.5e-3, [2, 150]),
            ("tube_h3", 4, 0.02, [2] + [202] * 9 + [182]),  # 1152 bytes a step
            ("clifford_tube_h5", 4, 0.02, [2] + [64] * 31 + [16]),  # 3648 bytes a step
        ],
    )
    def test_euler_walk_flows_each_block_once(self, name, samples, t1, blocks, monkeypatch):
        d = CATALOG[name]
        seen = []
        for name in ("_flow_times", "_flow_rows"):  # the samples' checked flow, then the blocks
            real = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda d, X, ts, *a, real=real: seen.append(len(ts)) or real(d, X, ts, *a))
        oracle.evolve_and_compare(d, chart_samples(d, 2, 11)[:samples], 0.0, t1, 1e-5)
        assert seen == blocks

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
        proj = oracle._normal_candidates(imm, *oracle._first_derivative_rows(imm, U, h)).transpose(0, 2, 1)
        for p, u in enumerate(U):
            assert np.max(np.abs(proj[p] - _projector_reference(imm, u, h))) < 1e-12

    @pytest.mark.parametrize("imm", [_great_circle(), _torus_knot(), _torus_knot_in_r4()], ids=["great_circle", "torus_knot", "torus_knot_in_r4"])
    def test_holonomy_matches_per_call_loop(self, imm):
        defect = oracle.normal_holonomy_defect(imm, [0.3], [2.0 * math.pi], steps=64)
        assert abs(defect - _holonomy_reference(imm, [0.3], [2.0 * math.pi], 64)) < 1e-12

    def test_holonomy_evaluates_the_loop_once(self, monkeypatch):
        # the closing check is one at_rows call, of the loop's two ends; the
        # seeded frame and the transport around the loop take one more, and
        # every point evaluated is a row of one of the two (this chart has no
        # row map)
        calls, points = [], []
        at_rows, point = oracle.ImmersionEvaluator.at_rows, oracle.ImmersionEvaluator.__call__
        monkeypatch.setattr(oracle.ImmersionEvaluator, "at_rows", lambda imm, U: calls.append(len(U)) or at_rows(imm, U))
        monkeypatch.setattr(oracle.ImmersionEvaluator, "__call__", lambda imm, u: points.append(1) or point(imm, u))
        assert oracle.normal_holonomy_defect(_torus_knot(), [0.3], [2.0 * math.pi]) == 0.9619540328235606
        assert len(calls) == 2 and calls[0] == 2 and len(points) == sum(calls)

    def test_holonomy_groups_keep_the_bits(self, monkeypatch):
        # one sub-segment a group: every frame and connection form keeps its bits
        monkeypatch.setattr(oracle, "_FRAME_BUDGET", 1)
        assert oracle.normal_holonomy_defect(_torus_knot(), [0.3], [2.0 * math.pi]) == 0.9619540328235606

    @pytest.mark.parametrize("imm", [_torus_knot(), _torus_knot_in_r4()], ids=["torus_knot", "torus_knot_in_r4"])
    def test_torus_knot_has_holonomy(self, imm):
        assert oracle.normal_holonomy_defect(imm, [0.3], [2.0 * math.pi]) > 1e-2

    def test_loop_without_normal_directions(self):
        # a great circle of S^1 is all of it: no normal direction, no holonomy
        imm = oracle.ImmersionEvaluator(1, oracle.SPHERE, lambda u: np.array([math.cos(u[0]), math.sin(u[0])]))
        assert oracle.normal_holonomy_defect(imm, [0.2], [2.0 * math.pi]) == 0.0

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


def _eigvalsh_refuses(G: np.ndarray) -> bool:
    """The Gram check as it was before Gershgorin certification: eigvalsh on every matrix."""
    if not np.isfinite(G).all():
        return True
    lam = np.abs(np.linalg.eigvalsh(G))
    lo, hi = lam.min(axis=-1), lam.max(axis=-1)
    return bool(np.any((hi > oracle._COND_LIMIT * lo) | (lo == 0.0)))


@st.composite
def _gram_batches(draw):
    """Stacks of symmetric k x k matrices of mixed kinds, one k per stack."""
    k = draw(st.integers(1, 5))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(["definite", "indefinite", "diagonal", "dominant", "random", "singular", "zero_row", "nan", "inf"]))
        Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        # condition numbers around the limit, 1e10 to 1e13, and anywhere up to 1e16
        lam = 10.0 ** -np.linspace(0.0, draw(st.floats(10.0, 13.0) | st.floats(0.0, 16.0)), k)
        if kind != "definite":
            lam = lam * rng.choice([-1.0, 1.0], size=k)
        G = (Q * lam) @ Q.T
        if kind == "diagonal":  # Gershgorin's bound is the condition number itself
            G = np.diag(lam)
        elif kind == "dominant":
            off = rng.normal(size=(k, k)) * draw(st.floats(0.0, 1.0))
            G = off + off.T + np.diag(rng.choice([-1.0, 1.0], size=k) * (2.0 * np.abs(off).sum(axis=1) + draw(st.floats(1e-13, 10.0))))
        elif kind == "random":
            G = rng.normal(size=(k, k))
            G = G + G.T
        elif kind == "singular":
            v = rng.normal(size=(k, max(k - 1, 1)))
            G = v @ v.T if k > 1 else np.zeros((1, 1))
        elif kind == "zero_row":
            G[0, :] = G[:, 0] = 0.0
        elif kind in ("nan", "inf"):
            i, j = rng.integers(0, k, size=2)
            G[i, j] = G[j, i] = math.nan if kind == "nan" else math.inf
        out.append(G * 10.0 ** draw(st.integers(-150, 150)))
    return np.stack(out)


class TestGershgorinCertification:
    """``_check_gram`` certifies Grams by Gershgorin discs, and still refuses exactly what eigvalsh refused."""

    @settings(max_examples=200, deadline=None)
    @given(G=_gram_batches())
    def test_refuses_exactly_what_eigvalsh_refused(self, G):
        for batch in [G] + list(G):
            if _eigvalsh_refuses(batch):
                with pytest.raises(ChartDegenerateError, match="^refused$"):
                    oracle._check_gram(batch, "refused")
            else:
                oracle._check_gram(batch, "refused")

    @pytest.mark.parametrize("cond", [1e10, 1e11, 1e13])
    def test_uncertified_grams_go_to_eigvalsh(self, cond, monkeypatch):
        # a rotated Gram is not diagonally dominant, so eigvalsh decides it;
        # a diagonal of condition 1e10 is certified without it
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(oracle.np.linalg, "eigvalsh", lambda G: calls.append(G.shape) or real(G))
        G = np.stack([np.diag([1.0, 1e-10]), _conditioned_gram(cond)])
        if cond > oracle._COND_LIMIT:
            with pytest.raises(ChartDegenerateError, match="refused"):
                oracle._check_gram(G, "refused")
        else:
            oracle._check_gram(G, "refused")
        assert calls == [(1, 2, 2)]
        calls.clear()
        oracle._check_gram(G[0], "refused")
        assert calls == []

    def test_catalog_grams_are_certified(self, monkeypatch):
        # on the catalog every Gram of the checks is certified, so eigvalsh never runs
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(oracle.np.linalg, "eigvalsh", lambda G: calls.append(G.shape) or real(G))
        for entry in ("tube_h3", "clifford_tube_h5", "circle_in_h4_nested"):
            d = CATALOG[entry]
            us = chart_samples(d, 3, 7)[:4]
            oracle.isoparametric_residuals(d, [-0.3, 0.1], us)
            oracle.pde_residual_grid(d, us, [-0.3, 0.1], richardson=True)
            oracle.evolve_and_compare(d, us[:2], 0.0, 0.002, 1e-4)
        assert calls == []


class TestOracleBatchFloor:
    @pytest.mark.parametrize("gauge", ["hyperbolic", "lorentz"])
    @pytest.mark.parametrize("richardson", [False, True])
    def test_grid_differences_once_per_step(self, gauge, richardson, monkeypatch):
        # one _mc_from_stencil call per differencing step holds the stencils
        # of every sample at every time, and each entry keeps its bits
        d = CATALOG["clifford_tube_h5"]
        us = chart_samples(d, 3, 7)[:3]
        times = [-0.3, -0.1, 0.0, 0.05, 0.1]
        expected = [[oracle.pde_residual(d, u, t, gauge=gauge, richardson=richardson) for t in times] for u in us]
        calls = []
        real = oracle._mc_from_stencil
        monkeypatch.setattr(oracle, "_mc_from_stencil", lambda vals, *a: calls.append(vals.shape[0]) or real(vals, *a))
        grid = oracle.pde_residual_grid(d, us, times, gauge=gauge, richardson=richardson)
        assert calls == [len(us) * len(times)] * (2 if richardson else 1)
        assert grid.tolist() == expected
        assert oracle.pde_residual_grid(d, us, [], gauge=gauge, richardson=richardson).shape == (len(us), 0)

    def test_grid_raises_the_first_failing_time(self, monkeypatch):
        # the batch fails; time by time, the first failing time's error is raised
        real, calls = oracle._mc_from_stencil, []

        def failing(vals, *args):  # the whole grid fails, and so does its second time alone
            calls.append(len(vals))
            if len(vals) > 1 or len(calls) == 3:
                raise ChartDegenerateError(f"call {len(calls)}")
            return real(vals, *args)

        monkeypatch.setattr(oracle, "_mc_from_stencil", failing)
        with pytest.raises(ChartDegenerateError, match="call 3"):
            oracle.pde_residual_grid(CATALOG["circle_h2"], [[0.3]], [0.1, 0.2, 0.3])
        assert calls == [3, 1, 1]


class TestFarBackResiduals:
    """Far back the hyperbolic-gauge residual is refused, never nan and never a numpy warning.

    The suite turns RuntimeWarning into an error, so every call here would
    fail on an overflow warning that escapes.
    """

    @pytest.mark.parametrize("name", ["clifford_tube_h5", "tube_h3"])
    @pytest.mark.parametrize("richardson", [False, True])
    def test_overflowing_residual_is_degenerate(self, name, richardson):
        # the flowed points are finite near 1e130 / 1e86, but the tangential
        # projection's inner products overflow; this returned nan
        d = CATALOG[name]
        with pytest.raises(ChartDegenerateError, match=r"at t=-100\.0\)$"):
            oracle.pde_residual(d, chart_samples(d, 3, 7)[0], -100.0, richardson=richardson)

    def test_rows_leaving_doubles_are_out_of_range(self):
        # at -236.2 the first sample's flow is finite but later rows overflow
        # in the flow's own row products; this escaped as a RuntimeWarning
        d = CATALOG["clifford_tube_h5"]
        with pytest.raises(TimeOutOfRangeError, match=r"t=-236\.1998\d* leaves the range of doubles"):
            oracle.pde_residual_grid(d, chart_samples(d, 3, 7), [-236.2])

    def test_grid_names_the_first_failing_time(self):
        # -100 fails in the differencing and -400 in the flow; time by time,
        # -100 comes first, although the grid flows every time before it differences
        d = CATALOG["tube_h3"]
        with pytest.raises(ChartDegenerateError, match=r"at t=-100\.0\)$"):
            oracle.pde_residual_grid(d, chart_samples(d, 3, 7), [-1.0, -100.0, -400.0])

    @pytest.mark.parametrize("gauge", ["hyperbolic", "lorentz"])
    def test_residuals_are_finite_or_refused(self, catalog_entry, gauge):
        _, d = catalog_entry
        us = chart_samples(d, 3, 7)
        for t in (-10.0, -40.0, -100.0, -236.2, -300.0, -1000.0):
            try:
                grid = oracle.pde_residual_grid(d, us, [t], gauge=gauge)
            except (ChartDegenerateError, TimeOutOfRangeError):
                continue
            assert np.isfinite(grid).all()


def _spy_kept_frames(monkeypatch):
    """Record every ``_kept_normal_frames`` call with its frames, the rows of every full candidate set, and every pivot pass with its candidates, owners and orders."""
    seen, full_rows, pivots = [], [], []
    frames, candidates, orders = oracle._kept_normal_frames, oracle._normal_candidates, oracle._pivot_orders

    def kept(imm, center, first, order):
        out = frames(imm, center, first, order)
        seen.append((imm, center, first, order, out))
        return out

    def counted(imm, center, first, axes=None):
        if axes is None:
            full_rows.append(center[..., 0].size)
        return candidates(imm, center, first, axes)

    def pivoted(imm, W, owner):
        out = orders(imm, W, owner)
        pivots.append((W, owner, out))
        return out

    monkeypatch.setattr(oracle, "_kept_normal_frames", kept)
    monkeypatch.setattr(oracle, "_normal_candidates", counted)
    monkeypatch.setattr(oracle, "_pivot_orders", pivoted)
    return seen, full_rows, pivots


def _assert_full_candidate_reference(seen, full_rows, pivots):
    """The kept frames, joined in path order, against ``_normal_frames`` on the full candidates of their rows, bit for bit.

    The pivot pass is the only full-candidate set; the last R of its owners
    are those of the R kept rows.  The reference chooses every row's order
    again from its own owner's full candidates, so a row routed to another
    row's order, in any group, shows.
    """
    assert seen and len(pivots) == 1 and full_rows == [len(pivots[0][0])]  # before the references below
    W, owner, _ = pivots[0]
    imm, dim, n, k = seen[0][0], seen[0][1].shape[-1], seen[0][2].shape[-2], seen[0][3].shape[-1]
    # a chain's call holds the rows (T, points of its group); the groups follow each other along the path
    layout = [order.shape[:2] if order.ndim == 3 else (1, len(order)) for *_, order, _ in seen]

    def joined(arrays, tail):
        return np.concatenate([np.reshape(a, (*rows, *tail)) for a, rows in zip(arrays, layout)], axis=1).reshape(-1, *tail)

    center, first = joined([c for _, c, *_ in seen], (dim,)), joined([f for _, _, f, *_ in seen], (n, dim))
    order, frames = joined([o for *_, o, _ in seen], (k,)), joined([out for *_, out in seen], (k, dim))
    R = len(order)
    full = np.concatenate([W[owner[-R:]], oracle._normal_candidates(imm, center, first).reshape(R, dim, dim)])
    ref = oracle._normal_frames(imm, full, np.tile(np.arange(R), 2))[R:]  # row R + r follows row r, its owner's candidates
    assert frames.shape == (R, dim - n - imm.ambient.intrinsic_to_quadric, dim)
    assert np.array_equal(order, oracle._pivot_orders(imm, full[:R], np.arange(R)))
    assert frames.tobytes() == ref.tobytes()


class TestKeptCandidates:
    """Only the pivot owners form all dim candidates, in one pivot pass; every frame keeps the bits of the full candidates."""

    @pytest.mark.parametrize("name", sorted(TIME_AXIS_CASES))
    def test_isoparametric_frames(self, name, monkeypatch):
        d = TIME_AXIS_CASES[name]
        times, us = [-0.2, 0.0, 0.1], chart_samples(d, 3, 23)[:4]
        starts, chain = [], oracle._transport_chain
        seen, full_rows, pivots = _spy_kept_frames(monkeypatch)
        monkeypatch.setattr(oracle, "_transport_chain", lambda imm, frame, *a: starts.append(frame) or chain(imm, frame, *a))
        oracle.isoparametric_residuals(d, times, us)
        # the path's frames in groups: every row's frame once; the depth-8 chain takes more than one group
        seeds, _, path, owner = oracle._transport_path(np.array(us), oracle._sub_steps(24), dimensions(d).codim)
        assert sum(order[..., 0].size for *_, order, _ in seen) == len(times) * len(path)
        # owners: the first sample and the seeds of every time; a path point follows its seed at its own time
        O = 1 + len(seeds)
        assert np.array_equal(pivots[0][1], np.concatenate([np.arange(len(times) * O), (np.arange(len(times))[:, None] * O + 1 + owner[len(seeds) :]).ravel()]))
        assert name != "geodesic_chain8" or len(seen) > 1
        _assert_full_candidate_reference(seen, full_rows, pivots)
        # the first sample's frame at every time: the pivot pass's first owner of each time
        W = pivots[0][0]
        ref = oracle._normal_frames(seen[0][0], W, np.arange(len(W)))[:: len(W) // len(times)]
        assert starts[0].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", sorted(TIME_AXIS_CASES))
    def test_transport_frames(self, name, monkeypatch):
        d = TIME_AXIS_CASES[name]
        imm = oracle.descriptor_immersion(d, 0.1)
        us = chart_samples(d, 3, 23)[:2]
        frame = list(_frame_field(imm, us[0], 1e-3)(us[0][None, :])[0])
        seen, full_rows, pivots = _spy_kept_frames(monkeypatch)
        oracle.transport_normal_frame(imm, us[0], us[1], frame)
        _assert_full_candidate_reference(seen, full_rows, pivots)

    @pytest.mark.parametrize(
        "imm, samples",
        [
            (oracle.descriptor_immersion(CATALOG["clifford_tube_h5"], 0.1), chart_samples(CATALOG["clifford_tube_h5"], 2, 23)[:3]),
            (_twisted_surface(), [np.array([0.1, 0.2]), np.array([0.5, -0.3])]),
            (_plane_in_r4(), [np.array([0.3, 0.9]), np.array([1.0, 0.2])]),
        ],
    )
    def test_normal_curvature_frames(self, imm, samples, monkeypatch):
        seen, full_rows, pivots = _spy_kept_frames(monkeypatch)
        oracle.flat_normal_residual(imm, samples)
        assert len(seen) == 1
        # every stencil point follows its own sample's center
        assert np.array_equal(pivots[0][1], np.repeat(np.arange(len(samples)), seen[0][1].shape[1]))
        _assert_full_candidate_reference(seen, full_rows, pivots)


_TUBE = CATALOG["clifford_tube_h5"]  # n = 3, points of dim 6
_TUBE_IMM = oracle.descriptor_immersion(_TUBE, 0.1)
_U = chart_samples(_TUBE, 2, 7)[:3]
_NORMALS = list(_frame_field(_TUBE_IMM, _U[0], 1e-3)(_U[0][None, :])[0])

MALFORMED = {
    "residuals_sample_length": lambda: oracle.isoparametric_residuals(_TUBE, [0.1], [np.zeros(2), np.zeros(2)]),
    "residuals_ragged_samples": lambda: oracle.isoparametric_residuals(_TUBE, [0.1], [_U[0], _U[1], np.zeros(2)]),
    "residual_flat_samples": lambda: oracle.isoparametric_residual(_TUBE, 0.1, np.array([0.1, 0.2, 0.3])),
    "residual_of_sample_length": lambda: oracle.isoparametric_residual_of(_TUBE_IMM, [np.zeros(4), np.zeros(4)]),
    "mean_curvature_point": lambda: oracle.numeric_mean_curvature(_TUBE_IMM, [0.1, 0.2]),
    "normal_curvature_point": lambda: oracle.normal_curvature_vectors(_TUBE_IMM, [0.1]),
    "flat_normal_samples": lambda: oracle.flat_normal_residual(_TUBE_IMM, [np.zeros(4)]),
    "second_fundamental_form_point": lambda: oracle.second_fundamental_form(_TUBE_IMM, [0.1]),
    "principal_curvatures_point": lambda: oracle.principal_curvatures(_TUBE_IMM, [0.1, 0.2], _NORMALS),
    "principal_curvatures_normal": lambda: oracle.principal_curvatures(_TUBE_IMM, _U[0], [v[:-1] for v in _NORMALS]),
    "transport_mismatched_ends": lambda: oracle.transport_normal_frame(_TUBE_IMM, _U[0], _U[1][:2], _NORMALS),
    "mean_curvature_ragged_point": lambda: oracle.numeric_mean_curvature(_TUBE_IMM, [[0.1, 0.2], [0.3]]),
    "transport_frame_vector": lambda: oracle.transport_normal_frame(_TUBE_IMM, _U[0], _U[1], [v[:-1] for v in _NORMALS]),
    "holonomy_start_length": lambda: oracle.normal_holonomy_defect(_great_circle(), [0.2, 0.3], [2.0 * math.pi]),
    "holonomy_period_length": lambda: oracle.normal_holonomy_defect(_great_circle(), [0.2], [2.0 * math.pi, 1.0]),
    # the walk and both limits take their samples through the same shape check
    "walk_ragged_samples": lambda: oracle.evolve_and_compare(CATALOG["tube_h3"], [[0.1, 0.2], [0.3]], 0.0, 1e-3, 1e-4),
    "walk_string_samples": lambda: oracle.evolve_and_compare(CATALOG["tube_h3"], [["a", "b"]], 0.0, 1e-3, 1e-4),
    "forward_limit_ragged_samples": lambda: limits.forward_limit(CATALOG["tube_h3"], [[0.1, 0.2], [0.3]]),
    "forward_limit_string_samples": lambda: limits.forward_limit(CATALOG["tube_h3"], [["a", "b"]]),
    "ideal_point_ragged_samples": lambda: limits.forward_limit(CATALOG["horocycle_h2"], [[0.1, 0.2], [0.3]]),
    "backward_limit_ragged_samples": lambda: limits.backward_limit(CATALOG["tube_h3"], [[0.1, 0.2], [0.3]]),
    "backward_limit_string_samples": lambda: limits.backward_limit(CATALOG["tube_h3"], [["a", "b"]]),
    "hausdorff_empty_set": lambda: limits.hausdorff_distance(np.zeros((0, 3)), np.zeros((2, 3))),
    "hausdorff_dimensions": lambda: limits.hausdorff_distance(np.zeros((2, 3)), np.zeros((2, 4))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_refused_at_the_boundary(case):
    # one shape check with one message, an InvalidArgumentError, so callers catching ValueError keep working
    with pytest.raises(InvalidArgumentError, match=r"needs? (\d+ (parameters|coordinates)|two non-empty sets)") as info:
        MALFORMED[case]()
    assert isinstance(info.value, ValueError)
