"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else.  Criteria sweep the whole
built-in catalog, so a run of this module alone certifies the artifact:

    pytest tests/test_acceptance.py -s
"""

import math

import numpy as np
import pytest

from hyperflow import oracle
from hyperflow.ball import ball_projection, boundary_transition
from hyperflow.catalog import CATALOG
from hyperflow.descriptors import (
    Ambient,
    Umbilic,
    classify_shape,
    derive_umbilic,
    dimensions,
    immerse,
)
from hyperflow.flow import (
    existence_window,
    gauge_lorentz_to_hyperbolic,
    hyperbolic_flow,
    lorentz_flow,
)
from hyperflow.limits import backward_limit, forward_limit, hausdorff_distance, verify_flat_normal_bundle
from hyperflow.lorentz import OrthonormalFrame, minkowski_inner
from hyperflow.scenario import chart_samples, lorentz_time_range, sample_times

LN2 = math.log(2.0)
BOOST = OrthonormalFrame(np.array([[1.25, 0.0, 0.75], [0.0, 1.0, 0.0], [0.75, 0.0, 1.25]]))
MOVING = [n for n in sorted(CATALOG) if n != "ambient_h3"]


def report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_existence_windows():
    w_circle = existence_window(CATALOG["circle_h2"])
    w_tube = existence_window(CATALOG["tube_h3"])
    w_horo = existence_window(CATALOG["horocycle_h2"])
    errs = [
        abs(w_circle.t_max - LN2),
        abs(w_tube.t_dprime - 0.5),
        abs(w_tube.t_max - math.log(3.0) / 4.0),
    ]
    ok = max(errs) < 1e-9 and w_horo.t_max is None
    report(1, ok, f"closed-form windows, max error {max(errs):.2e}, horocycle unbounded")


def test_criterion_02_radius_ode_oracle():
    T = oracle.geodesic_sphere_collapse_time(1, 2.0)
    err = abs(T - LN2)
    also = abs(T - existence_window(CATALOG["circle_h2"]).t_max)
    ok = err < 1e-6 and also < 1e-6
    report(2, ok, f"rho' = -coth(rho) collapse at {T:.9f}, error {err:.2e}")


def test_criterion_03_norm_law():
    rng = np.random.default_rng(3)
    worst = 0.0
    for name, d in CATALOG.items():
        n = dimensions(d).n
        lo, hi = lorentz_time_range(d)
        us = chart_samples(d, 6, 103, cap=40)
        times = sample_times(lo, hi, max(2, 1000 // len(us) + 1), rng)
        pairs = 0
        for u in us:
            x = immerse(d, u)
            for t in times:
                if pairs >= 1000:
                    break
                F = lorentz_flow(d, x, float(t))
                worst = max(worst, abs(minkowski_inner(F, F) - (minkowski_inner(x, x) - 2 * n * t)))
                pairs += 1
    ok = worst < 1e-9
    report(3, ok, f"<F,F> = <x,x> - 2nt, max residual {worst:.2e} over 1000 pairs/entry")


def test_criterion_04_gauge_round_trip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for name, d in CATALOG.items():
        n = dimensions(d).n
        w = existence_window(d)
        F = lambda xx, tt, d=d: lorentz_flow(d, xx, tt)
        for u in chart_samples(d, 3, 41)[:6]:
            x = immerse(d, u)
            for t in sample_times(None, w.t_max, 20, rng, span=2.0 / n):
                via = gauge_lorentz_to_hyperbolic(F, n, 1.0, x, float(t))
                worst = max(worst, float(np.max(np.abs(hyperbolic_flow(d, x, float(t)) - via))))
    ok = worst < 1e-12
    report(4, ok, f"hyperbolic vs gauge-composed Lorentzian flow, max gap {worst:.2e}")


def test_criterion_05_pde_residual():
    rng = np.random.default_rng(5)
    worst = 0.0
    for name, d in CATALOG.items():
        lo, hi = lorentz_time_range(d)
        w = existence_window(d)
        us = chart_samples(d, 4, 57, cap=25)
        t_h = sample_times(None, w.t_max, 4, rng, span=1.5)
        t_l = sample_times(lo, hi, 4, rng, span=1.5)
        count = 0
        for u in us:
            for th, tl in zip(t_h, t_l):
                if count >= 100:
                    break
                worst = max(worst, oracle.pde_residual(d, u, float(th), 1e-3, 1e-4, "hyperbolic"))
                worst = max(worst, oracle.pde_residual(d, u, float(tl), 1e-3, 1e-4, "lorentz"))
                count += 1
    ok = worst < 1e-3
    report(5, ok, f"|df/dt - H_numeric| both gauges, max {worst:.2e}")


def test_criterion_06_euler_evolution():
    d = CATALOG["tube_h3"]
    err = oracle.evolve_and_compare(d, chart_samples(d, 2, 6)[:4], 0.0, 0.1, 1e-5)
    ok = err < 1e-3
    report(6, ok, f"tube_h3 forward Euler 0 -> 0.1 at dt=1e-5, max position error {err:.2e}")


def test_criterion_07_boundary_transition_conformality():
    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        p = rng.normal(size=2)
        p /= np.linalg.norm(p)
        w = np.array([-p[1], p[0]])
        curve = lambda s: (p + s * w) / np.linalg.norm(p + s * w)
        plus, _ = boundary_transition(BOOST, 1.0, curve(h))
        minus, _ = boundary_transition(BOOST, 1.0, curve(-h))
        deriv = (plus.coords - minus.coords) / (2.0 * h)
        _, factor = boundary_transition(BOOST, 1.0, p)
        worst = max(worst, abs(float(deriv @ deriv) - factor))
    q, _ = boundary_transition(BOOST, 1.0, [0.0, 1.0])
    exact = np.max(np.abs(q.coords - np.array([0.6, 0.8])))
    ok = worst < 1e-6 and exact < 1e-15
    report(7, ok, f"|dTheta|^2 vs factor max gap {worst:.2e}; Theta((0,1)) off by {exact:.1e}")


def test_criterion_08_forward_limits():
    d = CATALOG["circle_h2"]
    fwd = forward_limit(d, chart_samples(d, 3, 8))
    focal_err = float(np.max(np.abs(fwd.samples - np.array([0.0, 0.0, 1.0]))))
    x = immerse(d, [0.5])
    d_coarse = np.linalg.norm(hyperbolic_flow(d, x, LN2 - 1e-6) - np.array([0, 0, 1.0]))
    d_fine = np.linalg.norm(hyperbolic_flow(d, x, LN2 - 1e-9) - np.array([0, 0, 1.0]))
    ok_circle = focal_err < 1e-6 and d_fine < d_coarse < 1e-2

    d = CATALOG["equidistant_h2"]
    fwd = forward_limit(d, chart_samples(d, 4, 8))
    on_plane = float(np.max(np.abs(fwd.samples[:, 0])))
    imm = oracle.ImmersionEvaluator(1, oracle.HYPERBOLOID, fwd.immersion)
    h_num = max(
        float(np.max(np.abs(oracle.numeric_mean_curvature(imm, u)))) for u in ([-0.7], [0.0], [0.9])
    )
    ok_equi = on_plane < 1e-12 and h_num < 1e-6

    d = CATALOG["horocycle_h2"]
    frame = OrthonormalFrame.standard(2)
    y = ball_projection(frame, 1.0, hyperbolic_flow(d, immerse(d, [0.4]), 15.0)).coords
    ideal_err = float(np.linalg.norm(y - np.array([-1.0, 0.0])))
    ok_horo = ideal_err < 1e-5

    ok = ok_circle and ok_equi and ok_horo
    report(
        8,
        ok,
        f"circle focal off {focal_err:.1e} (approach {d_coarse:.1e}->{d_fine:.1e}); "
        f"equidistant on x1=0 with |H|={h_num:.1e}; horocycle point off {ideal_err:.1e}",
    )


def test_criterion_09_backward_limits():
    worst_hd = 0.0
    dims_ok = True
    for name in MOVING:
        d = CATALOG[name]
        us = chart_samples(d, 3, 19)[:8]
        bwd = backward_limit(d, us)
        frame = OrthonormalFrame.standard(dimensions(d).m)
        flowed = np.array(
            [ball_projection(frame, 1.0, hyperbolic_flow(d, immerse(d, u), -15.0)).coords for u in us]
        )
        worst_hd = max(worst_hd, hausdorff_distance(flowed, bwd.samples))
        dims_ok = dims_ok and (bwd.dim == dimensions(d).n)
    ok = worst_hd < 1e-5 and dims_ok
    report(9, ok, f"projected flow at t=-15 vs limit set, Hausdorff {worst_hd:.2e}; PCA dims match")


def test_criterion_10_flat_normal_bundle():
    d = CATALOG["circle_in_h4_nested"]
    bwd = backward_limit(d, chart_samples(d, 3, 9))
    residual = verify_flat_normal_bundle(d, bwd)

    def twisted(u):
        a, b = u
        return 0.3 * np.array([math.cos(a), math.sin(a), 0.8 * math.cos(a + b), math.sin(b)])

    imm = oracle.ImmersionEvaluator(2, oracle.EUCLIDEAN, twisted)
    ball = oracle.poincare_ball_factor()
    gap = 0.0
    magnitude = 0.0
    for u in ([0.3, 0.7], [1.1, 0.4]):
        R_flat = oracle.normal_curvature_vectors(imm, u)
        R_conf = oracle.normal_curvature_vectors(imm, u, conformal=ball)
        gap = max(gap, float(np.max(np.abs(R_flat - R_conf))))
        magnitude = max(magnitude, float(np.max(np.abs(R_flat))))
    ok = residual < 1e-4 and gap < 1e-4 and magnitude > 1e-4
    report(
        10,
        ok,
        f"nested-circle limit residual {residual:.2e}; flat-vs-hyperbolic metric gap {gap:.2e} "
        f"on a bundle of size {magnitude:.2e}",
    )


def test_criterion_11_minimal_implies_totally_geodesic():
    checked = []
    worst = 0.0
    entries = dict(CATALOG)
    # a non-trivial minimal representative on top of the catalog's ambient
    entries["geodesic_h2_in_h3"] = Umbilic(derive_umbilic([1.0, 0.0, 0.0, 0.0], 0.0), Ambient(2))
    for name, d in entries.items():
        if not classify_shape(d).minimal:
            continue
        checked.append(name)
        imm = oracle.descriptor_immersion(d)
        for u in chart_samples(d, 2, 77)[:4]:
            _, _, _, II = oracle.second_fundamental_form(imm, u, 1e-3)
            for row in II:
                for wv in row:
                    worst = max(worst, float(np.max(np.abs(wv))))
    d = CATALOG["circle_h2"]

    def perturbed(u):
        x = immerse(d, u)
        x = x + 0.05 * math.cos(3.0 * u[0]) * np.array([math.cos(u[0]), math.sin(u[0]), 0.0])
        return x / math.sqrt(-minkowski_inner(x, x))

    imm = oracle.ImmersionEvaluator(1, oracle.HYPERBOLOID, perturbed)
    control = oracle.isoparametric_residual_of(imm, [np.array([0.1]), np.array([0.9]), np.array([1.7])])
    ok = worst < 1e-8 and control > 1e-2
    report(
        11,
        ok,
        f"numeric II of minimal entries {checked} max {worst:.2e}; perturbed control spread {control:.2e}",
    )


def test_criterion_12_isoparametric_along_the_flow():
    rng = np.random.default_rng(12)
    spreads = []
    for name, d in CATALOG.items():
        if dimensions(d).codim == 0:
            continue
        w = existence_window(d)
        us = chart_samples(d, 3, 5)[:3]
        spreads.append(oracle.isoparametric_residuals(d, sample_times(None, w.t_max, 10, rng, span=1.5).tolist(), us))
    worst = float(np.max(spreads))
    ok = worst < 1e-5
    report(12, ok, f"principal-curvature spread at 10 times/entry, max {worst:.2e}")
