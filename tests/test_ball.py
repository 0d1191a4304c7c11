"""Conformal ball projections, boundary transitions and boundary maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_admissible_frame
from hyperflow.ball import (
    ball_projection,
    ball_projection_inverse,
    ball_projection_rows,
    boundary_limit,
    boundary_transition,
    conformal_mean_curvature,
    product_boundary_factor,
    product_boundary_map,
    umbilic_boundary_map,
)
from hyperflow.descriptors import derive_umbilic
from hyperflow.errors import DomainError
from hyperflow.lorentz import HyperboloidPoint, OrthonormalFrame

BOOST = OrthonormalFrame(np.array([[1.25, 0.0, 0.75], [0.0, 1.0, 0.0], [0.75, 0.0, 1.25]]))


class TestBallProjection:
    def test_basepoint_to_origin(self):
        y = ball_projection(OrthonormalFrame.standard(2), 1.0, [0, 0, 1])
        assert np.allclose(y.coords, [0, 0])

    def test_direct_evaluation(self):
        y = ball_projection(OrthonormalFrame.standard(2), 1.0, [0, 1, math.sqrt(2)])
        assert np.allclose(y.coords, [0, math.sqrt(2) - 1], atol=1e-15)

    def test_boost_frame(self):
        # frame coordinates via a linear solve, then the defining quotient
        x = np.array([0.0, 0.0, 1.0])
        coords = np.linalg.solve(BOOST.vectors.T, x)
        expected = coords[:2] / (coords[2] + 1.0)
        y = ball_projection(BOOST, 1.0, x)
        assert np.allclose(y.coords, expected, atol=1e-15)
        assert np.allclose(y.coords, [-1.0 / 3.0, 0.0], atol=1e-15)

    def test_off_hyperboloid_rejected(self):
        with pytest.raises(DomainError):
            ball_projection(OrthonormalFrame.standard(2), 1.0, [1.0, 0.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_rows_equal_single_projections(self, seed):
        # a row must give the same bits alone as inside any batch
        rng = np.random.default_rng(seed)
        frame = random_admissible_frame(rng, 3)
        r = float(rng.uniform(0.5, 3.0))
        s = rng.normal(scale=2.0, size=(12, 3))
        rho = np.linalg.norm(s, axis=1)
        X = math.sqrt(r) * np.column_stack([np.sinh(rho)[:, None] * s / rho[:, None], np.cosh(rho)])
        Y = ball_projection_rows(frame, r, X)
        for k, x in enumerate(X):
            assert Y[k].tobytes() == ball_projection(frame, r, x).coords.tobytes()

    @pytest.mark.parametrize(
        "r, row",
        [
            (1.0, [1.0, 0.0, 1.0]),  # null, off the hyperboloid
            (1.0, [0.0, 0.0, -1.0]),  # lower sheet
            # spacelike, yet within the absolute membership tolerance of a
            # tiny hyperboloid: its image lies outside the unit ball
            (1e-30, [math.sqrt(1e-12 + 5e-11), 0.0, 1e-6]),
        ],
    )
    def test_bad_row_in_a_batch_rejected(self, r, row):
        good = [0.0, 0.0, math.sqrt(r)]
        with pytest.raises(DomainError):
            ball_projection_rows(OrthonormalFrame.standard(2), r, np.array([good, row, good]))
        with pytest.raises(DomainError):
            ball_projection(OrthonormalFrame.standard(2), r, row)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_admissible_frame(rng, 3)
        s = rng.normal(size=3)
        x = HyperboloidPoint(np.append(np.sinh(np.linalg.norm(s)) * s / max(np.linalg.norm(s), 1e-12), np.cosh(np.linalg.norm(s))))
        back = ball_projection_inverse(frame, 1.0, ball_projection(frame, 1.0, x))
        assert np.max(np.abs(back.coords - x.coords)) < 1e-10


class TestBoundaryTransition:
    def test_identity_frame_is_identity(self, rng):
        frame = OrthonormalFrame.standard(3)
        for _ in range(5):
            p = rng.normal(size=3)
            p /= np.linalg.norm(p)
            q, factor = boundary_transition(frame, 1.0, p)
            assert np.allclose(q.coords, p, atol=1e-14)
            assert factor == pytest.approx(1.0)

    def test_axis_permutation(self):
        perm = OrthonormalFrame(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        q, factor = boundary_transition(perm, 1.0, [0.6, 0.8])
        assert np.allclose(q.coords, [0.8, 0.6], atol=1e-15)
        assert factor == pytest.approx(1.0)

    def test_boost_frame_point_and_factor(self):
        q, factor = boundary_transition(BOOST, 1.0, [0.0, 1.0])
        assert np.max(np.abs(q.coords - [0.6, 0.8])) < 1e-15
        assert factor == pytest.approx(0.64, abs=1e-15)

    def test_conformality_against_numeric_jacobian(self, rng):
        # |dTheta(w)|^2 must equal factor * |w|^2 for tangent directions
        h = 1e-5
        for _ in range(20):
            frame = random_admissible_frame(rng, 3)
            p = rng.normal(size=3)
            p /= np.linalg.norm(p)
            w = rng.normal(size=3)
            w -= (w @ p) * p
            curve = lambda s: (p + s * w) / np.linalg.norm(p + s * w)
            plus, _ = boundary_transition(frame, 1.0, curve(h))
            minus, _ = boundary_transition(frame, 1.0, curve(-h))
            deriv = (plus.coords - minus.coords) / (2.0 * h)
            _, factor = boundary_transition(frame, 1.0, p)
            assert abs(deriv @ deriv - factor * (w @ w)) < 1e-6 * max(1.0, w @ w)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_bijection_through_inverse_frame(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_admissible_frame(rng, 3)
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        q, _ = boundary_transition(frame, 1.0, p)
        back, _ = boundary_transition(frame.inverse(), 1.0, q)
        assert np.max(np.abs(back.coords - p)) < 1e-8


class TestBoundaryLimit:
    def test_geodesic_ray(self):
        path = lambda t: np.array([math.sinh(t), 0.0, math.cosh(t)])
        p = boundary_limit(path, 1.0, None)
        assert p is not None and np.allclose(p.coords, [1, 0], atol=1e-9)

    def test_horocycle_trajectory(self):
        path = lambda t: np.array([-math.sinh(t), 0.0, math.cosh(t)])
        p = boundary_limit(path, 1.0, None)
        assert p is not None and np.allclose(p.coords, [-1, 0], atol=1e-9)

    def test_constant_path_has_no_limit(self):
        p = boundary_limit(lambda t: np.array([0.0, 0.0, 1.0]), 1.0, None)
        assert p is None

    def test_finite_endpoint(self):
        # a path escaping to the boundary as t approaches T = 1 from below
        path = lambda t: np.array([math.sinh(1.0 / (1.0 - t)), 0.0, math.cosh(1.0 / (1.0 - t))])
        p = boundary_limit(path, 1.0, 1.0, t0=0.0)
        assert p is not None and np.allclose(p.coords, [1, 0], atol=1e-9)

    def test_oscillating_path_has_no_limit(self):
        def path(t):
            # the normalized direction keeps rotating by ~log 2 per doubling
            s, c = np.sin(np.log1p(t)), np.cos(np.log1p(t))
            return np.array([np.sinh(t) * c, np.sinh(t) * s, np.cosh(t)])

        with np.errstate(over="ignore", invalid="ignore"):
            assert boundary_limit(path, 1.0, None) is None


class TestUmbilicBoundaryMap:
    def test_circle_samples(self):
        umb = derive_umbilic([0.0, 0.0, -1.0], 2.0)
        assert umb.c == pytest.approx(2.0 - math.sqrt(3.0))
        p = umbilic_boundary_map(umb, [math.sqrt(3), 0.0, 2.0])
        assert np.allclose(p.coords, [1, 0], atol=1e-14)
        q = umbilic_boundary_map(umb, [0.0, math.sqrt(3), 2.0])
        assert np.allclose(q.coords, [0, 1], atol=1e-14)

    def test_equidistant_sample(self):
        umb = derive_umbilic([1.0, 0.0, 0.0], 1.0)
        p = umbilic_boundary_map(umb, [1.0, 0.0, math.sqrt(2)])
        assert np.allclose(p.coords, [1, 0], atol=1e-14)

    def test_off_hypersurface_rejected(self):
        umb = derive_umbilic([0.0, 0.0, -1.0], 2.0)
        with pytest.raises(DomainError):
            umbilic_boundary_map(umb, [0.0, 0.0, 1.0])

    def test_unit_norm_on_random_samples(self, rng):
        umb = derive_umbilic([0.0, 0.0, 0.0, -1.0], 2.0)
        worst = 0.0
        for _ in range(1000):
            z = rng.normal(size=3)
            z *= math.sqrt(3.0) / np.linalg.norm(z)
            y = np.append(z, 2.0)
            worst = max(worst, abs(np.linalg.norm(umbilic_boundary_map(umb, y).coords) - 1.0))
        assert worst < 1e-10


class TestProductBoundaryMap:
    def test_basepoint(self):
        p = product_boundary_map(1, 2.0, [0.0, math.sqrt(2)], [math.sqrt(2), 0.0])
        assert np.allclose(p.coords, [0, 1, 0], atol=1e-15)

    def test_boosted_point(self):
        p = product_boundary_map(1, 2.0, [math.sqrt(2), 2.0], [math.sqrt(2), 0.0])
        assert np.allclose(p.coords, [math.sqrt(2) / 2, math.sqrt(2) / 2, 0.0], atol=1e-15)
        assert product_boundary_factor([math.sqrt(2), 2.0]) == pytest.approx(0.25)

    def test_unit_norm_on_random_samples(self, rng):
        r = 2.0
        worst = 0.0
        for _ in range(1000):
            s = rng.normal()
            x = math.sqrt(r) * np.array([math.sinh(s), math.cosh(s)])
            ang = rng.uniform(0, 2 * math.pi)
            z = math.sqrt(r) * np.array([math.cos(ang), math.sin(ang)])
            worst = max(worst, abs(np.linalg.norm(product_boundary_map(1, r, x, z).coords) - 1.0))
        assert worst < 1e-10

    def test_constraint_violations_rejected(self):
        with pytest.raises(DomainError):
            product_boundary_map(1, 2.0, [0.0, 1.0], [math.sqrt(2), 0.0])
        with pytest.raises(DomainError):
            product_boundary_map(1, 2.0, [0.0, math.sqrt(2)], [1.0, 0.0])


class TestConformalMeanCurvature:
    def test_identity_change(self):
        H = np.array([1.0, 2.0])
        assert np.allclose(conformal_mean_curvature(H, np.zeros(2), 0.0, 3), H)

    def test_pure_gradient_term(self):
        w = np.array([0.5, -1.0])
        assert np.allclose(conformal_mean_curvature(np.zeros(2), w, 0.0, 2), -2.0 * w)

    def test_combined(self):
        H = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        out = conformal_mean_curvature(H, w, math.log(2.0), 1)
        assert np.allclose(out, (H - w) / 4.0)
