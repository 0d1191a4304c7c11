"""Minkowski arithmetic, frames and hyperboloid membership."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_admissible_frame
from hyperflow.errors import FrameConstructionError, InvalidArgumentError
from hyperflow.lorentz import (
    Membership,
    OrthonormalFrame,
    ambient_membership,
    frame_coordinates,
    minkowski_inner,
    orthonormalize_frame,
)

BOOST = np.array([[1.25, 0.0, 0.75], [0.0, 1.0, 0.0], [0.75, 0.0, 1.25]])


class TestMinkowskiInner:
    def test_timelike_unit(self):
        assert minkowski_inner([0, 0, 1], [0, 0, 1]) == -1.0

    def test_orthogonal_axes(self):
        assert minkowski_inner([1, 0, 0], [0, 1, 0]) == 0.0

    def test_signature_forces_minus_one(self):
        v = [3.0, 0.0, math.sqrt(10.0)]
        assert minkowski_inner(v, v) == pytest.approx(-1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            minkowski_inner([1, 0, 0], [1, 0])


class TestOrthonormalizeFrame:
    def test_standard_basis_is_fixed(self):
        frame = orthonormalize_frame(np.eye(4))
        assert np.array_equal(frame.vectors, np.eye(4))

    def test_boost_frame_is_fixed(self):
        # direct evaluation of the three invariant pairings certifies the input
        rows = list(BOOST)
        assert minkowski_inner(rows[0], rows[0]) == pytest.approx(1.0, abs=1e-15)
        assert minkowski_inner(rows[2], rows[2]) == pytest.approx(-1.0, abs=1e-15)
        assert minkowski_inner(rows[0], rows[2]) == pytest.approx(0.0, abs=1e-15)
        frame = orthonormalize_frame(rows)
        assert np.allclose(frame.vectors, BOOST, atol=1e-15)
        assert minkowski_inner(frame.vectors[2], [0, 0, 1]) == pytest.approx(-1.25)

    def test_flipped_timelike_is_oriented_back(self):
        frame = orthonormalize_frame([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        assert np.allclose(frame.vectors[2], [0, 0, 1])

    def test_degenerate_span_rejected(self):
        with pytest.raises(FrameConstructionError):
            orthonormalize_frame([[1, 0, 0], [2, 0, 0], [0, 0, 1]])

    def test_no_timelike_direction_rejected(self):
        # null + spacelike candidates leave no normalizable timelike seed
        with pytest.raises(FrameConstructionError):
            orthonormalize_frame([[1, 0, 1], [0, 1, 0], [1, 0, -1]])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    # boosted draws whose single Gram-Schmidt pass left Gram errors above 1e-12
    @example(seed=3172)
    @example(seed=6308)
    def test_random_perturbations_stay_admissible(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_admissible_frame(rng, 3)
        jitter = frame.vectors + 1e-3 * rng.normal(size=frame.vectors.shape)
        rebuilt = orthonormalize_frame(jitter)
        gram = np.array(
            [[minkowski_inner(a, b) for b in rebuilt.vectors] for a in rebuilt.vectors]
        )
        assert np.max(np.abs(gram - np.diag([1, 1, 1, -1]))) < 1e-12
        assert rebuilt.vectors[-1, -1] > 0


class TestFrameCoordinates:
    def test_identity_frame(self):
        frame = OrthonormalFrame.standard(2)
        assert np.allclose(frame_coordinates(frame, [0, 0, 1]), [0, 0, 1])

    def test_boost_frame_against_linear_solve(self):
        frame = OrthonormalFrame(BOOST)
        x = np.array([0.0, 0.0, 1.0])
        coords = frame_coordinates(frame, x)
        # independent oracle: x = sum a_i eps_i is a plain linear system
        expected = np.linalg.solve(BOOST.T, x)
        assert np.allclose(coords, expected, atol=1e-14)
        assert np.allclose(coords, [-0.75, 0.0, 1.25], atol=1e-14)
        assert coords[0] == pytest.approx(minkowski_inner(x, BOOST[0]))

    def test_basis_vectors_reproduce(self, rng):
        frame = random_admissible_frame(rng, 4)
        for k in range(5):
            coords = frame_coordinates(frame, frame.vectors[k])
            unit = np.zeros(5)
            unit[k] = 1.0
            assert np.allclose(coords, unit, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_roundtrip_identity(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_admissible_frame(rng, 3)
        a = rng.normal(size=4)
        back = frame_coordinates(frame, frame.synthesize(a))
        assert np.max(np.abs(back - a)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_inner_product_is_frame_invariant(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_admissible_frame(rng, 3)
        x, y = rng.normal(size=4), rng.normal(size=4)
        ax, ay = frame_coordinates(frame, x), frame_coordinates(frame, y)
        form = float(ax[:-1] @ ay[:-1] - ax[-1] * ay[-1])
        assert abs(form - minkowski_inner(x, y)) < 1e-10

    def test_inverse_frame_inverts_coordinates(self, rng):
        frame = random_admissible_frame(rng, 3)
        inv = frame.inverse()
        x = rng.normal(size=4)
        assert np.allclose(frame_coordinates(inv, frame_coordinates(frame, x)), x, atol=1e-12)


class TestAmbientMembership:
    def test_basepoint(self):
        assert ambient_membership([0, 0, 1], 1.0) is Membership.ON_HYPERBOLOID

    def test_wrong_sheet_is_in_time_cone(self):
        assert ambient_membership([0, 0, -1], 1.0) is Membership.IN_TIME_CONE

    def test_null_vector_is_outside(self):
        assert ambient_membership([1, 0, 1], 1.0) is Membership.OUTSIDE

    def test_scaled_radius(self):
        assert ambient_membership([0, math.sqrt(2)], 2.0) is Membership.ON_HYPERBOLOID
