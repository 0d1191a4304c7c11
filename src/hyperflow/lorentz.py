"""Minkowski-space primitives: inner product, admissible frames, hyperboloids.

Vectors live in R^(m,1) with the metric signature (+, ..., +, -): the last
coordinate is the timelike one.  Throughout the package a "Lorentz vector" is
a plain 1-d float ndarray of length m+1 in the standard basis; frames are
views onto that one canonical representation, never alternative storage.

The hyperboloid H^m(-r) is the upper sheet {<x,x> = -r, x_{m+1} > 0}; it
carries constant sectional curvature -1/r.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FrameConstructionError, InvalidArgumentError, DomainError

#: residuals of algebraic identities evaluated in closed form
ALGEBRAIC_TOL = 1e-12
#: membership predicates (on-hyperboloid, unit-norm boundary points)
MEMBERSHIP_TOL = 1e-10


def as_vector(x, m: int | None = None) -> np.ndarray:
    """Coerce to a 1-d float array of length m+1 with finite entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise InvalidArgumentError(f"expected a 1-d vector of length >= 2, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("vector has non-finite entries")
    if m is not None and v.size != m + 1:
        raise InvalidArgumentError(f"expected length {m + 1}, got {v.size}")
    return v


def minkowski_inner(x, y) -> float:
    """Signature (+...+,-) inner product: sum_i x_i y_i - x_last y_last."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise InvalidArgumentError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    return float(np.dot(xv[:-1], yv[:-1]) - xv[-1] * yv[-1])


def minkowski_norm2(x) -> float:
    """Squared Lorentzian norm <x,x> (negative for timelike vectors)."""
    return minkowski_inner(x, x)


class Membership(Enum):
    ON_HYPERBOLOID = "on_hyperboloid"
    IN_TIME_CONE = "in_time_cone"
    OUTSIDE = "outside"


def ambient_membership(x, r: float, tol: float = MEMBERSHIP_TOL) -> Membership:
    """Locate x relative to H^m(-r) and the time cone {<v,v> < 0}.

    A point of the lower sheet is inside the time cone but not on the
    hyperboloid; null and spacelike vectors are outside.  The membership
    tolerance is relative to the coordinate scale: <x,x> of a far-out point
    is a cancellation of squares and carries rounding of that size.
    """
    v = as_vector(x)
    if r <= 0:
        raise InvalidArgumentError("r must be positive")
    q = minkowski_norm2(v)
    # beyond unit coordinate scale the signature form is a cancellation of
    # squares, so only a deviation above the rounding floor is detectable
    floor = 1e-13 * float(np.dot(v, v))
    if abs(q + r) <= max(tol, floor) and v[-1] > 0:
        return Membership.ON_HYPERBOLOID
    if q < 0:
        return Membership.IN_TIME_CONE
    return Membership.OUTSIDE


@dataclass(frozen=True)
class HyperboloidPoint:
    """A point of the upper sheet H^m(-r), kept in standard coordinates."""

    coords: np.ndarray
    r: float = 1.0

    def __post_init__(self):
        v = as_vector(self.coords)
        if self.r <= 0:
            raise InvalidArgumentError("r must be positive")
        if ambient_membership(v, self.r) is not Membership.ON_HYPERBOLOID:
            raise DomainError(
                f"point with <x,x> = {minkowski_norm2(v):.3e} is not on H^{v.size - 1}(-{self.r})"
            )
        object.__setattr__(self, "coords", v)

    @property
    def m(self) -> int:
        return self.coords.size - 1


def _signature_gram_schmidt(vectors: list[np.ndarray]) -> list[np.ndarray]:
    """Greedy modified Gram-Schmidt with the Minkowski inner product.

    At each step the remaining vector whose residual has the largest
    |<v,v>| is accepted (stable argmax, so already-orthonormal inputs pass
    through unchanged).  Residuals that are numerically dependent or null
    cannot be normalized and abort the construction.  One pass leaves Gram
    errors that grow with the boost of the inputs (above 1e-12 for some
    moderately boosted sets), so the accepted vectors are orthogonalized a
    second time ("twice is enough"); exact pairings of 0 and +-1 leave
    orthonormal inputs bit-unchanged by that pass.
    """
    scale = max(float(np.linalg.norm(v)) for v in vectors)
    remaining = [v.copy() for v in vectors]
    accepted: list[np.ndarray] = []
    for _ in range(len(vectors)):
        for w in remaining:
            for u in accepted:
                w -= (minkowski_inner(w, u) / minkowski_inner(u, u)) * u
        norms2 = [minkowski_norm2(w) for w in remaining]
        k = int(np.argmax([abs(q) for q in norms2]))
        w, q = remaining.pop(k), norms2[k]
        if np.linalg.norm(w) < 1e-12 * scale:
            raise FrameConstructionError("input vectors do not span the space")
        if abs(q) < 1e-10 * float(np.dot(w, w)):
            raise FrameConstructionError("hit a numerically null direction while orthonormalizing")
        accepted.append(w / np.sqrt(abs(q)))
    refined: list[np.ndarray] = []
    for w in accepted:
        for u in refined:
            w = w - (minkowski_inner(w, u) / minkowski_inner(u, u)) * u
        refined.append(w / np.sqrt(abs(minkowski_norm2(w))))
    return refined


def orthonormalize_frame(vectors) -> "OrthonormalFrame":
    """Build an admissible orthonormal frame from m+1 spanning vectors.

    The output satisfies <eps_i, eps_j> = delta_ij for i,j <= m,
    <eps_{m+1}, eps_{m+1}> = -1, and the timelike vector is oriented to the
    future (<eps_{m+1}, e_{m+1}> < 0).  Among the orthonormalized vectors the
    one with the most negative self inner product becomes the timelike slot.
    """
    vecs = [as_vector(v) for v in vectors]
    dim = vecs[0].size
    if len(vecs) != dim:
        raise FrameConstructionError(f"need exactly {dim} vectors for R^({dim - 1},1), got {len(vecs)}")
    if any(v.size != dim for v in vecs):
        raise InvalidArgumentError("vectors have mixed dimensions")

    basis = _signature_gram_schmidt(vecs)
    norms2 = [minkowski_norm2(u) for u in basis]
    timelike = [i for i, q in enumerate(norms2) if q < 0]
    if len(timelike) != 1:
        raise FrameConstructionError(
            f"recovered {len(timelike)} timelike directions, expected exactly one"
        )
    k = min(timelike, key=lambda i: norms2[i])
    tvec = basis.pop(k)
    if minkowski_inner(tvec, _last_axis(dim)) >= 0:
        tvec = -tvec
    return OrthonormalFrame(np.vstack(basis + [tvec]))


def _last_axis(dim: int) -> np.ndarray:
    e = np.zeros(dim)
    e[-1] = 1.0
    return e


@dataclass(frozen=True)
class OrthonormalFrame:
    """An admissible orthonormal basis eps_1..eps_{m+1} of R^(m,1).

    Rows of ``vectors`` are the frame vectors; the last row is timelike and
    future oriented.  Frames are immutable views used for coordinate changes
    and ball projections.
    """

    vectors: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.vectors, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise InvalidArgumentError(f"frame must be a square (m+1)x(m+1) matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise InvalidArgumentError("frame has non-finite entries")
        gram = mat[:, :-1] @ mat[:, :-1].T - np.outer(mat[:, -1], mat[:, -1])
        target = np.diag(np.append(np.ones(mat.shape[0] - 1), -1.0))
        if np.max(np.abs(gram - target)) > ALGEBRAIC_TOL:
            raise InvalidArgumentError("frame rows are not signature-orthonormal")
        if mat[-1, -1] <= 0:
            raise InvalidArgumentError("timelike frame vector must be future oriented")
        object.__setattr__(self, "vectors", mat)

    @property
    def m(self) -> int:
        return self.vectors.shape[0] - 1

    @classmethod
    def standard(cls, m: int) -> "OrthonormalFrame":
        return cls(np.eye(m + 1))

    def coordinates(self, x) -> np.ndarray:
        """Coefficients a with x = sum a_i eps_i (a_i = <x,eps_i>, a_last = -<x,eps_last>)."""
        return frame_coordinates(self, x)

    def synthesize(self, a) -> np.ndarray:
        """Reassemble sum a_i eps_i from frame coefficients."""
        coeff = as_vector(a, self.m)
        return coeff @ self.vectors

    def inverse(self) -> "OrthonormalFrame":
        """The frame whose coordinate map inverts this frame's coordinate map."""
        eta = np.append(np.ones(self.m), -1.0)
        return OrthonormalFrame(eta[:, None] * self.vectors.T * eta[None, :])


def frame_coordinates(frame: OrthonormalFrame, x) -> np.ndarray:
    """Coordinates of x in an admissible frame, via signature pairings."""
    v = as_vector(x, frame.m)
    signs = np.append(np.ones(frame.m), -1.0)
    return signs * (frame.vectors[:, :-1] @ v[:-1] - frame.vectors[:, -1] * v[-1])
