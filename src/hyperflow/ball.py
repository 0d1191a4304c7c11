"""Conformal ball model and ideal-boundary machinery.

``ball_projection`` maps the hyperboloid H^m(-r) onto the open unit ball
through an admissible frame; with the standard frame and r = 1 it is the
classical conformal diffeomorphism x -> (x_1..x_m)/(1 + x_{m+1}).  Boundary
transitions between two frame identifications of the ideal boundary are
conformal maps of S^(m-1); their squared metric scaling is returned alongside
the image point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, InvalidArgumentError
from .lorentz import (
    MEMBERSHIP_TOL,
    HyperboloidPoint,
    OrthonormalFrame,
    as_vector,
)


@dataclass(frozen=True)
class BallPoint:
    """A point of the open unit ball B^m.

    Projections of points very deep in the hyperboloid sit within one
    rounding unit of the boundary; those saturated values are accepted, only
    a norm beyond 1 + 1e-12 is rejected.
    """

    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise InvalidArgumentError("ball point must be a finite 1-d vector")
        if np.linalg.norm(v) > 1.0 + 1e-12:
            raise DomainError(f"|y| = {np.linalg.norm(v):.6f} is not inside the unit ball")
        object.__setattr__(self, "coords", v)

    @property
    def m(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class IdealPoint:
    """A point of the ideal boundary, modeled as the unit sphere S^(m-1)."""

    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise InvalidArgumentError("ideal point must be a finite 1-d vector")
        if abs(np.linalg.norm(v) - 1.0) > MEMBERSHIP_TOL:
            raise DomainError(f"|p| = {np.linalg.norm(v):.12f} is not on the unit sphere")
        object.__setattr__(self, "coords", v)

    @property
    def m(self) -> int:
        return self.coords.size


def ball_projection(frame: OrthonormalFrame, r: float, x) -> BallPoint:
    """Project a point of H^m(-r) into the unit ball through a frame.

    In frame coordinates a_1..a_{m+1} the image is (a_1..a_m)/(a_{m+1}+sqrt(r)).
    A batch of one of ``ball_projection_rows``.
    """
    coords = x.coords if isinstance(x, HyperboloidPoint) else as_vector(x, frame.m)
    return BallPoint(ball_projection_rows(frame, r, coords[None, :])[0])


def ball_projection_rows(frame: OrthonormalFrame, r: float, X) -> np.ndarray:
    """Project every row of X, a point of H^m(-r), into the unit ball through a frame.

    Each row passes the checks of ``HyperboloidPoint`` (finite, on the upper
    sheet within max(MEMBERSHIP_TOL, 1e-13 |x|^2)) and its image those of
    ``BallPoint`` (finite, |y| <= 1 + 1e-12), raising the same errors.  The
    frame coordinates are summed one column at a time in a fixed order, so a
    row gives the same bits alone as in any batch.
    """
    Xv = np.asarray(X, dtype=float)
    if Xv.ndim != 2 or Xv.shape[1] != frame.m + 1:
        raise InvalidArgumentError(f"expected rows of length {frame.m + 1}, got shape {Xv.shape}")
    if not np.all(np.isfinite(Xv)):
        raise InvalidArgumentError("vector has non-finite entries")
    if r <= 0:
        raise InvalidArgumentError("r must be positive")
    # rows too large to square give nan here, and nan fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        space2 = np.sum(Xv[:, :-1] ** 2, axis=1)
        time2 = Xv[:, -1] ** 2
        q = space2 - time2
        on = np.abs(q + r) <= np.maximum(MEMBERSHIP_TOL, 1e-13 * (space2 + time2))
    bad = np.flatnonzero(~(on & (Xv[:, -1] > 0)))
    if bad.size:
        k = bad[0]
        raise DomainError(f"row {k} with <x,x> = {q[k]:.3e} is not on H^{frame.m}(-{r})")
    V = frame.vectors
    # a = signs * (V[:, :-1] x_bar - V[:, -1] x_last), one column at a time
    acc = np.zeros((Xv.shape[0], frame.m + 1))
    for j in range(frame.m):
        acc += Xv[:, j : j + 1] * V[None, :, j]
    acc -= Xv[:, -1:] * V[None, :, -1]
    acc[:, -1] = -acc[:, -1]
    Y = acc[:, :-1] / (acc[:, -1:] + np.sqrt(r))
    if not np.all(np.isfinite(Y)):
        raise InvalidArgumentError("ball point must be a finite 1-d vector")
    norms = np.linalg.norm(Y, axis=1)
    outside = np.flatnonzero(norms > 1.0 + 1e-12)
    if outside.size:
        raise DomainError(f"|y| = {norms[outside[0]]:.6f} is not inside the unit ball")
    return Y


def ball_projection_inverse(frame: OrthonormalFrame, r: float, y) -> HyperboloidPoint:
    """Invert ``ball_projection``: solve for the hyperboloid point behind y."""
    yb = y.coords if isinstance(y, BallPoint) else BallPoint(np.asarray(y, dtype=float)).coords
    if yb.size != frame.m:
        raise InvalidArgumentError(f"ball point has dimension {yb.size}, frame expects {frame.m}")
    s = 2.0 * np.sqrt(r) / (1.0 - float(np.dot(yb, yb)))
    a = np.append(yb * s, s - np.sqrt(r))
    return HyperboloidPoint(frame.vectors.T @ a, r)


def boundary_transition(frame: OrthonormalFrame, r: float, p) -> tuple[IdealPoint, float]:
    """Boundary map from the frame identification of S^(m-1) to the standard one.

    Writing eps_i = (v_i, c_i), the image of p is
    (v_{m+1} + sum p_i v_i) / (c_{m+1} + sum p_i c_i) and the squared metric
    scaling of its differential is 1/(c_{m+1} + sum p_i c_i)^2.  The
    denominator is positive for every admissible frame.
    """
    pv = p.coords if isinstance(p, IdealPoint) else IdealPoint(np.asarray(p, dtype=float)).coords
    if pv.size != frame.m:
        raise InvalidArgumentError(f"boundary point has dimension {pv.size}, frame expects {frame.m}")
    if r <= 0:
        raise InvalidArgumentError("r must be positive")
    v = frame.vectors[:, :-1]
    c = frame.vectors[:, -1]
    h = c[-1] + float(np.dot(pv, c[:-1]))
    if h <= 0:
        raise GeometryError("admissible frames guarantee a positive denominator; frame is corrupt")
    return IdealPoint((v[-1] + pv @ v[:-1]) / h), 1.0 / h**2
