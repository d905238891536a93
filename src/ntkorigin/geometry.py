"""Input-space types: directions, target functions and shifted training sets.

A point is a plain (d,) float64 array and a training realization an (n, d)
one. Kernel code reads points with an appended bias coordinate fixed to 1;
direction vectors augment with 0 instead, so translating a point never
changes its bias entry. Training sets are built by translating a realization
by -t*v and labeling the translated points with a target function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDirection, DimensionError, InvalidInput


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _as_vector(coords, *, name: str, size: int | None = None) -> np.ndarray:
    a = np.atleast_1d(np.asarray(coords, dtype=np.float64))
    if a.ndim != 1 or a.size < 1 or (size is not None and a.size != size):
        raise DimensionError(f"{name} must be a 1-D vector of length {size or '>= 1'}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class Direction:
    """A nonzero direction of the input space. Augments with a 0 bias entry."""

    coords: np.ndarray

    def __post_init__(self):
        a = _as_vector(self.coords, name="direction")
        if not np.any(a != 0.0):
            raise DegenerateDirection("direction vector is zero")
        object.__setattr__(self, "coords", _freeze(a))

    @property
    def dim(self) -> int:
        return self.coords.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def augmented(self) -> np.ndarray:
        """The direction with a 0 appended in the bias slot."""
        return np.append(self.coords, 0.0)


class TargetFunction:
    """Scalar target g, evaluated at the rows of an (n, d) array."""

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class LinearTarget(TargetFunction):
    """g(x) = <a, x> + b. With a = 0 this is the constant target b."""

    a: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(np.atleast_1d(np.asarray(self.a, dtype=np.float64))))
        object.__setattr__(self, "b", float(self.b))

    def value(self, x: np.ndarray) -> np.ndarray:
        return x @ self.a + self.b


@dataclass(frozen=True, eq=False)
class QuadraticTarget(TargetFunction):
    """g(x) = x^T Q x + <a, x> + b."""

    q: np.ndarray
    a: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionError("quadratic form must be a square matrix")
        object.__setattr__(self, "q", _freeze(q))
        object.__setattr__(self, "a", _freeze(np.atleast_1d(np.asarray(self.a, dtype=np.float64))))
        object.__setattr__(self, "b", float(self.b))

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("ni,ij,nj->n", x, self.q, x) + x @ self.a + self.b


@dataclass(frozen=True, eq=False)
class SinusoidalTarget(TargetFunction):
    """g(x) = sin(<u, x> + phase), bounded regardless of how far x drifts."""

    u: np.ndarray
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "u", _freeze(np.atleast_1d(np.asarray(self.u, dtype=np.float64))))
        object.__setattr__(self, "phase", float(self.phase))

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.sin(x @ self.u + self.phase)


@dataclass(frozen=True, eq=False)
class ShiftedTrainingSet:
    """A realization translated by -t*v and labeled by a target after the shift.

    `points` is a read-only copy of the (n, d) realization, so a later change
    to the caller's array does not reach the set. labels[i] = g(x_i - t*v),
    so the stored labels always refer to the shifted positions. The augmented
    matrix caches [x_i - t*v | 1] rows for kernel code.
    """

    points: np.ndarray
    direction: Direction
    t: float
    target: TargetFunction
    labels: np.ndarray = field(init=False, repr=False)
    shifted: np.ndarray = field(init=False, repr=False)
    augmented: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=np.float64)
        except ValueError as exc:  # e.g. rows of mixed lengths
            raise DimensionError(f"points must form an (n, d) array: {exc}") from exc
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != self.direction.dim:
            raise DimensionError(f"points must be an (n, {self.direction.dim}) array with n >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidInput("points contain non-finite entries")
        t = float(self.t)
        if t < 0:
            raise InvalidInput(f"shift magnitude must be nonnegative, got {t}")
        shifted = pts - t * self.direction.coords
        labels = np.asarray(self.target.value(shifted), dtype=np.float64)
        if labels.shape != (pts.shape[0],):
            raise DimensionError(f"target gave labels of shape {labels.shape} for {pts.shape[0]} points")
        if not np.all(np.isfinite(labels)):
            raise InvalidInput("target function produced non-finite labels")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "shifted", _freeze(shifted))
        object.__setattr__(self, "augmented", _freeze(np.hstack([shifted, np.ones((shifted.shape[0], 1))])))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def shift_set(points: np.ndarray, v: Direction, t: float, g: TargetFunction) -> ShiftedTrainingSet:
    """Translate the (n, d) realization by -t*v and label the translated points with g.

    Order is preserved: row i of the result corresponds to points[i].
    """
    return ShiftedTrainingSet(points=points, direction=v, t=t, target=g)
