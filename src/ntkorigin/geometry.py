"""Input-space types: points, directions, bias augmentation and shifted training sets.

Data points carry an appended bias coordinate fixed to 1; direction vectors
augment with 0 instead, so translating a point never changes its bias entry.
Training sets are built by translating a fixed point realization by -t*v and
labeling the translated points with a target function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateDirection, DimensionError, InvalidInput


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _as_vector(coords, *, name: str) -> np.ndarray:
    a = np.atleast_1d(np.asarray(coords, dtype=np.float64))
    if a.ndim != 1 or a.size < 1:
        raise DimensionError(f"{name} must be a 1-D vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class Point:
    """A point of the d-dimensional input space."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _freeze(_as_vector(self.coords, name="point")))

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True, eq=False)
class AugmentedPoint:
    """A point with its bias coordinate appended; the last entry is exactly 1."""

    coords: np.ndarray

    def __post_init__(self):
        a = _as_vector(self.coords, name="augmented point")
        if a.size < 2:
            raise DimensionError("augmented point needs at least one data coordinate")
        if a[-1] != 1.0:
            raise InvalidInput(f"bias coordinate must be exactly 1, got {a[-1]!r}")
        object.__setattr__(self, "coords", _freeze(a))

    @property
    def dim(self) -> int:
        """Dimension of the underlying data point (bias excluded)."""
        return self.coords.size - 1


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


@dataclass(frozen=True, eq=False)
class Realization:
    """An ordered finite set of training inputs, all of one dimension."""

    points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(p if isinstance(p, Point) else Point(p) for p in self.points)
        if len(pts) == 0:
            raise DimensionError("realization must contain at least one point")
        d = pts[0].dim
        for p in pts:
            if p.dim != d:
                raise DimensionError(f"mixed dimensions in realization: {p.dim} vs {d}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def matrix(self) -> np.ndarray:
        """Stack the points into an (n, d) array."""
        return np.stack([p.coords for p in self.points])


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

    labels[i] = g(x_i - t*v), so the stored labels always refer to the shifted
    positions. The augmented matrix caches [x_i - t*v | 1] rows for kernel code.
    """

    realization: Realization
    direction: Direction
    t: float
    target: TargetFunction
    labels: np.ndarray = field(init=False, repr=False)
    shifted: np.ndarray = field(init=False, repr=False)
    augmented: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = float(self.t)
        if t < 0:
            raise InvalidInput(f"shift magnitude must be nonnegative, got {t}")
        if self.realization.dim != self.direction.dim:
            raise DimensionError(
                f"realization dimension {self.realization.dim} != direction dimension {self.direction.dim}"
            )
        shifted = self.realization.matrix() - t * self.direction.coords
        labels = np.asarray(self.target.value(shifted), dtype=np.float64)
        if labels.shape != (self.realization.n,):
            raise DimensionError(f"target gave labels of shape {labels.shape} for {self.realization.n} points")
        if not np.all(np.isfinite(labels)):
            raise InvalidInput("target function produced non-finite labels")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "shifted", _freeze(shifted))
        object.__setattr__(self, "augmented", _freeze(np.hstack([shifted, np.ones((shifted.shape[0], 1))])))

    @property
    def n(self) -> int:
        return self.realization.n

    @property
    def dim(self) -> int:
        return self.realization.dim


def augment(p: Point | Sequence[float]) -> AugmentedPoint:
    """Append the bias coordinate 1 to a point."""
    pt = p if isinstance(p, Point) else Point(p)
    return AugmentedPoint(np.append(pt.coords, 1.0))


def shift_set(phi: Realization, v: Direction, t: float, g: TargetFunction) -> ShiftedTrainingSet:
    """Translate the realization by -t*v and label the translated points with g.

    Order is preserved: row i of the result corresponds to phi.points[i].
    """
    return ShiftedTrainingSet(realization=phi, direction=v, t=t, target=g)
