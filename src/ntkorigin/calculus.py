"""Forward-difference directional derivatives, their Pascal-coefficient algebra,
and polynomial profile fitting with degree classification.

The z-th forward difference along v uses the sign-alternating binomial row
P_i = (-1)^(z-i) binom(z, i), so that

    D_v^z f(x0) ~= sum_i P_i f(x0 + i h v) / h^z.

`pascal_coefficients(z)` returns that row in stencil-point order: entry i
multiplies f at x_i = x0 + i h v, so entry z is 1.

Two exact integer/algebraic identities of that row are exposed as checks: the
row-to-previous-row correspondence P_i^(z) (z - i) = -z P_i^(z-1), and the
split of the point-weighted sum into an anchored term plus a lower-order
indicator sum. Note the minus sign in the correspondence: consecutive signed
rows alternate at fixed i, so the magnitude recurrence binom(z,i)(z-i) =
z binom(z-1,i) picks up a sign flip.

Both samplers, `directional_derivative` and `fit_profile`, share one
contract. They take the base point as a plain (d,) array. f is called once,
on the (m, d) array whose rows are the sample points in order, and returns
their m values. A return of another shape or with a non-finite entry raises
EvaluationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, EvaluationError, FitFailure, InvalidInput
from .geometry import Direction, _as_vector


PASCAL_MAX_ORDER = 66  # binom(67, 33) does not fit int64


def pascal_coefficients(z: int) -> np.ndarray:
    """Signed stencil row of order z in stencil-point order: P_i = (-1)^(z-i) binom(z, i), i = 0..z."""
    if not 0 <= z <= PASCAL_MAX_ORDER:
        raise InvalidInput(f"order must be from 0 to {PASCAL_MAX_ORDER}, got {z}")
    return np.array([(-1) ** (z - i) * math.comb(z, i) for i in range(z + 1)], dtype=np.int64)


def pascal_shift_identity(z: int) -> bool:
    """Exact-integer check of P_i^(z) (z - i) = -z P_i^(z-1) for i = 0..z-1.

    i = z is excluded: the previous row has no coefficient at that index.
    """
    if z < 1:
        raise InvalidInput(f"order must be >= 1, got {z}")
    row, prev = pascal_coefficients(z).tolist(), pascal_coefficients(z - 1).tolist()
    return all(row[i] * (z - i) == -z * prev[i] for i in range(z))


def sigma_identity_check(
    x0: np.ndarray,
    v: Direction,
    h: float,
    indicators: Sequence[int],
    z: int,
) -> float:
    """Max-abs discrepancy between the two evaluations of the weighted stencil sum.

    x0 is an augmented (d+1,) point. Builds x_j = x0 + j*h*[v|0] and compares

        sum_j P_j x_j b_j   vs   x_z * sum_j P_j b_j + z*h*[v|0] * sum_{j<z} P'_j b_j

    where P' is the order z-1 row. The identity is exact algebra, so the
    returned discrepancy is pure rounding noise.
    """
    if z < 1:
        raise InvalidInput(f"order must be >= 1, got {z}")
    if h == 0:
        raise InvalidInput("step must be nonzero")
    bits = np.asarray(indicators, dtype=np.float64)
    if bits.size != z + 1:
        raise DimensionError(f"need {z + 1} indicator bits, got {bits.size}")
    vhat = v.augmented()
    x0 = _as_vector(x0, name="augmented point", size=vhat.size)
    pts = x0[None, :] + np.arange(z + 1)[:, None] * (h * vhat)[None, :]
    p_row = pascal_coefficients(z).astype(np.float64)
    p_prev = pascal_coefficients(z - 1).astype(np.float64)
    direct = (p_row * bits)[:, None] * pts
    lhs = direct.sum(axis=0)
    rhs = pts[z] * np.sum(p_row * bits) + z * h * vhat * np.sum(p_prev * bits[:z])
    return float(np.abs(lhs - rhs).max())


def _sample(f: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """f's values at the rows of `points`, from one call: an (m,) array of finite floats."""
    vals = np.asarray(f(points), dtype=np.float64)
    m = points.shape[0]
    if vals.shape != (m,):
        raise EvaluationError(f"f returned shape {vals.shape} for {m} sample points")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise EvaluationError(f"f returned {float(vals[bad[0]])!r} at sample point {points[bad[0]]}")
    return vals


def directional_derivative(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    v: Direction,
    z: int,
    h: float,
) -> float:
    """z-th directional derivative via the forward stencil x0, x0+hv, ..., x0+zhv.

    f is called once, on the (z+1, d) array of stencil points in that order.
    The weighted sum runs left to right from x0.
    """
    if z < 1:
        raise InvalidInput(f"order must be >= 1, got {z}")
    x0 = _as_vector(x0, name="point", size=v.dim)
    if not h > 0:
        raise InvalidInput(f"step must be positive, got {h}")
    vals = _sample(f, x0 + (np.arange(z + 1) * h)[:, None] * v.coords)
    acc = 0.0
    for weight, val in zip(pascal_coefficients(z).astype(np.float64), vals):
        acc += weight * val
    return float(acc / h**z)


@dataclass(frozen=True, eq=False)
class ExtrapolationProfile:
    """A least-squares polynomial fit of f along base + s*v at the sampled offsets s.

    `coefficients[j]` multiplies s^j. `normalized[j]` multiplies (s/radius)^j;
    these carry the fit's conditioning and feed ratio diagnostics, since they
    compare term magnitudes at the window edge rather than raw derivatives.
    """

    offsets: np.ndarray
    coefficients: np.ndarray
    normalized: np.ndarray
    residual: float


@dataclass(frozen=True)
class DegreeClass:
    """Dominant polynomial degree of a profile plus cubic/quartic ratios."""

    label: str
    ratio32: float
    ratio42: float


def fit_profile(
    f: Callable[[np.ndarray], np.ndarray],
    base: np.ndarray,
    v: Direction,
    radius: float,
    m: int = 41,
    degmax: int = 4,
) -> ExtrapolationProfile:
    """Fit f(base + s*v) by a degree-degmax polynomial over m symmetric offsets.

    f is called once, on the (m, d) array whose rows are the sample points,
    and returns their m values. The fit runs in the scaled variable
    u = s/radius for conditioning; physical coefficients are recovered by
    dividing by radius^j.
    """
    if radius <= 0:
        raise InvalidInput(f"radius must be positive, got {radius}")
    if degmax < 2:
        raise InvalidInput(f"degmax must be >= 2, got {degmax}")
    if m < degmax + 3:
        raise InvalidInput(f"need at least degmax+3={degmax + 3} samples, got {m}")
    base = _as_vector(base, name="base point", size=v.dim)
    offsets = np.linspace(-radius, radius, m)
    vals = _sample(f, base + offsets[:, None] * v.coords)
    vander = np.vander(offsets / radius, degmax + 1, increasing=True)
    sol, _, rank, _ = np.linalg.lstsq(vander, vals, rcond=None)
    if rank < degmax + 1:
        raise FitFailure(f"rank-deficient fit: rank {rank} < {degmax + 1}")
    resid = float(np.sqrt(np.mean((vander @ sol - vals) ** 2)))
    coeffs = sol / radius ** np.arange(degmax + 1)
    return ExtrapolationProfile(offsets=offsets, coefficients=coeffs, normalized=sol, residual=resid)


_LABELS = {0: "constant", 1: "linear", 2: "quadratic"}


def classify(profile: ExtrapolationProfile, tol: float = 0.05, floor: float = 1e-10) -> DegreeClass:
    """Dominant degree by thresholding window-edge term magnitudes.

    A term survives when its normalized coefficient exceeds tol times the
    largest term (or the floor, whichever is bigger); the highest survivor
    fixes the label. Ratios divide by max(|c2|, floor) to stay finite when the
    curvature vanishes, as it does along directions orthogonal to the shift.
    """
    mags = np.abs(profile.normalized)
    ref = max(float(mags.max()), floor)
    alive = np.nonzero(mags > tol * ref)[0]
    top = int(alive.max()) if alive.size else 0
    label = _LABELS.get(top, "higher")
    c2 = max(float(mags[2]), floor) if mags.size > 2 else floor
    ratio32 = float(mags[3]) / c2 if mags.size > 3 else 0.0
    ratio42 = float(mags[4]) / c2 if mags.size > 4 else 0.0
    return DegreeClass(label=label, ratio32=ratio32, ratio42=ratio42)
