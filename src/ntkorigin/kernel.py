"""Two-layer ReLU NTK evaluation, feature sampling and ReLU indicator machinery.

The kernel of a bias-augmented pair (x, y) is

    E_w[ (x.y + <w,x><w,y>) 1(<w,x> >= 0) 1(<w,y> >= 0) ],   w ~ N(0, I).

Two evaluation modes are provided. Monte Carlo averages the integrand over a
shared, seeded feature sample; this mode is the ground-truth estimator and is
internally consistent with the explicit feature map (same sample, same
normalization). Analytic mode uses the arc-cosine closed form

    k(x, y) = [ x.y (pi - theta) + |x||y| ((pi - theta) cos(theta) + sin(theta)) ] / (2 pi)

with theta the angle between x and y. The closed form is derived, not assumed:
the test suite gates it against the Monte Carlo estimator before anything else
relies on it.

`kernel_matrix` evaluates either mode for every pair drawn from two stacks of
augmented rows and is what gram assembly and the predictors call. `ntk` (one
pair, with the Monte Carlo standard error), `diagonal` (k(x, x) over features
it draws from a seed) and `kappa` integrate one tile of features at a time
into one K-length vector, which the standard error then reuses.

Ties follow the ">= 0" convention: an exactly-zero pre-activation indicates 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; this keeps its import out of the first draw)

from .errors import DimensionError, InvalidInput
from .geometry import AugmentedPoint, Direction, ShiftedTrainingSet


@dataclass(frozen=True, eq=False)
class FeatureSample:
    """K weight vectors of length d+1, i.i.d. standard normal as `sample_features` draws them."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 2:
            raise DimensionError(f"weights must be (K, d+1) with K >= 1, got {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        """Data dimension d (the weights live in d+1)."""
        return self.weights.shape[1] - 1


@dataclass(frozen=True)
class Analytic:
    """Closed-form kernel mode."""


@dataclass(frozen=True)
class MonteCarlo:
    """Sampled kernel mode; every kernel entry of an experiment shares one sample."""

    features: FeatureSample


KernelMode = Analytic | MonteCarlo

ANALYTIC = Analytic()


@dataclass(frozen=True)
class KernelEstimate:
    """A kernel value with its Monte Carlo standard error (0 in analytic mode)."""

    value: float
    std_error: float = 0.0


def sample_features(d: int, count: int, seed: int) -> FeatureSample:
    """Draw `count` standard-normal weight vectors in R^{d+1}, reproducibly."""
    if count < 1:
        raise InvalidInput(f"feature count must be >= 1, got {count}")
    if d < 1:
        raise DimensionError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    return FeatureSample(weights=rng.standard_normal((count, d + 1)))


def _aug_coords(p: AugmentedPoint | np.ndarray) -> np.ndarray:
    a = p.coords if isinstance(p, AugmentedPoint) else np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise InvalidInput("augmented vector contains non-finite entries")
    return a


def feature_map(p: AugmentedPoint | np.ndarray, fs: FeatureSample) -> np.ndarray:
    """Per-feature blocks (p * 1_k, <w_k, p> * 1_k), one row of length d+2 per feature.

    A block is identically zero whenever its indicator is inactive. The unit
    prefactor convention makes the Monte Carlo kernel the mean over rows of the
    blockwise inner products.
    """
    a = _aug_coords(p)
    if a.size != fs.dim + 1:
        raise DimensionError(f"point dim {a.size} != feature dim {fs.dim + 1}")
    s = fs.weights @ a
    act = (s >= 0.0).astype(np.float64)
    return np.hstack([a[None, :] * act[:, None], (s * act)[:, None]])


def _row_pair(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate two stacks of augmented rows of one width."""
    out = []
    for name, a in (("xs", xs), ("ys", ys)):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] < 2:
            raise DimensionError(f"{name} must be (m, d+1) augmented rows, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInput(f"{name} contains non-finite entries")
        out.append(a)
    if out[0].shape[1] != out[1].shape[1]:
        raise DimensionError(f"augmented widths differ: {out[0].shape[1]} vs {out[1].shape[1]}")
    return out[0], out[1]


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, reduced like `np.linalg.norm` of one vector."""
    return np.sqrt(np.vecdot(a, a))


def _arc_cosine(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Closed-form kernel for every pair of rows, shape (m, n).

    The d+1 axis is contracted with `vecdot`, which reduces each pair exactly
    like a 1-D `np.dot`; a matrix product would reorder the sums.
    """
    nx = _norms(xs)
    ny = _norms(ys)
    # Chord-based angle: well conditioned at theta ~ 0, where arccos of a
    # rounded cosine loses half the significand.
    half_chord = _norms(xs[:, None, :] / nx[:, None, None] - ys[None, :, :] / ny[None, :, None]) / 2.0
    theta = 2.0 * np.arcsin(np.minimum(1.0, half_chord))
    dot = np.vecdot(xs[:, None, :], ys[None, :, :])
    nxy = np.outer(nx, ny)
    cos = np.clip(dot / nxy, -1.0, 1.0)
    return (dot * (np.pi - theta) + nxy * ((np.pi - theta) * cos + np.sin(theta))) / (2.0 * np.pi)


def _mc_integrand(xs: np.ndarray, ys: np.ndarray, weights: np.ndarray) -> Iterator[np.ndarray]:
    """Per-feature integrand values, one (n, K) block for each row of xs.

    Every row is written into the same block, so a caller must be done with a
    block before it asks for the next. Pre-activations are one matrix-vector
    product per row, and the feature axis is contiguous, so a mean over it
    sums in the same order as `_estimate` does over the vector `_fill` gives
    for a single pair. When xs is ys, its pre-activations are reused.

    Activity is a float 0/1 mask applied by two in-place multiplies. Scaling
    by 1.0 or 0.0 twice gives the same bits, signed zeros included, as one
    product with the bool mask of both indicators, and it avoids the buffered
    bool-to-float cast of a mixed-type multiply.
    """
    if weights.shape[1] != xs.shape[1]:
        raise DimensionError(f"feature dim {weights.shape[1]} != augmented dim {xs.shape[1]}")
    k = weights.shape[0]
    sy = np.empty((ys.shape[0], k))
    for out, y in zip(sy, ys):
        np.matmul(weights, y, out=out)
    fy = np.greater_equal(sy, 0.0, out=np.empty_like(sy))
    if xs is not ys:
        sx = np.empty(k)
        fx = np.empty(k)
    block = np.empty_like(sy)
    for i, dots in enumerate(np.vecdot(xs[:, None, :], ys[None, :, :])):
        if xs is ys:
            sx, fx = sy[i], fy[i]
        else:
            np.matmul(weights, xs[i], out=sx)
            np.greater_equal(sx, 0.0, out=fx)
        np.multiply(sx, sy, out=block)
        np.add(dots[:, None], block, out=block)
        block *= fy
        block *= fx
        yield block


def kernel_matrix(xs: np.ndarray, ys: np.ndarray, mode: KernelMode) -> np.ndarray:
    """Kernel values between every row of xs (m, d+1) and of ys (n, d+1), shape (m, n).

    Entry (i, j) equals `ntk(xs[i], ys[j], mode).value` bit for bit.
    """
    xs, ys = _row_pair(xs, ys)
    if isinstance(mode, MonteCarlo):
        weights = mode.features.weights
        out = np.empty((xs.shape[0], ys.shape[0]))
        # The sum and the division by K are the two steps of `mean(axis=1)`.
        for row, block in zip(out, _mc_integrand(xs, ys, weights)):
            np.sum(block, axis=1, out=row)
        out /= weights.shape[0]
        return out
    return _arc_cosine(xs, ys)


# Weight rows per tile of the Monte Carlo integrand. A multiple of 16, so a tile
# boundary never splits a group of rows that a BLAS matrix-vector kernel
# computes together: each row of a tile goes through the same kernel code as
# in one product over the whole chunk, and gets the same bits.
DIAGONAL_TILE = 4096

# Feature rows per chunk of `diagonal`: the diag rows' 1e7 features run in ten
# chunks, and every smaller count in one.
DIAGONAL_CHUNK = 1_000_000


def _tiles(n: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of the tiles over n rows: DIAGONAL_TILE rows each but the
    last, which holds the rest and so at most DIAGONAL_TILE + 1 rows.

    A lone last row joins the tile before it, because numpy computes a one-row
    matrix-vector product as a dot product, which sums in another order than
    the row did in the whole product. A single row stays alone, as it is in
    the whole product too.
    """
    start = 0
    while start < n:
        stop = n if n - start <= DIAGONAL_TILE + 1 else start + DIAGONAL_TILE
        yield start, stop
        start = stop


def _fill(x: np.ndarray, y: np.ndarray, out: np.ndarray, rows: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Fill `out` with the integrand at the pair (x, y), one tile at a time.

    `rows(start, stop)` gives the weight rows start:stop, so a tile of weights
    can be drawn just before it is used. Each tile applies `_mc_integrand`'s
    op sequence, `((x.y + s_x*s_y) * mask_y) * mask_x` with float masks of
    s >= 0, writing s_y into `out` and s_x into mask_x's buffer; when y is x,
    s_y and mask_y serve as both. Only the tile-length masks are allocated.
    """
    dot = np.vecdot(x[None, None, :], y[None, None, :])[0, 0]
    mask_y = np.empty(min(DIAGONAL_TILE + 1, out.size))
    mask_x = mask_y if y is x else np.empty_like(mask_y)
    for start, stop in _tiles(out.size):
        w = rows(start, stop)
        if w.shape[1] != x.size:
            raise DimensionError(f"feature dim {w.shape[1]} != augmented dim {x.size}")
        s = out[start:stop]
        fy, fx = mask_y[: s.size], mask_x[: s.size]
        np.matmul(w, y, out=s)
        np.greater_equal(s, 0.0, out=fy)
        if y is x:
            np.multiply(s, s, out=s)
        else:
            np.matmul(w, x, out=fx)
            np.multiply(fx, s, out=s)
            np.greater_equal(fx, 0.0, out=fx)
        np.add(dot, s, out=s)
        s *= fy
        s *= fx
    return out


def _estimate(contribs: np.ndarray) -> KernelEstimate:
    """Mean and standard error of contribs by the steps of numpy's `mean()` and
    `std(ddof=1)`, with the squared deviations written over contribs."""
    k = contribs.size
    mean = np.add.reduce(contribs, keepdims=True) / k
    if k == 1:
        return KernelEstimate(value=float(mean[0]))
    np.subtract(contribs, mean, out=contribs)
    np.multiply(contribs, contribs, out=contribs)
    std = np.sqrt(np.add.reduce(contribs) / (k - 1))
    return KernelEstimate(value=float(mean[0]), std_error=float(std / np.sqrt(k)))


def ntk(x: AugmentedPoint | np.ndarray, y: AugmentedPoint | np.ndarray, mode: KernelMode) -> KernelEstimate:
    """Kernel value for a pair of augmented vectors under the requested mode,
    with the Monte Carlo standard error of the estimate."""
    xs, ys = _row_pair(_aug_coords(x)[None], _aug_coords(y)[None])
    if isinstance(mode, MonteCarlo):
        weights = mode.features.weights
        return _estimate(_fill(xs[0], ys[0], np.empty(weights.shape[0]), lambda start, stop: weights[start:stop]))
    return KernelEstimate(value=float(_arc_cosine(xs, ys)[0, 0]))


def diagonal(x: AugmentedPoint | np.ndarray, count: int, seed: int) -> KernelEstimate:
    """Monte Carlo k(x, x) over `count` features drawn from `default_rng(seed)`
    in chunks of at most `DIAGONAL_CHUNK` rows.

    Each chunk is drawn and integrated one tile of `DIAGONAL_TILE` weight rows
    at a time, in the generator's order, into one chunk-length vector, so no
    sample is ever held, and no second chunk-length vector is allocated. With
    one chunk, the standard error reuses the vector, and value and standard
    error equal those of `ntk(x, x, MonteCarlo(sample_features(d, count,
    seed)))` bit for bit. With several, each chunk is summed once and its sum
    of squares feeds the standard error.
    """
    if count < 1:
        raise InvalidInput(f"feature count must be >= 1, got {count}")
    chunk = DIAGONAL_CHUNK
    row = _aug_coords(x)[None]
    x = _row_pair(row, row)[0][0]
    gen = np.random.default_rng(seed)
    contribs = np.empty(min(chunk, count))
    tile = np.empty((min(DIAGONAL_TILE + 1, contribs.size), x.size))
    draw = lambda start, stop: gen.standard_normal(out=tile[: stop - start])  # noqa: E731
    if contribs.size == count:
        return _estimate(_fill(x, x, contribs, draw))
    total = squares = 0.0
    for start in range(0, count, chunk):
        c = _fill(x, x, contribs[: min(chunk, count - start)], draw)
        total += float(c.sum())
        squares += float(np.vecdot(c, c))
    var = max(squares - total * total / count, 0.0) / (count - 1)
    return KernelEstimate(value=total / count, std_error=float(np.sqrt(var / count)))


def kappa(v: Direction, mode: KernelMode) -> KernelEstimate:
    """Leading gram coefficient: integral of (|v_hat|^2 + <w, v_hat>^2) over the
    active half-space 1(<w, -v_hat> >= 0).

    In analytic mode this equals |v|^2 under standard normal features: the
    half-space carries probability 1/2 and contributes |v|^2/2 from each of the
    two integrand terms. The integrand is 2-homogeneous in v.

    In Monte Carlo mode it is the kernel integrand at the pair (-v_hat, -v_hat),
    integrated tile by tile over the sample into one K-length vector of
    contributions, which the standard error reuses, so the estimate needs one
    K-length vector and one tile-length mask besides the sample.
    For K up to `DIAGONAL_CHUNK`, `diagonal(-v.augmented(), K, seed)` gives
    the same bits without holding the sample `sample_features(d, K, seed)`;
    pass one only to share it.
    """
    if isinstance(mode, MonteCarlo):
        weights = mode.features.weights
        lim = -v.augmented()
        return _estimate(_fill(lim, lim, np.empty(weights.shape[0]), lambda start, stop: weights[start:stop]))
    return KernelEstimate(value=float(v.norm**2))


def agnosticism_rate(ts: ShiftedTrainingSet, fs: FeatureSample) -> float:
    """Fraction of (point, feature) pairs whose indicator disagrees with its limit.

    Disagreement requires |<w, v_hat>| of order 1/t, so the rate shrinks like
    1/t under standard normal features. The count is exact and runs one tile
    of features at a time, so no (n, K) indicator matrix is built.
    """
    if ts.t <= 0:
        raise InvalidInput("agnosticism rate needs a strictly positive shift")
    if fs.dim != ts.dim:
        raise DimensionError(f"feature dim {fs.dim} != training dim {ts.dim}")
    u = -ts.direction.augmented()
    tiles = (fs.weights[start:stop] for start, stop in _tiles(fs.count))
    count = sum(int(np.count_nonzero((ts.augmented @ w.T >= 0.0) != (w @ u >= 0.0))) for w in tiles)
    return count / (ts.n * fs.count)
