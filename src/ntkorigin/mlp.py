"""Finite-width two-layer ReLU network trained by full-batch gradient descent.

The network is f(x) = (1/sqrt(m)) sum_k a_k relu(<w_k, x_hat>) with hidden
rows initialized standard normal and output signs +-1. Hidden rows come in
duplicated pairs with opposite output signs, so the initial function is
identically zero and the trained function can be compared directly against
kernel regression without an initial-function offset. The unique half of the
hidden init is bit-identical to `sample_features(d, m // 2, seed)`, which is
what makes shared-sample kernel comparisons exact rather than statistical.

`MLPModel.hidden` holds one row per hidden unit, shape (m, d+1). `train`
works on its transpose, one column per unit, so each step's products are
plain row-major GEMMs over the (n, m) pre-activations and activity mask.
Every array of its step loop is allocated once, before the loop, the wide
ones on a 64-byte cache line, and each product writes into its buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, InvalidInput, NaNError, NumericalFailure
from .geometry import ShiftedTrainingSet
from .kernel import FeatureSample, sample_features


@dataclass(frozen=True)
class MLPConfig:
    """Width, step size, step budget and seed for one training run.

    lr=None selects 0.1 / (mean diagonal of the empirical init-time gram).
    """

    width: int
    steps: int = 20000
    lr: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.width < 1:
            raise InvalidInput(f"width must be >= 1, got {self.width}")
        if self.steps < 0:
            raise InvalidInput(f"steps must be >= 0, got {self.steps}")
        if self.lr is not None and not 0 < self.lr < math.inf:
            raise InvalidInput(f"lr must be positive and finite, got {self.lr}")


@dataclass(frozen=True, eq=False)
class MLPModel:
    """Frozen parameter snapshot; training returns new snapshots."""

    hidden: np.ndarray
    output: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.hidden, dtype=np.float64)
        a = np.asarray(self.output, dtype=np.float64)
        if h.ndim != 2 or a.ndim != 1 or h.shape[0] != a.size:
            raise DimensionError(f"inconsistent parameter shapes {h.shape}, {a.shape}")
        h.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "hidden", h)
        object.__setattr__(self, "output", a)

    @property
    def width(self) -> int:
        return self.output.size

    @property
    def dim(self) -> int:
        return self.hidden.shape[1] - 1


def init_model(cfg: MLPConfig, d: int) -> MLPModel:
    """Paired init: each unique hidden row appears twice with output signs +1, -1.

    Odd widths keep one unpaired trailing neuron with output +1; its
    contribution to the initial function vanishes only as 1/sqrt(m).
    """
    half = cfg.width // 2
    rng = np.random.default_rng(cfg.seed)
    draws = rng.standard_normal((half + cfg.width % 2, d + 1))
    rows = []
    signs = []
    if half >= 1:
        rows.append(np.repeat(draws[:half], 2, axis=0))
        signs.append(np.tile([1.0, -1.0], half))
    if cfg.width % 2 == 1:
        rows.append(draws[half:])
        signs.append(np.ones(1))
    return MLPModel(hidden=np.vstack(rows), output=np.concatenate(signs))


def init_features(cfg: MLPConfig, d: int) -> FeatureSample:
    """The unique half of the paired hidden init, as a kernel feature sample."""
    if cfg.width < 2:
        raise InvalidInput("paired init needs width >= 2")
    return sample_features(d, cfg.width // 2, cfg.seed)


def evaluate_batch(model: MLPModel, xs: np.ndarray) -> np.ndarray:
    """Network outputs (1/sqrt(m)) sum_k a_k relu(<w_k, x_hat>) at the rows of an (n, d) array.

    The width is summed in an order that depends on n, so the last bits can differ from one-row calls."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.dim:
        raise DimensionError(f"expected (n, {model.dim}) inputs, got {xs.shape}")
    aug = np.hstack([xs, np.ones((xs.shape[0], 1))])
    z = aug @ model.hidden.T
    return np.maximum(z, 0.0) @ model.output / np.sqrt(model.width)


def _line_aligned(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Uninitialized C-order array whose data starts on a 64-byte cache line.

    Large blocks from malloc start 16 bytes into a page. At width 4096 a
    training step with its pre-activations there took 50 us against 44 us
    with every wide buffer line-aligned, with the same bits.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def train(
    model: MLPModel,
    ts: ShiftedTrainingSet,
    cfg: MLPConfig,
    target_loss: float | None = None,
) -> tuple[MLPModel, np.ndarray]:
    """Full-batch gradient descent on half the summed squared error.

    Returns the trained snapshot and the loss trace (one entry per step plus
    the initial loss). Aborts with DivergenceError if the loss exceeds ten
    times its initial value, and with NaNError on non-finite loss. With
    lr=None it raises NumericalFailure when no hidden unit is active on any
    training input at init, since the learning rate would divide by zero.

    Each step runs one forward pass: the pass that scores a step's loss also
    yields the pre-activations, the 0/1 activity mask and the residual that
    the next step's gradients need. Every value matches the two-pass form (a
    forward pass at the top of each step and another to score it) bit for
    bit.

    The hidden weights are held as columns, w = hidden.T of shape (d+1, m).
    With r the residual times lr / sqrt(m), the output gradient is
    relu.T @ r and the hidden gradient is one product, (x_hat.T * r) @ mask,
    times the output weights. That sums in another order than a layout with
    one row per unit: over 10000 steps on eight points at widths 64 and 4096,
    losses moved by at most 1.5e-12 relative and parameters by 2.6e-14 of
    their largest entry.

    No (n, m) array is allocated per step: each array has one buffer, the
    width-long ones line-aligned. The mask is taken as bool and copied into
    the float 0/1 buffer, with the same >= 0 tie rule (NaN gives 0); then the
    pre-activations become their own ReLU in place, and the next step's
    forward product overwrites them. Losses and parameters keep the bits of
    the two-pass form.
    """
    if ts.dim != model.dim:
        raise DimensionError(f"training dim {ts.dim} != model dim {model.dim}")
    a_in = ts.augmented
    y = ts.labels
    m = model.width
    sq = np.sqrt(m)

    w = _line_aligned((model.dim + 1, m))
    w[...] = model.hidden.T
    out = _line_aligned((m,))
    out[...] = model.output
    z = _line_aligned((ts.n, m))
    np.matmul(a_in, w, out=z)
    mask = _line_aligned((ts.n, m), bool)
    np.greater_equal(z, 0.0, out=mask)
    act = _line_aligned((ts.n, m))
    np.copyto(act, mask)

    if cfg.lr is None:
        # Mean diagonal of the init-time tangent gram: per input i, the mean
        # over features of (|x_i|^2 + <w_k, x_i>^2) 1(<w_k, x_i> >= 0).
        contrib = ((a_in * a_in).sum(axis=1)[:, None] + z**2) * act
        mean_diag = float(contrib.mean(axis=1).mean())
        if mean_diag == 0.0:
            raise NumericalFailure(
                "cannot pick a learning rate: no hidden unit is active on any "
                "training input at init, so the init-time tangent gram is zero"
            )
        lr = 0.1 / mean_diag
    else:
        lr = cfg.lr
    scale = lr / sq

    # From here on z holds its own ReLU between steps.
    np.maximum(z, 0.0, out=z)
    resid = z @ out / sq - y

    losses = np.empty(cfg.steps + 1)
    loss0 = 0.5 * float(np.add.reduce(resid * resid))
    losses[0] = loss0
    abort_at = 10.0 * loss0 if loss0 > 0 else np.inf

    r = np.empty_like(resid)
    xr = np.empty_like(a_in.T)
    grad_w = _line_aligned(w.shape)
    grad_out = _line_aligned(out.shape)
    for step in range(cfg.steps):
        # Both gradients are taken at the pre-step parameters.
        np.multiply(resid, scale, out=r)
        np.matmul(z.T, r, out=grad_out)
        np.multiply(a_in.T, r, out=xr)
        np.matmul(xr, act, out=grad_w)
        grad_w *= out
        w -= grad_w
        out -= grad_out
        np.matmul(a_in, w, out=z)
        np.greater_equal(z, 0.0, out=mask)
        np.copyto(act, mask)
        np.maximum(z, 0.0, out=z)
        np.matmul(z, out, out=resid)
        resid /= sq
        resid -= y
        loss = 0.5 * float(np.add.reduce(resid * resid))
        losses[step + 1] = loss
        if not math.isfinite(loss):
            raise NaNError(f"loss became non-finite at step {step + 1}")
        if loss > abort_at:
            raise DivergenceError(f"loss {loss:.3e} exceeded 10x initial at step {step + 1}")
        if target_loss is not None and loss <= target_loss:
            losses = losses[: step + 2]
            break

    return MLPModel(hidden=np.ascontiguousarray(w.T), output=out), losses


def parameter_displacement(before: MLPModel, after: MLPModel) -> float:
    """Relative parameter movement |theta_after - theta_before| / |theta_before|."""
    num = np.sqrt(
        np.sum((after.hidden - before.hidden) ** 2) + np.sum((after.output - before.output) ** 2)
    )
    den = np.sqrt(np.sum(before.hidden**2) + np.sum(before.output**2))
    return float(num / den)
