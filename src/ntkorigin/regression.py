"""Min-norm coefficient blocks (beta components), their far-shift closed forms,
and the two equivalent predictor representations.

For a feature direction w the fitted function decomposes into a vector block
beta1 = sum_i alpha_i x_i 1(<w, x_i> >= 0) and a scalar block
beta2 = sum_i alpha_i <w, x_i> 1(<w, x_i> >= 0) over the augmented training
inputs. In the far-shift limit the indicators collapse to the input-agnostic
1(<w, -v_hat> >= 0) and both blocks become explicit in the labels:

    beta1 = 1(...) * (C g_sum S + T / delta),      C = -t^2 kappa / (delta (n kappa t^2 + delta)),
    beta2 = 1(...) * <w, C g_sum S + T / delta>,

with S the sum of augmented shifted inputs, T the label-weighted analogue, and
g_sum the label total. The only dependence of beta2 on the bias coordinate of
w is through <w, .>, whose bias entry sums the n trailing ones, so

    d(beta2)/d(w_bias) = g_sum / (n kappa t^2 + delta)

off the indicator boundary, while beta1 does not depend on w_bias at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTooClose, DimensionError, InvalidInput, MissingFeatureSample
from .geometry import Point, ShiftedTrainingSet
from .gram import AlphaVector, _check_rank_one
from .kernel import FeatureSample, MonteCarlo, kernel_matrix


@dataclass(frozen=True, eq=False)
class BetaComponents:
    """Per-feature coefficient blocks tied to the sample they were built from."""

    beta1: np.ndarray
    beta2: np.ndarray
    features: FeatureSample

    def __post_init__(self):
        b1 = np.asarray(self.beta1, dtype=np.float64)
        b2 = np.asarray(self.beta2, dtype=np.float64)
        k = self.features.count
        if b1.shape != (k, self.features.dim + 1) or b2.shape != (k,):
            raise DimensionError(
                f"expected beta1 {(k, self.features.dim + 1)} and beta2 {(k,)}, "
                f"got {b1.shape} and {b2.shape}"
            )
        b1.setflags(write=False)
        b2.setflags(write=False)
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta2", b2)


def beta_from_alpha(ts: ShiftedTrainingSet, alpha: AlphaVector) -> BetaComponents:
    """Assemble the per-feature blocks from coefficients solved on a Monte
    Carlo gram, over that gram's own feature sample.

    The sample comes from `alpha.mode`, so the blocks share their indicators
    with the gram and with the kernel expansion of alpha. An alpha solved
    under the analytic kernel has no sample and raises MissingFeatureSample.
    """
    if not isinstance(alpha.mode, MonteCarlo):
        raise MissingFeatureSample(
            "beta blocks need the feature sample of a Monte Carlo alpha; this alpha was solved under the analytic kernel"
        )
    fs = alpha.mode.features
    if alpha.n != ts.n:
        raise DimensionError(f"alpha size {alpha.n} != training size {ts.n}")
    if fs.dim != ts.dim:
        raise DimensionError(f"feature dim {fs.dim} != training dim {ts.dim}")
    a = ts.augmented
    pre = a @ fs.weights.T
    act = (pre >= 0.0).astype(np.float64)
    weighted = alpha.values[:, None] * act
    beta1 = weighted.T @ a
    beta2 = (weighted * pre).sum(axis=0)
    return BetaComponents(beta1=beta1, beta2=beta2, features=fs)


@dataclass(frozen=True, eq=False)
class ClosedFormContext:
    """The far-shift limit of the beta blocks for one training set.

    `normal` is -v with a 0 bias entry, the normal of the limit indicator, and
    `v_norm` is |v|. `combined` is C g_sum S + T / delta, the vector both
    blocks contract against, and `law` is g_sum / (n kappa t^2 + delta), the
    off-boundary slope of beta2 in the bias coordinate of w.
    """

    normal: np.ndarray
    v_norm: float
    combined: np.ndarray
    g_sum: float
    law: float

    def __post_init__(self):
        for name in ("normal", "combined"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def active(self, w: np.ndarray) -> bool:
        return bool(np.dot(np.asarray(w, dtype=np.float64), self.normal) >= 0.0)

    def beta1_at(self, w: np.ndarray) -> np.ndarray:
        return self.combined if self.active(w) else np.zeros_like(self.combined)

    def beta2_at(self, w: np.ndarray) -> float:
        if not self.active(w):
            return 0.0
        return float(np.dot(np.asarray(w, dtype=np.float64), self.combined))


def closed_form_context(ts: ShiftedTrainingSet, kappa: float, delta: float) -> ClosedFormContext:
    """Derive the far-shift closed forms of one training set once."""
    _check_rank_one(ts.n, kappa, ts.t, delta)
    kappa, delta = float(kappa), float(delta)
    lead = kappa * ts.t**2
    c_factor = -lead / (delta * (ts.n * lead + delta))
    g_sum = float(ts.labels.sum())
    sum_aug = ts.augmented.sum(axis=0)
    sum_aug_weighted = (ts.augmented * ts.labels[:, None]).sum(axis=0)
    return ClosedFormContext(
        normal=-ts.direction.augmented(),
        v_norm=ts.direction.norm,
        combined=c_factor * g_sum * sum_aug + sum_aug_weighted / delta,
        g_sum=g_sum,
        law=g_sum / (ts.n * kappa * ts.t**2 + delta),
    )


def beta_closed_form(ctx: ClosedFormContext, fs: FeatureSample) -> BetaComponents:
    """Far-shift closed-form blocks for every feature in the sample.

    Blocks of features with inactive limit indicator are exactly zero.
    """
    act = ((fs.weights @ ctx.normal) >= 0.0).astype(np.float64)
    beta1 = act[:, None] * ctx.combined[None, :]
    beta2 = act * (fs.weights @ ctx.combined)
    return BetaComponents(beta1=beta1, beta2=beta2, features=fs)


def bias_slopes(ctx: ClosedFormContext, w: np.ndarray) -> tuple[float, float]:
    """Central finite differences of the closed-form blocks in w's bias
    coordinate, from one step h = 1e-4 (1 + |w_bias|): beta2's slope, and
    the largest absolute slope of beta1's entries.

    The probe refuses weights within 10 steps of the indicator boundary: the
    closed form is affine in the bias coordinate off the boundary but only
    distributionally differentiable on it.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != ctx.normal.shape:
        raise DimensionError(f"weight shape {w.shape} != direction shape {ctx.normal.shape}")
    h = 1e-4 * (1.0 + abs(w[-1]))
    if abs(np.dot(w, ctx.normal)) < 10.0 * h * ctx.v_norm:
        raise BoundaryTooClose(
            f"<w, -v_hat> = {np.dot(w, ctx.normal):.3e} within 10*step of the indicator boundary"
        )
    up = w.copy()
    up[-1] += h
    down = w.copy()
    down[-1] -= h
    beta2 = (ctx.beta2_at(up) - ctx.beta2_at(down)) / (2.0 * h)
    beta1 = float(np.abs(ctx.beta1_at(up) - ctx.beta1_at(down)).max()) / (2.0 * h)
    return beta2, beta1


@dataclass(frozen=True, eq=False)
class PointWisePredictor:
    """Kernel-expansion form: f(x) = sum_i k(x, x_i) alpha_i, with k under
    the kernel mode alpha was solved under."""

    training: ShiftedTrainingSet
    alpha: AlphaVector

    def __post_init__(self):
        if self.alpha.n != self.training.n:
            raise DimensionError(f"alpha size {self.alpha.n} != training size {self.training.n}")


@dataclass(frozen=True, eq=False)
class FeatureSpacePredictor:
    """Feature-space form: f(x) = mean_k [<beta1_k, phi1_k(x)> + beta2_k phi2_k(x)]."""

    beta: BetaComponents


Predictor = PointWisePredictor | FeatureSpacePredictor


def predict(pred: Predictor, x: Point | np.ndarray) -> float | np.ndarray:
    """Evaluate a fitted predictor at a point, or at every row of an (m, d) array.

    A `Point` gives a float and an array gives an (m,) array whose entries
    equal the per-point values bit for bit. Both forms share the 1/K Monte
    Carlo normalization, so built from one feature sample they agree up to
    float reassociation rather than up to sampling noise.
    """
    xs = x.coords[None, :] if isinstance(x, Point) else np.asarray(x, dtype=np.float64)
    if xs.ndim != 2:
        raise DimensionError(f"points must be a Point or an (m, d) array, got shape {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise InvalidInput("evaluation points contain non-finite entries")
    xa = np.hstack([xs, np.ones((xs.shape[0], 1))])
    if isinstance(pred, PointWisePredictor):
        a = pred.training.augmented
        if xa.shape[1] != a.shape[1]:
            raise DimensionError(f"point dim {xa.shape[1] - 1} != training dim {a.shape[1] - 1}")
        # vecdot reduces each kernel row like the 1-D dot of a single point.
        vals = np.vecdot(kernel_matrix(xa, a, pred.alpha.mode), pred.alpha.values)
    else:
        fs = pred.beta.features
        if xa.shape[1] != fs.dim + 1:
            raise DimensionError(f"point dim {xa.shape[1] - 1} != feature dim {fs.dim}")
        vals = np.empty(xa.shape[0])
        for i, row in enumerate(xa):
            s = fs.weights @ row
            vals[i] = ((pred.beta.beta1 @ row + pred.beta.beta2 * s) * (s >= 0.0)).mean()
    return float(vals[0]) if isinstance(x, Point) else vals
