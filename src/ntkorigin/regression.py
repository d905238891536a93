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

from .errors import BoundaryTooClose, DimensionError, InvalidInput, InvalidRegularization, MissingFeatureSample
from .geometry import Direction, Point, Realization, ShiftedTrainingSet, TargetFunction, shift_set
from .gram import AlphaVector
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
    """Shared pieces of the far-shift beta closed forms for one training set."""

    direction: Direction
    n: int
    kappa: float
    t: float
    delta: float
    c_factor: float
    g_sum: float
    sum_aug: np.ndarray
    sum_aug_weighted: np.ndarray

    def __post_init__(self):
        for name in ("sum_aug", "sum_aug_weighted"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def combined(self) -> np.ndarray:
        """C * g_sum * S + T / delta, the vector both blocks contract against."""
        return self.c_factor * self.g_sum * self.sum_aug + self.sum_aug_weighted / self.delta

    def active(self, w: np.ndarray) -> bool:
        return bool(np.dot(np.asarray(w, dtype=np.float64), -self.direction.augmented()) >= 0.0)

    def beta1_at(self, w: np.ndarray) -> np.ndarray:
        return self.combined if self.active(w) else np.zeros_like(self.combined)

    def beta2_at(self, w: np.ndarray) -> float:
        if not self.active(w):
            return 0.0
        return float(np.dot(np.asarray(w, dtype=np.float64), self.combined))


def closed_form_context(ts: ShiftedTrainingSet, kappa: float, delta: float) -> ClosedFormContext:
    if delta <= 0:
        raise InvalidRegularization(f"delta must be positive, got {delta}")
    if kappa <= 0 or ts.t <= 0:
        raise InvalidRegularization("closed form requires kappa > 0 and t > 0")
    lead = float(kappa) * ts.t**2
    c_factor = -lead / (delta * (ts.n * lead + delta))
    assert c_factor < 0.0  # guaranteed by kappa, t, delta > 0
    return ClosedFormContext(
        direction=ts.direction,
        n=ts.n,
        kappa=float(kappa),
        t=ts.t,
        delta=float(delta),
        c_factor=c_factor,
        g_sum=float(ts.labels.sum()),
        sum_aug=ts.augmented.sum(axis=0),
        sum_aug_weighted=(ts.augmented * ts.labels[:, None]).sum(axis=0),
    )


def beta_closed_form(
    phi: Realization,
    v: Direction,
    t: float,
    delta: float,
    kappa: float,
    g: TargetFunction,
    fs: FeatureSample,
) -> BetaComponents:
    """Far-shift closed-form blocks for every feature in the sample.

    Blocks of features with inactive limit indicator are exactly zero.
    """
    ts = shift_set(phi, v, t, g)
    ctx = closed_form_context(ts, kappa=kappa, delta=delta)
    act = ((fs.weights @ (-v.augmented())) >= 0.0).astype(np.float64)
    combined = ctx.combined
    beta1 = act[:, None] * combined[None, :]
    beta2 = act * (fs.weights @ combined)
    return BetaComponents(beta1=beta1, beta2=beta2, features=fs)


def bias_sensitivity_limit(ctx: ClosedFormContext) -> float:
    """Predicted off-boundary slope of beta2 in the bias coordinate of w."""
    return ctx.g_sum / (ctx.n * ctx.kappa * ctx.t**2 + ctx.delta)


def beta_bias_sensitivity(
    ctx: ClosedFormContext,
    w: np.ndarray,
    v: Direction,
    step: float | None = None,
) -> float:
    """Central finite difference of the closed-form beta2 in w's bias coordinate.

    The probe refuses weights within 10 steps of the indicator boundary: the
    closed form is affine in the bias coordinate off the boundary but only
    distributionally differentiable on it.
    """
    w = np.asarray(w, dtype=np.float64)
    vhat = v.augmented()
    if w.shape != vhat.shape:
        raise DimensionError(f"weight shape {w.shape} != direction shape {vhat.shape}")
    h = 1e-4 * (1.0 + abs(w[-1])) if step is None else float(step)
    if abs(np.dot(w, -vhat)) < 10.0 * h * v.norm:
        raise BoundaryTooClose(
            f"<w, -v_hat> = {np.dot(w, -vhat):.3e} within 10*step of the indicator boundary"
        )
    up = w.copy()
    up[-1] += h
    down = w.copy()
    down[-1] -= h
    return (ctx.beta2_at(up) - ctx.beta2_at(down)) / (2.0 * h)


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
