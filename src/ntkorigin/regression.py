"""Min-norm coefficient blocks (beta components) and the two equivalent
predictor representations.

For a feature direction w the fitted function decomposes into a vector block
beta1 = sum_i alpha_i x_i 1(<w, x_i> >= 0) and a scalar block
beta2 = sum_i alpha_i <w, x_i> 1(<w, x_i> >= 0) over the augmented training
inputs. Their far-shift limits live in `limits`. Both representations are
evaluated by `predict`, at the rows of a plain (m, d) array of points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput, MissingFeatureSample
from .geometry import ShiftedTrainingSet
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
class PointWisePredictor:
    """Kernel-expansion form: f(x) = sum_i k(x, x_i) alpha_i, with k under
    the kernel mode alpha was solved under."""

    training: ShiftedTrainingSet
    alpha: AlphaVector

    def __post_init__(self):
        if self.alpha.n != self.training.n:
            raise DimensionError(f"alpha size {self.alpha.n} != training size {self.training.n}")


Predictor = PointWisePredictor | BetaComponents


def predict(pred: Predictor, xs: np.ndarray) -> np.ndarray:
    """Evaluate a fitted predictor at every row of an (m, d) array.

    A `PointWisePredictor` evaluates its kernel expansion, and `BetaComponents`
    the feature-space form f(x) = mean_k [<beta1_k, phi1_k(x)> + beta2_k phi2_k(x)].
    The (m,) result equals m one-row calls bit for bit. Both forms share the
    1/K Monte Carlo normalization, so built from one feature sample they agree
    up to float reassociation rather than up to sampling noise.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise DimensionError(f"points must be an (m, d) array, got shape {xs.shape}")
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
        fs = pred.features
        if xa.shape[1] != fs.dim + 1:
            raise DimensionError(f"point dim {xa.shape[1] - 1} != feature dim {fs.dim}")
        vals = np.empty(xa.shape[0])
        for i, row in enumerate(xa):
            s = fs.weights @ row
            vals[i] = ((pred.beta1 @ row + pred.beta2 * s) * (s >= 0.0)).mean()
    return vals
