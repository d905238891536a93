"""The far-shift (t -> infinity) closed forms of the gram algebra and the beta blocks.

The training gram of a set shifted by -t*v approaches kappa * t^2 * J, a
rank-one matrix. Regularized with delta*I it inverts in closed form,

    (delta I + kappa t^2 J)^{-1} = (1/delta) I - t^2 kappa / (delta (n kappa t^2 + delta)) J,

and the product of labels with that inverse has an explicit per-entry formula.
In the same limit every feature indicator collapses to the input-agnostic
1(<w, -v_hat> >= 0), so both beta blocks become explicit in the labels:

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

from .errors import BoundaryTooClose, DimensionError, InvalidInput, InvalidRegularization
from .geometry import ShiftedTrainingSet
from .gram import AlphaVector, GramMatrix, _require_wide_longdouble


def _check_rank_one(n: int, kappa: float, t: float, delta: float | None = None) -> None:
    """The arguments every rank-one closed form shares: n >= 1, kappa and
    t >= 0, and, where a delta is given, 0 < delta < inf. NaN fails each."""
    if not n >= 1:
        raise DimensionError(f"n must be >= 1, got {n}")
    if not (kappa >= 0 and t >= 0):
        raise InvalidInput(f"kappa and t must be nonnegative, got {kappa} and {t}")
    if delta is not None and not 0 < delta < np.inf:
        raise InvalidRegularization(f"delta must be positive and finite, got {delta}")


def asymptotic_gram(n: int, kappa: float, t: float) -> GramMatrix:
    """The far-shift limit gram kappa * t^2 * J (all entries equal)."""
    _check_rank_one(n, kappa, t)
    return GramMatrix(entries=np.full((n, n), float(kappa) * float(t) ** 2))


def sherman_morrison_inverse(n: int, kappa: float, t: float, delta: float) -> np.ndarray:
    """Closed-form inverse of delta*I + kappa*t^2*J, in long double.

    The diagonal is evaluated as ((n-1) kappa t^2 + delta) / (delta (n kappa t^2 + delta)),
    which is the same quantity as 1/delta + off-diagonal but avoids the
    catastrophic cancellation of the naive difference when kappa t^2 >> delta.
    The long double serves identity-residual studies below float64 ulp; it
    raises NumericalFailure where long double is no wider than float64.
    """
    _check_rank_one(n, kappa, t, delta)
    _require_wide_longdouble("sherman_morrison_inverse")
    ld = np.longdouble
    kp, tt, dl, nn = ld(kappa), ld(t), ld(delta), ld(n)
    lead = kp * tt * tt
    denom = dl * (nn * lead + dl)
    out = np.full((n, n), -lead / denom, dtype=ld)
    out[np.diag_indices(n)] = ((nn - ld(1.0)) * lead + dl) / denom
    return out


def asymptotic_alpha(labels: np.ndarray, n: int, kappa: float, t: float, delta: float) -> AlphaVector:
    """Closed-form coefficients on the asymptotic gram:

        alpha_i = -(t^2 kappa) / (delta (n kappa t^2 + delta)) * sum_j Y_j + Y_i / delta.

    Evaluated in the algebraically identical arrangement

        alpha_i = (t^2 kappa (n Y_i - sum_j Y_j) + delta Y_i) / (delta (n kappa t^2 + delta)),

    whose terms never cancel catastrophically when kappa t^2 >> delta.
    """
    _check_rank_one(n, kappa, t, delta)
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1 or y.size != n:
        raise DimensionError(f"labels shape {y.shape} does not match n={n}")
    lead = float(kappa) * float(t) ** 2
    total = y.sum()
    vals = (lead * (n * y - total) + delta * y) / (delta * (n * lead + delta))
    return AlphaVector(values=vals, delta=float(delta))


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
