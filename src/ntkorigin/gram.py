"""Gram assembly and Tikhonov solves.

Solves never form an inverse; they factor K + delta*I and refine. The
far-shift closed forms of the gram, its inverse and its alpha live in `limits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionError,
    InvalidInput,
    InvalidRegularization,
    NumericalFailure,
)
from .geometry import ShiftedTrainingSet
from .kernel import ANALYTIC, KernelMode, kernel_matrix

RESIDUAL_BOUND = 1e-8

# The extended-precision paths need a long double with more mantissa than
# float64 (80-bit on x86-64). Where it is only float64 they would lose their
# margin silently, so they refuse to run instead.
_LONGDOUBLE_IS_WIDER = bool(np.finfo(np.longdouble).eps < np.finfo(np.float64).eps)


def _require_wide_longdouble(what: str) -> None:
    if not _LONGDOUBLE_IS_WIDER:
        raise NumericalFailure(
            f"{what} needs a long double wider than float64; "
            f"this platform's has eps {np.finfo(np.longdouble).eps:.3e}"
        )


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric kernel gram with the kernel mode it was assembled under."""

    entries: np.ndarray
    mode: KernelMode = ANALYTIC

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise DimensionError(f"gram must be square, got {e.shape}")
        if not np.all(np.isfinite(e)):
            raise InvalidInput("gram contains non-finite entries")
        if not np.array_equal(e, e.T):
            raise InvalidInput("gram entries are not exactly symmetric")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def mean_diagonal(self) -> float:
        return float(np.mean(np.diag(self.entries)))


@dataclass(frozen=True)
class TikhonovConfig:
    """Regularization strength, either absolute or scaled by the mean diagonal."""

    delta: float
    mode: Literal["absolute", "relative"] = "absolute"

    def __post_init__(self):
        if not 0 < self.delta < np.inf:
            raise InvalidRegularization(f"delta must be positive and finite, got {self.delta}")
        if self.mode not in ("absolute", "relative"):
            raise InvalidRegularization(f"unknown delta mode {self.mode!r}")

    def resolve(self, gram: GramMatrix) -> float:
        """Effective delta for a concrete gram."""
        if self.mode == "absolute":
            return float(self.delta)
        return float(self.delta) * gram.mean_diagonal


@dataclass(frozen=True, eq=False)
class AlphaVector:
    """Solution of (K + delta I) alpha = Y, with solve diagnostics attached.

    `mode` is the kernel mode of the gram K, so every prediction made from
    these coefficients evaluates the kernel the gram was assembled with.
    """

    values: np.ndarray
    delta: float
    residual: float = 0.0
    mode: KernelMode = ANALYTIC

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise InvalidInput("alpha contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def assemble_gram(ts: ShiftedTrainingSet, mode: KernelMode) -> GramMatrix:
    """Pairwise kernel matrix of the shifted training inputs.

    `kernel_matrix` of a set with itself is exactly symmetric in both modes,
    which `GramMatrix` checks. Every entry matches a scalar `ntk` call bit for bit.
    """
    a = ts.augmented
    return GramMatrix(entries=kernel_matrix(a, a, mode), mode=mode)


def _cholesky_solve_longdouble(g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unblocked Cholesky solve in extended precision (desk-scale n only).

    Returns the solution and the diagonal of the Cholesky factor.
    """
    g = g.astype(np.longdouble)
    y = y.astype(np.longdouble)
    n = g.shape[0]
    chol = np.zeros_like(g)
    for j in range(n):
        s = g[j, j] - np.dot(chol[j, :j], chol[j, :j])
        if s <= 0:
            raise NumericalFailure("extended-precision Cholesky hit a non-positive pivot")
        chol[j, j] = np.sqrt(s)
        if j + 1 < n:
            chol[j + 1 :, j] = (g[j + 1 :, j] - chol[j + 1 :, :j] @ chol[j, :j]) / chol[j, j]
    z = np.zeros(n, dtype=np.longdouble)
    for i in range(n):
        z[i] = (y[i] - np.dot(chol[i, :i], z[:i])) / chol[i, i]
    x = np.zeros(n, dtype=np.longdouble)
    for i in range(n - 1, -1, -1):
        x[i] = (z[i] - np.dot(chol[i + 1 :, i], x[i + 1 :])) / chol[i, i]
    return x, np.diag(chol)


def tikhonov_solve(
    gram: GramMatrix,
    cfg: TikhonovConfig,
    labels: np.ndarray,
    extended: bool = False,
) -> AlphaVector:
    """Solve (K + delta I) alpha = Y by Cholesky factorization.

    The float64 path applies two steps of iterative refinement with the
    residual accumulated in extended precision, which restores forward accuracy
    on the badly conditioned rank-one-plus-delta systems of the far-shift
    limit. With extended=True the whole solve runs in long double so that delta
    is not absorbed into the diagonal's float64 ulp; use it when validating
    closed forms at tolerances near 1e-8. It raises NumericalFailure where
    long double is no wider than float64.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1 or y.size != gram.n:
        raise DimensionError(f"labels shape {y.shape} does not match gram size {gram.n}")
    delta = cfg.resolve(gram)
    ynorm = float(np.linalg.norm(y))

    if extended:
        _require_wide_longdouble("tikhonov_solve(extended=True)")
        g_ld = gram.entries.astype(np.longdouble) + np.longdouble(delta) * np.eye(gram.n, dtype=np.longdouble)
        alpha_ld, pivots = _cholesky_solve_longdouble(g_ld, y)
        resid = float(np.linalg.norm((g_ld @ alpha_ld - y.astype(np.longdouble)).astype(np.float64)))
        alpha = alpha_ld.astype(np.float64)
    else:
        g = gram.entries + delta * np.eye(gram.n)
        try:
            factor = sla.cho_factor(g)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"Cholesky breakdown: {exc}") from exc
        pivots = np.diag(factor[0])
        alpha = sla.cho_solve(factor, y)
        g_ld = g.astype(np.longdouble)
        y_ld = y.astype(np.longdouble)
        for _ in range(2):
            r = y_ld - g_ld @ alpha.astype(np.longdouble)
            alpha = (alpha.astype(np.longdouble) + sla.cho_solve(factor, np.asarray(r, dtype=np.float64))).astype(
                np.float64
            )
        resid = float(np.linalg.norm((g_ld @ alpha.astype(np.longdouble) - y_ld).astype(np.float64)))

    if ynorm > 0 and resid > RESIDUAL_BOUND * ynorm:
        # cond(L L^T) = cond(L)^2, and cond(L) is at least the ratio of L's
        # extreme diagonal entries, its eigenvalues: a bound that costs no SVD.
        cond_floor = float(np.max(pivots) / np.min(pivots)) ** 2
        raise NumericalFailure(
            f"solve residual {resid:.3e} exceeds {RESIDUAL_BOUND:.0e} * |Y|, "
            f"condition lower bound {cond_floor:.3e}"
        )
    return AlphaVector(values=alpha, delta=delta, residual=resid, mode=gram.mode)

