"""Gram assembly and Tikhonov solves.

Solves never form an inverse. Each factors K + delta*I once, in float64, and
refines against a long-double residual; the extended mode, used to validate
closed forms, differs only in adding delta and keeping its iterate in long
double. The far-shift closed forms of the gram, its inverse and its alpha
live in `limits`.

The factor and its substitution solves are LAPACK's `dpotrf`/`dpotrs` from
scipy's compiled wrapper module `_flapack`, loaded on its own: importing
`scipy.linalg` would also load numpy submodules nothing here uses, at several
times the cost. scipy's LAPACK, not numpy's: numpy links another OpenBLAS
build and has no Cholesky solve, so its route changes alpha's last bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DimensionError,
    InvalidInput,
    InvalidRegularization,
    NumericalFailure,
)
from .geometry import ShiftedTrainingSet
from .kernel import ANALYTIC, KernelMode, kernel_matrix

RESIDUAL_BOUND = 1e-8


def _load_flapack():
    """scipy's `_flapack` extension module, found and loaded without importing scipy."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("ntkorigin needs scipy's compiled LAPACK module _flapack, and scipy is not installed")
    search = [os.path.join(root, "linalg") for root in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("_flapack", search)
    if spec is None:
        raise ImportError(f"scipy's compiled LAPACK module _flapack was not found in {', '.join(search)}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()


def _cho_factor(g: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of g, called as `scipy.linalg.cho_factor` calls it.

    The strict lower triangle keeps g's entries. g itself is never
    overwritten, because the refinement's long-double residual reads it.
    """
    c, info = _FLAPACK.dpotrf(np.asarray_chkfinite(g), lower=0, clean=0, overwrite_a=0)
    if info > 0:
        raise NumericalFailure(
            f"Cholesky breakdown: {info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument on entry to DPOTRF")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with the upper factor of `_cho_factor`, as `scipy.linalg.cho_solve` does."""
    b = np.asarray_chkfinite(b)
    if b.size == 0:  # dpotrs's wrapper rejects an empty system
        return np.empty_like(b)
    x, info = _FLAPACK.dpotrs(c, b, lower=0, overwrite_b=0)
    if info != 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument on entry to DPOTRS")
    return x


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


def tikhonov_solve(
    gram: GramMatrix,
    cfg: TikhonovConfig,
    labels: np.ndarray,
    extended: bool = False,
) -> AlphaVector:
    """Solve (K + delta I) alpha = Y by Cholesky factorization.

    Both modes factor K + delta*I once with LAPACK's `dpotrf` and solve with
    `dpotrs`, called as `scipy.linalg.cho_factor` and `cho_solve` call them,
    then take two steps of iterative refinement against a residual
    accumulated in long double. That restores forward accuracy on the badly
    conditioned rank-one-plus-delta systems of the far-shift limit. By
    default the iterate is rounded to float64 after each step.

    extended=True changes two things, for validating closed forms at
    tolerances near 1e-8: the residual's matrix adds delta to K in long
    double, so delta is not absorbed into the diagonal's float64 ulp, and
    the iterate stays in long double between steps. It raises
    NumericalFailure where long double is no wider than float64.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1 or y.size != gram.n:
        raise DimensionError(f"labels shape {y.shape} does not match gram size {gram.n}")
    delta = cfg.resolve(gram)
    ynorm = float(np.linalg.norm(y))
    if extended:
        _require_wide_longdouble("tikhonov_solve(extended=True)")

    g = gram.entries + delta * np.eye(gram.n)
    factor = _cho_factor(g)
    if extended:
        g_ld = gram.entries.astype(np.longdouble) + np.longdouble(delta) * np.eye(gram.n, dtype=np.longdouble)
    else:
        g_ld = g.astype(np.longdouble)
    iterate = np.longdouble if extended else np.float64
    y_ld = y.astype(np.longdouble)
    alpha = _cho_solve(factor, y)
    for _ in range(2):
        r = y_ld - g_ld @ alpha.astype(np.longdouble)
        alpha = (alpha.astype(np.longdouble) + _cho_solve(factor, np.asarray(r, dtype=np.float64))).astype(iterate)
    resid = float(np.linalg.norm((g_ld @ alpha.astype(np.longdouble) - y_ld).astype(np.float64)))

    if ynorm > 0 and resid > RESIDUAL_BOUND * ynorm:
        # cond(L L^T) = cond(L)^2, and cond(L) is at least the ratio of L's
        # extreme diagonal entries, its eigenvalues: a bound that costs no SVD.
        pivots = np.diag(factor)
        cond_floor = float(np.max(pivots) / np.min(pivots)) ** 2
        raise NumericalFailure(
            f"solve residual {resid:.3e} exceeds {RESIDUAL_BOUND:.0e} * |Y|, "
            f"condition lower bound {cond_floor:.3e}"
        )
    return AlphaVector(values=alpha, delta=delta, residual=resid, mode=gram.mode)

