"""Gram assembly, the rank-one closed forms, and regularized solves.

Closed forms are checked against dense numerical inversion, never against
themselves; the frozen decimal expectations below were produced by that
oracle.
"""

import itertools
import warnings

import numpy as np
import pytest
from conftest import run_fresh

from ntkorigin import gram
from ntkorigin import (
    ANALYTIC,
    DimensionError,
    Direction,
    InvalidInput,
    InvalidRegularization,
    MonteCarlo,
    NumericalFailure,
    SinusoidalTarget,
    LinearTarget,
    TikhonovConfig,
    assemble_gram,
    asymptotic_alpha,
    asymptotic_gram,
    ntk,
    sample_features,
    sherman_morrison_inverse,
    shift_set,
    tikhonov_solve,
)

GRID = list(itertools.product([1, 2, 8, 32], [0.5, 1.0, 4.0], [10.0, 100.0, 1000.0]))


def _grid_delta(kappa, t):
    return [1e-2, 1e-6 * kappa * t * t]


class TestAssembleGram:
    def test_single_origin_point(self):
        phi = np.array([[0.0]])
        ts = shift_set(phi, Direction([1.0]), 0.0, LinearTarget(a=[0.0], b=1.0))
        km = assemble_gram(ts, ANALYTIC)
        assert km.entries[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_exact_symmetry_and_ntk_consistency(self):
        rng = np.random.default_rng(2)
        phi = rng.uniform(-1, 1, (5, 3))
        ts = shift_set(phi, Direction([1.0, 0.0, 0.0]), 7.0, SinusoidalTarget(u=[1.0, 1.0, 0.0]))
        fs = sample_features(3, 2000, seed=6)
        for mode in (ANALYTIC, MonteCarlo(fs)):
            km = assemble_gram(ts, mode)
            assert np.array_equal(km.entries, km.entries.T)
            for i in range(ts.n):
                for j in range(i, ts.n):
                    assert km.entries[i, j] == ntk(ts.augmented[i], ts.augmented[j], mode).value

    def test_duplicate_points_duplicate_rows(self):
        phi = np.array([[0.5, 0.5], [0.5, 0.5], [-1.0, 0.2]])
        ts = shift_set(phi, Direction([0.0, 1.0]), 3.0, SinusoidalTarget(u=[1.0, 0.0]))
        km = assemble_gram(ts, ANALYTIC)
        assert np.array_equal(km.entries[0], km.entries[1])

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        phi = rng.uniform(-1, 1, (8, 2))
        ts = shift_set(phi, Direction([0.8, 0.6]), 100.0, SinusoidalTarget(u=[1.0, 2.0]))
        km = assemble_gram(ts, ANALYTIC)
        trace = float(np.trace(km.entries))
        assert np.linalg.eigvalsh(km.entries)[0] >= -1e-8 * trace / km.n


class TestAsymptoticGram:
    def test_constant_entries(self):
        km = asymptotic_gram(2, kappa=2.0, t=3.0)
        assert np.array_equal(km.entries, np.full((2, 2), 18.0))

    def test_unit_case(self):
        assert asymptotic_gram(1, 1.0, 1.0).entries.tolist() == [[1.0]]

    def test_t_whose_square_overflows_is_invalid_input(self):
        # Python's float(t) ** 2 raises a bare OverflowError past t ~ 1.34e154.
        with pytest.raises(InvalidInput, match="kappa t\\^2 overflows float64"):
            asymptotic_gram(2, 1.0, 1e200)


class TestShermanMorrison:
    def test_frozen_two_by_two(self):
        # Oracle: np.linalg.inv(0.01*I + 100*J) gives these digits.
        got = sherman_morrison_inverse(2, kappa=1.0, t=10.0, delta=0.01)
        assert got[0, 0] == pytest.approx(50.002499875006246, rel=1e-12)
        assert got[0, 1] == pytest.approx(-49.99750012499375, rel=1e-12)

    def test_zero_kappa_is_scaled_identity(self):
        got = sherman_morrison_inverse(3, kappa=0.0, t=10.0, delta=0.25)
        assert np.array_equal(got, 4.0 * np.eye(3))

    def test_scalar_case(self):
        got = sherman_morrison_inverse(1, kappa=1.0, t=1.0, delta=1.0)
        assert got[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            kappa = float(rng.uniform(0.1, 5))
            t = float(rng.uniform(1, 100))
            delta = float(rng.uniform(1e-4, 1))
            dense = np.linalg.inv(kappa * t * t * np.ones((n, n)) + delta * np.eye(n))
            got = sherman_morrison_inverse(n, kappa, t, delta)
            np.testing.assert_allclose(got, dense, rtol=1e-8)

    def test_identity_product_over_grid(self):
        for n, kappa, t in GRID:
            for delta in _grid_delta(kappa, t):
                inv = sherman_morrison_inverse(n, kappa, t, delta)
                direct = (
                    np.longdouble(kappa) * np.longdouble(t) ** 2 * np.ones((n, n), dtype=np.longdouble)
                    + np.longdouble(delta) * np.eye(n, dtype=np.longdouble)
                )
                resid = float(np.abs(inv @ direct - np.eye(n, dtype=np.longdouble)).max())
                assert resid < 1e-8, (n, kappa, t, delta, resid)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(InvalidRegularization):
            sherman_morrison_inverse(2, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("delta", [np.inf, np.nan])
    def test_non_finite_delta_rejected(self, delta):
        # Without the guard an infinite delta gives a NaN matrix.
        with pytest.raises(InvalidRegularization, match="positive and finite"):
            sherman_morrison_inverse(2, 1.0, 10.0, delta)


class TestTikhonovSolve:
    def test_scalar(self):
        alpha = tikhonov_solve(asymptotic_gram(1, 1.0, 1.0), TikhonovConfig(delta=1.0), np.array([2.0]))
        assert alpha.values[0] == pytest.approx(1.0, rel=1e-15)
        assert alpha.delta == 1.0

    def test_frozen_asymptotic_case(self):
        # Oracle: dense solve of (0.01*I + 100*J) alpha = [1, 2].
        alpha = tikhonov_solve(
            asymptotic_gram(2, 1.0, 10.0), TikhonovConfig(delta=0.01), np.array([1.0, 2.0]), extended=True
        )
        np.testing.assert_allclose(alpha.values, [-49.992500374981256, 50.007499625018744], rtol=1e-10)

    def test_zero_labels(self):
        alpha = tikhonov_solve(asymptotic_gram(4, 1.0, 10.0), TikhonovConfig(delta=0.5), np.zeros(4))
        assert np.array_equal(alpha.values, np.zeros(4))

    def test_relative_mode_scales_with_diagonal(self):
        km = asymptotic_gram(3, 2.0, 10.0)
        alpha = tikhonov_solve(km, TikhonovConfig(delta=1e-8, mode="relative"), np.ones(3))
        assert alpha.delta == pytest.approx(1e-8 * 200.0)

    def test_residual_bound_enforced(self):
        rng = np.random.default_rng(1)
        phi = rng.uniform(-1, 1, (6, 2))
        ts = shift_set(phi, Direction([0.8, 0.6]), 1000.0, SinusoidalTarget(u=[1.0, -1.0]))
        km = assemble_gram(ts, ANALYTIC)
        alpha = tikhonov_solve(km, TikhonovConfig(delta=1e-8, mode="relative"), ts.labels)
        assert alpha.residual <= 1e-8 * np.linalg.norm(ts.labels)

    @pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "mc"])
    def test_alpha_carries_the_mode_of_its_gram(self, sampled):
        rng = np.random.default_rng(4)
        phi = rng.uniform(-1, 1, (4, 2))
        ts = shift_set(phi, Direction([0.8, 0.6]), 10.0, SinusoidalTarget(u=[1.0, -1.0]))
        mode = MonteCarlo(sample_features(2, 500, seed=8)) if sampled else ANALYTIC
        km = assemble_gram(ts, mode)
        assert km.mode is mode
        assert tikhonov_solve(km, TikhonovConfig(delta=1e-6, mode="relative"), ts.labels).mode is mode

    def test_regularized_matrix_stays_positive(self):
        # delta chosen large enough that eigensolver noise (~|K| * n * eps)
        # stays below the 1e-8 * delta verification margin.
        km = asymptotic_gram(5, 1.0, 100.0)
        delta = 1.0
        full = km.entries + delta * np.eye(5)
        assert np.linalg.eigvalsh(full)[0] >= delta * (1 - 1e-8)


# Factors and solves two grams with the module's LAPACK pair, then with
# scipy.linalg's cho_factor and cho_solve, and compares the bits. The first is
# `theorem1`'s analytic gram at n=128, t=1e4 and config seed 1, whose alpha the
# benchmark's reference check gates bit for bit; the second a random SPD gram.
_SAME_BITS = """
import sys
{first}
import numpy as np
from ntkorigin import ANALYTIC, gram, shift_set
from ntkorigin.configs import delta_from_config, overlay_config
from ntkorigin.runner import _scenario

cfg = overlay_config("theorem1", {{"seed": 1, "n": 128, "mode": "analytic"}})
_, phi, target, v_phi = _scenario(cfg)
ts = shift_set(phi, v_phi, 1e4, target)
km = gram.assemble_gram(ts, ANALYTIC)
rng = np.random.default_rng(5)
a = rng.standard_normal((40, 40))
cases = [
    (km.entries + delta_from_config(cfg["delta"]).resolve(km) * np.eye(km.n), ts.labels),
    (a @ a.T + 1e-3 * np.eye(40), rng.standard_normal(40)),
]
ours = []
for g, b in cases:
    c = gram._cho_factor(g)
    ours.append((c, gram._cho_solve(c, b)))
assert ("scipy.linalg" in sys.modules) == {scipy_first}
import scipy.linalg as sla
for (g, b), (c, x) in zip(cases, ours):
    factor = sla.cho_factor(g)
    assert factor[1] is False
    assert np.array_equal(c, factor[0]), "factor"
    assert np.array_equal(x, sla.cho_solve(factor, b)), "solve"
print("same bits")
"""


class TestLapackPair:
    """`tikhonov_solve` factors and solves with scipy's compiled LAPACK, loaded
    without `scipy.linalg`, and keeps `cho_factor`/`cho_solve`'s bits and checks."""

    @pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-linalg-first", "gram-first"])
    def test_same_bits_as_cho_factor_and_cho_solve(self, scipy_first):
        code = _SAME_BITS.format(first="import scipy.linalg" if scipy_first else "", scipy_first=scipy_first)
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "same bits\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_a_value_error(self, bad):
        g = 2.0 * np.eye(3)
        g[1, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            gram._cho_factor(g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_labels_are_a_value_error(self, bad):
        with pytest.raises(ValueError, match="infs or NaNs"):
            tikhonov_solve(asymptotic_gram(3, 1.0, 10.0), TikhonovConfig(delta=0.01), np.array([1.0, bad, 0.0]))

    def test_empty_gram_gives_an_empty_alpha(self):
        alpha = tikhonov_solve(gram.GramMatrix(entries=np.zeros((0, 0))), TikhonovConfig(delta=1e-3), np.zeros(0))
        assert alpha.values.shape == (0,) and alpha.residual == 0.0

    def test_input_is_not_overwritten(self):
        # Fortran order, the one layout LAPACK could factor in place.
        g = np.asfortranarray([[4.0, 2.0], [2.0, 3.0]])
        kept = g.copy()
        gram._cho_solve(gram._cho_factor(g), np.ones(2))
        assert np.array_equal(g, kept)

    def test_missing_flapack_fails_the_import_naming_the_directory(self, tmp_path):
        # A scipy package without the compiled module shadows the real one.
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        proc = run_fresh("import ntkorigin", path=(tmp_path,))
        assert proc.returncode != 0
        assert "ImportError: scipy's compiled LAPACK module _flapack was not found in" in proc.stderr
        assert str(tmp_path / "scipy" / "linalg") in proc.stderr


class TestFailureMessages:
    """Failure messages are built from the Cholesky factor, never from an SVD."""

    @pytest.fixture(autouse=True)
    def _no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a failure message ran an SVD")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)

    @pytest.mark.parametrize("extended", [False, True])
    def test_breakdown_names_the_failing_minor(self, extended):
        indefinite = gram.GramMatrix(entries=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NumericalFailure) as info:
            tikhonov_solve(indefinite, TikhonovConfig(delta=1e-3), np.ones(2), extended=extended)
        assert str(info.value) == "Cholesky breakdown: 2-th leading minor of the array is not positive definite"

    @pytest.mark.parametrize("extended", [False, True])
    def test_residual_gate_reports_a_condition_lower_bound(self, extended):
        labels = np.linspace(-1.0, 1.0, 8)
        with pytest.raises(NumericalFailure, match="condition lower bound") as info:
            tikhonov_solve(asymptotic_gram(8, 1.0, 1e6), TikhonovConfig(delta=1.0), labels, extended=extended)
        # The bound is (max / min pivot)^2, below the true condition 8e12 + 1.
        bound = float(str(info.value).rsplit(" ", 1)[1])
        assert 1.0 < bound <= 8e12 + 1.0


class TestExtendedMode:
    """extended=True refines the float64 mode's LAPACK factor. It keeps its
    iterate in long double, which meets the residual gate where rounding the
    iterate to float64 after each step cannot."""

    @pytest.mark.parametrize("extended", [False, True])
    def test_one_factor_per_solve(self, extended, monkeypatch):
        calls = []
        factor = gram._cho_factor

        def counted(g):
            calls.append(g.shape)
            return factor(g)

        monkeypatch.setattr(gram, "_cho_factor", counted)
        labels = np.linspace(-1.0, 1.0, 8)
        tikhonov_solve(asymptotic_gram(8, 1.0, 100.0), TikhonovConfig(delta=1e-2), labels, extended=extended)
        assert calls == [(8, 8)]

    def test_passes_where_the_float64_gate_fails(self):
        # One of the six `inverse-check` alpha cells whose float64 solve fails:
        # |G| |alpha| eps64 is about 1e-6, above the gate's 1e-8 |Y|.
        n, kappa, t, delta = 32, 4.0, 1e3, 1e-2
        labels = np.random.default_rng(0).standard_normal(n)
        km = asymptotic_gram(n, kappa, t)
        with pytest.raises(NumericalFailure, match="condition lower bound"):
            tikhonov_solve(km, TikhonovConfig(delta=delta), labels)
        solved = tikhonov_solve(km, TikhonovConfig(delta=delta), labels, extended=True)
        closed = asymptotic_alpha(labels, n, kappa, t, delta)
        assert np.abs(closed.values - solved.values).max() <= 1e-9 * np.abs(closed.values).max()


class TestLongDoubleGuard:
    """The extended-precision paths refuse a long double that is only float64."""

    def test_narrow_long_double_rejected(self, monkeypatch):
        monkeypatch.setattr(gram, "_LONGDOUBLE_IS_WIDER", False)
        with pytest.raises(NumericalFailure, match="long double"):
            tikhonov_solve(asymptotic_gram(2, 1.0, 10.0), TikhonovConfig(delta=0.01), np.ones(2), extended=True)
        with pytest.raises(NumericalFailure, match="long double"):
            sherman_morrison_inverse(2, 1.0, 10.0, 0.01)
        # The float64 solve is not guarded.
        tikhonov_solve(asymptotic_gram(2, 1.0, 10.0), TikhonovConfig(delta=0.01), np.ones(2))


class TestAsymptoticAlpha:
    def test_frozen_pair(self):
        alpha = asymptotic_alpha(np.array([1.0, 2.0]), n=2, kappa=1.0, t=10.0, delta=0.01)
        np.testing.assert_allclose(alpha.values, [-49.992500374981256, 50.007499625018744], rtol=1e-14)

    def test_equal_labels_simplification(self):
        y0 = 0.7
        alpha = asymptotic_alpha(np.full(4, y0), n=4, kappa=2.0, t=10.0, delta=0.3)
        np.testing.assert_allclose(alpha.values, y0 / (4 * 2.0 * 100.0 + 0.3), rtol=1e-14)

    def test_zero_labels(self):
        alpha = asymptotic_alpha(np.zeros(3), n=3, kappa=1.0, t=10.0, delta=0.1)
        assert np.array_equal(alpha.values, np.zeros(3))

    def test_agrees_with_solver_over_grid(self):
        # This deviation is `inverse-check`'s alpha residual, and 1e-9 is the
        # absolute tolerance the benchmark's reference check puts on it
        # (perfbench/checks.py): a drift that would break the `origin-mc`
        # references fails here first.
        rng = np.random.default_rng(42)
        for n, kappa, t in GRID + [(64, 1.0, 100.0)]:
            for delta in _grid_delta(kappa, t):
                y = rng.standard_normal(n)
                closed = asymptotic_alpha(y, n, kappa, t, delta)
                solved = tikhonov_solve(
                    asymptotic_gram(n, kappa, t), TikhonovConfig(delta=delta), y, extended=True
                )
                scale = np.abs(closed.values).max()
                assert np.abs(closed.values - solved.values).max() <= 1e-9 * scale

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(InvalidRegularization):
            asymptotic_alpha(np.ones(2), 2, 1.0, 1.0, -1.0)

    @pytest.mark.parametrize("kappa, t", [(-1.0, 10.0), (1.0, -10.0), (np.nan, 10.0)])
    def test_negative_kappa_or_t_rejected(self, kappa, t):
        # Without the guard kappa = -1 gives [-0.5075, 0.4925].
        with pytest.raises(InvalidInput, match="nonnegative"):
            asymptotic_alpha(np.array([1.0, 2.0]), 2, kappa, t, 1.0)

    def test_empty_set_rejected(self):
        with pytest.raises(DimensionError, match="n must be >= 1"):
            asymptotic_alpha(np.ones(0), 0, 1.0, 10.0, 1.0)

    @pytest.mark.parametrize("n, kappa, t, delta", [
        (2, 4.0, 1e154, 0.01),
        (2, 4.0, 1e154, 4e300),
        (2, 1.0, 1e150, 1e10),
        (2, 1.0, 1e200, 1.0),
    ], ids=["n-kappa-t2-overflows", "relative-delta", "delta-times-sum-overflows", "t-squared-overflows"])
    def test_overflowing_denominator_is_invalid_input_without_a_warning(self, n, kappa, t, delta):
        # The third case has a finite n kappa t^2; unchecked, its inf
        # denominator would give an alpha of zeros. In the fourth, Python's
        # float(t) ** 2 would raise a bare OverflowError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="overflows float64"):
                asymptotic_alpha(np.array([1.0, 2.0]), n, kappa, t, delta)


class TestGramLimit:
    def test_entry_error_decays_like_one_over_t(self):
        rng = np.random.default_rng(11)
        phi = rng.uniform(-1, 1, (8, 2))
        v = Direction([0.8, 0.6])
        g = SinusoidalTarget(u=[1.3, -0.7], phase=0.4)
        kap = v.norm**2
        errs = []
        ts_list = [100.0, 1000.0, 10000.0]
        for t in ts_list:
            km = assemble_gram(shift_set(phi, v, t, g), ANALYTIC)
            errs.append(np.abs(km.entries / t**2 - kap).max())
        slope = np.polyfit(np.log(ts_list), np.log(errs), 1)[0]
        assert -1.3 <= slope <= -0.7
