"""Gram assembly, the rank-one closed forms, and regularized solves.

Closed forms are checked against dense numerical inversion, never against
themselves; the frozen decimal expectations below were produced by that
oracle.
"""

import itertools

import numpy as np
import pytest

from ntkorigin import gram
from ntkorigin import (
    ANALYTIC,
    DimensionError,
    Direction,
    InvalidInput,
    InvalidRegularization,
    MonteCarlo,
    NumericalFailure,
    Point,
    Realization,
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
        phi = Realization((Point([0.0]),))
        ts = shift_set(phi, Direction([1.0]), 0.0, LinearTarget(a=[0.0], b=1.0))
        km = assemble_gram(ts, ANALYTIC)
        assert km.entries[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_exact_symmetry_and_ntk_consistency(self):
        rng = np.random.default_rng(2)
        phi = Realization(tuple(Point(r) for r in rng.uniform(-1, 1, (5, 3))))
        ts = shift_set(phi, Direction([1.0, 0.0, 0.0]), 7.0, SinusoidalTarget(u=[1.0, 1.0, 0.0]))
        fs = sample_features(3, 2000, seed=6)
        for mode in (ANALYTIC, MonteCarlo(fs)):
            km = assemble_gram(ts, mode)
            assert np.array_equal(km.entries, km.entries.T)
            for i in range(ts.n):
                for j in range(i, ts.n):
                    assert km.entries[i, j] == ntk(ts.augmented[i], ts.augmented[j], mode).value

    def test_duplicate_points_duplicate_rows(self):
        phi = Realization((Point([0.5, 0.5]), Point([0.5, 0.5]), Point([-1.0, 0.2])))
        ts = shift_set(phi, Direction([0.0, 1.0]), 3.0, SinusoidalTarget(u=[1.0, 0.0]))
        km = assemble_gram(ts, ANALYTIC)
        assert np.array_equal(km.entries[0], km.entries[1])

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        phi = Realization(tuple(Point(r) for r in rng.uniform(-1, 1, (8, 2))))
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
        phi = Realization(tuple(Point(r) for r in rng.uniform(-1, 1, (6, 2))))
        ts = shift_set(phi, Direction([0.8, 0.6]), 1000.0, SinusoidalTarget(u=[1.0, -1.0]))
        km = assemble_gram(ts, ANALYTIC)
        alpha = tikhonov_solve(km, TikhonovConfig(delta=1e-8, mode="relative"), ts.labels)
        assert alpha.residual <= 1e-8 * np.linalg.norm(ts.labels)

    @pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "mc"])
    def test_alpha_carries_the_mode_of_its_gram(self, sampled):
        rng = np.random.default_rng(4)
        phi = Realization(tuple(Point(r) for r in rng.uniform(-1, 1, (4, 2))))
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


class TestFailureMessages:
    """Failure messages are built from the Cholesky factor, never from an SVD."""

    @pytest.fixture(autouse=True)
    def _no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a failure message ran an SVD")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)

    def test_breakdown_names_the_failing_minor(self):
        indefinite = gram.GramMatrix(entries=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NumericalFailure, match="Cholesky breakdown.*minor"):
            tikhonov_solve(indefinite, TikhonovConfig(delta=1e-3), np.ones(2))

    @pytest.mark.parametrize("extended", [False, True])
    def test_residual_gate_reports_a_condition_lower_bound(self, extended):
        labels = np.linspace(-1.0, 1.0, 8)
        with pytest.raises(NumericalFailure, match="condition lower bound") as info:
            tikhonov_solve(asymptotic_gram(8, 1.0, 1e6), TikhonovConfig(delta=1.0), labels, extended=extended)
        # The bound is (max / min pivot)^2, below the true condition 8e12 + 1.
        bound = float(str(info.value).rsplit(" ", 1)[1])
        assert 1.0 < bound <= 8e12 + 1.0


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
        rng = np.random.default_rng(42)
        for n, kappa, t in GRID + [(64, 1.0, 100.0)]:
            for delta in _grid_delta(kappa, t):
                y = rng.standard_normal(n)
                closed = asymptotic_alpha(y, n, kappa, t, delta)
                solved = tikhonov_solve(
                    asymptotic_gram(n, kappa, t), TikhonovConfig(delta=delta), y, extended=True
                )
                scale = np.abs(closed.values).max()
                assert np.abs(closed.values - solved.values).max() <= 1e-8 * scale

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


class TestGramLimit:
    def test_entry_error_decays_like_one_over_t(self):
        rng = np.random.default_rng(11)
        phi = Realization(tuple(Point(r) for r in rng.uniform(-1, 1, (8, 2))))
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
