"""Beta blocks, closed forms, predictor equivalence and bias sensitivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkorigin import (
    ANALYTIC,
    AlphaVector,
    BoundaryTooClose,
    DimensionError,
    Direction,
    FeatureSample,
    InvalidInput,
    InvalidRegularization,
    FeatureSpacePredictor,
    LinearTarget,
    MissingFeatureSample,
    MonteCarlo,
    Point,
    PointWisePredictor,
    Realization,
    SinusoidalTarget,
    TikhonovConfig,
    assemble_gram,
    beta_from_alpha,
    bias_slopes,
    closed_form_context,
    kernel_matrix,
    predict,
    sample_features,
    shift_set,
    tikhonov_solve,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def _training_set(seed=3, n=4, d=2, t=100.0):
    rng = np.random.default_rng(seed)
    phi = Realization(tuple(Point(r) for r in rng.uniform(-1, 1, (n, d))))
    v = Direction([0.6, -0.8])
    g = SinusoidalTarget(u=[0.9, 0.4], phase=0.1)
    return shift_set(phi, v, t, g), phi, v, g


class TestBetaFromAlpha:
    def test_zero_alpha_gives_zero_blocks(self):
        ts, *_ = _training_set()
        fs = sample_features(2, 16, seed=1)
        beta = beta_from_alpha(ts, AlphaVector(values=np.zeros(ts.n), delta=1.0, mode=MonteCarlo(fs)))
        assert np.array_equal(beta.beta1, np.zeros((16, 3)))
        assert np.array_equal(beta.beta2, np.zeros(16))

    def test_single_point_single_feature(self):
        phi = Realization((Point([1.0, 2.0]),))
        ts = shift_set(phi, Direction([1.0, 0.0]), 0.0, LinearTarget(a=[1.0, 0.0]))
        w = np.array([[0.5, 0.5, 0.5]])  # active on [1, 2, 1]
        fs = FeatureSample(weights=w)
        a = 0.7
        beta = beta_from_alpha(ts, AlphaVector(values=np.array([a]), delta=1.0, mode=MonteCarlo(fs)))
        np.testing.assert_allclose(beta.beta1[0], a * np.array([1.0, 2.0, 1.0]), rtol=0)
        assert beta.beta2[0] == pytest.approx(a * 2.0, rel=1e-15)

    def test_inactive_feature_zero_block(self):
        phi = Realization((Point([1.0, 2.0]),))
        ts = shift_set(phi, Direction([1.0, 0.0]), 0.0, LinearTarget(a=[1.0, 0.0]))
        fs = FeatureSample(weights=np.array([[-1.0, -1.0, -1.0]]))
        beta = beta_from_alpha(ts, AlphaVector(values=np.array([2.0]), delta=1.0, mode=MonteCarlo(fs)))
        assert np.array_equal(beta.beta1, np.zeros((1, 3)))
        assert np.array_equal(beta.beta2, np.zeros(1))

    def test_blocks_use_the_sample_of_the_gram(self):
        ts, *_ = _training_set()
        fs = sample_features(2, 8, seed=1)
        alpha = tikhonov_solve(assemble_gram(ts, MonteCarlo(fs)), TikhonovConfig(delta=1e-8, mode="relative"), ts.labels)
        assert beta_from_alpha(ts, alpha).features is fs

    def test_analytic_alpha_rejected(self):
        ts, *_ = _training_set()
        alpha = tikhonov_solve(assemble_gram(ts, ANALYTIC), TikhonovConfig(delta=1e-8, mode="relative"), ts.labels)
        with pytest.raises(MissingFeatureSample, match="analytic"):
            beta_from_alpha(ts, alpha)


def _closed_blocks(ctx, fs):
    """The closed-form blocks of every feature in the sample, row by row."""
    beta1 = np.array([ctx.beta1_at(w) for w in fs.weights])
    beta2 = np.array([ctx.beta2_at(w) for w in fs.weights])
    return beta1, beta2


class TestBetaClosedForm:
    def test_inactive_limit_indicator_zeroes_block(self):
        ts, _, v, _ = _training_set()
        fs = sample_features(2, 64, seed=9)
        beta1, beta2 = _closed_blocks(closed_form_context(ts, kappa=1.0, delta=0.5), fs)
        inactive = (fs.weights @ -np.append(v.coords, 0.0)) < 0
        assert np.array_equal(beta1[inactive], np.zeros((inactive.sum(), 3)))
        assert np.array_equal(beta2[inactive], np.zeros(inactive.sum()))

    def test_zero_target_zero_blocks(self):
        _, phi, v, _ = _training_set()
        fs = sample_features(2, 16, seed=9)
        ts = shift_set(phi, v, 100.0, LinearTarget(a=[0.0, 0.0], b=0.0))
        beta1, beta2 = _closed_blocks(closed_form_context(ts, kappa=1.0, delta=0.5), fs)
        assert np.array_equal(beta1, np.zeros_like(beta1))
        assert np.array_equal(beta2, np.zeros_like(beta2))

    def test_deviation_from_sampled_blocks_shrinks_with_t(self):
        """Oracle: beta blocks from the solved finite-t Monte Carlo gram; the
        closed form is their limit, with delta = t^1.5 keeping the Tikhonov
        term dominant over the order-t gram remainder."""
        _, phi, v, g = _training_set()
        kappa = v.norm**2
        fs = sample_features(2, 2000, seed=99)
        devs = []
        for t in (100.0, 1000.0, 10000.0):
            ts = shift_set(phi, v, t, g)
            delta = t**1.5
            km = assemble_gram(ts, MonteCarlo(fs))
            alpha = tikhonov_solve(km, TikhonovConfig(delta=delta), ts.labels)
            sampled = beta_from_alpha(ts, alpha)
            beta1, beta2 = _closed_blocks(closed_form_context(ts, kappa=kappa, delta=delta), fs)
            active = np.abs(beta2) > 0
            d1 = np.abs(beta1[active] - sampled.beta1[active]).max() / np.abs(beta1[active]).max()
            d2 = np.abs(beta2[active] - sampled.beta2[active]).max() / np.abs(beta2[active]).max()
            devs.append(max(d1, d2))
        assert devs[2] < devs[1] < devs[0]


class TestPredict:
    def test_zero_labels_zero_everywhere(self):
        ts, *_ = _training_set()
        zero_ts = shift_set(ts.realization, ts.direction, ts.t, LinearTarget(a=[0.0, 0.0], b=0.0))
        alpha = tikhonov_solve(assemble_gram(zero_ts, ANALYTIC), TikhonovConfig(delta=0.5), zero_ts.labels)
        pred = PointWisePredictor(training=zero_ts, alpha=alpha)
        for x in ([0.0, 0.0], [1.0, -1.0], [10.0, 3.0]):
            assert predict(pred, Point(x)) == 0.0

    def test_single_point_ridge_identity(self):
        phi = Realization((Point([0.4, -0.3]),))
        g = LinearTarget(a=[0.0, 0.0], b=2.0)
        ts = shift_set(phi, Direction([1.0, 0.0]), 5.0, g)
        delta = 0.25
        km = assemble_gram(ts, ANALYTIC)
        alpha = tikhonov_solve(km, TikhonovConfig(delta=delta), ts.labels)
        pred = PointWisePredictor(training=ts, alpha=alpha)
        z = Point(ts.shifted[0])
        kzz = km.entries[0, 0]
        expected = kzz / (kzz + delta) * 2.0
        assert predict(pred, z) == pytest.approx(expected, rel=1e-12)
        assert predict(pred, z) < 2.0

    def test_pointwise_equals_feature_space(self):
        ts, *_ = _training_set(n=8, t=100.0)
        fs = sample_features(2, 10**4, seed=44)
        km = assemble_gram(ts, MonteCarlo(fs))
        alpha = tikhonov_solve(km, TikhonovConfig(delta=1e-8, mode="relative"), ts.labels)
        pw = PointWisePredictor(training=ts, alpha=alpha)
        fsp = FeatureSpacePredictor(beta=beta_from_alpha(ts, alpha))
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = Point(rng.uniform(-3, 3, 2))
            a = predict(pw, x)
            b = predict(fsp, x)
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


class TestBatchedPredict:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        m=st.integers(1, 8),
        t=st.floats(0.0, 1e4),
        k=st.integers(1, 300),
    )
    def test_batched_equals_per_point(self, seed, n, m, t, k):
        rng = np.random.default_rng(seed)
        phi = Realization(tuple(Point(r) for r in rng.uniform(-1, 1, (n, 2))))
        ts = shift_set(phi, Direction(rng.standard_normal(2)), t, SinusoidalTarget(u=[1.3, -0.7], phase=0.4))
        values = rng.standard_normal(n)
        analytic = AlphaVector(values=values, delta=1.0)
        sampled = AlphaVector(values=values, delta=1.0, mode=MonteCarlo(sample_features(2, k, seed=seed)))
        xs = rng.uniform(-3, 3, (m, 2))
        xa = np.hstack([xs, np.ones((m, 1))])
        for pred in (
            PointWisePredictor(training=ts, alpha=analytic),
            PointWisePredictor(training=ts, alpha=sampled),
            FeatureSpacePredictor(beta=beta_from_alpha(ts, sampled)),
        ):
            batch = predict(pred, xs)
            assert batch.shape == (m,)
            if isinstance(pred, PointWisePredictor):
                # The kernel is evaluated under the mode alpha carries.
                kernel = kernel_matrix(xa, ts.augmented, pred.alpha.mode)
                assert np.array_equal(batch, np.vecdot(kernel, pred.alpha.values))
            for i in range(m):
                assert batch[i] == predict(pred, Point(xs[i]))

    def test_alpha_of_another_length_rejected_at_construction(self):
        ts, *_ = _training_set()
        for size in (ts.n - 1, ts.n + 1):
            with pytest.raises(DimensionError, match="alpha size"):
                PointWisePredictor(training=ts, alpha=AlphaVector(values=np.ones(size), delta=1.0))

    def test_point_gives_float(self):
        ts, *_ = _training_set()
        pred = PointWisePredictor(training=ts, alpha=AlphaVector(values=np.ones(ts.n), delta=1.0))
        assert isinstance(predict(pred, Point([0.1, 0.2])), float)

    def test_rejects_flat_or_wrong_width_arrays(self):
        ts, *_ = _training_set()
        alpha = AlphaVector(values=np.ones(ts.n), delta=1.0, mode=MonteCarlo(sample_features(2, 16, seed=4)))
        for pred in (
            PointWisePredictor(training=ts, alpha=alpha),
            FeatureSpacePredictor(beta=beta_from_alpha(ts, alpha)),
        ):
            with pytest.raises(DimensionError):
                predict(pred, np.array([0.1, 0.2]))
            with pytest.raises(DimensionError):
                predict(pred, np.zeros((3, 3)))


class TestBiasSensitivity:
    @staticmethod
    def _context(t=10.0, delta=0.01, n=2):
        # g_sum = 3 via a constant target of 1.5 per point.
        phi = Realization((Point([0.3, -0.4]), Point([0.1, 0.2]))[:n])
        ts = shift_set(phi, Direction([0.6, -0.8]), t, LinearTarget(a=[0.0, 0.0], b=1.5))
        return closed_form_context(ts, kappa=1.0, delta=delta)

    def test_frozen_two_point_value(self):
        ctx = self._context()
        w = np.array([-0.6, 0.8, 0.3])  # <w, -v_hat> = 1 > 0, active
        got = bias_slopes(ctx, w)[0]
        assert got == pytest.approx(3.0 / 200.01, rel=1e-9)
        assert ctx.law == pytest.approx(0.0149992500374981, rel=1e-12)

    def test_inactive_weight_zero(self):
        ctx = self._context()
        w = np.array([0.6, -0.8, 0.3])  # <w, -v_hat> = -1 < 0
        assert bias_slopes(ctx, w) == (0.0, 0.0)

    def test_t_squared_scaling(self):
        ctx_small = self._context(t=10.0)
        ctx_big = self._context(t=100.0)
        w = np.array([-0.6, 0.8, 0.3])
        ratio = bias_slopes(ctx_small, w)[0] / bias_slopes(ctx_big, w)[0]
        assert ratio == pytest.approx((200.0 * 100.0 + 0.01) / (200.0 + 0.01), rel=1e-9)
        assert ratio == pytest.approx(100.0, rel=5e-2)

    def test_boundary_guard(self):
        ctx = self._context()
        w = np.array([-0.6e-9, 0.8e-9, 0.3])  # <w, -v_hat> = 1e-9, inside the guard
        with pytest.raises(BoundaryTooClose):
            bias_slopes(ctx, w)

    def test_beta1_insensitive_to_bias_coordinate(self):
        ctx = self._context(t=100.0, delta=1e-4)
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 20:
            w = rng.standard_normal(3)
            if abs(np.dot(w, ctx.normal)) < 1e-2:
                continue
            checked += 1
            assert bias_slopes(ctx, w)[1] <= 1e-10

    def test_sensitivity_matches_law_for_random_weights(self):
        ts, phi, v, g = _training_set(t=1000.0)
        ctx = closed_form_context(ts, kappa=v.norm**2, delta=1e-6 * v.norm**2 * 1000.0**2)
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            w = rng.standard_normal(3)
            try:
                fd = bias_slopes(ctx, w)[0]
            except BoundaryTooClose:
                continue
            checked += 1
            expected = ctx.law if ctx.active(w) else 0.0
            if expected:
                assert fd == pytest.approx(expected, rel=1e-6)
            else:
                assert fd == 0.0

    @pytest.mark.parametrize("delta", [0.0, np.inf, np.nan])
    def test_delta_outside_zero_to_infinity_rejected(self, delta):
        ts, *_ = _training_set()
        with pytest.raises(InvalidRegularization, match="positive and finite"):
            closed_form_context(ts, kappa=1.0, delta=delta)

    def test_t_whose_square_overflows_is_invalid_input(self):
        # Python's float(t) ** 2 raises a bare OverflowError past t ~ 1.34e154.
        ts, *_ = _training_set(t=1e200)
        with pytest.raises(InvalidInput, match="kappa t\\^2 overflows float64"):
            closed_form_context(ts, kappa=1.0, delta=1.0)


def _reference_slopes(ts, kappa, delta, w):
    """The two bias slopes written out step by step: the closed-form vector
    from C, g_sum, S and T, the beta2 central difference, and a separate
    beta1 probe with its own copy of the step rule. None where w lies within
    10 steps of the indicator boundary."""
    lead = float(kappa) * ts.t**2
    c_factor = -lead / (delta * (ts.n * lead + delta))
    g_sum = float(ts.labels.sum())
    sum_aug = ts.augmented.sum(axis=0)
    sum_aug_weighted = (ts.augmented * ts.labels[:, None]).sum(axis=0)
    combined = c_factor * g_sum * sum_aug + sum_aug_weighted / float(delta)
    vhat = ts.direction.augmented()
    active = lambda u: np.dot(u, -vhat) >= 0.0  # noqa: E731
    beta1 = lambda u: combined if active(u) else np.zeros_like(combined)  # noqa: E731
    beta2 = lambda u: float(np.dot(u, combined)) if active(u) else 0.0  # noqa: E731
    h = 1e-4 * (1.0 + abs(w[-1]))
    if abs(np.dot(w, -vhat)) < 10.0 * h * ts.direction.norm:
        return None
    up, dn = w.copy(), w.copy()
    up[-1] += h
    dn[-1] -= h
    b2 = (beta2(up) - beta2(dn)) / (2.0 * h)
    h = 1e-4 * (1.0 + abs(w[-1]))
    up, dn = w.copy(), w.copy()
    up[-1] += h
    dn[-1] -= h
    b1 = float(np.abs(beta1(up) - beta1(dn)).max()) / (2 * h)
    return b2, b1


class TestBiasSlopesBits:
    """`bias_slopes` keeps the bits of the step-by-step reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        along=st.floats(-2.0, 2.0),
        across=st.floats(-3.0, 3.0),
        bias=st.floats(-5.0, 5.0),
        t=st.floats(1.0, 1e5),
        rel_delta=st.floats(1e-10, 1e2),
    )
    def test_equals_reference_bit_for_bit(self, along, across, bias, t, rel_delta):
        ts, _, v, _ = _training_set(t=t)
        kappa = v.norm**2
        delta = rel_delta * kappa * t**2
        # Small `along` values put w on or near the indicator boundary.
        w = np.append(along * -v.coords + across * np.array([0.8, 0.6]), bias)
        want = _reference_slopes(ts, kappa, delta, w)
        ctx = closed_form_context(ts, kappa=kappa, delta=delta)
        if want is None:
            with pytest.raises(BoundaryTooClose):
                bias_slopes(ctx, w)
        else:
            assert bias_slopes(ctx, w) == want


class TestCheckNotationEquivalence:
    @given(
        st.lists(finite, min_size=2, max_size=5),
        st.lists(finite, min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_inner_product_ignores_bias_slot(self, wd, vd):
        # <w_check, v> computed in d coordinates equals <w, v_hat> in d+1.
        d = min(len(wd), len(vd))
        if not any(x != 0.0 for x in vd[:d]):
            return
        w = np.array(wd[:d] + [123.456])
        v = Direction(vd[:d])
        assert float(np.dot(w[:-1], v.coords)) == float(np.dot(w, np.append(v.coords, 0.0)))
