"""Kernel evaluation: sampled oracle, closed form, indicators, feature map.

The analytic arc-cosine expression is validated here against the Monte Carlo
estimator before anything downstream gets to rely on it.
"""

from unittest import mock

import numpy as np
import pytest
from conftest import SLACK, tile_bytes, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkorigin import kernel
from ntkorigin import (
    ANALYTIC,
    DegenerateDirection,
    DimensionError,
    Direction,
    FeatureSample,
    InvalidInput,
    MonteCarlo,
    SinusoidalTarget,
    agnosticism_rate,
    closed_form_context,
    diagonal,
    feature_map,
    kappa,
    kernel_matrix,
    ntk,
    sample_features,
    shift_set,
)


def _aug(x) -> np.ndarray:
    """The data point x with its bias coordinate 1 appended."""
    return np.append(x, 1.0)


class TestSampleFeatures:
    def test_deterministic(self):
        a = sample_features(2, 4, seed=7)
        b = sample_features(2, 4, seed=7)
        assert np.array_equal(a.weights, b.weights)

    def test_law_of_large_numbers(self):
        k = 10**6
        fs = sample_features(1, k, seed=1)
        bound = 4.0 / np.sqrt(k)
        assert np.all(np.abs(fs.weights.mean(axis=0)) < bound)
        assert np.all(np.abs(fs.weights.var(axis=0) - 1.0) < 10 * bound)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            sample_features(3, 0, seed=0)


def _one_feature(w) -> MonteCarlo:
    return MonteCarlo(FeatureSample(weights=np.array([w], dtype=float)))


class TestIndicator:
    """The ReLU indicator 1(<w, p> >= 0), seen through a one-feature `ntk`:
    k(p, p) is |p|^2 + <w, p>^2 when the feature is active and 0 when not."""

    def test_positive(self):
        p = np.array([2.0, 1.0])
        assert ntk(p, p, _one_feature([0.5, -0.3])).value == 5.0 + 0.7**2

    def test_tie_counts_as_active(self):
        # The pre-activation <w, p> is exactly 0, so only p.p is left.
        p = np.array([0.0, 1.0])
        assert ntk(p, p, _one_feature([1.0, 0.0])).value == 1.0

    def test_negative(self):
        p = _aug([5.0, 5.0])
        assert ntk(p, p, _one_feature([-1.0, 0.0, 0.0])).value == 0.0


class TestLimitIndicator:
    """The far-shift limit indicator 1(<w, -v_hat> >= 0) of `ClosedFormContext.active`."""

    @staticmethod
    def _context(v):
        ts = shift_set(np.array([[0.3, -0.2]]), v, 10.0, SinusoidalTarget(u=[1.0, 0.0]))
        return closed_form_context(ts, kappa=v.norm**2, delta=1.0)

    def test_active(self):
        assert self._context(Direction([1.0, 0.0])).active(np.array([-0.3, 0.8, 0.1]))

    def test_inactive(self):
        assert not self._context(Direction([1.0, 0.0])).active(np.array([0.3, -0.2, 0.5]))

    def test_tie(self):
        assert self._context(Direction([1.0, 0.0])).active(np.array([0.0, 1.0, 0.3]))

    def test_zero_direction(self):
        with pytest.raises(DegenerateDirection):
            self._context(Direction([0.0, 0.0]))


class TestFeatureMap:
    def test_active_block(self):
        fs = FeatureSample(weights=np.array([[0.5, -0.3]]))
        fm = feature_map(np.array([2.0, 1.0]), fs)
        np.testing.assert_allclose(fm, [[2.0, 1.0, 0.7]], rtol=0, atol=1e-15)

    def test_inactive_block_is_zero(self):
        fs = FeatureSample(weights=np.array([[-1.0, 0.0]]))
        fm = feature_map(np.array([2.0, 1.0]), fs)
        assert np.array_equal(fm, [[0.0, 0.0, 0.0]])

    def test_origin_keeps_only_bias(self):
        fs = sample_features(2, 64, seed=3)
        origin = _aug([0.0, 0.0])
        fm = feature_map(origin, fs)
        active = fs.weights[:, -1] >= 0
        assert np.array_equal(fm[active, 2], np.ones(active.sum()))
        assert np.array_equal(fm[~active], np.zeros((np.sum(~active), 4)))
        np.testing.assert_array_equal(fm[active, 3], fs.weights[active, -1])


class TestNtk:
    def test_origin_value_one(self):
        x = _aug([0.0])
        assert ntk(x, x, ANALYTIC).value == pytest.approx(1.0, abs=1e-15)
        mc = ntk(x, x, MonteCarlo(sample_features(1, 10**6, seed=2)))
        assert abs(mc.value - 1.0) <= 4 * mc.std_error + 1e-12

    def test_orthogonal_pair_value(self):
        x = np.array([1.0, 1.0])
        y = np.array([-1.0, 1.0])
        got = ntk(x, y, ANALYTIC).value
        assert got == pytest.approx(1.0 / np.pi, rel=1e-14)
        mc = ntk(x, y, MonteCarlo(sample_features(1, 4 * 10**5, seed=5)))
        assert abs(mc.value - got) <= 4 * mc.std_error

    def test_diagonal_is_norm_plus_one(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 5):
            p = rng.uniform(-2, 2, d)
            x = _aug(p)
            expected = float(p @ p) + 1.0
            assert ntk(x, x, ANALYTIC).value == pytest.approx(expected, rel=1e-14)

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(4)
        fs = sample_features(3, 256, seed=11)
        for _ in range(50):
            x = _aug(rng.standard_normal(3))
            y = _aug(rng.standard_normal(3))
            assert ntk(x, y, ANALYTIC).value == ntk(y, x, ANALYTIC).value
            assert ntk(x, y, MonteCarlo(fs)).value == ntk(y, x, MonteCarlo(fs)).value

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        for _ in range(20):
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            before = ntk(_aug(a), _aug(b), ANALYTIC).value
            after = ntk(_aug(rot @ a), _aug(rot @ b), ANALYTIC).value
            assert after == pytest.approx(before, abs=1e-12 * (1 + abs(before)))

    def test_not_translation_invariant(self):
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 0.0])
        c = np.array([5.0, 0.0])
        base = ntk(_aug(x), _aug(y), ANALYTIC).value
        moved = ntk(_aug(x + c), _aug(y + c), ANALYTIC).value
        assert abs(moved - base) > 0.1

    def test_mc_matches_analytic_within_4se(self):
        hits = 0
        total = 0
        for d in (1, 2, 5):
            fs = sample_features(d, 2 * 10**5, seed=100 + d)
            rng = np.random.default_rng(200 + d)
            for _ in range(20):
                x = _aug(rng.uniform(-2, 2, d))
                y = _aug(rng.uniform(-2, 2, d))
                est = ntk(x, y, MonteCarlo(fs))
                total += 1
                hits += abs(est.value - ntk(x, y, ANALYTIC).value) <= 4 * est.std_error
        assert hits / total >= 0.95

    def test_matches_feature_map_inner_product(self):
        """MC mode and the explicit map share sample and normalization exactly
        (up to a couple of ulp of reassociation in the d+2-term dot)."""
        rng = np.random.default_rng(8)
        for d in (1, 2, 4):
            fs = sample_features(d, 512, seed=50 + d)
            for _ in range(10):
                x = _aug(rng.standard_normal(d))
                y = _aug(rng.standard_normal(d))
                direct = ntk(x, y, MonteCarlo(fs)).value
                via_map = float(
                    np.einsum("kj,kj->k", feature_map(x, fs), feature_map(y, fs)).mean()
                )
                assert via_map == pytest.approx(direct, rel=1e-14, abs=1e-15)

    def test_nan_rejected(self):
        with pytest.raises(InvalidInput):
            ntk(np.array([np.nan, 1.0]), np.array([0.0, 1.0]), ANALYTIC)


class TestKappa:
    @pytest.mark.parametrize("coords, expected", [([0.6, 0.8], 1.0), ([3.0, 4.0], 25.0)], ids=["unit", "norm5"])
    def test_unit_direction_monte_carlo(self, coords, expected):
        # The Monte Carlo kappa integrates at -v, not at -v/|v|, so it is |v|^2.
        v = Direction(coords)
        est = kappa(v, MonteCarlo(sample_features(2, 10**6, seed=21)))
        assert abs(est.value - expected) <= 4 * est.std_error

    def test_analytic_homogeneity_exact(self):
        assert kappa(Direction([3.0, 4.0]), ANALYTIC).value == 25.0 * kappa(Direction([0.6, 0.8]), ANALYTIC).value

    def test_zero_direction(self):
        with pytest.raises(DegenerateDirection):
            kappa(Direction([0.0, 0.0]), ANALYTIC)

    def test_bias_shift_of_sample_changes_nothing(self):
        # Neither the projection <w, v_hat> nor the limit indicator sees the
        # bias coordinate of w, so shifting it leaves the estimate bit-identical.
        v = Direction([1.0, -2.0])
        fs = sample_features(2, 5000, seed=33)
        shifted = np.array(fs.weights, copy=True)
        shifted[:, -1] += 3.7
        fs_shifted = FeatureSample(weights=shifted)
        assert kappa(v, MonteCarlo(fs)).value == kappa(v, MonteCarlo(fs_shifted)).value


def _reference_analytic(xa, ya):
    """The scalar closed form, one pair at a time, as the batched code must reproduce it."""
    dot = np.dot(xa, ya)
    nx = float(np.linalg.norm(xa))
    ny = float(np.linalg.norm(ya))
    half_chord = float(np.linalg.norm(xa / nx - ya / ny)) / 2.0
    theta = 2.0 * np.arcsin(min(1.0, half_chord))
    cos = min(1.0, max(-1.0, dot / (nx * ny)))
    return float((dot * (np.pi - theta) + nx * ny * ((np.pi - theta) * cos + np.sin(theta))) / (2.0 * np.pi))


def _reference_mc(xa, ya, weights):
    """The scalar Monte Carlo estimate of one pair."""
    sx = weights @ xa
    sy = weights @ ya
    return float(((np.dot(xa, ya) + sx * sy) * ((sx >= 0.0) & (sy >= 0.0))).mean())


def _augmented_rows(rng, count, d, shift):
    return np.hstack([rng.uniform(-3.0, 3.0, (count, d)) - shift, np.ones((count, 1))])


class TestKernelMatrix:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        t=st.floats(0.0, 1e4),
        k=st.integers(1, 400),
    )
    def test_equals_per_pair_ntk_exactly(self, seed, d, m, n, t, k):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(d)
        xs = _augmented_rows(rng, m, d, 0.0)
        ys = _augmented_rows(rng, n, d, t * v)
        fs = sample_features(d, k, seed=seed)
        for mode in (ANALYTIC, MonteCarlo(fs)):
            for a, b in ((xs, ys), (ys, ys)):
                got = kernel_matrix(a, b, mode)
                assert got.shape == (len(a), len(b))
                for i in range(len(a)):
                    for j in range(len(b)):
                        assert got[i, j] == ntk(a[i], b[j], mode).value

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), t=st.floats(0.0, 1e4))
    def test_reproduces_scalar_reference_bit_for_bit(self, seed, d, t):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(d)
        xs = _augmented_rows(rng, 4, d, 0.0)
        ys = _augmented_rows(rng, 5, d, t * v)
        fs = sample_features(d, 257, seed=seed)
        ana = kernel_matrix(xs, ys, ANALYTIC)
        mc = kernel_matrix(xs, ys, MonteCarlo(fs))
        for i in range(4):
            for j in range(5):
                assert ana[i, j] == _reference_analytic(xs[i], ys[j])
                assert mc[i, j] == _reference_mc(xs[i], ys[j], fs.weights)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        n=st.integers(1, 39),
        t=st.floats(0.0, 1e5),
        k=st.integers(1, 3000),
    )
    def test_matrix_of_a_set_with_itself_is_its_transpose_bit_for_bit(self, seed, d, n, t, k):
        # The gram is this matrix as it comes, so its symmetry has to be
        # exact, signed zeros included.
        rng = np.random.default_rng(seed)
        xs = _augmented_rows(rng, n, d, t * rng.standard_normal(d))
        for mode in (ANALYTIC, MonteCarlo(sample_features(d, k, seed=seed))):
            got = kernel_matrix(xs, xs, mode)
            assert _same_bits(got, got.T)

    def test_mc_feature_dimension_checked(self):
        rows = np.array([[0.5, 1.0]])
        with pytest.raises(DimensionError):
            kernel_matrix(rows, rows, MonteCarlo(sample_features(2, 10, seed=1)))

    def test_rejects_mismatched_or_flat_input(self):
        with pytest.raises(DimensionError):
            kernel_matrix(np.ones((2, 3)), np.ones((2, 2)), ANALYTIC)
        with pytest.raises(DimensionError):
            kernel_matrix(np.ones(3), np.ones((2, 3)), ANALYTIC)
        with pytest.raises(InvalidInput):
            kernel_matrix(np.array([[np.inf, 1.0]]), np.ones((1, 2)), ANALYTIC)


def _reference_integrand(xs, ys, weights):
    """The Monte Carlo integrand as it was before the in-place block: a fresh
    (n, K) array per row of xs, multiplied by the bool mask of both indicators."""
    sy = np.empty((ys.shape[0], weights.shape[0]))
    for out, y in zip(sy, ys):
        np.matmul(weights, y, out=out)
    active_y = sy >= 0.0
    for i, dots in enumerate(np.vecdot(xs[:, None, :], ys[None, :, :])):
        sx = sy[i] if xs is ys else weights @ xs[i]
        yield (dots[:, None] + sx * sy) * (active_y & (sx >= 0.0))


def _reference_estimate(contribs):
    k = contribs.size
    se = float(contribs.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    return float(contribs.mean()), se


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestInPlaceIntegrand:
    """The reused block with float masks reproduces the fresh-array, bool-mask
    integrand bit for bit, signed zeros included."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        t=st.floats(0.0, 1e4),
        k=st.integers(1, 400),
    )
    def test_matches_reference_integrand(self, seed, d, m, n, t, k):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(d)
        xs = _augmented_rows(rng, m, d, 0.0)
        ys = _augmented_rows(rng, n, d, t * v)
        fs = sample_features(d, k, seed=seed)
        mode = MonteCarlo(fs)
        for a, b in ((xs, ys), (ys, ys)):
            blocks = zip(kernel._mc_integrand(a, b, fs.weights), _reference_integrand(a, b, fs.weights))
            assert all(_same_bits(got, want) for got, want in blocks)
            want = np.array([c.mean(axis=1) for c in _reference_integrand(a, b, fs.weights)])
            assert _same_bits(kernel_matrix(a, b, mode), want.reshape(len(a), len(b)))
        for a, b in ((xs[0], ys[-1]), (ys[0], ys[0])):
            est = ntk(a, b, mode)
            value, se = _reference_estimate(next(_reference_integrand(a[None], b[None], fs.weights))[0])
            assert _same_bits(est.value, value) and _same_bits(est.std_error, se)
        direction = Direction(v)
        lim = -direction.augmented()[None]
        value, se = _reference_estimate(next(_reference_integrand(lim, lim, fs.weights))[0])
        est = kappa(direction, mode)
        assert _same_bits(est.value, value) and _same_bits(est.std_error, se)

    def test_signed_zero_of_an_inactive_entry_is_kept(self):
        # x.y + sx*sy is -3 for the one feature, and y's indicator is off:
        # the masked product is -0.0, as a bool-mask product gives.
        weights = np.array([[1.0, 0.0]])
        xs = np.array([[1.0, 1.0]])
        ys = np.array([[-2.0, 1.0]])
        got = next(kernel._mc_integrand(xs, ys, weights))
        assert got[0, 0] == 0.0 and np.signbit(got[0, 0])
        assert _same_bits(got, next(_reference_integrand(xs, ys, weights)))

    def test_earlier_results_survive_later_calls(self):
        fs = sample_features(2, 300, seed=4)
        mode = MonteCarlo(fs)
        rng = np.random.default_rng(4)
        xs = _augmented_rows(rng, 5, 2, 0.0)
        ys = _augmented_rows(rng, 3, 2, 50.0)
        first = kernel_matrix(xs, ys, mode)
        first_copy = first.copy()
        pair = ntk(xs[0], ys[0], mode)
        k_est = kappa(Direction([0.6, 0.8]), mode)
        kernel_matrix(ys, ys, mode)
        ntk(xs[1], ys[2], mode)
        kappa(Direction([-1.0, 0.5]), mode)
        assert _same_bits(first, first_copy)
        assert pair == ntk(xs[0], ys[0], mode)
        assert k_est == kappa(Direction([0.6, 0.8]), mode)


def _reference_diagonal(xa, count, chunk, seed):
    """The chunked diagonal loop the kappa sweep once ran inline."""
    total = 0.0
    n = 0
    gen = np.random.default_rng(seed)
    remaining = count
    while remaining > 0:
        take = min(chunk, remaining)
        w = gen.standard_normal((take, xa.size))
        s = w @ xa
        total += float((((xa @ xa) + s * s) * (s >= 0.0)).sum())
        n += take
        remaining -= take
    return total / n


TILE = kernel.DIAGONAL_TILE

# Feature counts of up to three whole tiles plus an odd, ragged last tile.
several_tiles = st.builds(
    lambda tiles, rest: tiles * TILE + 2 * rest + 1, st.integers(0, 3), st.integers(0, TILE // 2 - 1)
)


class TestStreamedDiagonal:
    """`diagonal` streams its features from the seed, one tile at a time."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        k=st.one_of(st.integers(1, 3000), several_tiles),
        spare=st.integers(0, 5),
    )
    def test_one_chunk_equals_ntk_bit_for_bit(self, seed, d, k, spare):
        x = _aug(np.random.default_rng(seed).uniform(-2.0, 2.0, d))
        want = ntk(x, x, MonteCarlo(sample_features(d, k, seed))).value
        with mock.patch.object(kernel, "DIAGONAL_CHUNK", k + spare):
            assert diagonal(x, k, seed).value == want

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        # Chunks that fit in one tile, or chunks from a third of a tile to
        # three tiles over a count of several tiles.
        sizes=st.one_of(
            st.tuples(st.integers(1, 3000), st.integers(1, 700)),
            st.tuples(several_tiles, st.integers(TILE // 3, 3 * TILE + 100)),
        ),
    )
    def test_chunks_equal_reference_loop_bit_for_bit(self, seed, d, sizes):
        k, chunk = sizes
        x = _aug(np.random.default_rng(seed).uniform(-2.0, 2.0, d))
        with mock.patch.object(kernel, "DIAGONAL_CHUNK", chunk):
            assert diagonal(x, k, seed).value == _reference_diagonal(x, k, chunk, seed)

    def test_rejects_empty_count(self):
        with pytest.raises(InvalidInput, match="feature count must be >= 1, got 0"):
            diagonal(_aug([0.5]), 0, seed=1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), k=several_tiles)
    def test_equals_kappa_of_the_same_sample_bit_for_bit(self, seed, d, k):
        # The tiles draw the normals of `sample_features` in its order, so the
        # seed stands for the sample; a lone last row is among the sizes.
        v = Direction(np.random.default_rng(seed).standard_normal(d))
        got = diagonal(-v.augmented(), k, seed)
        want = kappa(v, MonteCarlo(sample_features(d, k, seed)))
        assert _same_bits(got.value, want.value) and _same_bits(got.std_error, want.std_error)

    @pytest.mark.parametrize("k, chunk", [(2, 1), (2500, 1000), (3 * TILE + 5, TILE)])
    def test_chunked_standard_error_matches_one_chunk(self, monkeypatch, k, chunk):
        # Same draws either way; only the order of the sums differs.
        x = _aug([0.7, -1.2])
        whole = diagonal(x, k, seed=8)
        monkeypatch.setattr(kernel, "DIAGONAL_CHUNK", chunk)
        chunked = diagonal(x, k, seed=8)
        assert chunked.value == pytest.approx(whole.value, rel=1e-12)
        assert chunked.std_error == pytest.approx(whole.std_error, rel=1e-9)


class TestDiagonalTiles:
    """The integrand of the diagonal and of a single pair runs tile by tile;
    at sizes that span several tiles it keeps the bits of the whole-sample
    pair path."""

    def test_tile_is_a_multiple_of_16(self):
        assert TILE % 16 == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), t=st.floats(0.0, 1e4), k=several_tiles)
    def test_fill_equals_pair_integrand_bit_for_bit(self, seed, d, t, k):
        # The diagonal (x, x), where `_fill` reuses x's pre-activations, and a
        # pair (x, y) at shift t.
        weights = sample_features(d, k, seed).weights
        rng = np.random.default_rng(seed)
        xs = _augmented_rows(rng, 1, d, 0.0)
        ys = _augmented_rows(rng, 1, d, t * rng.standard_normal(d))
        x = xs[0]
        for a, b, y in ((xs, xs, x), (xs, ys, ys[0])):
            got = kernel._fill(x, y, np.empty(k), lambda start, stop: weights[start:stop])
            assert _same_bits(got, next(kernel._mc_integrand(a, b, weights))[0])
            assert _same_bits(got, next(_reference_integrand(a, b, weights))[0])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_lone_last_row_keeps_its_bits(self, d):
        # A one-row product sums like a dot product, so a tile of one row
        # would change the last value in about half of these cases.
        for seed in range(6):
            weights = sample_features(d, 2 * TILE + 1, seed).weights
            xs = _augmented_rows(np.random.default_rng(seed), 1, d, 0.0)
            x = xs[0]
            got = kernel._fill(x, x, np.empty(len(weights)), lambda start, stop: weights[start:stop])
            assert _same_bits(got, next(kernel._mc_integrand(xs, xs, weights))[0])

    def test_tiles_cover_the_rows_once(self):
        for n in (1, 2, TILE, TILE + 1, TILE + 2, 3 * TILE + 1, 3 * TILE + 777):
            bounds = list(kernel._tiles(n))
            assert [start for start, _ in bounds] == [0, *(stop for _, stop in bounds[:-1])]
            assert bounds[-1][1] == n
            assert all(start % TILE == 0 for start, _ in bounds)
            assert n == 1 or all(2 <= stop - start <= TILE + 1 for start, stop in bounds)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), k=several_tiles)
    def test_kappa_equals_reference_estimate_bit_for_bit(self, seed, d, k):
        direction = Direction(np.random.default_rng(seed).standard_normal(d))
        fs = sample_features(d, k, seed)
        lim = -direction.augmented()[None]
        value, se = _reference_estimate(next(_reference_integrand(lim, lim, fs.weights))[0])
        est = kappa(direction, MonteCarlo(fs))
        assert _same_bits(est.value, value) and _same_bits(est.std_error, se)

    def test_kappa_feature_dimension_checked(self):
        with pytest.raises(DimensionError):
            kappa(Direction([0.6, 0.8]), MonteCarlo(sample_features(3, 10, seed=1)))


def _reference_agnosticism_rate(ts, fs):
    """The rate as it was before the tiled count: the mean of one (n, K) bool matrix."""
    pre = ts.augmented @ fs.weights.T
    lim = (fs.weights @ (-ts.direction.augmented())) >= 0.0
    return float(np.mean((pre >= 0.0) != lim[None, :]))


class TestTiledEstimates:
    """Single-pair `ntk`, its standard error and `agnosticism_rate` run tile
    by tile; at sizes that span several tiles they keep the bits of the
    whole-sample references."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), t=st.floats(0.0, 1e4), k=several_tiles)
    def test_ntk_equals_reference_estimate_bit_for_bit(self, seed, d, t, k):
        fs = sample_features(d, k, seed)
        rng = np.random.default_rng(seed)
        xs = _augmented_rows(rng, 1, d, 0.0)
        ys = _augmented_rows(rng, 1, d, t * rng.standard_normal(d))
        for a, b in ((xs, ys), (ys, xs), (ys, ys)):
            est = ntk(a[0], b[0], MonteCarlo(fs))
            value, se = _reference_estimate(next(_reference_integrand(a, b, fs.weights))[0])
            assert _same_bits(est.value, value) and _same_bits(est.std_error, se)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), n=st.integers(1, 8), t=st.floats(0.01, 1e4),
           k=several_tiles)
    def test_agnosticism_rate_equals_one_shot_mean_bit_for_bit(self, seed, d, n, t, k):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-1.0, 1.0, (n, d))
        ts = shift_set(phi, Direction(rng.standard_normal(d)), t, SinusoidalTarget(u=np.ones(d)))
        fs = sample_features(d, k, seed)
        assert _same_bits(agnosticism_rate(ts, fs), _reference_agnosticism_rate(ts, fs))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.one_of(st.integers(1, 3000), several_tiles, st.integers(1, 10**6)),
        scale=st.floats(1e-3, 1e3),
        zeros=st.floats(0.0, 1.0),
    )
    def test_estimate_equals_numpy_mean_and_std_bit_for_bit(self, seed, k, scale, zeros):
        # Integrand-like contributions: an offset, a spread and a share of
        # exact zeros from inactive features.
        rng = np.random.default_rng(seed)
        contribs = np.where(rng.random(k) < zeros, 0.0, scale * (1.0 + rng.standard_normal(k)))
        value, se = _reference_estimate(contribs)
        est = kernel._estimate(contribs)
        assert _same_bits(est.value, value) and _same_bits(est.std_error, se)


class TestDiagonalMemory:
    def test_diagonal_holds_one_chunk_vector_and_one_tile(self, monkeypatch):
        # Two and a bit chunks: the chunk-length vector and the tile of d+1
        # weight columns with its mask are reused.
        d, chunk = 5, 200_000
        monkeypatch.setattr(kernel, "DIAGONAL_CHUNK", chunk)
        x = _aug(np.random.default_rng(3).uniform(-2.0, 2.0, d))
        peak, _ = traced_peak(lambda: diagonal(x, 2 * chunk + 1, seed=3))
        assert peak <= 8 * chunk + tile_bytes(d + 2) + SLACK

    def test_kappa_holds_one_sample_length_vector_and_a_mask(self):
        # The contributions, which the standard error's deviations overwrite,
        # and one tile-length mask.
        k = 200_000
        fs = sample_features(2, k, seed=4)
        peak, _ = traced_peak(lambda: kappa(Direction([1.0, 2.0]), MonteCarlo(fs)))
        assert peak <= 8 * k + tile_bytes(1) + SLACK


class TestEstimateMemory:
    def test_ntk_holds_one_sample_length_vector_and_two_masks(self):
        # The contributions and a tile-length mask per point; x's
        # pre-activations share the buffer of its mask.
        k = 200_000
        fs = sample_features(2, k, seed=6)
        x, y = _aug([0.3, -1.2]), _aug([1.5, 0.4])
        peak, _ = traced_peak(lambda: ntk(x, y, MonteCarlo(fs)))
        assert peak <= 8 * k + tile_bytes(2) + SLACK

    def test_agnosticism_rate_holds_one_tile_of_indicators(self):
        # One tile's (n, tile) pre-activations, a float column per point, and
        # room for their bool indicators; never an (n, K) matrix.
        ts, fs = TestAgnosticismRate._setup(1000.0)
        peak, _ = traced_peak(lambda: agnosticism_rate(ts, fs))
        assert peak <= tile_bytes(ts.n + 1) + SLACK


class TestAgnosticismRate:
    @staticmethod
    def _setup(t, k=10**5):
        rng = np.random.default_rng(11)
        phi = rng.uniform(-1, 1, (8, 2))
        v = Direction([0.8, 0.6])
        ts = shift_set(phi, v, t, SinusoidalTarget(u=[1.3, -0.7], phase=0.4))
        return ts, sample_features(2, k, seed=5)

    def test_monotone_in_t(self):
        r2 = agnosticism_rate(*self._setup(100.0))
        r3 = agnosticism_rate(*self._setup(1000.0))
        assert r3 < r2

    def test_decade_scaling(self):
        r3 = agnosticism_rate(*self._setup(1000.0))
        r4 = agnosticism_rate(*self._setup(10000.0))
        assert 0.5 <= (r3 / r4) / 10.0 <= 2.0

    def test_zero_shift_rejected(self):
        ts, fs = self._setup(100.0)
        unshifted = shift_set(ts.points, ts.direction, 0.0, SinusoidalTarget(u=[1.0, 0.0]))
        with pytest.raises(InvalidInput):
            agnosticism_rate(unshifted, fs)
