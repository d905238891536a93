"""Stencil coefficients, their exact identities, and profile fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkorigin import (
    DimensionError,
    Direction,
    EvaluationError,
    InvalidInput,
    classify,
    directional_derivative,
    fit_profile,
    pascal_coefficients,
    pascal_shift_identity,
    sigma_identity_check,
)


class TestPascalCoefficients:
    def test_order_one(self):
        assert pascal_coefficients(1).tolist() == [-1, 1]

    def test_order_two(self):
        assert pascal_coefficients(2).tolist() == [1, -2, 1]

    def test_order_three_matches_iterated_differences(self):
        # Oracle: the order-2 row shifted one point forward, minus itself.
        prev = [1, -2, 1]
        iterated = [a - b for a, b in zip([0] + prev, prev + [0])]
        assert pascal_coefficients(3).tolist() == [-1, 3, -3, 1] == iterated

    def test_leading_coefficient_is_one(self):
        for z in range(0, 17):
            assert pascal_coefficients(z)[z] == 1

    def test_signed_binomial_in_stencil_point_order(self):
        for z in range(0, 17):
            row = pascal_coefficients(z)
            assert row.dtype == np.int64 and row.shape == (z + 1,)
            for i in range(z + 1):
                assert row[i] == (-1) ** (z - i) * math.comb(z, i)

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_row_sums_to_zero(self, z):
        assert pascal_coefficients(z).sum() == 0

    def test_signs_alternate(self):
        c = pascal_coefficients(6)
        assert np.all(c[::2] > 0) and np.all(c[1::2] < 0)

    def test_order_66_is_exact_in_int64(self):
        row = pascal_coefficients(66)
        assert row.dtype == np.int64
        assert row.tolist() == [(-1) ** (66 - i) * math.comb(66, i) for i in range(67)]
        assert pascal_shift_identity(66)

    def test_order_67_rejected(self):
        # binom(67, 33) does not fit int64.
        with pytest.raises(InvalidInput):
            pascal_coefficients(67)
        with pytest.raises(InvalidInput):
            pascal_shift_identity(67)


class TestShiftIdentity:
    def test_base_case(self):
        assert pascal_shift_identity(1)

    def test_exact_up_to_sixteen(self):
        assert all(pascal_shift_identity(z) for z in range(1, 17))

    def test_far_index_excluded_by_domain(self):
        row = pascal_coefficients(3)
        with pytest.raises(IndexError):
            pascal_coefficients(2)[3]
        assert row[3] == 1  # the in-bounds edge itself is fine


class TestSigmaIdentity:
    def test_all_zero_indicators(self):
        x0 = np.append([0.5, -0.5], 1.0)
        assert sigma_identity_check(x0, Direction([1.0, 2.0]), 0.3, [0, 0, 0], 2) == 0.0

    def test_two_term_case_by_hand(self):
        # z=1, both indicators on: both evaluations reduce to h*[v|0].
        x0 = np.append([1.0, 2.0], 1.0)
        assert sigma_identity_check(x0, Direction([3.0, -1.0]), 0.25, [1, 1], 1) <= 1e-15

    def test_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            z = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            x0 = np.append(rng.uniform(-3, 3, d), 1.0)
            v = Direction(rng.standard_normal(d))
            h = float(rng.uniform(0.05, 2.0))
            bits = rng.integers(0, 2, z + 1)
            scale = max(1.0, float(np.abs(x0).max()) * (1 + z * h * v.norm))
            assert sigma_identity_check(x0, v, h, bits, z) <= 1e-12 * scale


class TestDirectionalDerivative:
    def test_affine_exact_any_step(self):
        f = lambda xs: 2.0 * xs[:, 0] - xs[:, 1] + 3.0
        for h in (1e-3, 0.1, 2.0):
            est = directional_derivative(f, np.array([0.0, 0.0]), Direction([1.0, 1.0]), 1, h=h)
            assert est == pytest.approx(1.0, abs=1e-10)

    def test_second_difference_of_square(self):
        f = lambda xs: xs[:, 0] ** 2
        est = directional_derivative(f, np.array([0.3, 0.0]), Direction([1.0, 0.0]), 2, h=1e-3)
        assert est == pytest.approx(2.0, abs=1e-6)

    def test_third_difference_annihilates_square(self):
        # Explicit step: polynomials have zero truncation error, so the only
        # noise is rounding amplified by h^-z, and a small h buys nothing.
        f = lambda xs: xs[:, 0] ** 2
        est = directional_derivative(f, np.array([0.3, 0.0]), Direction([1.0, 0.0]), 3, h=0.1)
        assert est == pytest.approx(0.0, abs=1e-10)

    def test_monomial_top_order_gives_factorial(self):
        for z in range(1, 5):
            for p in range(0, z + 1):
                f = lambda xs, p=p: xs[:, 0] ** p
                est = directional_derivative(f, np.array([0.5]), Direction([1.0]), z, h=0.5)
                truth = float(math.factorial(z)) if p == z else 0.0
                assert est == pytest.approx(truth, abs=1e-6)

    def test_step_independence_at_top_order(self):
        f = lambda xs: 4.0 * xs[:, 0] ** 2
        for h in (1e-4, 1e-2, 1.0):
            est = directional_derivative(f, np.array([0.0]), Direction([1.0]), 2, h=h)
            assert est == pytest.approx(8.0, rel=1e-6)

    def test_nan_propagates_as_error(self):
        f = lambda xs: np.full(len(xs), np.nan)
        with pytest.raises(EvaluationError, match="nan"):
            directional_derivative(f, np.array([0.0]), Direction([1.0]), 1, h=0.1)

    def test_one_call_on_the_stencil_rows(self):
        calls = []

        def f(xs):
            calls.append(xs.copy())
            return xs[:, 0] - xs[:, 1]

        x0, v, h = np.array([1.0, 2.0]), Direction([0.6, 0.8]), 0.25
        est = directional_derivative(f, x0, v, 3, h)
        assert type(est) is float
        assert len(calls) == 1
        assert calls[0].shape == (4, 2)
        for i, row in enumerate(calls[0]):
            assert np.array_equal(row, x0 + i * h * v.coords)

    def test_wrong_value_count_rejected(self):
        with pytest.raises(EvaluationError):
            directional_derivative(lambda xs: np.zeros(2), np.array([0.0]), Direction([1.0]), 2, 0.1)
        with pytest.raises(EvaluationError):
            directional_derivative(lambda xs: np.zeros((3, 1)), np.array([0.0]), Direction([1.0]), 2, 0.1)

    def test_step_is_required(self):
        with pytest.raises(TypeError):
            directional_derivative(lambda xs: xs[:, 0], np.array([0.0]), Direction([1.0]), 1)


class TestFitProfile:
    def test_exact_quadratic_recovery(self):
        f = lambda xs: 1.0 + 2.0 * xs[:, 0] + 3.0 * xs[:, 0] ** 2
        prof = fit_profile(f, np.array([0.0]), Direction([1.0]), radius=0.5, m=21, degmax=4)
        np.testing.assert_allclose(prof.coefficients, [1.0, 2.0, 3.0, 0.0, 0.0], atol=1e-10)
        assert prof.residual < 1e-12

    def test_constant_function(self):
        prof = fit_profile(lambda xs: np.full(len(xs), 7.0), np.array([0.0, 0.0]), Direction([1.0, 0.0]), 1.0, 11, 2)
        np.testing.assert_allclose(prof.coefficients, [7.0, 0.0, 0.0], atol=1e-12)

    def test_planted_random_polynomials(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            coeffs = rng.uniform(-2, 2, 5)
            f = lambda xs, c=coeffs: np.polyval(c[::-1], xs[:, 0])
            prof = fit_profile(f, np.array([0.0]), Direction([1.0]), radius=0.7, m=31, degmax=4)
            np.testing.assert_allclose(prof.coefficients, coeffs, atol=1e-10)

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidInput):
            fit_profile(lambda xs: np.zeros(len(xs)), np.array([0.0]), Direction([1.0]), 1.0, m=5, degmax=4)

    def test_offsets_symmetric(self):
        prof = fit_profile(lambda xs: np.zeros(len(xs)), np.array([0.0]), Direction([1.0]), 0.3, 9, 2)
        np.testing.assert_allclose(prof.offsets, -prof.offsets[::-1], atol=0)

    def test_one_call_on_the_stencil_rows(self):
        calls = []

        def f(xs):
            calls.append(xs.copy())
            return xs[:, 0] - xs[:, 1]

        base, v = np.array([1.0, 2.0]), Direction([0.6, 0.8])
        prof = fit_profile(f, base, v, 0.5, 9, 2)
        assert len(calls) == 1
        assert calls[0].shape == (9, 2)
        for s, row in zip(prof.offsets, calls[0]):
            assert np.array_equal(row, base + s * v.coords)

    def test_non_finite_value_rejected(self):
        f = lambda xs: np.where(xs[:, 0] > 0.2, np.nan, 0.0)
        with pytest.raises(EvaluationError, match="nan"):
            fit_profile(f, np.array([0.0]), Direction([1.0]), 0.5, 9, 2)

    def test_wrong_value_count_rejected(self):
        with pytest.raises(EvaluationError):
            fit_profile(lambda xs: np.zeros(3), np.array([0.0]), Direction([1.0]), 0.5, 9, 2)


_V = Direction([0.6, 0.8])
# Each sampler and the length of the base vector it reads: d for the two
# samplers, d + 1 for the augmented x0 of the sigma identity.
_SAMPLERS = {
    "fit_profile": (lambda x: fit_profile(lambda xs: xs[:, 0], x, _V, 0.5, 9, 2), 2),
    "directional_derivative": (lambda x: directional_derivative(lambda xs: xs[:, 0], x, _V, 2, 0.1), 2),
    "sigma_identity_check": (lambda x: sigma_identity_check(x, _V, 0.1, [1, 0, 1], 2), 3),
}


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
class TestBaseVector:
    def test_plain_vector_accepted(self, name):
        call, size = _SAMPLERS[name]
        call(np.linspace(0.5, 1.0, size))

    @pytest.mark.parametrize("shape", ["short", "long", "row", "column"])
    def test_wrong_shape_rejected(self, name, shape):
        call, size = _SAMPLERS[name]
        bad = {"short": (size - 1,), "long": (size + 1,), "row": (1, size), "column": (size, 1)}[shape]
        with pytest.raises(DimensionError):
            call(np.ones(bad))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, name, value):
        call, size = _SAMPLERS[name]
        x = np.ones(size)
        x[-1] = value
        with pytest.raises(InvalidInput):
            call(x)


class TestClassify:
    @staticmethod
    def _profile_with(coeffs, radius=1.0):
        c = np.asarray(coeffs, dtype=float)
        f = lambda xs: np.polyval(c[::-1], xs[:, 0])
        return fit_profile(f, np.array([0.0]), Direction([1.0]), radius, m=4 * len(c), degmax=len(c) - 1)

    def test_quadratic_with_trace_cubic(self):
        prof = self._profile_with([1.0, 2.0, 3.0, 1e-12, 1e-13])
        assert classify(prof, tol=1e-6).label == "quadratic"

    def test_linear(self):
        prof = self._profile_with([0.5, 1.2, 1e-9, 0.0, 0.0])
        assert classify(prof).label == "linear"

    def test_constant(self):
        prof = self._profile_with([2.0, 0.0, 0.0])
        assert classify(prof).label == "constant"

    def test_higher(self):
        prof = self._profile_with([0.0, 0.0, 1.0, 5.0, 0.0])
        assert classify(prof).label == "higher"

    def test_ratios_guarded_by_floor(self):
        prof = self._profile_with([1.0, 1.0, 0.0, 1e-12, 0.0])
        cls = classify(prof, floor=1e-10)
        assert cls.ratio32 <= 2e-2  # about 1e-12 over the 1e-10 floor
