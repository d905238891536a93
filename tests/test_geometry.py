"""Direction augmentation, shift construction and target labeling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkorigin import (
    DegenerateDirection,
    DimensionError,
    Direction,
    InvalidInput,
    LinearTarget,
    QuadraticTarget,
    SinusoidalTarget,
    shift_set,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestAugmentDirection:
    def test_appends_zero(self):
        assert Direction([1.0, 0.0]).augmented().tolist() == [1.0, 0.0, 0.0]

    def test_other_direction(self):
        assert Direction([3.0, 4.0]).augmented().tolist() == [3.0, 4.0, 0.0]

    def test_zero_rejected(self):
        with pytest.raises(DegenerateDirection):
            Direction([0.0, 0.0]).augmented()


class TestValueTypes:
    @staticmethod
    def _values():
        ts = shift_set(np.array([[1.0, 2.0], [0.5, -1.0]]), Direction([1.0, 0.0]), 3.0, SinusoidalTarget(u=[1.0, 0.0]))
        return [
            Direction([1.0, 0.0]),
            LinearTarget(a=[1.0, 0.0]),
            QuadraticTarget(q=np.eye(2), a=[1.0, 0.0]),
            SinusoidalTarget(u=[1.0, 0.0]),
            ts,
        ]

    def test_equality_is_identity_and_values_hash(self):
        # Equal-valued copies of every type: generated field equality would
        # compare ndarrays, which raises for more than one entry.
        for a, b in zip(self._values(), self._values()):
            assert a == a and a != b, type(a).__name__
            assert len({a, b, a}) == 2


class TestShiftSet:
    def test_large_shift_with_linear_target(self):
        g = LinearTarget(a=[1.0, 0.0])
        ts = shift_set(np.array([[1.0, 2.0]]), Direction([1.0, 0.0]), 100.0, g)
        assert ts.shifted.tolist() == [[-99.0, 2.0]]
        assert ts.labels.tolist() == [-99.0]

    def test_zero_shift_is_identity(self):
        pts = np.array([[0.3, -0.4], [0.1, 0.9]])
        g = SinusoidalTarget(u=[1.0, 2.0], phase=0.5)
        ts = shift_set(pts, Direction([0.0, 1.0]), 0.0, g)
        assert np.array_equal(ts.shifted, pts)
        assert np.array_equal(ts.labels, g.value(pts))

    def test_sinusoidal_labels_after_shift(self):
        g = SinusoidalTarget(u=[1.0, 0.0])
        ts = shift_set(np.array([[0.0, 0.0], [1.0, 1.0]]), Direction([0.0, 1.0]), 10.0, g)
        assert ts.shifted.tolist() == [[0.0, -10.0], [1.0, -9.0]]
        np.testing.assert_allclose(ts.labels, [np.sin(0.0), np.sin(1.0)], rtol=0, atol=0)

    def test_negative_shift_rejected(self):
        with pytest.raises(InvalidInput):
            shift_set(np.array([[0.0]]), Direction([1.0]), -1.0, LinearTarget(a=[1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            shift_set(np.array([[0.0, 0.0]]), Direction([1.0]), 1.0, LinearTarget(a=[1.0]))

    @given(
        st.lists(st.lists(finite, min_size=2, max_size=2), min_size=2, max_size=5),
        st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_commutes_with_permutation(self, rows, t):
        phi = np.array(rows)
        rev = phi[::-1]
        g = SinusoidalTarget(u=[0.7, -0.3], phase=0.2)
        v = Direction([0.6, 0.8])
        a = shift_set(phi, v, t, g)
        b = shift_set(rev, v, t, g)
        assert np.array_equal(a.labels[::-1], b.labels)
        assert np.array_equal(a.shifted[::-1], b.shifted)

    def test_augmented_rows_carry_unit_bias(self):
        ts = shift_set(np.array([[5.0, -3.0]]), Direction([1.0, 1.0]), 2.0, LinearTarget(a=[0.0, 0.0], b=1.0))
        assert ts.augmented[0].tolist() == [3.0, -5.0, 1.0]


class TestTargets:
    def test_quadratic_value(self):
        g = QuadraticTarget(q=[[1.0, 0.0], [0.0, 2.0]], a=[0.5, 0.0], b=1.0)
        assert g.value(np.array([[1.0, 1.0]]))[0] == pytest.approx(1.0 + 2.0 + 0.5 + 1.0)

    def test_linear_constant_case(self):
        g = LinearTarget(a=[0.0, 0.0], b=0.7)
        assert g.value(np.array([[123.0, -456.0]]))[0] == 0.7

    def test_sinusoidal_bounded(self):
        g = SinusoidalTarget(u=[2.0, -1.0], phase=1.0)
        xs = np.random.default_rng(0).uniform(-1e4, 1e4, size=(100, 2))
        assert np.all(np.abs(g.value(xs)) <= 1.0)


class TestRealization:
    """The (n, d) array `shift_set` reads as the training realization."""

    @staticmethod
    def _shift(points):
        return shift_set(points, Direction([1.0, 0.0]), 2.0, LinearTarget(a=[1.0, 0.0]))

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            self._shift(np.empty((0, 2)))

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionError):
            self._shift([[1.0, 2.0], [1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("shape", [(2,), (1, 2, 1), (1, 0)], ids=["one-point", "three-axes", "no-coordinates"])
    def test_not_an_n_by_d_array_rejected(self, shape):
        with pytest.raises(DimensionError):
            self._shift(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(InvalidInput):
            self._shift(np.array([[bad, 1.0]]))

    def test_point_storage_is_read_only(self):
        pts = np.array([[1.0, 2.0]])
        ts = self._shift(pts)
        with pytest.raises(ValueError):
            ts.points[0, 0] = 5.0
        pts[0, 0] = 5.0  # the caller's array stays writable and is not shared
        assert ts.points.tolist() == [[1.0, 2.0]]
        assert ts.shifted.tolist() == [[-1.0, 2.0]]
