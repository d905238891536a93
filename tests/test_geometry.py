"""Bias augmentation, shift construction and target labeling."""

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
    Point,
    QuadraticTarget,
    Realization,
    SinusoidalTarget,
    augment,
    shift_set,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestAugment:
    def test_appends_one(self):
        assert augment(Point([1.0, 2.0])).coords.tolist() == [1.0, 2.0, 1.0]

    def test_zero_point(self):
        assert augment(Point([0.0])).coords.tolist() == [0.0, 1.0]

    def test_negative_coords(self):
        assert augment(Point([-99.0, 2.0])).coords.tolist() == [-99.0, 2.0, 1.0]

    @given(st.lists(finite, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_identity(self, coords):
        p = Point(coords)
        assert np.array_equal(augment(p).coords[:-1], p.coords)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInput):
            Point([np.nan, 1.0])


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
        phi = Realization((Point([1.0, 2.0]), Point([0.5, -1.0])))
        ts = shift_set(phi, Direction([1.0, 0.0]), 3.0, SinusoidalTarget(u=[1.0, 0.0]))
        return [
            Point([1.0, 2.0]),
            augment(Point([1.0, 2.0])),
            Direction([1.0, 0.0]),
            phi,
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
        phi = Realization((Point([1.0, 2.0]),))
        g = LinearTarget(a=[1.0, 0.0])
        ts = shift_set(phi, Direction([1.0, 0.0]), 100.0, g)
        assert ts.shifted.tolist() == [[-99.0, 2.0]]
        assert ts.labels.tolist() == [-99.0]

    def test_zero_shift_is_identity(self):
        pts = [Point([0.3, -0.4]), Point([0.1, 0.9])]
        phi = Realization(tuple(pts))
        g = SinusoidalTarget(u=[1.0, 2.0], phase=0.5)
        ts = shift_set(phi, Direction([0.0, 1.0]), 0.0, g)
        assert np.array_equal(ts.shifted, phi.matrix())
        assert np.array_equal(ts.labels, g.value(phi.matrix()))

    def test_sinusoidal_labels_after_shift(self):
        phi = Realization((Point([0.0, 0.0]), Point([1.0, 1.0])))
        g = SinusoidalTarget(u=[1.0, 0.0])
        ts = shift_set(phi, Direction([0.0, 1.0]), 10.0, g)
        assert ts.shifted.tolist() == [[0.0, -10.0], [1.0, -9.0]]
        np.testing.assert_allclose(ts.labels, [np.sin(0.0), np.sin(1.0)], rtol=0, atol=0)

    def test_negative_shift_rejected(self):
        phi = Realization((Point([0.0]),))
        with pytest.raises(InvalidInput):
            shift_set(phi, Direction([1.0]), -1.0, LinearTarget(a=[1.0]))

    def test_dimension_mismatch(self):
        phi = Realization((Point([0.0, 0.0]),))
        with pytest.raises(DimensionError):
            shift_set(phi, Direction([1.0]), 1.0, LinearTarget(a=[1.0]))

    @given(
        st.lists(st.lists(finite, min_size=2, max_size=2), min_size=2, max_size=5),
        st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_commutes_with_permutation(self, rows, t):
        phi = Realization(tuple(Point(r) for r in rows))
        rev = Realization(tuple(Point(r) for r in reversed(rows)))
        g = SinusoidalTarget(u=[0.7, -0.3], phase=0.2)
        v = Direction([0.6, 0.8])
        a = shift_set(phi, v, t, g)
        b = shift_set(rev, v, t, g)
        assert np.array_equal(a.labels[::-1], b.labels)
        assert np.array_equal(a.shifted[::-1], b.shifted)

    def test_augmented_rows_carry_unit_bias(self):
        phi = Realization((Point([5.0, -3.0]),))
        ts = shift_set(phi, Direction([1.0, 1.0]), 2.0, LinearTarget(a=[0.0, 0.0], b=1.0))
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
    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            Realization(())

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionError):
            Realization((Point([1.0]), Point([1.0, 2.0])))

    def test_point_storage_is_read_only(self):
        phi = Realization((Point([1.0, 2.0]),))
        with pytest.raises(ValueError):
            phi.points[0].coords[0] = 5.0
        fresh = phi.matrix()
        fresh[0, 0] = 5.0  # matrix() hands out a writable copy
        assert phi.points[0].coords[0] == 1.0
