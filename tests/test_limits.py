"""The far-shift closed forms have one home, `ntkorigin.limits`.

The closed forms themselves are tested where they were first written: the
rank-one gram, its inverse and alpha in test_gram.py, the limit indicator in
test_kernel.py, and the beta blocks and their bias slopes in
test_regression.py.
"""

import pytest

from ntkorigin import gram, limits, regression

MOVED = ["asymptotic_gram", "sherman_morrison_inverse", "asymptotic_alpha", "_check_rank_one",
         "ClosedFormContext", "closed_form_context", "bias_slopes"]


@pytest.mark.parametrize("name", MOVED)
def test_closed_form_is_defined_only_in_limits(name):
    assert getattr(limits, name).__module__ == "ntkorigin.limits"
    assert not hasattr(gram, name)
    assert not hasattr(regression, name)


def test_test_only_surface_is_gone():
    assert not hasattr(regression, "beta_closed_form")
    assert "dtype" not in limits.sherman_morrison_inverse.__code__.co_varnames
