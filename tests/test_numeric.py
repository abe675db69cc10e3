"""Tolerance constants."""

from openride.numeric import CHECK_TOL, TOLERANCE


def test_default_tolerance():
    assert TOLERANCE == 1e-9
    assert CHECK_TOL == 1e-6
