"""Floating-point comparison helpers shared by every module.

All threshold checks go through one absolute tolerance so that
irrational parameters (sqrt(3)/2 offsets and friends) behave the same
way in the solvers, the simulator, and the checkers.
"""

from __future__ import annotations

import math

DEFAULT_TOLERANCE = 1e-9

# best waiting parameters on general metrics and on the half-line
OPTIMAL_ALPHA_GENERAL = 0.5 + math.sqrt(11.0 / 12.0)
OPTIMAL_ALPHA_HALF_LINE = (1.0 + math.sqrt(3.0)) / 2.0

# Reconstruction ties inside solvers are resolved at float-noise scale,
# well below the contract tolerance, so tie-breaking never costs more
# than rounding error.
TIE_EPS = 1e-12

_tolerance = DEFAULT_TOLERANCE


def set_tolerance(tol: float) -> None:
    """Replace the global comparison tolerance (CLI --tolerance)."""
    global _tolerance
    if not 0 < tol < float("inf"):
        raise ValueError("tolerance must be positive and finite")
    _tolerance = float(tol)


def tolerance() -> float:
    return _tolerance


def leq(a: float, b: float) -> bool:
    """a <= b up to the global tolerance."""
    return a <= b + _tolerance


def lt(a: float, b: float) -> bool:
    """a < b by more than the global tolerance."""
    return a < b - _tolerance


def close(a: float, b: float) -> bool:
    return abs(a - b) <= _tolerance
