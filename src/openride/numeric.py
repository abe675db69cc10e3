"""Floating-point tolerances, constants and the two rules for numbers.

All threshold checks go through one absolute tolerance, TOLERANCE, so
that irrational parameters (sqrt(3)/2 offsets and friends) behave the
same way in the solvers, the simulator, and the validators.  The trace
checkers, which compare quantities computed along different paths,
allow the coarser CHECK_TOL.

What counts as a number is decided here and nowhere else.  is_int(v)
is an int that is not a bool: a capacity (model), a FuzzConfig count,
seed, size or worker count (experiments), a matrix node (metric) and
the prefix k of OptCache.value (offline).  real(v) reads a real number
as a float: an int that is not a bool, a float or another
numbers.Real, inside the float range.  It reads a release time, a line
coordinate and a matrix entry (model, metric), FuzzConfig's alpha
(experiments), the waiting parameter of LazyPolicy (engine),
fr_closed_form and build_fr_milp (factor_revealing), gen_halfline_lb
and sweep_lower_bounds (experiments), OptCache.prefix_for's cutoff t,
which opt_upto reads through it (offline), and each entry of a
LinearProgram's arrays and solve_lps's b_rows (lp) not given as an int
or float ndarray, each of which keeps its own range.
"""

from __future__ import annotations

import math
import numbers

TOLERANCE = 1e-9

# slack of the trace checkers
CHECK_TOL = 1e-6

# best waiting parameters on general metrics and on the half-line
OPTIMAL_ALPHA_GENERAL = 0.5 + math.sqrt(11.0 / 12.0)
OPTIMAL_ALPHA_HALF_LINE = (1.0 + math.sqrt(3.0)) / 2.0

# Reconstruction ties inside solvers are resolved at float-noise scale,
# well below the contract tolerance, so tie-breaking never costs more
# than rounding error.
TIE_EPS = 1e-12


def is_int(v) -> bool:
    """An int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def real(v, name: str | None = None) -> float:
    """float(v) for a real number that is not a bool and fits a float.

    Anything else raises ValueError "is not a number" or "is beyond the
    float range", after name when one is given.  A float is returned as
    it is, with no further test, and int and float are tested before the
    slower abstract-class check.
    """
    if type(v) is float:
        return v
    try:
        if not isinstance(v, bool) and isinstance(v, (int, float, numbers.Real)):
            return float(v)
        reason = "is not a number"
    except OverflowError:
        reason = "is beyond the float range"
    raise ValueError(reason if name is None else f"{name} {reason}")
