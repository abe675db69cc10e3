"""Floating-point tolerances and constants shared by every module.

All threshold checks go through one absolute tolerance, TOLERANCE, so
that irrational parameters (sqrt(3)/2 offsets and friends) behave the
same way in the solvers, the simulator, and the validators.  The trace
checkers, which compare quantities computed along different paths,
allow the coarser CHECK_TOL.
"""

from __future__ import annotations

import math

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
