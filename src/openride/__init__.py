"""Simulation and analysis toolkit for open online dial-a-ride.

A server starts at the origin of a metric space and receives transport
requests over time; it moves at unit speed, carries at most ``capacity``
requests, may not hand a request off once loaded, and wants to minimize
the time its last delivery happens (it does not return home).  The
package provides exact offline optima, online policies (a waiting
policy parameterized by alpha, replan, ignore), adversarial instance
families, randomized ratio fuzzing, and a small worst-case MILP whose
optimum traces the waiting policy's ratio on the half-line.
"""

from .engine import LazyPolicy, simulate
from .experiments import HALF_LINE_LOWER_BOUND, competitive_ratio
from .metric import half_line
from .model import make_instance
from .numeric import OPTIMAL_ALPHA_GENERAL, OPTIMAL_ALPHA_HALF_LINE
from .offline import OptCache

__version__ = "0.1.0"

# the names the README's Library section uses; everything else is
# imported from its submodule
__all__ = [
    "HALF_LINE_LOWER_BOUND", "LazyPolicy", "OPTIMAL_ALPHA_GENERAL",
    "OPTIMAL_ALPHA_HALF_LINE", "OptCache", "competitive_ratio", "half_line",
    "make_instance", "simulate",
]
