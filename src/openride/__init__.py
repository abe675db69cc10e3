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

from .engine import (EngineError, GoodnessRow, IgnorePolicy, LazyPolicy,
                     ReplanPolicy, Simulation, check_alpha_good,
                     check_lazy_starts, simulate)
from .experiments import (FuzzConfig, HALF_LINE_LOWER_BOUND, RatioReport,
                          SweepRow, competitive_ratio, fuzz, gen_halfline_lb,
                          generate_instance, make_policy, sweep_lower_bounds)
from .factor_revealing import (BOX_BOUND, DEFAULT_BIG_M, FactorRevealingError,
                               FrBranchResult, FrSolution, MilpInstance,
                               VARIABLES, build_fr_milp, check_unlinearized,
                               fr_closed_form, solve_fr, substitute,
                               witness_solution)
from .lp import LinearProgram, LpSolution, solve_lp
from .metric import (HALF_LINE, LINE, MATRIX, InvalidPointError, MetricSpace,
                     MetricViolation, half_line, line, matrix_space)
from .model import (Instance, InstanceError, Load, Move, ParseError, Request,
                    Schedule, ScheduleRecord, ScheduleViolation, SemanticError,
                    Trace, TraceEvent, Unload, Wait, canonical_json,
                    instance_from_dict, instance_to_dict, make_instance,
                    parse_instance, schedule_length, trace_to_dict,
                    validate_schedule)
from .numeric import (DEFAULT_TOLERANCE, OPTIMAL_ALPHA_GENERAL,
                      OPTIMAL_ALPHA_HALF_LINE, set_tolerance, tolerance)
from .offline import (OptCache, SearchCapExceeded, fastest_delivery_and_return,
                      opt_upto, opt_upto_naive, shortest_schedule)

__version__ = "0.1.0"

__all__ = [
    "BOX_BOUND", "DEFAULT_BIG_M", "DEFAULT_TOLERANCE", "EngineError",
    "FactorRevealingError", "FrBranchResult", "FrSolution", "FuzzConfig",
    "GoodnessRow", "HALF_LINE", "HALF_LINE_LOWER_BOUND", "IgnorePolicy",
    "Instance", "InstanceError", "InvalidPointError", "LINE", "LazyPolicy",
    "LinearProgram", "Load", "LpSolution", "MATRIX", "MetricSpace",
    "MetricViolation", "MilpInstance", "Move", "OPTIMAL_ALPHA_GENERAL",
    "OPTIMAL_ALPHA_HALF_LINE", "OptCache", "ParseError", "RatioReport",
    "ReplanPolicy", "Request", "Schedule", "ScheduleRecord",
    "ScheduleViolation", "SearchCapExceeded", "SemanticError", "Simulation",
    "SweepRow", "Trace", "TraceEvent", "Unload", "VARIABLES", "Wait",
    "build_fr_milp", "canonical_json", "check_alpha_good",
    "check_lazy_starts", "check_unlinearized", "competitive_ratio",
    "fastest_delivery_and_return", "fr_closed_form", "fuzz", "gen_halfline_lb",
    "generate_instance", "half_line", "instance_from_dict", "instance_to_dict",
    "line", "make_instance", "make_policy", "matrix_space", "opt_upto",
    "opt_upto_naive", "parse_instance", "schedule_length", "set_tolerance",
    "shortest_schedule", "simulate", "solve_fr", "solve_lp",
    "sweep_lower_bounds", "tolerance", "trace_to_dict", "validate_schedule",
    "witness_solution",
]
