"""Worst-case search over two-plan half-line scenarios as a small MILP.

The model describes the tail of a run of the waiting policy on the
half-line: the second-to-last plan (start, length, the optimum known
at its start, its end position) and the last plan (start, length, the
final optimum, the pickup the reference tour collects first, the time
to serve the last batch from that pickup, and the gap between the
server's end position and that pickup).  The objective, the final
completion time with the final optimum normalized to 1, is an upper
bound on the competitive ratio over scenarios of this shape.

Variables, in order:

* prev_start, last_start   start times of the second-to-last and last plans
* prev_len, last_len       lengths of the two plans
* prev_opt, last_opt       optimum value at the two start times
* prev_end                 where the second-to-last plan ends
* first_pickup             where the reference tour collects the last batch first
* serve_from_pickup        time to serve the last batch from that point
* pickup_gap               distance between prev_end and first_pickup

Four case distinctions are linearized with big-M rows and a binary
each: the sign inside the gap's absolute value, which argument attains
the start-time maximum, how the reference tour reaches the pickup, and
whether the gap dominates the waiting slack.  Convention: binary = 1
enforces the first inequality of its pair, binary = 0 the second.  A
branch fixes the four binaries and relaxes each row it does not enforce
by adding the constant ``BIG_M`` to its right-hand side; ``_check_branch``
fails the solve if a relaxed row comes near to binding, which would mean
BIG_M is too small for the model.

Two tightening rows close the model so its optimum matches the closed
form max{3 + 1/alpha - alpha, 1 + alpha} on alpha in [1, 2]: the last
plan is never longer than the final optimum, and the pickup gap never
exceeds (2 - alpha) times the final optimum.  Without them the model
admits an inflated objective of 2 + 1/alpha (reachable only through
scenarios the waiting rule would interrupt).

On alpha in [1, (1 + sqrt(3))/2] the closed form's first arm is attained
at binaries (0, 1, 1, 1) by this scenario: the second-to-last plan
starts at 1 with length and optimum 1/alpha and ends at the origin; the
last plan starts at (alpha + 1)/alpha with length 2 - alpha, its optimum
is 1, and the reference tour collects the last batch first at 2 - alpha,
a gap of 2 - alpha, and serves it from there at no extra cost.  Its
objective is (alpha + 1)/alpha + 2 - alpha = 3 + 1/alpha - alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, LpSolution, solve_lps
from .lp import solve_lp  # noqa: F401  perfbench/tracing.py wraps the simplex here by name
from .numeric import real

VARIABLES = (
    "prev_start",
    "last_start",
    "prev_len",
    "last_len",
    "prev_opt",
    "last_opt",
    "prev_end",
    "first_pickup",
    "serve_from_pickup",
    "pickup_gap",
)
BINARIES = ("gap_sign", "start_by_prev_end", "reach_via_prev_end", "gap_dominates")

BIG_M = 1000.0
BOX_BOUND = 100.0
_VALUE_TIE = 1e-7

# variable indices
_T1, _T2, _S1, _S2, _O1, _O2, _P1, _P2, _SA, _D = range(10)

# the 16 binary assignments; code c reads as a 4-bit integer, first binary most significant
_CODES = tuple(((c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1) for c in range(16))


class FactorRevealingError(RuntimeError):
    """A branch solve violated a model sanity check."""


@dataclass(frozen=True, eq=False)
class MilpInstance:
    """The model for one alpha.

    base is the program with every row enforced.  relax is a read-only
    (16, rows) table, 1.0 where branch code c relaxes a row by BIG_M and
    0.0 elsewhere, so every branch's b_ub is base.b_ub + BIG_M * relax[c].
    Instances compare by identity: their fields are arrays.
    """

    alpha: float
    names: tuple[str, ...]
    base: LinearProgram
    relax: np.ndarray


@dataclass(frozen=True)
class FrBranchResult:
    binaries: tuple[int, int, int, int]
    status: str
    value: float | None
    x: tuple[float, ...] | None
    active_rows: tuple[int, ...]


@dataclass(frozen=True)
class FrSolution:
    alpha: float
    value: float
    x: tuple[float, ...]
    binaries: tuple[int, int, int, int]
    branches: tuple[FrBranchResult, ...]


def build_fr_milp(alpha: float) -> MilpInstance:
    """Assemble the model for one waiting parameter, alpha in [1, 2]."""
    a = real(alpha, "alpha")
    if not 1.0 <= a <= 2.0:
        raise ValueError("the model covers waiting parameters in [1, 2]")
    # name, rhs, coefficients by variable index, and the (binary, value)
    # that enforces the row, or None for a row every branch enforces
    rows = (
        # the final optimum is the unit of measurement
        ("opt-normalized-upper", 1.0, {_O2: 1.0}, None),
        ("opt-normalized-lower", -1.0, {_O2: -1.0}, None),
        # pickup_gap = |prev_end - first_pickup|
        ("gap-above-signed", 0.0, {_P1: 1.0, _P2: -1.0, _D: -1.0}, None),
        ("gap-above-negated", 0.0, {_P1: -1.0, _P2: 1.0, _D: -1.0}, None),
        ("gap-tight-signed", 0.0, {_D: 1.0, _P1: -1.0, _P2: 1.0}, (0, 1)),
        ("gap-tight-negated", 0.0, {_D: 1.0, _P1: 1.0, _P2: -1.0}, (0, 0)),
        # last_start = max{prev_start + prev_len, alpha * last_opt}
        ("start-after-prev-plan", 0.0, {_T1: 1.0, _S1: 1.0, _T2: -1.0}, None),
        ("start-after-wait", 0.0, {_O2: a, _T2: -1.0}, None),
        ("start-tight-prev-plan", 0.0, {_T2: 1.0, _T1: -1.0, _S1: -1.0}, (1, 1)),
        ("start-tight-wait", 0.0, {_T2: 1.0, _O2: -a}, (1, 0)),
        # the waiting rule delays the second-to-last start
        ("prev-start-after-wait", 0.0, {_O1: a, _T1: -1.0}, None),
        # the second-to-last plan ends within reach of its optimum
        ("prev-end-within-opt", 0.0, {_P1: 1.0, _O1: -1.0}, None),
        # serving the last batch from prev_end detours through the pickup
        ("last-len-via-pickup", 0.0, {_S2: 1.0, _D: -1.0, _SA: -1.0}, None),
        # the reference tour collects the last batch after prev_start
        ("opt-serves-batch-late", 0.0, {_T1: 1.0, _SA: 1.0, _O2: -1.0}, None),
        # the second-to-last plan is on time
        ("prev-plan-on-time", 0.0, {_T1: 1.0, _S1: 1.0, _O1: -(1.0 + a)}, None),
        # how the reference tour reaches the pickup (disjunction)
        ("reach-via-prev-end", 0.0, {_P1: 1.0, _D: 1.0, _O2: -1.0}, (2, 1)),
        ("reach-after-prev-start", 0.0, {_T1: 1.0, _D: 1.0, _O2: -1.0}, (2, 0)),
        # either the gap dominates the waiting slack ... (disjunction)
        ("gap-dominates-slack", 0.0, {_O2: a, _O1: -1.0, _D: -1.0}, (3, 1)),
        # ... or the detour out and back fits twice the remaining slack
        ("detour-fits-slack", 0.0, {_S1: 1.0, _P1: -1.0, _O2: -2.0, _P2: 2.0}, (3, 0)),
        # tightening: no plan is longer than the optimum at its start
        ("last-len-within-opt", 0.0, {_S2: 1.0, _O2: -1.0}, None),
        # tightening: the pickup gap is capped by the waiting slack at 2 - alpha
        ("gap-capped", 0.0, {_D: 1.0, _O2: -(2.0 - a)}, None),
    )
    n = len(VARIABLES)
    a_ub = np.zeros((len(rows), n))
    relax = np.zeros((len(_CODES), len(rows)))
    for i, (_, _, coeffs, enforce) in enumerate(rows):
        for j, c in coeffs.items():
            a_ub[i, j] = c
        if enforce is not None:
            binary, value = enforce
            relax[:, i] = [b[binary] != value for b in _CODES]
    relax.flags.writeable = False
    objective = np.zeros(n)
    objective[[_T2, _S2]] = 1.0
    base = LinearProgram(objective=objective, a_ub=a_ub, b_ub=np.array([r[1] for r in rows]),
                         lb=np.zeros(n), ub=np.full(n, BOX_BOUND))
    return MilpInstance(alpha=a, names=tuple(r[0] for r in rows), base=base, relax=relax)


def fr_closed_form(alpha: float) -> float:
    """max{3 + 1/alpha - alpha, 1 + alpha}, the model's optimal value."""
    a = real(alpha, "alpha")
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"alpha must be positive and finite, got {a!r}")
    return max(3.0 + 1.0 / a - a, 1.0 + a)


def _check_branch(milp: MilpInstance, code: int, b_ub: np.ndarray, sol: LpSolution) -> None:
    """Big-M and box sanity: relaxed rows and box bounds must stay slack."""
    tight = np.flatnonzero((milp.relax[code] > 0.5) & (milp.base.a_ub @ sol.x > b_ub - 1.0))
    if tight.size:
        raise FactorRevealingError(
            f"big-M too small: relaxed row {milp.names[tight[0]]} nearly tight at {_CODES[code]}")
    if np.any(sol.x > BOX_BOUND - 1.0):
        raise FactorRevealingError(f"box bound active at {_CODES[code]}; model unbounded?")


def _lex_cmp(a, b, tol: float) -> int:
    for u, v in zip(a, b):
        if u > v + tol:
            return 1
        if u < v - tol:
            return -1
    return 0


def solve_fr(alpha: float) -> FrSolution:
    """Maximize over all 16 binary branches.

    The branch LPs differ only in b_ub, so ``solve_lps`` solves the base
    program once per branch row base.b_ub + BIG_M * relax[c], from one
    batch set-up.  The branches share one tableau, each as its own
    right-hand-side column, and share each pivot until their ratio tests
    part them; every branch still gets the result, pivot count and bits
    it would get on a tableau of its own.
    The reported optimum is the best branch.  Among branches tying on
    the objective the one whose solution vector is lexicographically
    largest wins (the extreme witness, with the latest start times
    first), and an exact solution tie goes to the largest binary
    assignment read as a 4-bit integer (first binary most significant).
    """
    milp = build_fr_milp(alpha)
    rows = milp.base.b_ub + BIG_M * milp.relax
    branches = []
    best = None  # (value, x, code)
    for code, (b, sol) in enumerate(zip(_CODES, solve_lps(milp.base, rows))):
        if sol.status != "optimal":
            branches.append(FrBranchResult(b, sol.status, None, None, ()))
            continue
        _check_branch(milp, code, rows[code], sol)
        x = tuple(sol.x.tolist())
        branches.append(FrBranchResult(b, "optimal", sol.value, x, sol.active_rows))
        if best is None or sol.value > best[0] + _VALUE_TIE:
            best = (sol.value, x, code)
        elif sol.value > best[0] - _VALUE_TIE:
            order = _lex_cmp(x, best[1], _VALUE_TIE)
            if order > 0 or (order == 0 and code > best[2]):
                best = (max(best[0], sol.value), x, code)
    if best is None:
        raise FactorRevealingError("every branch is infeasible")
    value, x, code = best
    return FrSolution(alpha=alpha, value=value, x=x, binaries=_CODES[code],
                      branches=tuple(branches))
