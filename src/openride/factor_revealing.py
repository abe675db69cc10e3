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

* prev_start, prev_len   start time and length of the second-to-last plan
* last_start, last_len   start time and length of the last plan
* prev_opt, last_opt     optimum value at the two start times
* prev_end               where the second-to-last plan ends
* first_pickup           where the reference tour collects the last batch first
* serve_from_pickup      time to serve the last batch from that point
* pickup_gap             distance between prev_end and first_pickup

Four case distinctions are linearized with big-M rows and a binary
each: the sign inside the gap's absolute value, which argument attains
the start-time maximum, how the reference tour reaches the pickup, and
whether the gap dominates the waiting slack.  Convention: binary = 1
enforces the first inequality of its pair, binary = 0 the second.

Two tightening rows close the model so its optimum matches the closed
form max{3 + 1/alpha - alpha, 1 + alpha} on alpha in [1, 2]: the last
plan is never longer than the final optimum, and the pickup gap never
exceeds (2 - alpha) times the final optimum.  Without them the model
admits an inflated objective of 2 + 1/alpha (reachable only through
scenarios the waiting rule would interrupt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lp import LinearProgram, LpSolution, solve_lp
from .numeric import OPTIMAL_ALPHA_HALF_LINE

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

DEFAULT_BIG_M = 1000.0
BOX_BOUND = 100.0
_VALUE_TIE = 1e-7

# variable indices
_T1, _T2, _S1, _S2, _O1, _O2, _P1, _P2, _SA, _D = range(10)


class FactorRevealingError(RuntimeError):
    """A branch solve violated a model sanity check."""


@dataclass(frozen=True)
class FrRow:
    """One inequality coeffs @ x <= rhs + big_m * (m_const + m_coef @ b)."""

    name: str
    coeffs: tuple[float, ...]
    rhs: float
    m_const: float = 0.0
    m_coef: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class MilpInstance:
    alpha: float
    big_m: float
    objective: tuple[float, ...]
    rows: tuple[FrRow, ...]

    def __post_init__(self):
        if not (math.isfinite(self.big_m) and self.big_m > 0):
            raise ValueError("big_m must be positive and finite")

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rhs, m_const, m_coef) as read-only arrays, built once."""
        arrays = (
            np.array([r.rhs for r in self.rows]),
            np.array([r.m_const for r in self.rows]),
            np.array([r.m_coef for r in self.rows]),
        )
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def _base(self) -> LinearProgram:
        """The program with no row relaxed; each branch swaps in its b_ub.

        Built once per model, so all 16 branch programs share its arrays
        and its standard form.
        """
        n = len(VARIABLES)
        return LinearProgram(objective=self.objective, a_ub=[r.coeffs for r in self.rows],
                             b_ub=self._arrays[0], lb=np.zeros(n), ub=np.full(n, BOX_BOUND))


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


def _row(name, rhs, m_const=0.0, m_coef=(0.0, 0.0, 0.0, 0.0), **vars_) -> FrRow:
    coeffs = [0.0] * 10
    for var, c in vars_.items():
        coeffs[VARIABLES.index(var)] = float(c)
    return FrRow(name, tuple(coeffs), float(rhs), float(m_const), tuple(float(c) for c in m_coef))


def build_fr_milp(alpha: float, big_m: float = DEFAULT_BIG_M) -> MilpInstance:
    """Assemble the model for one waiting parameter, alpha in [1, 2]."""
    if not 1.0 <= alpha <= 2.0:
        raise ValueError("the model covers waiting parameters in [1, 2]")
    a = float(alpha)
    rows = (
        # the final optimum is the unit of measurement
        _row("opt-normalized-upper", 1.0, last_opt=1.0),
        _row("opt-normalized-lower", -1.0, last_opt=-1.0),
        # pickup_gap = |prev_end - first_pickup|
        _row("gap-above-signed", 0.0, prev_end=1.0, first_pickup=-1.0, pickup_gap=-1.0),
        _row("gap-above-negated", 0.0, prev_end=-1.0, first_pickup=1.0, pickup_gap=-1.0),
        _row("gap-tight-signed", 0.0, m_const=1.0, m_coef=(-1.0, 0.0, 0.0, 0.0),
             pickup_gap=1.0, prev_end=-1.0, first_pickup=1.0),
        _row("gap-tight-negated", 0.0, m_coef=(1.0, 0.0, 0.0, 0.0),
             pickup_gap=1.0, prev_end=1.0, first_pickup=-1.0),
        # last_start = max{prev_start + prev_len, alpha * last_opt}
        _row("start-after-prev-plan", 0.0, prev_start=1.0, prev_len=1.0, last_start=-1.0),
        _row("start-after-wait", 0.0, last_opt=a, last_start=-1.0),
        _row("start-tight-prev-plan", 0.0, m_const=1.0, m_coef=(0.0, -1.0, 0.0, 0.0),
             last_start=1.0, prev_start=-1.0, prev_len=-1.0),
        _row("start-tight-wait", 0.0, m_coef=(0.0, 1.0, 0.0, 0.0),
             last_start=1.0, last_opt=-a),
        # the waiting rule delays the second-to-last start
        _row("prev-start-after-wait", 0.0, prev_opt=a, prev_start=-1.0),
        # the second-to-last plan ends within reach of its optimum
        _row("prev-end-within-opt", 0.0, prev_end=1.0, prev_opt=-1.0),
        # serving the last batch from prev_end detours through the pickup
        _row("last-len-via-pickup", 0.0, last_len=1.0, pickup_gap=-1.0, serve_from_pickup=-1.0),
        # the reference tour collects the last batch after prev_start
        _row("opt-serves-batch-late", 0.0, prev_start=1.0, serve_from_pickup=1.0, last_opt=-1.0),
        # the second-to-last plan is on time
        _row("prev-plan-on-time", 0.0, prev_start=1.0, prev_len=1.0, prev_opt=-(1.0 + a)),
        # how the reference tour reaches the pickup (disjunction)
        _row("reach-via-prev-end", 0.0, m_const=1.0, m_coef=(0.0, 0.0, -1.0, 0.0),
             prev_end=1.0, pickup_gap=1.0, last_opt=-1.0),
        _row("reach-after-prev-start", 0.0, m_coef=(0.0, 0.0, 1.0, 0.0),
             prev_start=1.0, pickup_gap=1.0, last_opt=-1.0),
        # either the gap dominates the waiting slack ... (disjunction)
        _row("gap-dominates-slack", 0.0, m_const=1.0, m_coef=(0.0, 0.0, 0.0, -1.0),
             last_opt=a, prev_opt=-1.0, pickup_gap=-1.0),
        # ... or the detour out and back fits twice the remaining slack
        _row("detour-fits-slack", 0.0, m_coef=(0.0, 0.0, 0.0, 1.0),
             prev_len=1.0, prev_end=-1.0, last_opt=-2.0, first_pickup=2.0),
        # tightening: no plan is longer than the optimum at its start
        _row("last-len-within-opt", 0.0, last_len=1.0, last_opt=-1.0),
        # tightening: the pickup gap is capped by the waiting slack at 2 - alpha
        _row("gap-capped", 0.0, pickup_gap=1.0, last_opt=-(2.0 - a)),
    )
    objective = tuple(1.0 if i in (_T2, _S2) else 0.0 for i in range(10))
    return MilpInstance(alpha=a, big_m=float(big_m), objective=objective, rows=rows)


def _m_mult(milp: MilpInstance, binaries) -> np.ndarray:
    """Per row, m_const + m_coef @ binaries: how many big-Ms relax it."""
    _, m_const, m_coef = milp._arrays
    return m_const + m_coef @ np.asarray(binaries, dtype=float)


def substitute(milp: MilpInstance, binaries) -> LinearProgram:
    """Fix the four binaries and return the continuous program."""
    b = tuple(int(v) for v in binaries)
    if len(b) != 4 or any(v not in (0, 1) for v in b):
        raise ValueError("binaries must be four 0/1 values")
    rhs = milp._arrays[0]
    return milp._base.with_rhs(rhs + milp.big_m * _m_mult(milp, b))


def fr_closed_form(alpha: float) -> float:
    """max{3 + 1/alpha - alpha, 1 + alpha}, the model's optimal value."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return max(3.0 + 1.0 / alpha - alpha, 1.0 + alpha)


def _check_branch(milp: MilpInstance, binaries, lp: LinearProgram, sol: LpSolution) -> None:
    """Big-M and box sanity: relaxed rows and box bounds must stay slack."""
    relaxed = _m_mult(milp, binaries) > 0.5  # rows disabled in this branch
    tight = np.flatnonzero(relaxed & (lp.a_ub @ sol.x > lp.b_ub - 1.0))
    if tight.size:
        raise FactorRevealingError(
            f"big-M too small: relaxed row {milp.rows[tight[0]].name} nearly tight at {binaries}")
    if np.any(sol.x > BOX_BOUND - 1.0):
        raise FactorRevealingError(f"box bound active at {binaries}; model unbounded?")


def _lex_cmp(a, b, tol: float) -> int:
    for u, v in zip(a, b):
        if u > v + tol:
            return 1
        if u < v - tol:
            return -1
    return 0


def solve_fr(alpha: float, big_m: float = DEFAULT_BIG_M) -> FrSolution:
    """Maximize over all 16 binary branches.

    The branch LPs differ only in b_ub, so they share one program's
    arrays and standard form (``LinearProgram.with_rhs``), but each is
    still solved from its own fresh tableau: no basis or pivot carries
    over from one branch to the next.  The reported optimum is the best
    branch.  Among branches tying on the objective the one whose
    solution vector is lexicographically largest wins (the extreme
    witness, with the latest start times first), and an exact solution
    tie goes to the largest binary assignment read as a 4-bit integer
    (first binary most significant).
    """
    milp = build_fr_milp(alpha, big_m)
    branches = []
    best = None  # (value, x, code)
    for code in range(16):
        b = ((code >> 3) & 1, (code >> 2) & 1, (code >> 1) & 1, code & 1)
        lp = substitute(milp, b)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            branches.append(FrBranchResult(b, sol.status, None, None, ()))
            continue
        _check_branch(milp, b, lp, sol)
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
    binaries = ((code >> 3) & 1, (code >> 2) & 1, (code >> 1) & 1, code & 1)
    return FrSolution(alpha=alpha, value=value, x=x, binaries=binaries,
                      branches=tuple(branches))


def witness_solution(alpha: float) -> tuple[tuple[float, ...], tuple[int, int, int, int]]:
    """The documented optimal witness for alpha in [1, (1+sqrt(3))/2]."""
    if not 1.0 <= alpha <= OPTIMAL_ALPHA_HALF_LINE + 1e-12:
        raise ValueError("witness is optimal only up to (1+sqrt(3))/2")
    x = (
        1.0,
        (alpha + 1.0) / alpha,
        1.0 / alpha,
        2.0 - alpha,
        1.0 / alpha,
        1.0,
        0.0,
        2.0 - alpha,
        0.0,
        2.0 - alpha,
    )
    return x, (0, 1, 1, 1)


def check_unlinearized(alpha: float, x, tol: float = 1e-7) -> list[str]:
    """Names of the model's pre-linearization constraints violated by x.

    Checks the original disjunctive system (absolute value, maximum,
    and the two either-or constraints) rather than the big-M rows, so
    it certifies that a branch optimum is meaningful independently of
    the linearization.
    """
    t1, t2, s1, s2, o1, o2, p1, p2, sa, d = x
    bad = []
    if abs(o2 - 1.0) > tol:
        bad.append("opt-normalized")
    if abs(d - abs(p1 - p2)) > tol:
        bad.append("gap-is-distance")
    if abs(t2 - max(t1 + s1, alpha * o2)) > tol:
        bad.append("start-is-max")
    if t1 < alpha * o1 - tol:
        bad.append("prev-start-after-wait")
    if p1 > o1 + tol:
        bad.append("prev-end-within-opt")
    if s2 > d + sa + tol:
        bad.append("last-len-via-pickup")
    if t1 + sa > o2 + tol:
        bad.append("opt-serves-batch-late")
    if t1 + s1 > (1.0 + alpha) * o1 + tol:
        bad.append("prev-plan-on-time")
    if p1 + d > o2 + tol and t1 + d > o2 + tol:
        bad.append("reach-disjunction")
    if d < alpha * o2 - o1 - tol and s1 - p1 > 2.0 * (o2 - p2) + tol:
        bad.append("slack-disjunction")
    if s2 > o2 + tol:
        bad.append("last-len-within-opt")
    if d > (2.0 - alpha) * o2 + tol:
        bad.append("gap-capped")
    if min(x) < -tol:
        bad.append("nonnegative")
    return bad
