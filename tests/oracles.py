"""Structure-free oracles the exact solvers are checked against.

For the factor-revealing model: its documented witness, a check of a
point against the model's constraints before linearization, and one
branch's continuous program on its own.  For matrix validation: the
triangle check as a plain Python loop.  For the dense simplex: one
right-hand side on a tableau of its own, pivoted row by row.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from openride import lp as lp_module
from openride.factor_revealing import BIG_M, MilpInstance
from openride.lp import LP_TOL, LinearProgram, LpSolution
from openride.model import Instance
from openride.numeric import OPTIMAL_ALPHA_HALF_LINE, TOLERANCE
from openride.offline import SearchCapExceeded

NAIVE_CAP = 6

# the 16 binary assignments in the model's branch order, the first binary most significant
BRANCH_CODES = tuple(((c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1) for c in range(16))


def opt_upto_naive(inst: Instance, t: float) -> float:
    """Exhaustive-enumeration oracle for opt_upto's completion value.

    Enumerates every capacity-feasible interleaving of pickup and
    delivery events with greedy earliest-feasible timing.  No pruning,
    no relaxations, and its own distance table from inst.space.distance:
    it shares only the timing rule with the branch and bound, the
    earliest feasible execution of a fixed order, optimal per order
    since event times are monotone in their predecessors.  Capped at
    NAIVE_CAP requests.
    """
    releases = [r.release for r in inst.requests]
    k = bisect_right(releases, t)  # released by t, as OptCache counts them
    if k > NAIVE_CAP:
        raise SearchCapExceeded(f"{k} released requests exceed the oracle cap {NAIVE_CAP}")
    # point 0 is the origin, then the pickup 1 + 2j and dropoff 2 + 2j of request j
    pts = [inst.space.origin]
    for r in inst.requests[:k]:
        pts += [r.a, r.b]
    dist = [[inst.space.distance(p, q) for q in pts] for p in pts]
    rel = releases[:k]
    cap = inst.effective_capacity
    full = (1 << k) - 1
    best = [float("inf")]

    def go(pos: int, t_now: float, loaded: int, done: int) -> None:
        if done == full:
            if t_now < best[0]:
                best[0] = t_now
            return
        room = loaded.bit_count() < cap
        for j in range(k):
            bit = 1 << j
            if done & bit:
                continue
            if loaded & bit:
                tgt = 2 + 2 * j
                go(tgt, t_now + dist[pos][tgt], loaded & ~bit, done | bit)
            elif room:
                tgt = 1 + 2 * j
                go(tgt, max(t_now + dist[pos][tgt], rel[j]), loaded | bit, done)

    go(0, 0.0, 0, 0)
    return best[0]


def triangle_fault_naive(d) -> str | None:
    """metric._metric_fault's triangle message for the first (i, j, k) in loop order, else None.

    Tests every triple in Python, n^3 steps; the library tests a block of
    rows i per numpy pass and must name the same triple in the same words.
    """
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k] + TOLERANCE:
                    return (f"triangle: d[{i}][{k}] = {d[i][k]} > "
                            f"d[{i}][{j}] + d[{j}][{k}] = {d[i][j] + d[j][k]}")
    return None


def witness_solution(alpha: float) -> tuple[tuple[float, ...], tuple[int, int, int, int]]:
    """The factor_revealing docstring's optimal witness for alpha in [1, (1+sqrt(3))/2]."""
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


def substitute(milp: MilpInstance, binaries) -> LinearProgram:
    """One branch of the model as a continuous program of its own: the four binaries fixed.

    solve_fr solves all 16 branches from one batch; this builds the one
    whose binaries are given, relaxing each row it does not enforce by
    BIG_M, so a single simplex solve can be checked against the batch.
    """
    b = tuple(binaries)
    if b not in BRANCH_CODES:
        raise ValueError("binaries must be four 0/1 values")
    base = milp.base
    return LinearProgram(objective=base.objective, a_ub=base.a_ub,
                         b_ub=base.b_ub + BIG_M * milp.relax[BRANCH_CODES.index(b)],
                         lb=base.lb, ub=base.ub)


def _loop_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _loop_set_costs(T, basis, z):
    priced = [i for i in range(len(basis)) if z[basis[i]] != 0.0]
    for i in priced:
        z -= z[basis[i]] * T[i]
    T[-1] = z


def _loop_run_simplex(T, basis, enter_limit, tol):
    m = T.shape[0] - 1
    pivots = 0
    while True:
        col = -1
        for j in range(enter_limit):
            if T[-1, j] > tol:
                col = j
                break
        if col < 0:
            return "optimal", pivots
        best, row = np.inf, -1
        for i in range(m):
            if T[i, col] > tol:
                ratio = T[i, -1] / T[i, col]
                if ratio < best - tol or (ratio <= best + tol and (row < 0 or basis[i] < basis[row])):
                    if ratio < best:
                        best = ratio
                    row = i
        if row < 0:
            return "unbounded", pivots
        _loop_pivot(T, basis, row, col)
        pivots += 1
        if pivots > lp_module._MAX_PIVOTS:
            return "numerical", pivots


def solve_lp_naive(lp: LinearProgram, b_ub=None) -> LpSolution:
    """lp with b_ub in place of its own, on a tableau of its own, pivoted row by row.

    The two-phase simplex the library runs, with the same pivot rules and
    tolerances, for one right-hand side: every row operation is a Python
    loop, and nothing is shared with another right-hand side.  A row
    negated to make its right-hand side nonnegative gets an artificial
    column, numbered in row order; the pivot limit counts each phase's
    pivots, read from the library at call time.
    """
    b_ub = lp.b_ub if b_ub is None else np.asarray(b_ub, dtype=float)
    n, k = lp.objective.shape[0], lp.a_ub.shape[0]
    shift = lp.a_ub @ lp.lb
    bounded = [j for j in range(n) if np.isfinite(lp.ub[j])]
    m = k + len(bounded)
    rows = []  # (coefficients over the variables and slacks, right-hand side)
    for i in range(k):
        coef = np.zeros(n + m)
        coef[:n] = lp.a_ub[i]
        coef[n + i] = 1.0
        rows.append((coef, b_ub[i] - shift[i]))
    for r, j in enumerate(bounded):
        coef = np.zeros(n + m)
        coef[j] = coef[n + k + r] = 1.0
        rows.append((coef, lp.ub[j] - lp.lb[j]))
    art_rows = [i for i, (_, rhs) in enumerate(rows) if rhs < 0]
    width = n + m + len(art_rows)
    T = np.zeros((m + 1, width + 1))
    basis = list(range(n, n + m))
    for i, (coef, rhs) in enumerate(rows):
        sign = -1.0 if rhs < 0 else 1.0
        T[i, : n + m] = coef * sign
        T[i, -1] = rhs * sign
    for j, i in enumerate(art_rows):
        T[i, n + m + j] = 1.0
        basis[i] = n + m + j

    pivots = 0
    if art_rows:
        z = np.zeros(width + 1)
        z[n + m : width] = -1.0
        _loop_set_costs(T, basis, z)
        status, p1 = _loop_run_simplex(T, basis, width, LP_TOL)
        pivots += p1
        if status == "numerical":
            return LpSolution("numerical", None, None, (), pivots)
        if T[-1, -1] > 1e-7:
            return LpSolution("infeasible", None, None, (), pivots)
        for i in range(m):
            if basis[i] >= n + m:
                for j in range(n + m):
                    if abs(T[i, j]) > 1e-7:
                        _loop_pivot(T, basis, i, j)
                        pivots += 1
                        break
    z = np.zeros(width + 1)
    z[:n] = lp.objective
    _loop_set_costs(T, basis, z)
    status, p2 = _loop_run_simplex(T, basis, n + m, LP_TOL)
    pivots += p2
    if status != "optimal":
        return LpSolution(status, None, None, (), pivots)
    y = np.zeros(width)
    for i in range(m):
        y[basis[i]] = T[i, -1]
    x = lp.lb + y[:n]
    resid = lp.a_ub @ x - b_ub
    active = tuple(i for i in range(k) if resid[i] >= -1e-7)
    return LpSolution("optimal", x, float(lp.objective @ x), active, pivots)
