"""Structure-free oracles the exact solvers are checked against.

For the factor-revealing model: its documented witness, a check of a
point against the model's constraints before linearization, and one
branch's continuous program on its own.  For matrix validation: the
triangle check as a plain Python loop.
"""

from __future__ import annotations

from bisect import bisect_right

from openride.factor_revealing import BIG_M, MilpInstance
from openride.lp import LinearProgram
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
