"""Structure-free oracles the exact solvers are checked against."""

from __future__ import annotations

from bisect import bisect_right

from openride.model import Instance
from openride.offline import SearchCapExceeded

NAIVE_CAP = 6


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
