"""Exact offline solvers.

Three problems are solved exactly for small request sets:

* opt_upto (through OptCache): the release-respecting optimum starting
  at the origin at time 0 over all requests released up to a cutoff
  (depth-first branch and bound with a release-free relaxation
  shortcut);
* shortest_schedule: minimal-travel serving order ignoring release
  times, over some of an instance's requests, from an arbitrary start
  point;
* fastest_delivery_and_return: quickest way to drop off everything on
  board and come back to the origin.

OptCache compiles an instance once (its points and distance table) and
memoizes one release-free (position, loaded, done) DP over it.  The
planner shares that cache: it marks every request outside its set as
done, so one run has one table and one DP.  Searches are exponential in
the number of requests and are capped at a fixed DEFAULT_SEARCH_CAP of
10 requests.  opt_upto_naive is a deliberately structure-free
enumeration over all feasible event orders used as an oracle; it shares
nothing with the branch and bound beyond the greedy timing rule
(earliest feasible execution of a fixed order, which is optimal per
order because event times are monotone in their predecessors).
"""

from __future__ import annotations

from bisect import bisect_right

from .metric import MetricSpace, Point
from .model import Instance, Load, Move, Request, Schedule, Unload, Wait
from .numeric import TIE_EPS, tolerance

DEFAULT_SEARCH_CAP = 10
NAIVE_CAP = 6

_INF = float("inf")


class SearchCapExceeded(RuntimeError):
    """Request set larger than the exact-search cap."""


class _Compiled:
    """Request data flattened for the searches.

    Points are indexed 0 (the origin) then pickup/dropoff pairs in
    request order: pickup of local request j is point 1 + 2j, dropoff
    2 + 2j.  All pairwise distances are precomputed.
    """

    __slots__ = ("ids", "points", "dist", "rel", "cap", "m")

    def __init__(self, space: MetricSpace, requests: list[Request], capacity: int | None):
        self.m = len(requests)
        self.ids = [r.id for r in requests]
        pts: list[Point] = [space.origin]
        for r in requests:
            pts.append(r.a)
            pts.append(r.b)
        self.points = pts
        self.dist = [[space.distance(p, q) for q in pts] for p in pts]
        self.rel = [r.release for r in requests]
        self.cap = self.m if capacity is None else capacity


def _build_schedule(comp: _Compiled, seq, space: MetricSpace, start: Point, row,
                    start_time: float = 0.0):
    """Turn an event sequence [(j, is_unload), ...] from start into a Schedule.

    row holds the distances from start to the compiled points.  Returns
    (schedule, finish_time).  Waits are inserted before loads that would
    otherwise happen ahead of the release time.
    """
    actions = []
    here = start
    t = start_time
    for j, is_unload in seq:
        tgt = 2 + 2 * j if is_unload else 1 + 2 * j
        there = comp.points[tgt]
        if not space.same_point(here, there):
            actions.append(Move(here, there, row[tgt]))
            t += row[tgt]
        here, row = there, comp.dist[tgt]
        if is_unload:
            actions.append(Unload(comp.ids[j]))
        else:
            if t < comp.rel[j] - TIE_EPS:
                actions.append(Wait(comp.rel[j]))
                t = comp.rel[j]
            actions.append(Load(comp.ids[j]))
    return Schedule(start, tuple(actions)), t


def _min_remaining(comp: _Compiled, memo: dict):
    """Memoized release-free minimum remaining travel.

    State is (position index, loaded mask, done mask); requests flagged
    done in the mask are simply skipped, so one memo serves every scope
    that marks out-of-scope requests as done.
    """
    dist = comp.dist
    cap = comp.cap
    m = comp.m
    full = (1 << m) - 1

    def rest(pos: int, loaded: int, done: int) -> float:
        if done == full:
            return 0.0
        key = (pos, loaded, done)
        val = memo.get(key)
        if val is not None:
            return val
        best = _INF
        room = loaded.bit_count() < cap
        for j in range(m):
            bit = 1 << j
            if done & bit:
                continue
            if loaded & bit:
                tgt = 2 + 2 * j
                c = dist[pos][tgt] + rest(tgt, loaded & ~bit, done | bit)
            elif room:
                tgt = 1 + 2 * j
                c = dist[pos][tgt] + rest(tgt, loaded | bit, done)
            else:
                continue
            if c < best:
                best = c
        memo[key] = best
        return best

    return rest


def _reconstruct_free(comp: _Compiled, rest, row, loaded: int, done: int, order):
    """Event order achieving the release-free minimum from a point.

    row holds the distances from that point to the compiled points.
    Among optimal orders the lexicographically smallest wins, requests
    ranked by their place in order, which lists every request not done.
    """
    full = (1 << comp.m) - 1
    seq = []
    while done != full:
        room = loaded.bit_count() < comp.cap
        steps = []
        for j in order:
            bit = 1 << j
            if done & bit:
                continue
            if loaded & bit:
                state = (2 + 2 * j, loaded & ~bit, done | bit)
            elif room:
                state = (1 + 2 * j, loaded | bit, done)
            else:
                continue
            steps.append((row[state[0]] + rest(*state), j, state))
        target = min(step[0] for step in steps)
        _, j, (pos, loaded, done) = next(step for step in steps if step[0] <= target + TIE_EPS)
        seq.append((j, pos == 2 + 2 * j))
        row = comp.dist[pos]
    return seq


def shortest_schedule(requests, start: Point, cache: OptCache, loaded_ids=(),
                      start_time: float = 0.0) -> Schedule:
    """Minimal-length schedule serving the given requests from start.

    The requests belong to the cache's instance; the plan uses its
    distance table and release-free DP with every other request marked
    done.  Release times are ignored for routing; a wait is only
    inserted when a pickup would happen before its request is released
    relative to start_time.  loaded_ids marks requests already on board
    (their pickups are skipped; they count against capacity from the
    start).  Ties are broken toward the lexicographically smallest event
    order by request id.
    """
    comp = cache.comp
    space = cache.inst.space
    order = [cache.index[r.id] for r in sorted(requests, key=lambda r: r.id)]
    if len(order) > DEFAULT_SEARCH_CAP:
        raise SearchCapExceeded(f"{len(order)} requests exceed the search cap {DEFAULT_SEARCH_CAP}")
    space.check_point(start)
    if not order:
        return Schedule(start, ())
    done = (1 << comp.m) - 1
    for j in order:
        done &= ~(1 << j)
    loaded = 0
    for rid in loaded_ids:
        j = cache.index.get(rid)
        if j is None or done >> j & 1:
            raise ValueError(f"request {rid} is on board but not planned")
        loaded |= 1 << j
    if loaded.bit_count() > comp.cap:
        raise ValueError("more requests on board than the capacity allows")
    row = [space.distance(start, p) for p in comp.points]
    seq = _reconstruct_free(comp, cache._rest, row, loaded, done, order)
    return _build_schedule(comp, seq, space, start, row, start_time)[0]


def fastest_delivery_and_return(destinations, pos: Point, space: MetricSpace):
    """Quickest drop-everything-and-go-home route.

    destinations is the multiset of dropoff points currently on board.
    Returns (duration, waypoints) where waypoints visits every distinct
    destination and ends at the origin.  Ties prefer the
    lexicographically smallest waypoint order.
    """
    space.check_point(pos)
    pts = sorted(set(destinations))
    if len(pts) > DEFAULT_SEARCH_CAP:
        raise SearchCapExceeded(f"{len(pts)} distinct destinations exceed the search cap {DEFAULT_SEARCH_CAP}")
    o = space.origin
    if not pts:
        return space.distance(pos, o), (o,)
    k = len(pts)
    start_d = [space.distance(pos, p) for p in pts]
    d = [[space.distance(p, q) for q in pts] for p in pts]
    home = [space.distance(p, o) for p in pts]
    memo: dict = {}

    def rest(i: int, remaining: int) -> float:
        if remaining == 0:
            return home[i]
        key = (i, remaining)
        val = memo.get(key)
        if val is not None:
            return val
        best = min(d[i][j] + rest(j, remaining & ~(1 << j)) for j in range(k) if remaining & (1 << j))
        memo[key] = best
        return best

    full = (1 << k) - 1
    total = min(start_d[i] + rest(i, full & ~(1 << i)) for i in range(k))
    route = []
    remaining = full
    cur = -1
    for _ in range(k):
        for j in range(k):
            bit = 1 << j
            if not remaining & bit:
                continue
            lead = start_d[j] if cur < 0 else d[cur][j]
            done_after = remaining & ~bit
            if lead + rest(j, done_after) <= (total if cur < 0 else rest(cur, remaining)) + TIE_EPS:
                route.append(pts[j])
                cur = j
                remaining = done_after
                break
    route.append(o)
    return total, tuple(route)


# ---------------------------------------------------------------------------
# release-respecting optimum


class OptCache:
    """Release-respecting optima for growing release prefixes of one instance.

    The simulator asks for the optimal completion over the currently
    released requests many times; the released set only changes at
    release epochs, so results are memoized per prefix (requests are
    stored sorted by release time).  The release-free relaxation memo is
    shared across prefixes and with shortest_schedule.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.comp = _Compiled(inst.space, list(inst.requests), inst.capacity)
        self.index = {rid: j for j, rid in enumerate(self.comp.ids)}  # request id -> position
        self._rest = _min_remaining(self.comp, {})
        self._solved: dict[int, tuple[Schedule, float]] = {}

    def prefix_for(self, t: float) -> int:
        return bisect_right(self.comp.rel, t + tolerance())

    def solve_prefix(self, k: int) -> tuple[Schedule, float]:
        got = self._solved.get(k)
        if got is None:
            got = self._solve(k)
            self._solved[k] = got
        return got

    def value(self, k: int) -> float:
        return self.solve_prefix(k)[1]

    def _greedy(self, k: int):
        """Always execute the earliest feasible event next; seed incumbent."""
        comp = self.comp
        dist, rel = comp.dist, comp.rel
        pos, t = 0, 0.0
        loaded = done = 0
        full = (1 << k) - 1
        seq = []
        while done != full:
            room = loaded.bit_count() < comp.cap
            best_t, best_j, best_u, best_tgt = _INF, -1, False, -1
            for j in range(k):
                bit = 1 << j
                if done & bit:
                    continue
                if loaded & bit:
                    tgt = 2 + 2 * j
                    tj = t + dist[pos][tgt]
                    u = True
                elif room:
                    tgt = 1 + 2 * j
                    tj = max(t + dist[pos][tgt], rel[j])
                    u = False
                else:
                    continue
                if tj < best_t - TIE_EPS:
                    best_t, best_j, best_u, best_tgt = tj, j, u, tgt
            seq.append((best_j, best_u))
            bit = 1 << best_j
            if best_u:
                loaded &= ~bit
                done |= bit
            else:
                loaded |= bit
            pos, t = best_tgt, best_t
        return seq, t

    def _solve(self, k: int) -> tuple[Schedule, float]:
        comp = self.comp
        if k > DEFAULT_SEARCH_CAP:
            raise SearchCapExceeded(f"{k} released requests exceed the search cap {DEFAULT_SEARCH_CAP}")
        if k == 0:
            return Schedule(self.inst.space.origin, ()), 0.0
        dist, rel = comp.dist, comp.rel
        full = (1 << k) - 1
        hidden = ((1 << comp.m) - 1) ^ full  # out-of-prefix requests count as done
        rest = self._rest

        seq0, val0 = self._greedy(k)
        best: list = [val0, list(seq0), None]

        def dfs(pos: int, t: float, loaded: int, done: int, seq: list) -> None:
            if done == full:
                if t < best[0]:
                    best[0], best[1], best[2] = t, list(seq), None
                return
            # once every remaining pickup is released, the rest is the
            # release-free relaxation, solved once and shared
            pending_rel = 0.0
            bound = t
            room = loaded.bit_count() < comp.cap
            for j in range(k):
                bit = 1 << j
                if done & bit:
                    continue
                if loaded & bit:
                    tj = t + dist[pos][2 + 2 * j]
                else:
                    if rel[j] > pending_rel:
                        pending_rel = rel[j]
                    tj = max(t + dist[pos][1 + 2 * j], rel[j]) + dist[1 + 2 * j][2 + 2 * j]
                if tj > bound:
                    bound = tj
            if pending_rel <= t:
                val = t + rest(pos, loaded, done | hidden)
                if val < best[0]:
                    best[0], best[1], best[2] = val, list(seq), (pos, loaded, done)
                return
            if bound >= best[0]:
                return
            for j in range(k):
                bit = 1 << j
                if done & bit:
                    continue
                if loaded & bit:
                    tgt = 2 + 2 * j
                    seq.append((j, True))
                    dfs(tgt, t + dist[pos][tgt], loaded & ~bit, done | bit, seq)
                    seq.pop()
                elif room:
                    tgt = 1 + 2 * j
                    seq.append((j, False))
                    dfs(tgt, max(t + dist[pos][tgt], rel[j]), loaded | bit, done, seq)
                    seq.pop()

        dfs(0, 0.0, 0, 0, [])
        seq = best[1]
        if best[2] is not None:
            pos, loaded, done = best[2]
            seq = seq + _reconstruct_free(comp, rest, dist[pos], loaded, done | hidden, range(k))
        return _build_schedule(comp, seq, self.inst.space, self.inst.space.origin, dist[0])


def opt_upto(inst: Instance, t: float, cache: OptCache | None = None) -> tuple[Schedule, float]:
    """Optimal completion over requests released up to time t.

    The schedule starts at the origin at time 0 and may wait for
    releases.  Returns (schedule, completion time).
    """
    if cache is None:
        cache = OptCache(inst)
    return cache.solve_prefix(cache.prefix_for(t))


def opt_upto_naive(inst: Instance, t: float) -> float:
    """Exhaustive-enumeration oracle for opt_upto's completion value.

    Enumerates every capacity-feasible interleaving of pickup and
    delivery events with greedy earliest-feasible timing.  No pruning,
    no relaxations; capped at 6 requests.
    """
    releases = [r.release for r in inst.requests]
    k = bisect_right(releases, t + tolerance())
    if k > NAIVE_CAP:
        raise SearchCapExceeded(f"{k} released requests exceed the oracle cap {NAIVE_CAP}")
    if k == 0:
        return 0.0
    comp = _Compiled(inst.space, list(inst.requests[:k]), inst.capacity)
    dist, rel, cap = comp.dist, comp.rel, comp.cap
    full = (1 << k) - 1
    best = [_INF]

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
