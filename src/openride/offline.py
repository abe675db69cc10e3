"""Exact offline solvers.

Three problems are solved exactly for small request sets:

* opt_upto (through OptCache): the release-respecting optimum starting
  at the origin at time 0 over all requests released up to a cutoff
  (depth-first branch and bound; dominance pruning cuts a state entered
  no earlier than a previous visit of it, and the release-free
  relaxation bounds every node past the root and ends the search once
  every pickup left is released);
* shortest_schedule: minimal-travel serving order ignoring release
  times, over some of an instance's requests, from an arbitrary start
  point;
* fastest_delivery_and_return: quickest way to drop off the requests
  on board and come back to the origin, as its duration and the Moves
  and Unloads the engine follows.
Both planners take request ids and the run's OptCache, whose instance
holds the requests; an id listed twice or one it lacks is refused.
cache_for gives every caller that takes an optional cache the one it
reads, and refuses a cache built for another instance.

OptCache compiles an instance once: its points, checked once, and its
distance table.  It fills the release-free (position, loaded, done) DP
bottom-up with numpy, one progress layer at a time and one min per move
rank, so no temporary is longer than a layer.  A state is coded in
ternary per request: untouched, on board or done.  The table is as long
as its cells, states with the pickup of a request on board or the
dropoff of a request done, where some event of the state left the
server.  It stores them in fill order: the all-done row, then one
contiguous slice per progress layer.  Every move ends on a cell, read
through one lookup(pos, loaded, done), which maps the state's flat code
to the cell's place through a per-shape rank array; a state that is no
cell maps past the table's end, so reading it raises IndexError.  A
fill's index arrays, rank and lookup's offsets are built once per shape
(request count, capacity) and cached up to CELL_CACHE_BYTES.  rank is
int32, as lookup reads it only through a memoryview.  The index arrays
are intp, so no take converts an index, for every shape that fits the
cache with them in intp: up to 9 requests, and 10 up to capacity 4.
The larger 10-request shapes are int32.
A root off the cells, such as the origin, takes one explicit DP step
(_step).  A reconstruction takes it at its start, then reads each target
from the table.

Searches are exponential in the number of requests and capped at
DEFAULT_SEARCH_CAP = 10.  A table covers all of its cache's requests; a
prefix or a plan over fewer marks the others done.  Up to the cap one
table serves every prefix and every plan.  Above it, 3**m rows would
not fit in memory, so every prefix solve and every plan reads an
OptCache over just its requests (OptCache._planner), and only the last
one is kept.
OptCache keeps each prefix's event order and value; a Schedule is built
only when opt_upto asks for one.  No solve or plan leaves a reference
cycle, so a run's cache, instance and table are freed when the caller
drops them.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right

import numpy as np

from .metric import Point, short_repr
from .model import Instance, Load, Move, Schedule, Unload, Wait
from .numeric import TIE_EPS, is_int, real

DEFAULT_SEARCH_CAP = 10
CELL_CACHE_BYTES = 32 << 20  # index arrays _cells keeps between tables

_INF = float("inf")
_cell_cache: dict = {}  # (k, cap) -> (shape, bytes), least recently used first


class SearchCapExceeded(RuntimeError):
    """Request set larger than the exact-search cap."""


def _walk(cache: OptCache, seq, start: Point, row, start_time: float = 0.0,
          actions: list | None = None) -> float:
    """Finish time of an event sequence [(j, is_unload), ...] run from start.

    row holds the distances from start to the cache's points.  A move
    to the same point takes no time, and a load waits for its release
    time.  When actions is a list, the schedule's actions are appended
    to it: a Wait goes before each load that would otherwise happen
    ahead of the release time.
    """
    space = cache.inst.space
    here = start
    t = start_time
    for j, is_unload in seq:
        tgt = 2 + 2 * j if is_unload else 1 + 2 * j
        there = cache.points[tgt]
        if not space.same_point(here, there):
            if actions is not None:
                actions.append(Move(here, there, row[tgt]))
            t += row[tgt]
        here, row = there, cache.dist[tgt]
        wait = not is_unload and t < cache.rel[j] - TIE_EPS
        if wait:
            t = cache.rel[j]
        if actions is not None:
            if wait:
                actions.append(Wait(t))
            actions.append(Unload(cache.ids[j]) if is_unload else Load(cache.ids[j]))
    return t


def _build_schedule(cache: OptCache, seq, start: Point, row, start_time: float = 0.0) -> Schedule:
    """The Schedule of an event sequence run from start (see _walk)."""
    actions: list = []
    _walk(cache, seq, start, row, start_time, actions)
    return Schedule(start, tuple(actions))


def _cells(k: int, cap: int):
    """Index arrays of the release-free DP over k requests, by progress layer.

    A state is a ternary code: digit j is 0 while request j is untouched,
    1 while it is on board and 2 once it is done, so picking up or
    dropping off request j always leads to the state code + 3**j.  Only
    states with at most cap requests on board are kept.  A cell is a
    state and a request j it has touched, standing for the point where
    j's last event left the server: its pickup while j is on board, its
    dropoff once j is done.  Every move ends on a cell of the state it
    leads to, so the DP reads cells only and only cells are computed.

    The table holds the cells alone, in fill order: the all-done row at
    positions 0 to k-1, then one slice per progress layer, last layer
    first.  Returns (size, layers, offsets, rank), size the table's
    length and one (lo, ranks) per layer, its slice starting at lo.
    Each cell pairs with every move of its state, and a pair costs entry
    d_idx of the flattened (2k+1)-square distance table plus table entry
    v_idx, the cell the move reaches.  A layer's cells are sorted by
    their move count, largest first (stable), and the pairs are grouped
    by move rank: ranks[r] = (d_idx, v_idx) holds the r-th move of every
    cell that has more than r moves, which are the first len(d_idx)
    cells of the slice.  So a fill needs no float array longer than a
    layer, and writes its first rank straight into the slice.

    rank maps the flat code code * k + j of cell (code, j) to its
    position in the table, in int32 for every shape, since lookup reads
    it only through a memoryview; every flat code that is no cell maps
    to the int32 maximum, past the table's end, so reading it raises
    IndexError.  offsets[mask] is k times the ternary code of a bitmask
    over the k requests, which lookup reads.  The index arrays are intp,
    so a fill's take converts none, when the shape's arrays, rank and
    offsets fit CELL_CACHE_BYTES with the index arrays in intp: every
    shape up to k = 9, and k = 10 up to capacity 4 (26.0 MiB).  The
    larger k = 10 shapes are int32 (21.8 MiB at unbounded capacity,
    41.3 MiB it would take in intp).  Shapes are kept per (k, cap), least
    recently used first, until they hold more than CELL_CACHE_BYTES; the
    newest shape is always kept, and none takes more than
    CELL_CACHE_BYTES (all ten k = 10 shapes, capacities 1 to 10, take
    178 MiB together).
    """
    key = (k, cap)
    got = _cell_cache.pop(key, None)
    if got is not None:
        _cell_cache[key] = got  # now the most recently used
        return got[0]
    offsets = [0]
    for j in range(k):
        offsets += [c + k * 3 ** j for c in offsets]
    offsets_bytes = sys.getsizeof(offsets) + sum(map(sys.getsizeof, offsets))
    # int32 holds every index, argsort's permutation of the cells aside: a
    # flat code stays below 2**31.  The arrays are built in their final
    # type: rank int32, the index arrays intp when rank plus two intp
    # indices per pair fit the cache
    i32 = np.int32
    steps = 3 ** np.arange(k, dtype=i32)
    digits = (np.arange(3 ** k, dtype=i32)[:, None] // steps % 3).astype(np.int8)
    onboard = (digits == 1).sum(axis=1, dtype=np.int8)
    progress = digits.sum(axis=1, dtype=np.int8)
    moves = (digits == 1) | ((digits == 0) & (onboard < cap)[:, None])
    kept = (progress > 0) & (progress < 2 * k) & (onboard <= cap)
    pairs = ((digits > 0).sum(axis=1) * moves.sum(axis=1))[kept].sum()
    fits = digits.size * 4 + 2 * pairs * np.dtype(np.intp).itemsize + offsets_bytes <= CELL_CACHE_BYTES
    it = np.intp if fits else i32
    steps = steps.astype(it)
    rank = np.full(digits.size, np.iinfo(i32).max, dtype=i32)  # a non-cell reads past the end
    rank[digits.size - k:] = np.arange(k)  # the all-done row
    width = 2 * k + 1
    layers = []
    lo = k
    for p in range(2 * k - 1, 0, -1):
        states = np.flatnonzero(kept & (progress == p)).astype(it)
        sub = digits[states]
        rows, js = (a.astype(it) for a in np.nonzero(sub))  # the cells, by state
        trows, tjs = (a.astype(it) for a in np.nonzero(moves[states]))  # the moves, by state
        counts = np.bincount(trows, minlength=len(states)).astype(it)
        first = np.cumsum(counts, dtype=it) - counts  # each state's first move
        per_cell = counts[rows]
        by_count = np.argsort(-per_cell, kind="stable")
        rows, js, per_cell = rows[by_count], js[by_count], per_cell[by_count]
        hi = lo + len(rows)
        rank[states[rows] * k + js] = np.arange(lo, hi, dtype=i32)
        pos = (2 * js + sub[rows, js]) * width
        tgt = 1 + 2 * tjs + sub[trows, tjs]
        reach = rank[(states[trows] + steps[tjs]) * k + tjs].astype(it, copy=False)  # a cell filled before
        ranks = []
        for r in range(per_cell[0]):  # every cell below the top layer has a move
            n = np.count_nonzero(per_cell > r)  # the cells with more than r moves
            move = first[rows[:n]] + r  # the r-th move of each one's state
            ranks.append((pos[:n] + tgt[move], reach[move]))
        layers.append((lo, tuple(ranks)))
        lo = hi
    shape = lo, tuple(layers), offsets, rank
    _cell_cache[key] = shape, offsets_bytes + rank.nbytes + sum(
        d.nbytes + v.nbytes for _, ranks in layers for d, v in ranks)
    held = sum(size for _, size in _cell_cache.values())
    for old in list(_cell_cache)[:-1]:
        if held <= CELL_CACHE_BYTES:
            break
        held -= _cell_cache.pop(old)[1]
    return shape


def _table_rest(cache: OptCache):
    """Release-free minimum remaining travel over all of the cache's requests, as one table.

    The table holds the cells of _cells only, in its layout: the all-done
    row is zero, and each layer is filled in its slice.  The returned
    lookup(pos, loaded, done) takes the cache's point indices and request
    bitmasks and reads a cell; reading a state that is no cell raises
    IndexError.  pos must agree with the bitmasks: the pickup of a request
    on board or the dropoff of a request done, never the origin.  lookup
    reads only which request pos belongs to and does not check this, so
    a caller that breaks it is caught by the tests, not at run time.
    Each layer takes the same min over the same float sums as the
    top-down recursion, so values match it bit for bit.
    """
    k = cache.m
    take = np.array(cache.dist).ravel().take
    size, layers, offsets, rank = _cells(k, min(cache.cap, k))
    flat = np.empty(size)
    flat[:k] = 0.0
    for lo, ranks in layers:
        # one min per move rank, over the cells that have that many moves;
        # a min returns one of its inputs, so the order of ranks is immaterial
        d_idx, v_idx = ranks[0]
        layer = flat[lo:lo + len(d_idx)]
        np.add(take(d_idx), flat.take(v_idx), out=layer)
        for d_idx, v_idx in ranks[1:]:
            cost = take(d_idx)
            cost += flat.take(v_idx)
            head = layer[:len(d_idx)]
            np.minimum(head, cost, out=head)
    at, value = memoryview(rank), memoryview(flat)  # each read costs a third of an ndarray.item

    def lookup(pos: int, loaded: int, done: int) -> float:
        return value[at[offsets[loaded] + 2 * offsets[done] + (pos - 1 >> 1)]]

    return lookup


def _step(cache: OptCache, lookup, row, loaded: int, done: int, order) -> float:
    """The release-free minimum from any root, row its distances to the points.

    Each move, the first of equal ones kept, reaches a cell, read through
    lookup; with nothing left, zero.
    """
    room = loaded.bit_count() < cache.cap
    best = None
    for j in order:
        bit = 1 << j
        if done & bit:
            continue
        if loaded & bit:
            pos = 2 + 2 * j
            cost = row[pos] + lookup(pos, loaded & ~bit, done | bit)
        elif room:
            pos = 1 + 2 * j
            cost = row[pos] + lookup(pos, loaded | bit, done)
        else:
            continue
        if best is None or cost < best:
            best = cost
    return 0.0 if best is None else best


def _reconstruct_free(cache: OptCache, lookup, row, loaded: int, done: int, order):
    """Event order achieving the release-free minimum from a point.

    row holds the distances from that point to the cache's points, and
    lookup reads the DP table's cells (see _table_rest).  Among optimal
    orders the lexicographically smallest wins, requests ranked by their
    place in order, which lists every request not done.  Only the start,
    which may be off the cells, takes the explicit step: every later
    state is a cell, whose table entry, read when the move into it was
    chosen, is the same min over the same float sums.  Each step takes
    the first move within TIE_EPS of its target, or the last move when
    rounding leaves none within it.
    """
    full = (1 << cache.m) - 1
    cap, dist = cache.cap, cache.dist
    seq = []
    target = _step(cache, lookup, row, loaded, done, order)
    while done != full:
        room = loaded.bit_count() < cap
        for j in order:
            bit = 1 << j
            if done & bit:
                continue
            if loaded & bit:
                pos, next_loaded, next_done = 2 + 2 * j, loaded & ~bit, done | bit
            elif room:
                pos, next_loaded, next_done = 1 + 2 * j, loaded | bit, done
            else:
                continue
            pick = j
            rest = lookup(pos, next_loaded, next_done)
            if row[pos] + rest <= target + TIE_EPS:
                break
        loaded, done = next_loaded, next_done
        seq.append((pick, pos == 2 + 2 * pick))
        row = dist[pos]
        target = rest  # the table entry of the state just entered
    return seq


def _check_ids(ids, inst: Instance) -> None:
    """Refuse an id listed twice or one that inst lacks, naming it."""
    seen = set()
    for rid in ids:
        if rid in seen:
            raise ValueError(f"request {short_repr(rid)} is listed twice")
        if rid not in inst._by_id:
            raise ValueError(f"request {short_repr(rid)} is not in the instance")
        seen.add(rid)


def shortest_schedule(ids, start: Point, cache: OptCache, loaded_ids=(),
                      start_time: float = 0.0) -> Schedule:
    """Minimal-length schedule serving the requests with these ids from start.

    The ids name requests of the cache's instance, which holds their
    points and release times: before any table is read, an id listed
    twice or one the instance lacks raises ValueError naming it.  The
    plan reads the release-free DP of the cache that OptCache._planner
    gives for them, with every other request marked done.  Release
    times are ignored for routing; a wait is only inserted when a pickup
    would happen before its request is released relative to start_time.
    loaded_ids marks requests already on board (their pickups are
    skipped; they count against capacity from the start).  Ties are
    broken toward the lexicographically smallest event order by request
    id.
    """
    if len(ids) > DEFAULT_SEARCH_CAP:
        raise SearchCapExceeded(f"{len(ids)} requests exceed the search cap {DEFAULT_SEARCH_CAP}")
    _check_ids(ids, cache.inst)
    space = cache.inst.space
    space.check_point(start)
    if not ids:
        return Schedule(start, ())
    cache = cache._planner(ids)
    order = [cache.index[rid] for rid in sorted(ids)]
    done = ((1 << cache.m) - 1) ^ sum(1 << j for j in order)  # every other request
    loaded = 0
    for rid in loaded_ids:
        j = cache.index.get(rid)
        if j is None or done >> j & 1:
            raise ValueError(f"request {rid} is on board but not planned")
        loaded |= 1 << j
    if loaded.bit_count() > cache.cap:
        raise ValueError("more requests on board than the capacity allows")
    row = space.table([start], cache.points)[0]
    seq = _reconstruct_free(cache, cache._rest_over(), row, loaded, done, order)
    return _build_schedule(cache, seq, start, row, start_time)


def fastest_delivery_and_return(ids, pos: Point, cache: OptCache):
    """Quickest drop-everything-and-go-home route for the requests with these ids on board.

    The ids name requests of the cache's instance: an id listed twice or
    one it lacks raises ValueError naming it.  Returns (duration,
    steps): the Moves and Unloads that take the requests to every
    distinct dropoff, lexicographically smallest stop order on ties,
    then home.  A move to the same point is skipped; a stop unloads, in
    id order, every request left whose dropoff is the same point.  Only
    pos is checked, as the instance checked the dropoffs.
    """
    _check_ids(ids, cache.inst)
    space = cache.inst.space
    space.check_point(pos)
    left = [cache.inst.request(rid) for rid in sorted(ids)]
    pts = sorted({r.b for r in left})
    if len(pts) > DEFAULT_SEARCH_CAP:
        raise SearchCapExceeded(f"{len(pts)} distinct destinations exceed the search cap {DEFAULT_SEARCH_CAP}")
    o = space.origin
    if not pts:  # straight home, the common case, without building the tables
        total = space.raw_distance(pos, o)
        return total, [] if space.same_point(pos, o) else [Move(pos, o, total)]
    nodes = [pos] + pts  # node 0 is the start, nodes 1.. the destinations
    dest_nodes = range(1, len(nodes))
    d = space.table(nodes, nodes + [o])  # the last column is home
    home = [row[-1] for row in d]
    memo: dict = {}

    def rest(i: int, remaining: int) -> float:  # node i, through every node in remaining, home
        if remaining == 0:
            return home[i]
        key = (i, remaining)
        val = memo.get(key)
        if val is None:
            val = memo[key] = min(d[i][j] + rest(j, remaining & ~(1 << j))
                                  for j in dest_nodes if remaining & (1 << j))
        return val

    remaining = (1 << len(nodes)) - 2  # every destination, not the start
    total = rest(0, remaining)
    steps: list = []
    cur = at = 0  # the stop just chosen, and the node the server stands at
    while remaining:  # the first next stop that stays optimal, so ties go lexicographically
        cur = next(j for j in dest_nodes if remaining & (1 << j)
                   and d[cur][j] + rest(j, remaining & ~(1 << j)) <= rest(cur, remaining) + TIE_EPS)
        remaining &= ~(1 << cur)
        stop = nodes[cur]
        if not space.same_point(nodes[at], stop):
            steps.append(Move(nodes[at], stop, d[at][cur]))
            at = cur
        steps += [Unload(r.id) for r in left if space.same_point(r.b, stop)]
        left = [r for r in left if not space.same_point(r.b, stop)]
    if not space.same_point(nodes[at], o):
        steps.append(Move(nodes[at], o, home[at]))
    del rest  # rest's closure cell holds rest itself: break the cycle so refcounting frees it
    return total, steps


# ---------------------------------------------------------------------------
# release-respecting optimum


class OptCache:
    """Release-respecting optima for growing release prefixes of one instance.

    The simulator asks for the optimal completion over the currently
    released requests many times; the released set only changes at
    release epochs, so results are memoized per prefix (requests are
    stored sorted by release time).

    The cache is the compiled instance: points are indexed 0 (the
    origin) then pickup/dropoff pairs in request order, the pickup of
    the request at position j being point 1 + 2j and its dropoff 2 + 2j.
    All pairwise distances are precomputed, unchecked, since the
    Instance checked its points.  Its one release-free DP table covers
    all of its requests; above the search cap, prefixes and plans read
    the cache of _planner instead, and the cache compiles only the
    points of its first DEFAULT_SEARCH_CAP requests, all that a
    schedule of a prefix within the cap visits.

    A request is released by time t when its release time is at most t,
    compared exactly, with no tolerance: the rule by which the engine
    releases a batch at its release time, before a command that ends at
    that time.  prefix_for(t), OPT(t) of opt_upto and the lazy checkers
    all count releases by it.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        reqs = inst.requests
        self.m = len(reqs)
        self.ids = [r.id for r in reqs]
        self.index = {rid: j for j, rid in enumerate(self.ids)}  # request id -> position
        pts: list[Point] = [inst.space.origin]
        for r in reqs[:DEFAULT_SEARCH_CAP]:  # no search reads a point past the cap
            pts.append(r.a)
            pts.append(r.b)
        self.points = pts
        self.dist = inst.space.table(pts, pts)
        self.rel = [r.release for r in reqs]
        self.cap = inst.effective_capacity
        self._lookup = None  # of the DP table, built on first use
        self._plan: tuple | None = None  # (ids, OptCache) of the last _planner cache above the cap
        self._solved: dict[int, tuple[tuple, float]] = {}  # prefix -> (event order, value)

    def _rest_over(self):
        """The release-free DP's lookup over all of this cache's requests, built on first use."""
        if self._lookup is None:
            self._lookup = _table_rest(self)
        return self._lookup

    def _planner(self, ids) -> OptCache:
        """The cache a solve or plan over these ids reads: this one, or above the cap one over just them.

        The only rule for what a table covers above the cap.  The last
        cache is kept, keyed by the ids, so plans from both
        ends of an edge build one table.  Its positions keep the order of
        this cache's, so a prefix's are the same in both.
        """
        if self.m <= DEFAULT_SEARCH_CAP:
            return self
        ids = frozenset(ids)
        if self._plan is None or self._plan[0] != ids:
            inst = self.inst
            self._plan = (ids, OptCache(Instance(inst.space, inst.capacity, tuple(map(inst.request, ids)))))
        return self._plan[1]

    def prefix_for(self, t: float) -> int:
        """The number of requests released by t: those whose release time is at most t, exactly."""
        return bisect_right(self.rel, t)

    def solve_prefix(self, k: int) -> tuple[tuple, float]:
        """The optimal event order over the first k requests and its completion time.

        The order is a tuple of (j, is_unload) events, j a request's
        position in the cache; opt_upto turns it into a Schedule.  A k
        that is not an integer from 0 to m raises ValueError naming k.
        """
        if not (is_int(k) and 0 <= k <= self.m):
            raise ValueError(f"k must be an integer from 0 to {self.m}, got {short_repr(k)}")
        got = self._solved.get(k)
        if got is None:
            got = self._solve(k)
            self._solved[k] = got
        return got

    def value(self, k: int) -> float:
        return self.solve_prefix(k)[1]

    def _greedy(self, k: int):
        """Always execute the earliest feasible event next; seed incumbent."""
        dist, rel, cap = self.dist, self.rel, self.cap
        pos, t = 0, 0.0
        loaded = done = 0
        full = (1 << k) - 1
        seq = []
        while done != full:
            row = dist[pos]
            room = loaded.bit_count() < cap
            best_t, best_j = _INF, -1
            for j in range(k):
                bit = 1 << j
                if done & bit:
                    continue
                if loaded & bit:
                    tj = t + row[2 + 2 * j]
                elif room:  # a pickup waits for its release
                    tj = t + row[1 + 2 * j]
                    if rel[j] > tj:
                        tj = rel[j]
                else:
                    continue
                if tj < best_t - TIE_EPS:
                    best_t, best_j = tj, j
            bit = 1 << best_j
            unload = bool(loaded & bit)
            if unload:
                loaded, done = loaded & ~bit, done | bit
            else:
                loaded |= bit
            pos = 2 + 2 * best_j if unload else 1 + 2 * best_j
            seq.append((best_j, unload))
            t = best_t
        return seq, t

    def _solve(self, k: int) -> tuple[tuple, float]:
        if k > DEFAULT_SEARCH_CAP:
            raise SearchCapExceeded(f"{k} released requests exceed the search cap {DEFAULT_SEARCH_CAP}")
        if k == 0:
            return (), 0.0
        planner = self._planner(self.ids[:k])
        if planner is not self:  # its positions are this cache's first k
            return planner._solve(k)
        dist, cap = self.dist, self.cap
        full = (1 << k) - 1
        hidden = ((1 << self.m) - 1) ^ full  # out-of-prefix requests count as done
        lookup = self._rest_over()
        # (j, bit, pickup, dropoff, release, ride) per request of the prefix
        reqs = [(j, 1 << j, 1 + 2 * j, 2 + 2 * j, self.rel[j], dist[1 + 2 * j][2 + 2 * j])
                for j in range(k)]
        seen: dict = {}  # (pos, loaded, done) packed in an int -> earliest entry time

        seq0, val0 = self._greedy(k)
        best: list = [val0, list(seq0), None]

        def dfs(pos: int, t: float, loaded: int, done: int, seq: list) -> None:
            # event times are monotone in t, so an earlier visit of the same
            # state already reached every completion this one could reach
            key = (pos << k | loaded) << k | done
            if seen.get(key, _INF) <= t:
                return
            seen[key] = t
            # the release-free relaxation bounds every completion from here.
            # The relative margin covers the rounding between the table's
            # sums and the forward sums of a completion, so a pruned subtree
            # holds no leaf that would strictly improve best.  Every state
            # but the root at the origin is a cell of the table; the root's
            # bound never beats the greedy seed, so it is read only below
            if pos:
                free = t + lookup(pos, loaded, done | hidden)
                if free > best[0] * (1.0 + 1e-12) + TIE_EPS:
                    return
            row = dist[pos]
            pending_rel = 0.0
            bound = t
            for j, bit, a, b, r, ride in reqs:
                if done & bit:
                    continue
                if loaded & bit:
                    tj = t + row[b]
                else:
                    if r > pending_rel:
                        pending_rel = r
                    x = t + row[a]
                    tj = (r if r > x else x) + ride
                if tj > bound:
                    bound = tj
            # once every remaining pickup is released, the relaxation is
            # the rest: the search stops here and the table's tail follows.
            # A state with every remaining request on board stops here, so
            # no state with every request done is ever entered
            if pending_rel <= t:
                if not pos:
                    free = t + _step(self, lookup, row, loaded, done | hidden, range(k))
                if free < best[0]:
                    best[0], best[1], best[2] = free, list(seq), (pos, loaded, done)
                return
            # the DP ignores releases, so where releases dominate this bound prunes
            if bound >= best[0]:
                return
            room = loaded.bit_count() < cap
            for j, bit, a, b, r, ride in reqs:
                if done & bit:
                    continue
                if loaded & bit:
                    seq.append((j, True))
                    dfs(b, t + row[b], loaded & ~bit, done | bit, seq)
                    seq.pop()
                elif room:
                    seq.append((j, False))
                    x = t + row[a]
                    dfs(a, r if r > x else x, loaded | bit, done, seq)
                    seq.pop()

        dfs(0, 0.0, 0, 0, [])
        del dfs  # dfs's closure cell holds dfs itself: break the cycle so refcounting frees the run
        seq = best[1]
        if best[2] is not None:
            pos, loaded, done = best[2]
            seq = seq + _reconstruct_free(self, lookup, dist[pos], loaded, done | hidden, range(k))
        # the value is the forward sum over the order, which can differ from
        # best[0] in the last bits when the order ends on the table's tail
        return tuple(seq), _walk(self, seq, self.points[0], dist[0])


def cache_for(inst: Instance, cache: OptCache | None, name: str) -> OptCache:
    """The OPT cache a run of inst reads: cache, or a new one for None.

    A cache built for another instance, neither inst nor one equal to
    it, would answer OPT and every plan from that instance, so it raises
    ValueError naming the parameter, name.
    """
    if cache is None:
        return OptCache(inst)
    if cache.inst is not inst and cache.inst != inst:
        raise ValueError(f"{name} is the OptCache of another instance")
    return cache


def opt_upto(inst: Instance, t: float, cache: OptCache | None = None) -> tuple[Schedule, float]:
    """Optimal completion over requests released up to time t.

    The schedule starts at the origin at time 0 and may wait for
    releases.  Returns (schedule, completion time).  The cache keeps
    only event orders; the schedule is built here.  t is read as a real
    number; NaN or a non-number raises ValueError naming t, while +inf
    and -inf mean all requests and none.
    """
    t = real(t, "t")
    if math.isnan(t):
        raise ValueError("t is not a number")
    cache = cache_for(inst, cache, "cache")
    seq, value = cache.solve_prefix(cache.prefix_for(t))
    return _build_schedule(cache, seq, cache.points[0], cache.dist[0]), value
