"""Exact offline solvers: shortest schedules and release-aware optima."""

import gc
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import openride
from openride import offline

from openride.engine import IgnorePolicy, LazyPolicy, check_alpha_good, check_lazy_starts, simulate
from openride.experiments import OPTIMAL_ALPHA_GENERAL, FuzzConfig, fuzz, generate_instance, measure_ratio
from openride.factor_revealing import solve_fr
from openride.metric import half_line, line, matrix_space
from openride.model import (
    Instance,
    Load,
    Move,
    Request,
    Schedule,
    Unload,
    make_instance,
    schedule_length,
    validate_schedule,
)
from openride.numeric import TIE_EPS
from openride.offline import (
    DEFAULT_SEARCH_CAP,
    OptCache,
    SearchCapExceeded,
    _step,
    _table_rest,
    fastest_delivery_and_return,
    opt_upto,
    shortest_schedule,
)

from oracles import opt_upto_naive
from perfbench.workloads import exact_instance


def plan(reqs, start, space, capacity, loaded_ids=(), start_time=0.0):
    """shortest_schedule against a cache over exactly the planned requests."""
    cache = OptCache(Instance(space, capacity, tuple(reqs)))
    return shortest_schedule([r.id for r in reqs], start, cache, loaded_ids, start_time)


def test_shortest_schedule_line_capacity_one():
    reqs = (Request(0, 2.0, -1.0, 0.0), Request(1, 1.0, 3.0, 0.0))
    sched = plan(reqs, 0.0, line(), 1)
    assert schedule_length(sched) == pytest.approx(7.0, abs=1e-12)
    # serve request 1 first: 0 -> 1 -> 3 -> 2 -> -1
    assert sched.actions == (
        Move(0.0, 1.0, 1.0),
        Load(1),
        Move(1.0, 3.0, 2.0),
        Unload(1),
        Move(3.0, 2.0, 1.0),
        Load(0),
        Move(2.0, -1.0, 3.0),
        Unload(0),
    )


def test_shortest_schedule_halfline_capacity_two_interleaves():
    reqs = (Request(0, 1.0, 2.0, 0.0), Request(1, 1.5, 0.5, 0.0))
    sched = plan(reqs, 0.0, half_line(), 2)
    assert schedule_length(sched) == pytest.approx(3.5, abs=1e-12)
    # tie between two optimal orders resolved toward the smaller request id
    assert sched.actions == (
        Move(0.0, 1.0, 1.0),
        Load(0),
        Move(1.0, 2.0, 1.0),
        Unload(0),
        Move(2.0, 1.5, 0.5),
        Load(1),
        Move(1.5, 0.5, 1.0),
        Unload(1),
    )


def test_shortest_schedule_matrix():
    sp = matrix_space([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
    sched = plan((Request(0, 1, 2, 0.0),), 0, sp, 1)
    assert schedule_length(sched) == pytest.approx(5.0)
    assert sched.actions == (Move(0, 1, 3.0), Load(0), Move(1, 2, 2.0), Unload(0))


def test_shortest_schedule_unbounded_capacity():
    # capacity None lets all three ride at once: sweep 0 -> 1 -> 2 -> 3
    reqs = tuple(Request(i, float(i + 1), float(i + 1), 0.0) for i in range(3))
    assert schedule_length(plan(reqs, 0.0, half_line(), None)) == pytest.approx(3.0)
    # point-to-point needs no capacity, so capacity 1 costs the same
    assert schedule_length(plan(reqs, 0.0, half_line(), 1)) == pytest.approx(3.0)


def test_shortest_schedule_empty():
    sched = plan((), 2.0, line(), 1)
    assert schedule_length(sched) == 0.0
    assert sched.actions == ()
    assert sched.start_pos == 2.0


def test_shortest_schedule_loaded_ids():
    # request 1 is already on board at position 2, its pickup is behind us
    reqs = (Request(1, 0.0, 4.0, 0.0),)
    sched = plan(reqs, 2.0, half_line(), 1, loaded_ids=(1,))
    assert schedule_length(sched) == pytest.approx(2.0)
    assert sched.actions == (Move(2.0, 4.0, 2.0), Unload(1))


def test_shortest_schedule_search_cap():
    reqs = tuple(Request(i, float(i), float(i), 0.0) for i in range(DEFAULT_SEARCH_CAP + 1))
    with pytest.raises(SearchCapExceeded):
        plan(reqs, 0.0, line(), 1)


def test_shortest_schedule_start_time_waits_for_release():
    reqs = (Request(0, 2.0, 2.0, 5.0),)
    sched = plan(reqs, 0.0, half_line(), 1)
    # travel is 2 but the load cannot happen before t = 5
    assert schedule_length(sched) == pytest.approx(2.0)
    assert validate_schedule(
        make_instance(half_line(), 1, [(2.0, 2.0, 5.0)]), sched
    ) == pytest.approx(5.0)
    late = plan(reqs, 0.0, half_line(), 1, start_time=9.0)
    assert validate_schedule(
        make_instance(half_line(), 1, [(2.0, 2.0, 5.0)]), late, start_time=9.0
    ) == pytest.approx(11.0)


def deliver(dests, pos, space):
    """fastest_delivery_and_return with requests on board whose dropoffs are dests, ids by position."""
    inst = Instance(space, None, tuple(Request(i, b, b, 0.0) for i, b in enumerate(dests)))
    return fastest_delivery_and_return(range(len(dests)), pos, OptCache(inst))


def _stops(steps):
    return tuple(step.end for step in steps if isinstance(step, Move))


def test_fastest_delivery_and_return_halfline():
    dur, steps = deliver([1.0, 3.0], 2.0, half_line())
    assert dur == pytest.approx(4.0)
    assert steps == [Move(2.0, 3.0, 1.0), Unload(1), Move(3.0, 1.0, 2.0), Unload(0),
                     Move(1.0, 0.0, 1.0)]


def test_fastest_delivery_and_return_empty():
    dur, steps = deliver([], 5.0, half_line())
    assert dur == pytest.approx(5.0)
    assert steps == [Move(5.0, 0.0, 5.0)]
    assert deliver([], 0.0, half_line()) == (0.0, [])


def test_fastest_delivery_and_return_line_negative():
    dur, steps = deliver([-1.0], -2.0, line())
    assert dur == pytest.approx(2.0)
    assert _stops(steps) == (-1.0, 0.0)


def test_fastest_delivery_and_return_matrix():
    sp = matrix_space([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
    dur, steps = deliver([1], 2, sp)
    assert dur == pytest.approx(5.0)
    assert steps == [Move(2, 1, 2.0), Unload(0), Move(1, 0, 3.0)]


def test_fastest_delivery_and_return_merges_stops_within_tolerance():
    # two dropoffs 1e-12 apart are one stop: both unload there, in id order
    near = 1.0 + 1e-12
    dur, steps = deliver([1.0, near], 2.0, line())
    assert dur == pytest.approx(2.0)
    assert steps == [Move(2.0, near, 2.0 - near), Unload(0), Unload(1), Move(near, 0.0, near)]


def _closed_integer_matrix(rng, n):
    """Random integer weights closed under shortest paths (a metric)."""
    d = [[0 if i == j else rng.randint(1, 6) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return matrix_space(d)


def test_fastest_delivery_and_return_matches_brute_force():
    # integer coordinates, so every tie is exact and the tie rule is checked by ==
    rng = random.Random(7)
    for case in range(500):
        kind = case % 3
        if kind == 0:
            space, pool = line(), [float(x) for x in range(-4, 5)]
        elif kind == 1:
            space, pool = half_line(), [float(x) for x in range(0, 7)]
        else:
            n = rng.randint(2, 5)
            space, pool = _closed_integer_matrix(rng, n), list(range(n))
        pos = rng.choice(pool)
        dests = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        best, best_order = None, None
        for order in permutations(sorted(set(dests))):  # lexicographic order
            stops = (pos, *order, space.origin)
            cost = sum(space.distance(p, q) for p, q in zip(stops, stops[1:]))
            if best is None or cost < best:
                best, best_order = cost, order
        dur, steps = deliver(dests, pos, space)
        assert dur == best, (case, space.kind, pos, dests)
        # the stops in that order, a move skipped where the server already is
        want, here = [], pos
        for p in (*best_order, space.origin):
            if p != here:
                want.append(p)
                here = p
        assert _stops(steps) == tuple(want), (case, space.kind, pos, dests)
        # every request unloads once, at its dropoff, on arrival there, in id order
        here, unloaded = pos, []
        for step in steps:
            if isinstance(step, Move):
                assert step.start == here and step.distance == space.distance(here, step.end)
                here = step.end
            else:
                assert dests[step.request_id] == here
                unloaded.append(step.request_id)
        assert here == space.origin
        assert unloaded == sorted(range(len(dests)), key=lambda i: (best_order.index(dests[i]), i))


# ---------------------------------------------------------------------------
# release-aware optimum


def test_opt_upto_waits_for_release():
    inst = make_instance(half_line(), 1, [(2.0, 2.0, 5.0)])
    sched, value = opt_upto(inst, 10.0)
    assert value == pytest.approx(5.0)
    assert validate_schedule(inst, sched) == pytest.approx(value)


def test_opt_upto_order_depends_on_releases():
    inst = make_instance(half_line(), 1, [(1.0, 0.0, 0.0), (3.0, 3.0, 4.0)])
    _, value = opt_upto(inst, 10.0)
    assert value == pytest.approx(5.0)


def test_opt_upto_prefix_filtering():
    inst = make_instance(line(), 1, [(1.0, 1.0, 0.0), (5.0, 5.0, 3.0)])
    _, v0 = opt_upto(inst, 0.0)
    assert v0 == pytest.approx(1.0)  # only the first request is known at t = 0
    _, v3 = opt_upto(inst, 3.0)
    assert v3 == pytest.approx(5.0)  # 0 -> 1 -> 5
    assert opt_upto_naive(inst, 0.0) == pytest.approx(1.0)
    assert opt_upto_naive(inst, 3.0) == pytest.approx(5.0)


def test_opt_upto_empty_prefix():
    inst = make_instance(line(), 1, [(1.0, 1.0, 4.0)])
    sched, value = opt_upto(inst, 0.0)
    assert value == 0.0
    assert sched.actions == ()


def _two_requests():
    return make_instance(line(), 1, [(1.0, 2.0, 0.0), (3.0, -1.0, 1.0)])


@pytest.mark.parametrize("t", [math.nan, "3", None], ids=["nan", "string", "none"])
def test_opt_upto_refuses_a_cutoff_that_is_no_number(t):
    # NaN compared below every release, so it was answered as all requests
    with pytest.raises(ValueError, match="^t is not a number$"):
        opt_upto(_two_requests(), t)


def test_opt_upto_takes_infinite_cutoffs_as_all_or_none():
    inst = _two_requests()
    assert opt_upto(inst, math.inf)[1] == opt_upto(inst, 1.0)[1] == 7.0
    assert opt_upto(inst, -math.inf) == (Schedule(0.0, ()), 0.0)


@pytest.mark.parametrize("k", [-1, 3, 2.0, True], ids=["negative", "past-m", "float", "bool"])
def test_prefix_value_refuses_a_k_it_cannot_answer(k):
    cache = OptCache(_two_requests())
    with pytest.raises(ValueError, match="^k must be an integer from 0 to 2, got "):
        cache.value(k)
    assert cache._solved == {}


@pytest.mark.parametrize("call, name", [
    (lambda a, c: measure_ratio(a, "ignore", None, c), "opt_cache"),
    (lambda a, c: simulate(a, IgnorePolicy(), c), "opt_cache"),
    (lambda a, c: check_alpha_good(simulate(a, LazyPolicy(1.0)), a, c), "cache"),
    (lambda a, c: check_lazy_starts(simulate(a, LazyPolicy(1.0)), a, c), "cache"),
    (lambda a, c: opt_upto(a, math.inf, c), "cache"),
], ids=["measure_ratio", "simulate", "check_alpha_good", "check_lazy_starts", "opt_upto"])
def test_a_cache_of_another_instance_is_refused(monkeypatch, call, name):
    # b differs from a in one dropoff: its OPT and plans are not a's
    a = _two_requests()
    b = make_instance(line(), 1, [(1.0, 2.5, 0.0), (3.0, -1.0, 1.0)])
    solves = []
    real_solve = OptCache._solve

    def counted(self, k):
        if self.inst is b:
            solves.append(k)
        return real_solve(self, k)

    monkeypatch.setattr(OptCache, "_solve", counted)
    with pytest.raises(ValueError, match=f"^{name} is the OptCache of another instance$"):
        call(a, OptCache(b))
    assert solves == []
    # an equal instance built again is the same instance
    assert call(a, OptCache(_two_requests())) == call(a, None)


def test_opt_cache_shared_across_prefixes():
    inst = make_instance(
        line(), 1, [(1.0, 1.0, 0.0), (2.0, 2.0, 1.0), (-1.0, -1.0, 2.0)]
    )
    cache = OptCache(inst)
    v1 = cache.value(cache.prefix_for(0.0))
    v2 = cache.value(cache.prefix_for(1.0))
    v3 = cache.value(cache.prefix_for(2.0))
    assert v1 == pytest.approx(1.0)
    assert v2 == pytest.approx(2.0)
    # serve 1, 2 then swing back to -1: 2 + 3 = 5
    assert v3 == pytest.approx(5.0)
    assert cache.value(cache.prefix_for(50.0)) == pytest.approx(5.0)
    # a request is released by t only when its release time is at most t exactly
    assert cache.prefix_for(1.0 - 1e-12) == 1
    assert cache.prefix_for(1.0) == 2
    assert cache.prefix_for(0.5) == 1


def test_opt_upto_matches_naive_small_grid():
    sp = matrix_space([[0, 10, 2], [10, 0, 9], [2, 9, 0]])
    inst = make_instance(sp, 1, [(1, 1, 0.0), (2, 2, 20.0)])
    for t in (0.0, 5.0, 20.0, 30.0):
        _, fast = opt_upto(inst, t)
        assert fast == pytest.approx(opt_upto_naive(inst, t), abs=1e-9)
    _, v = opt_upto(inst, 20.0)
    assert v == pytest.approx(20.0)


def test_shortest_schedule_shares_the_instance_cache():
    # ids run against release order, and points coincide, so the shared
    # cache's (release, id) indexing must not leak into tie-breaking
    sp = matrix_space([[0, 2, 2, 4, 3], [2, 0, 2, 2, 1], [2, 2, 0, 2, 3],
                       [4, 2, 2, 0, 1], [3, 1, 3, 1, 0]])
    spaces = (
        (line(), [(2.0, -1.0, 6.0), (1.0, 3.0, 5.0), (-1.0, 2.0, 5.0), (3.0, 3.0, 2.0),
                  (0.5, -2.0, 1.0), (2.0, 1.0, 0.0)], (0.0, 0.37, 3.0)),
        (sp, [(1, 3, 6.0), (3, 1, 5.0), (2, 2, 5.0), (1, 2, 2.0), (3, 0, 1.0), (2, 3, 0.0)],
         (0, 4, 1)),
    )
    for space, triples, starts in spaces:
        for capacity in (1, 2, None):
            inst = make_instance(space, capacity, triples)
            cache = OptCache(inst)
            for mask in range(1, 1 << len(triples), 3):
                reqs = [inst.request(i) for i in range(len(triples)) if mask >> i & 1]
                # a cache over just these requests, and one that holds them in
                # id order (all released at 0), planned after every release
                refs = ((OptCache(Instance(space, capacity, tuple(reqs))), 1.5),
                        (OptCache(Instance(space, capacity,
                                           tuple(replace(r, release=0.0) for r in reqs))), 7.0))
                for loaded in ((), (reqs[-1].id,), tuple(r.id for r in reqs[:2])):
                    if capacity is not None and len(loaded) > capacity:
                        continue
                    for start in starts:
                        for own, t0 in refs:
                            ids = [r.id for r in reqs]
                            want = shortest_schedule(ids, start, own, loaded, t0)
                            assert shortest_schedule(ids, start, cache, loaded, t0) == want
    inst = make_instance(line(), 1, triples=[(1.0, 2.0, 0.0), (3.0, 4.0, 0.0)])
    cache = OptCache(inst)
    with pytest.raises(ValueError):
        shortest_schedule([0], 0.0, cache, loaded_ids=(1,))
    with pytest.raises(ValueError):
        shortest_schedule([0, 1], 0.0, cache, loaded_ids=(0, 1))


TWO_REQUESTS = make_instance(line(), 2, [(1.0, 2.0, 0.0), (3.0, 4.0, 1.0)])


@pytest.mark.parametrize("ids, message", [
    ([0, 1, 0], "request 0 is listed twice"),
    ([0, 7], "request 7 is not in the instance"),
], ids=["repeated", "unknown-id"])
def test_shortest_schedule_refuses_a_foreign_request_set(monkeypatch, ids, message):
    # refused by id before any table is read
    built = []
    monkeypatch.setattr(offline, "_table_rest", lambda cache: built.append(cache.m) or _table_rest(cache))
    with pytest.raises(ValueError, match=message):
        shortest_schedule(ids, 0.0, OptCache(TWO_REQUESTS))
    assert built == []


def test_fastest_delivery_and_return_refuses_repeated_and_unknown_ids():
    cache = OptCache(TWO_REQUESTS)
    with pytest.raises(ValueError, match="request 1 is listed twice"):
        fastest_delivery_and_return([1, 0, 1], 0.0, cache)
    with pytest.raises(ValueError, match="request 7 is not in the instance"):
        fastest_delivery_and_return([0, 7], 0.0, cache)


# ---------------------------------------------------------------------------
# the release-free DP table


def recursive_rest(cache, memo, dist=None):
    """Top-down, dict-memoised release-free DP: the oracle for the table.

    dist defaults to the cache's own distance table.
    """
    dist = cache.dist if dist is None else dist
    cap, m = cache.cap, cache.m
    full = (1 << m) - 1

    def rest(pos, loaded, done):
        if done == full:
            return 0.0
        key = (pos, loaded, done)
        val = memo.get(key)
        if val is not None:
            return val
        best = float("inf")
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


def random_instance(rng, space, m, capacity):
    """m requests over few distinct points, so many of them coincide."""
    def pick():
        if space.kind == "matrix":
            return rng.randrange(space.size)
        sign = 1 if space.kind == "halfline" else rng.choice((1, -1))
        return sign * rng.choice((0.0, 0.5, 1.0, 2.25, 3.0))

    return make_instance(space, capacity, [(pick(), pick(), float(rng.randrange(3)))
                                           for _ in range(m)])


def table_value(cache, lookup, pos, loaded, done):
    """The table's value at any root: its entry at a cell, the explicit step off the cells."""
    if pos and (loaded if pos & 1 else done) >> (pos - 1 >> 1) & 1:
        return lookup(pos, loaded, done)
    return _step(cache, lookup, cache.dist[pos], loaded, done, range(cache.m))


def test_dp_table_equals_the_recursion():
    rng = random.Random(5)
    sp = matrix_space([[0, 1.5, 2, 3.25], [1.5, 0, 0.5, 1.75], [2, 0.5, 0, 1.25],
                       [3.25, 1.75, 1.25, 0]])
    checked = 0
    for space in (line(), half_line(), sp):
        for m in range(7):
            for capacity in (1, 2, None):
                inst = random_instance(rng, space, m, capacity)
                cache = OptCache(inst)
                memo = {}
                oracle = recursive_rest(cache, memo)
                full = (1 << m) - 1
                # scopes: every request, a prefix, and a scattered subset; a
                # prefix reads the table over every request with the rest
                # done, a scattered one a cache over just its requests, whose
                # positions keep the scope's order
                scopes = {tuple(range(m)), tuple(range(m // 2)), tuple(range(0, m, 2))}
                for scope in scopes:
                    if scope == tuple(range(len(scope))):
                        own, lookup = cache, _table_rest(cache)
                    else:
                        sub = OptCache(Instance(space, capacity, tuple(inst.requests[j] for j in scope)))
                        own, lookup = sub, sub._rest_over()
                        local = {j: i for i, j in enumerate(scope)}
                    hidden = full ^ sum(1 << j for j in scope)
                    memo.clear()
                    # roots: the origin and every point of the scope, with up
                    # to two requests on board and one more already done
                    for pos in [0] + [p for j in scope for p in (1 + 2 * j, 2 + 2 * j)]:
                        for loaded in (0, sum(1 << j for j in scope[:1]),
                                       sum(1 << j for j in scope[:2])):
                            for done in {hidden, hidden | sum(1 << j for j in scope[2:3])}:
                                if capacity is None or loaded.bit_count() <= capacity:
                                    oracle(pos, loaded, done)
                    for (pos, loaded, done), want in memo.items():
                        if own is not cache:  # to the positions of the cache over the scope
                            pos = pos and 2 * local[pos - 1 >> 1] + 2 - (pos & 1)
                            loaded, done = (sum(1 << i for j, i in local.items() if bits >> j & 1)
                                            for bits in (loaded, done))
                        assert table_value(own, lookup, pos, loaded, done) == want
                        checked += 1
                assert _step(cache, cache._rest_over(), cache.dist[0], 0, 0, range(m)) == oracle(0, 0, 0)
    assert checked > 20_000


def test_dp_table_above_the_cap_covers_only_the_scope(monkeypatch):
    # 14 requests: a table over all of them would hold 3**14 * 29 values
    rng = random.Random(3)
    inst = make_instance(line(), 2, [(rng.uniform(-4, 4), rng.uniform(-4, 4), 0.0)
                                     for _ in range(14)])
    cache = OptCache(inst)
    points = [inst.space.origin] + [p for r in inst.requests for p in (r.a, r.b)]
    oracle = recursive_rest(cache, {}, inst.space.table(points, points))
    full = (1 << 14) - 1
    # the branch and bound reads a cache over its prefix, and only the last is kept
    sub = cache._planner(cache.ids[:5])
    lookup = sub._rest_over()
    assert _step(sub, lookup, sub.dist[0], 0, 0, range(5)) == oracle(0, 0, full ^ 31)
    assert cache._planner(cache.ids[:5])._rest_over() is lookup
    cache._planner(cache.ids[:3])
    assert cache._planner(cache.ids[:5])._rest_over() is not lookup
    # a plan over a scattered set reads a cache over just its requests
    scope = (1, 4, 5, 9, 13)
    ids = [cache.ids[j] for j in scope]
    sub = cache._planner(ids)
    hidden = full ^ sum(1 << j for j in scope)
    assert _step(sub, sub._rest_over(), sub.dist[0], 0, 0, range(5)) == oracle(0, 0, hidden)
    # plans from both ends of an edge build one table; a prefix solve, which
    # reads the same single slot, replaces it
    built = []
    monkeypatch.setattr(offline, "_table_rest", lambda cache: built.append(cache.m) or _table_rest(cache))
    cache = OptCache(inst)
    for start in (0.5, -1.0):
        shortest_schedule(ids, start, cache)
    assert built == [5]
    cache.solve_prefix(3)
    shortest_schedule(ids, 0.5, cache)
    assert built == [5, 3, 5]


def moves(cap, loaded, done, order):
    """Events possible next, as (j, (point, loaded, done) after it), in order."""
    room = loaded.bit_count() < cap
    for j in order:
        bit = 1 << j
        if done & bit:
            continue
        if loaded & bit:
            yield j, (2 + 2 * j, loaded & ~bit, done | bit)
        elif room:
            yield j, (1 + 2 * j, loaded | bit, done)


def reconstruct_two_pass(cache, lookup, row, loaded, done, order):
    """_reconstruct_free as a two-pass scan per step: the oracle for its one pass.

    Each step lists every move's cost, takes their min, then picks the
    first move within TIE_EPS of it.  Also returns how many steps had
    more than one move within TIE_EPS, so a test can show it met ties.
    """
    full = (1 << cache.m) - 1
    seq, tied = [], 0
    while done != full:
        steps = [(row[s[0]] + lookup(*s), j, s)
                 for j, s in moves(cache.cap, loaded, done, order)]
        target = min(step[0] for step in steps)
        near = [step for step in steps if step[0] <= target + TIE_EPS]
        tied += len(near) > 1
        _, j, (pos, loaded, done) = near[0]
        seq.append((j, pos == 2 + 2 * j))
        row = cache.dist[pos]
    return seq, tied


def test_cache_above_the_cap_compiles_only_the_points_a_search_reads():
    # 30 requests released 10 apart: the cache's distances cover only the
    # origin and the first DEFAULT_SEARCH_CAP requests' pickups and dropoffs,
    # which are all that a prefix within the cap visits
    rng = random.Random(0)
    inst = make_instance(line(), 1, [(rng.uniform(0, 10), rng.uniform(0, 10), 10.0 * i)
                                     for i in range(30)])
    cache = OptCache(inst)
    width = 2 * DEFAULT_SEARCH_CAP + 1
    assert len(cache.points) == width
    assert np.shape(cache.dist) == (width, width)
    assert len(cache.rel) == len(cache.ids) == len(cache.index) == 30
    for t in (0.0, 35.0, 10.0 * (DEFAULT_SEARCH_CAP - 1)):
        k = cache.prefix_for(t)
        prefix = Instance(inst.space, inst.capacity, inst.requests[:k])
        assert opt_upto(inst, t, cache) == opt_upto(prefix, t)
    with pytest.raises(SearchCapExceeded):
        opt_upto(inst, 10.0 * DEFAULT_SEARCH_CAP, cache)


def test_reconstruction_takes_the_last_move_when_none_is_within_its_target():
    # a table of zeros leaves no move within TIE_EPS of a later target, so
    # each step after the first falls through to the last possible move;
    # with capacity 1 the requests after a loaded one cannot move, and the
    # unload chosen is still the loaded request's
    inst = make_instance(line(), 1, [(1.0, 2.0, 0.0), (3.0, 4.0, 0.0), (5.0, 6.0, 0.0)])
    cache = OptCache(inst)
    seq = offline._reconstruct_free(cache, lambda pos, loaded, done: 0.0, cache.dist[0], 0, 0, range(3))
    assert seq == [(0, False), (0, True), (2, False), (2, True), (1, False), (1, True)]


def test_single_pass_reconstruction_matches_the_two_pass_oracle():
    # coincident points tie many orders, and two line-kind instances in nine
    # move their points by less than TIE_EPS, so ties are near, not exact;
    # ids run against release order in half the instances, so ranking
    # by id and by position differ; the 12-request instance is above the
    # search cap, so it plans on caches over just its subsets
    rng = random.Random(19)
    sp = matrix_space([[0, 1.5, 2, 3.25], [1.5, 0, 0.5, 1.75], [2, 0.5, 0, 1.25],
                       [3.25, 1.75, 1.25, 0]])
    checked = tied = 0
    for n in range(300):
        space = (line(), half_line(), sp)[n % 3]
        capacity = (1, 2, None)[n // 3 % 3]
        m = 12 if n == 0 else rng.randint(1, 7)
        inst = random_instance(rng, space, m, capacity)
        if n % 2:
            inst = Instance(inst.space, inst.capacity, tuple(
                replace(r, release=float(m - r.id)) for r in inst.requests))
        if n % 3 != 2 and n % 9 < 3:
            inst = Instance(inst.space, inst.capacity, tuple(
                replace(r, a=r.a + rng.choice((0.0, 1e-13, 3e-13)),
                        b=r.b + rng.choice((0.0, 1e-13, 3e-13))) for r in inst.requests))
        cache = OptCache(inst)
        for _ in range(3):
            subset = rng.sample(range(m), rng.randint(1, min(m, 8)))
            # this cache within the cap; above it, one over just the subset
            own = cache._planner([cache.ids[j] for j in subset])
            lookup = own._rest_over()
            subset = [own.index[cache.ids[j]] for j in subset]
            done = ((1 << own.m) - 1) & ~sum(1 << j for j in subset)
            for order in (sorted(subset), sorted(subset, key=lambda j: own.ids[j])):
                on_board = rng.sample(subset, rng.randint(0, min(len(subset), own.cap, 2)))
                loaded = sum(1 << j for j in on_board)
                # distances from the start: off the request points on the line
                # kinds, at a point of the instance, and at the pickup of a
                # request on board, which is a cell
                starts = [p for p in (rng.uniform(0.0, 3.5), 1.25) if space.kind != "matrix"]
                starts.append(cache.points[rng.randrange(2 * m + 1)])
                rows = [[space.raw_distance(p, q) for q in own.points] for p in starts]
                if on_board:
                    rows.append(own.dist[1 + 2 * on_board[0]])
                for row in rows:
                    want, ties = reconstruct_two_pass(own, lookup, row, loaded, done, order)
                    assert offline._reconstruct_free(own, lookup, row, loaded, done, order) == want
                    checked += 1
                    tied += ties
    assert checked > 2000 and tied > 1000


def test_dominance_pruning_keeps_the_optimum():
    # coincident points and nearly equal releases make the search re-enter
    # states at different times; only a later visit may be cut
    rng = random.Random(7)
    sp = matrix_space([[0, 1.5, 2, 3.25], [1.5, 0, 0.5, 1.75], [2, 0.5, 0, 1.25],
                       [3.25, 1.75, 1.25, 0]])
    for n in range(600):
        space = (line(), half_line(), sp)[n % 3]
        inst = random_instance(rng, space, rng.randint(2, 4), (1, 2, None)[n // 3 % 3])
        inst = Instance(inst.space, inst.capacity, tuple(
            replace(r, release=rng.choice((0.0, 1.0, 2.5, 4.0)) + rng.random() * 1e-4)
            for r in inst.requests))
        _, value = opt_upto(inst, 10.0)
        assert value == pytest.approx(opt_upto_naive(inst, 10.0), abs=1e-9)


def test_prefix_values_build_no_schedule(monkeypatch):
    # uniform releases make most optima end on the relaxation's tail, where
    # the forward sum over the order is the value, not the search's bound
    rng = random.Random(13)
    sp = matrix_space([[0, 1.5, 2, 3.25], [1.5, 0, 0.5, 1.75], [2, 0.5, 0, 1.25],
                       [3.25, 1.75, 1.25, 0]])
    cases = []
    for n in range(90):
        space = (line(), half_line(), sp)[n % 3]
        inst = random_instance(rng, space, rng.randint(1, 7), (1, 2, None)[n // 3 % 3])
        if n % 2:
            inst = Instance(inst.space, inst.capacity, tuple(
                replace(r, release=rng.uniform(0.0, 4.0)) for r in inst.requests))
        cases.append(inst)

    def refuse(*args, **kwargs):
        raise AssertionError("a value asked for a schedule")

    with monkeypatch.context() as patched:
        patched.setattr(offline, "_build_schedule", refuse)
        values = []
        for inst in cases:
            cache = OptCache(inst)
            values.append([cache.value(k) for k in range(len(inst.requests) + 1)])
    checked = 0
    for inst, want in zip(cases, values):
        cache = OptCache(inst)
        for t in sorted({0.0} | {r.release for r in inst.requests}):
            k = cache.prefix_for(t)
            sched, value = opt_upto(inst, t)
            assert value == cache.value(k) == want[k]
            # an independent replay of the schedule finishes at the value, bit for bit
            assert validate_schedule(inst, sched, scope={r.id for r in inst.requests[:k]}) == value
            checked += 1
    assert checked > 300


GRID_LINE_POINTS = (-2.5, -1.0, 0.0, 0.5, 2.0)
GRID_HALF_LINE_POINTS = (0.0, 0.5, 1.5, 3.0)
GRID_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.25)
GRID_RELEASES = (0.0, 0.5, 1.0, 2.5, 4.0)


def grid_instance(rng, scale):
    """At most 6 requests on coarse grids, every coordinate times scale."""
    kind = rng.choice(("line", "halfline", "matrix"))
    capacity = rng.choice((1, 2, None))
    if kind == "matrix":
        n = rng.randint(2, 5)
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = rng.choice(GRID_WEIGHTS)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        space = matrix_space([[v * scale for v in row] for row in d])

        def point():
            return rng.randrange(n)
    else:
        space = line() if kind == "line" else half_line()
        grid = GRID_LINE_POINTS if kind == "line" else GRID_HALF_LINE_POINTS

        def point():
            return rng.choice(grid) * scale
    # brute force over 6 requests takes seconds unless they ride one at a time
    m = rng.randint(1, {1: 6, 2: 5, None: 4}[capacity])
    return make_instance(space, capacity, [(point(), point(), rng.choice(GRID_RELEASES) * scale)
                                           for _ in range(m)])


def test_prefix_values_scale_exactly():
    # a power-of-two scale leaves every sum on these grids exact and changes
    # no tolerance comparison, so the search's margins must not depend on
    # the scale: each value is the unscaled one times the scale, bit for bit
    checked = 0
    for seed in range(200):
        base = OptCache(grid_instance(random.Random(seed), 1.0))
        for scale in (2.0 ** 20, 2.0 ** -20):
            inst = grid_instance(random.Random(seed), scale)
            cache = OptCache(inst)
            for t in sorted({0.0} | {r.release for r in inst.requests}):
                k = cache.prefix_for(t)
                value = cache.value(k)
                assert value == base.value(k) * scale
                assert value == pytest.approx(opt_upto_naive(inst, t), rel=1e-9)
                checked += 1
    assert checked > 1000


def run_child(code: str, timeout: float):
    """Run python code in a child process under a 1 GiB address-space limit."""
    env = dict(os.environ, PYTHONPATH=str(Path(openride.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=timeout, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_many_requests_plan_within_the_cap_in_bounded_memory():
    # 14 line requests released 40 apart: each plan covers one or two requests,
    # so replan and ignore run although the instance is above the search cap
    out = run_child("""
import random
from openride.engine import simulate
from openride.experiments import make_policy
from openride.metric import line
from openride.model import make_instance
from openride.offline import SearchCapExceeded
rng = random.Random(1)
inst = make_instance(line(), 1, [(rng.uniform(-5, 5), rng.uniform(-5, 5), 40.0 * i)
                                 for i in range(14)])
for algo in ("replan", "ignore"):
    print(repr(simulate(inst, make_policy(algo, None)).completion))
try:
    simulate(inst, make_policy("lazy", 1.5))
except SearchCapExceeded:
    print("lazy-capped")
""", timeout=30)
    assert out == ["525.8572666670602", "525.8572666670602", "lazy-capped"]


COINCIDENT_MATRIX = (
    '{"capacity":"inf","metric":{"d":[[0.0,2.367190582682123,2.0,5.0,1.0,5.0,2.0],'
    '[2.367190582682123,0.0,1.75392132178873,4.431789866612513,1.367190582682123,'
    '5.367190582682123,1.0],[2.0,1.75392132178873,0.0,3.0,1.0,5.0,2.0],'
    '[5.0,4.431789866612513,3.0,0.0,4.0,4.99398625539929,3.4317898666125126],'
    '[1.0,1.367190582682123,1.0,4.0,0.0,4.0,1.0],'
    '[5.0,5.367190582682123,5.0,4.99398625539929,4.0,0.0,5.0],'
    '[2.0,1.0,2.0,3.4317898666125126,1.0,5.0,0.0]],"type":"matrix"},'
    '"requests":[{"a":1,"b":6,"t":0.0},{"a":1,"b":3,"t":0.0},{"a":4,"b":2,"t":0.0},'
    '{"a":4,"b":0,"t":0.0},{"a":0,"b":4,"t":0.22567964484654368},{"a":0,"b":5,"t":2.0},'
    '{"a":4,"b":5,"t":3.1421317199781496},{"a":5,"b":6,"t":9.992269504166494}]}'
)


def test_coincident_points_do_not_blow_up_the_search():
    # many equal-cost orders through shared nodes; the dominance check in the
    # branch and bound keeps this to a fraction of a second
    out = run_child(f"""
from openride.model import parse_instance
from openride.offline import opt_upto
print(repr(opt_upto(parse_instance({COINCIDENT_MATRIX!r}), float("inf"))[1]))
""", timeout=10)
    assert out == ["19.257229879848293"]


def test_dp_cells_equal_the_recursion_at_eight_requests():
    # the benchmark's size: every cell the recursion reaches from the origin,
    # and roots off the cells (the origin, a pickup not on board, a dropoff
    # not done), which take the explicit step
    rng = random.Random(11)
    for capacity in (1, 2, None):
        inst = make_instance(line(), capacity, [(rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0)
                                                for _ in range(8)])
        cache = OptCache(inst)
        memo = {}
        oracle = recursive_rest(cache, memo)
        lookup = _table_rest(cache)

        def step(pos, loaded, done):
            return _step(cache, lookup, cache.dist[pos], loaded, done, range(8))

        assert step(0, 0, 0) == oracle(0, 0, 0)
        cells = [(state, want) for state, want in memo.items() if state[0]]
        assert len(cells) > 1000
        for (pos, loaded, done), want in rng.sample(cells, 1000):
            assert lookup(pos, loaded, done) == want
            assert step(pos, loaded, done) == want
        off = 0
        while off < 300:
            (_, loaded, done), _ = rng.choice(cells)
            j = rng.randrange(8)
            bit = 1 << j
            digit = rng.randrange(3)  # request j untouched, on board or done
            loaded = loaded & ~bit | (bit if digit == 1 else 0)
            done = done & ~bit | (bit if digit == 2 else 0)
            points = (0, 1 + 2 * j, 2 + 2 * j)
            pos = rng.choice([p for p in points if p != points[digit]])
            if capacity is None or loaded.bit_count() <= capacity:
                assert step(pos, loaded, done) == oracle(pos, loaded, done)
                off += 1


def test_dp_fill_holds_no_temporary_as_long_as_a_layer_of_pairs():
    # W5, the stress instance: 10 line requests with unbounded capacity.
    # With the index arrays cached, a fill keeps its 3.1 MB table; ranked
    # by move count, each layer holds float arrays as long as its cells,
    # not as long as its pairs (14.0 MB at the peak when it did)
    out = run_child("""
import random, tracemalloc
from openride import offline
from openride.metric import line
from openride.model import make_instance
rng = random.Random(0)
inst = make_instance(line(), None, [(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 10))
                                    for _ in range(10)])
offline._cells(10, 10)
tracemalloc.start()
cache = offline.OptCache(inst)
lookup = cache._rest_over()
peak = tracemalloc.get_traced_memory()[1]
print(peak, repr(offline._step(cache, lookup, cache.dist[0], 0, 0, range(10))))
""", timeout=60)
    assert int(out[0]) < 8 << 20, int(out[0]) / (1 << 20)
    assert out[1] == "34.48616431365099"


def test_root_at_the_origin_takes_the_off_cell_step():
    # the first two requests are released at 0 and the greedy seed serves
    # them in 4; the relaxation read at the origin must give the optimum 3
    inst = make_instance(line(), 1, [(1.0, 1.0, 0.0), (1.0, -2.0, 1.0), (-1.0, 0.0, 0.0),
                                     (3.0, 2.0, 1.0)])
    cache = OptCache(inst)
    assert cache._greedy(2)[1] == 4.0
    assert cache.value(2) == opt_upto_naive(inst, 0.0) == 3.0


def test_cell_cache_is_bounded_in_bytes():
    # every k = 10 shape, capacities 1 to 10, held at once would take 187 MiB;
    # the cache keeps the newest one and stays under its byte cap
    out = run_child("""
import random
from openride import offline
from openride.metric import line
from openride.model import make_instance
for cap in range(1, 11):
    layers = offline._cells(10, cap)
    assert offline._cells(10, cap) is layers
    held = sum(size for _, size in offline._cell_cache.values())
    assert held <= offline.CELL_CACHE_BYTES, held
rng = random.Random(0)
inst = make_instance(line(), None, [(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 10))
                                    for _ in range(10)])
print(repr(offline.OptCache(inst).value(10)), len(offline._cell_cache))
""", timeout=60)
    assert out == ["38.00904680302526", "1"]


def test_cells_are_intp_where_a_shape_fits_the_cache_in_intp():
    # the index arrays are intp up to k = 9 and at k = 10 up to capacity 4, so
    # no take converts an index; (10, 4) takes 26.0 MiB with them in intp,
    # while (10, 5) would take 34.7 MiB and (10, 10) 41.3 MiB, so they stay
    # int32.  rank is int32 for every shape.  Each cache entry's size counts
    # its rank array, its index arrays and its offsets, and the cache holds
    # no more than its byte cap
    out = run_child("""
import sys
import numpy as np
from openride import offline

def nbytes(shape):
    _, layers, offsets, rank = shape
    arrays = [rank, *(i for _, ranks in layers for pair in ranks for i in pair)]
    return arrays, sum(a.nbytes for a in arrays) + sys.getsizeof(offsets) + sum(map(sys.getsizeof, offsets))

for k, cap in ((3, 3), (8, 1), (8, 8), (10, 4), (10, 5), (10, 10)):
    arrays, _ = nbytes(offline._cells(k, cap))
    assert arrays[0].dtype == np.int32, (k, cap)  # rank
    types = {"intp" if a.dtype == np.intp else a.dtype.name for a in arrays[1:]}
    held = 0
    for shape, size in offline._cell_cache.values():
        assert nbytes(shape)[1] == size, (k, cap)
        held += size
    assert held <= offline.CELL_CACHE_BYTES, held
    print(k, cap, *sorted(types))
""", timeout=30)
    assert out == ["3", "3", "intp", "8", "1", "intp", "8", "8", "intp", "10", "4", "intp",
                   "10", "5", "int32", "10", "10", "int32"]


def test_a_read_off_the_cells_fails_fast():
    # the table holds the cells alone: a state with more requests on board
    # than the capacity allows, or a pickup whose request is untouched, is
    # no cell, and reading it raises instead of returning a slot no fill wrote
    inst = make_instance(line(), 1, [(1.0, 2.0, 0.0), (3.0, 4.0, 0.0), (-1.0, -2.0, 0.0)])
    cache = OptCache(inst)
    lookup = _table_rest(cache)
    assert lookup(1, 0b001, 0) == recursive_rest(cache, {})(1, 0b001, 0)
    for pos, loaded, done in ((1, 0b011, 0), (3, 0b011, 0), (3, 0b001, 0), (5, 0, 0b010)):
        with pytest.raises(IndexError):
            lookup(pos, loaded, done)


def exact_style_instances(seed):
    """One 8-request instance of each (space, capacity), from a fuzz stream on 6-8-node matrices."""
    cfg = FuzzConfig(seed=seed, max_requests=8, matrix_nodes=(6, 8))
    found = {}
    index = 0
    while len(found) < 9:
        inst = generate_instance(cfg, index)
        key = (inst.space.kind, inst.capacity)
        if len(inst.requests) == 8 and key not in found:
            found[key] = inst
        index += 1
    return list(found.values())


def test_dp_fill_reads_only_the_cells_it_writes(monkeypatch):
    # the table is allocated uninitialized: filled with NaN instead, every
    # value a lookup returns is still finite, and every optimum, event order
    # and plan is the same, bit for bit, as with a table from np.empty.  The
    # table holds the cells alone, so a fill leaves no slot of it NaN
    cfg = FuzzConfig(seed=3, max_requests=5, matrix_nodes=(4, 4))
    cases = exact_style_instances(3) + exact_style_instances(4) + [generate_instance(cfg, i) for i in range(120)]

    def outputs():
        got = []
        for inst in cases:
            cache = OptCache(inst)
            for t in sorted({0.0} | {r.release for r in inst.requests}):
                sched, value = opt_upto(inst, t, cache)
                got.append((cache.solve_prefix(cache.prefix_for(t))[0], repr(sched), value.hex()))
            reqs = sorted(inst.requests, key=lambda r: r.release)
            got.append(repr(shortest_schedule([r.id for r in reqs], inst.space.origin, cache)))
            tail = reqs[len(reqs) // 2:]
            got.append(repr(shortest_schedule([r.id for r in tail], tail[0].a, cache, loaded_ids=[tail[0].id])))
        return got

    want = outputs()
    real_empty = np.empty
    nan_tables = []
    read = []

    def nan_empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
            nan_tables.append(out)
        return out

    def checked(cache):
        lookup = _table_rest(cache)

        def read_lookup(pos, loaded, done):
            value = lookup(pos, loaded, done)
            read.append(math.isfinite(value))
            return value

        return read_lookup

    monkeypatch.setattr(offline.np, "empty", nan_empty)
    monkeypatch.setattr(offline, "_table_rest", checked)
    assert outputs() == want
    assert len(nan_tables) > 120 and len(read) > 8000
    assert all(read)
    assert not any(np.isnan(table).any() for table in nan_tables)


def test_a_run_leaves_no_cyclic_garbage():
    # every object a solve, plan or run builds is freed by reference
    # counting when the caller drops it: no recursive closure is left
    # holding itself, its cache, instance and table
    inst = exact_instance(0, 6)  # a matrix instance, capacity 1
    reqs = (Request(0, 2.0, -1.0, 0.0), Request(1, 1.0, 3.0, 0.0), Request(2, -2.0, 4.0, 1.0))
    cfg = FuzzConfig(count=10, seed=3, matrix_nodes=(4, 4), alpha=OPTIMAL_ALPHA_GENERAL, check_schedules=True)
    gc.collect()
    gc.disable()
    try:
        for algo in ("lazy", "replan", "ignore"):
            measure_ratio(inst, algo, OPTIMAL_ALPHA_GENERAL if algo == "lazy" else None)
        fuzz(cfg, "lazy")
        opt_upto(inst, 5.0)
        plan(reqs, 0.5, line(), 2, loaded_ids=(0,))
        fastest_delivery_and_return([0, 1, 2], 0.5, OptCache(Instance(line(), 2, reqs)))
        solve_fr(1.5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_table_read_is_a_consistent_cell(monkeypatch):
    # lookup trusts pos to agree with the state's bitmasks, unchecked on the
    # hot path; every caller must read a cell whose point is the pickup of a
    # request on board or the dropoff of a request done
    reads = []

    def recorded(cache):
        lookup = _table_rest(cache)

        def read(pos, loaded, done):
            reads.append((pos, loaded, done))
            return lookup(pos, loaded, done)

        return read

    monkeypatch.setattr(offline, "_table_rest", recorded)
    cfg = FuzzConfig(count=200, seed=5, matrix_nodes=(4, 4), alpha=OPTIMAL_ALPHA_GENERAL, check_schedules=True)
    for algo in ("lazy", "replan", "ignore"):
        fuzz(cfg, algo)
        for i in range(8):  # every (space, capacity) of the exact-large pool
            measure_ratio(exact_instance(1, i), algo, OPTIMAL_ALPHA_GENERAL if algo == "lazy" else None)

    def consistent(pos, loaded, done):
        if pos < 1 or loaded & done:
            return False
        return bool((loaded if pos & 1 else done) >> (pos - 1 >> 1) & 1)

    assert len(reads) > 20_000
    assert [read for read in reads if not consistent(*read)] == []
