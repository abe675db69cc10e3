"""Exact offline solvers: shortest schedules and release-aware optima."""

from dataclasses import replace

import pytest

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
from openride.offline import (
    DEFAULT_SEARCH_CAP,
    OptCache,
    SearchCapExceeded,
    fastest_delivery_and_return,
    opt_upto,
    opt_upto_naive,
    shortest_schedule,
)


def plan(reqs, start, space, capacity, loaded_ids=(), start_time=0.0):
    """shortest_schedule against a cache over exactly the planned requests."""
    cache = OptCache(Instance(space, capacity, tuple(reqs)))
    return shortest_schedule(reqs, start, cache, loaded_ids, start_time)


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


def test_fastest_delivery_and_return_halfline():
    dur, route = fastest_delivery_and_return({1.0, 3.0}, 2.0, half_line())
    assert dur == pytest.approx(4.0)
    assert route == (3.0, 1.0, 0.0)


def test_fastest_delivery_and_return_empty():
    dur, route = fastest_delivery_and_return(set(), 5.0, half_line())
    assert dur == pytest.approx(5.0)
    assert route == (0.0,)


def test_fastest_delivery_and_return_line_negative():
    dur, route = fastest_delivery_and_return({-1.0}, -2.0, line())
    assert dur == pytest.approx(2.0)
    assert route == (-1.0, 0.0)


def test_fastest_delivery_and_return_matrix():
    sp = matrix_space([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
    dur, route = fastest_delivery_and_return({1}, 2, sp)
    assert dur == pytest.approx(5.0)
    assert route == (1, 0)


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
    # prefix_for snaps to release times within tolerance
    assert cache.prefix_for(1.0 - 1e-12) == 2
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
                            want = shortest_schedule(reqs, start, own, loaded, t0)
                            assert shortest_schedule(reqs, start, cache, loaded, t0) == want
    inst = make_instance(line(), 1, triples=[(1.0, 2.0, 0.0), (3.0, 4.0, 0.0)])
    cache = OptCache(inst)
    with pytest.raises(ValueError):
        shortest_schedule([inst.request(0)], 0.0, cache, loaded_ids=(1,))
    with pytest.raises(ValueError):
        shortest_schedule(inst.requests, 0.0, cache, loaded_ids=(0, 1))
