"""Golden corpus for planning on instances above the search cap.

tests/golden/plan.jsonl covers 30 seeded instances of 11-14 requests:
line, half-line and 6-8-node matrices, each with capacity 1, 2 and
unbounded.  Half of them draw points and matrix weights from coarse
grids, so points coincide and many orders tie.  No table over all of an
instance's requests fits the search cap, so every plan here covers a
part of the instance.  For each instance the file holds:

* one line per ``shortest_schedule`` call over a seeded subset of at
  most 8 requests, with 0-2 of them on board, from a start at a request
  point or off them, at a seeded start time: ``schedule_to_obj`` of the
  schedule and ``repr`` of its length;
* one line per policy, ``replan`` and ``ignore``, holding
  ``trace_to_dict`` of its run.  Releases come in small batches spread
  out in time, so no pending set passes the cap, and a matrix ``replan``
  run re-plans from inside an edge.

The comparison is exact: a changed bit or another optimal order is a
behaviour change.  To re-record after an intended change, run
``python tests/test_golden_plan.py`` with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import pytest

from openride.engine import simulate
from openride.experiments import make_policy
from openride.metric import half_line, line, matrix_space
from openride.model import (EdgePos, Instance, canonical_json, make_instance, schedule_length,
                            schedule_to_obj, trace_to_dict)
from openride.offline import DEFAULT_SEARCH_CAP, OptCache, shortest_schedule

from oracles import NAIVE_CAP, opt_upto_naive

GOLDEN = Path(__file__).with_name("golden")
PLAN_FILE = GOLDEN / "plan.jsonl"

KINDS = tuple((space, cap) for space in ("line", "halfline", "matrix") for cap in (1, 2, None))
COUNT = 30
PLANS = 10  # shortest_schedule calls per instance
GRID_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.0)


def make_case(index: int):
    """Instance number index of the corpus and its rng, ready for the plan draws."""
    rng = random.Random(f"plan-{index}")
    kind, capacity = KINDS[index % len(KINDS)]
    coarse = index // len(KINDS) % 2 == 0
    n = rng.randint(11, 14)
    if kind == "matrix":
        size = rng.randint(6, 8)
        d = [[0.0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                d[i][j] = d[j][i] = (rng.choice(GRID_WEIGHTS) if coarse
                                     else rng.uniform(0.5, 3.0))
        for k in range(size):
            for i in range(size):
                for j in range(size):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        space = matrix_space(d)

        def point():
            return rng.randrange(size)
    else:
        space = line() if kind == "line" else half_line()
        low = -3.0 if kind == "line" else 0.0

        def point():
            return rng.randint(int(2 * low), 6) / 2 if coarse else rng.uniform(low, 3.0)
    # batches of 1-3 requests, 4-8 apart: later batches arrive while the
    # server still works on earlier ones, but pending sets stay small
    triples = []
    t = 0.0
    while len(triples) < n:
        for _ in range(min(rng.randint(1, 3), n - len(triples))):
            triples.append((point(), point(), t))
        t += rng.uniform(4.0, 8.0)
    return make_instance(space, capacity, triples), rng


def plan_lines() -> list[str]:
    """Per instance: its plans in draw order, then its replan and ignore traces."""
    lines = []
    for index in range(COUNT):
        inst, rng = make_case(index)
        assert len(inst.requests) > DEFAULT_SEARCH_CAP
        cache = OptCache(inst)
        space = inst.space
        points = sorted({p for r in inst.requests for p in (r.a, r.b)})
        for _ in range(PLANS):
            reqs = rng.sample(inst.requests, rng.randint(1, 8))
            room = len(reqs) if inst.capacity is None else min(len(reqs), inst.capacity)
            loaded = sorted(r.id for r in rng.sample(reqs, rng.randint(0, min(room, 2))))
            if rng.random() < 0.5:
                start = rng.choice(points)
            elif space.kind == "matrix":
                start = rng.randrange(space.size)
            else:
                start = rng.uniform(0.0 if space.kind == "halfline" else -3.0, 3.0)
            start_time = rng.choice((0.0, rng.uniform(0.0, inst.requests[-1].release)))
            sched = shortest_schedule([r.id for r in reqs], start, cache, loaded, start_time)
            lines.append(canonical_json({
                "index": index,
                "ids": sorted(r.id for r in reqs),
                "loaded": loaded,
                "start": start,
                "start_time": start_time,
                "length": repr(schedule_length(sched)),
                "schedule": schedule_to_obj(sched),
            }))
        for algo in ("replan", "ignore"):
            trace = simulate(inst, make_policy(algo, None), cache)
            lines.append(canonical_json({"index": index, "algo": algo,
                                         "trace": trace_to_dict(trace)}))
    return lines


def test_plans_above_the_cap_match_golden():
    want = PLAN_FILE.read_text().splitlines()
    got = plan_lines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1} of {PLAN_FILE.name} differs"


def test_prefix_solves_above_the_cap_equal_a_cache_over_the_prefix():
    # a line, a half-line and a matrix instance of the corpus, capacity 1 so
    # the brute force stays fast: every prefix solve within the cap gives the
    # bits of a fresh cache over just the prefix's requests, and the
    # brute-force optimum where that reaches
    for index in (0, 12, 6):
        inst, _ = make_case(index)
        cache = OptCache(inst)
        for k in range(DEFAULT_SEARCH_CAP + 1):
            prefix = Instance(inst.space, inst.capacity, inst.requests[:k])
            seq, value = cache.solve_prefix(k)
            want_seq, want = OptCache(prefix).solve_prefix(k)
            assert (seq, value.hex()) == (want_seq, want.hex()), (index, k)
            if k <= NAIVE_CAP:
                assert value == pytest.approx(opt_upto_naive(prefix, math.inf), abs=1e-9), (index, k)


def test_matrix_replan_runs_plan_from_inside_an_edge():
    # the corpus reaches the mid-edge path, which plans from both ends of an edge
    mid_edge = 0
    for index in range(COUNT):
        inst, _ = make_case(index)
        if inst.space.kind == "matrix":
            trace = simulate(inst, make_policy("replan", None))
            mid_edge += sum(isinstance(rec.start_pos, EdgePos) for rec in trace.schedules)
    assert mid_edge >= 5


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    PLAN_FILE.write_text("\n".join(plan_lines()) + "\n")


if __name__ == "__main__":
    record()
