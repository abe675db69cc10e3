"""Instance generators, ratio measurement, fuzzing, and the bound sweep."""

import concurrent.futures
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import openride
from openride import experiments
from openride.experiments import (
    HALF_LINE_LOWER_BOUND,
    MAX_FUZZ_WORKERS,
    MAX_MATRIX_NODES,
    OPTIMAL_ALPHA_GENERAL,
    OPTIMAL_ALPHA_HALF_LINE,
    FuzzConfig,
    competitive_ratio,
    fuzz,
    gen_halfline_lb,
    generate_instance,
    make_policy,
    _check_trace,
    measure_ratio,
    sweep_lower_bounds,
)
from openride.engine import IgnorePolicy, LazyPolicy, ReplanPolicy
from openride.metric import HALF_LINE, LINE, MATRIX, half_line, line, matrix_space
from openride.model import EdgePos, ScheduleRecord, Trace, instance_from_dict, instance_to_dict, make_instance
from openride.offline import DEFAULT_SEARCH_CAP, OptCache, SearchCapExceeded


def test_constants():
    assert OPTIMAL_ALPHA_GENERAL == pytest.approx(0.5 + math.sqrt(11.0 / 12.0))
    assert OPTIMAL_ALPHA_HALF_LINE == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0)
    assert HALF_LINE_LOWER_BOUND == pytest.approx((3.0 + math.sqrt(3.0)) / 2.0)
    # at the half-line optimum the two candidate bounds coincide
    a = OPTIMAL_ALPHA_HALF_LINE
    assert 1.0 + a == pytest.approx(2.0 + 1.0 / (2.0 * a), abs=1e-12)
    assert 1.0 + a == pytest.approx(HALF_LINE_LOWER_BOUND, abs=1e-12)


def test_gen_halfline_lb_contents():
    inst = gen_halfline_lb(1.2, 0.01)
    assert inst.space.kind == HALF_LINE
    assert inst.capacity == 1
    triples = [(r.a, r.b, r.release) for r in inst.requests]
    assert triples == [
        (0.0, 1.0, 0.0),
        (1.0, 0.0, 0.0),
        (1.0, 1.99, 0.0),
        (2.8, 2.8, 4.8),
    ]


def test_gen_halfline_lb_domain():
    for alpha in (0.99, OPTIMAL_ALPHA_HALF_LINE, 2.0):
        with pytest.raises(ValueError):
            gen_halfline_lb(alpha)
    for eps in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            gen_halfline_lb(1.2, eps)


def test_gen_halfline_lb_ratio_formula():
    alpha, eps = 1.1, 1e-3
    ratio = competitive_ratio(gen_halfline_lb(alpha, eps), "lazy", alpha)
    want = (8.0 * alpha + 2.0 - (2.0 * alpha + 2.0) * eps) / (4.0 * alpha)
    assert ratio == pytest.approx(want, abs=1e-9)


def _lazy_violations(inst, alpha):
    cache = OptCache(inst)
    trace, _, ratio = measure_ratio(inst, "lazy", alpha, cache)
    return ratio, _check_trace(inst, trace, cache)


@pytest.mark.parametrize("alpha", [1.0, 1.1, 1.2, 1.3, 1.36])
def test_check_trace_skips_the_deadline_below_the_optimal_alpha(alpha):
    # the family's ratio 2 + 1/(2 alpha) exceeds 1 + alpha, so the deadline
    # (1 + alpha) * OPT(t) cannot hold on it; its schedules are still checked
    ratio, bad = _lazy_violations(gen_halfline_lb(alpha, 1e-3), alpha)
    assert ratio > 1.0 + alpha
    assert bad == 0


def _late_trace(alpha):
    # one schedule of length OPT = 1 that starts after alpha * OPT and ends
    # at 3.5, past (1 + alpha) * OPT for every alpha below 2.5
    rec = ScheduleRecord(index=0, start_time=2.5, start_pos=0.0, request_ids=(0,),
                         length=1.0, interrupted=False)
    return Trace(algo="lazy", alpha=alpha, schedules=[rec], events=[], completion=3.5)


@pytest.mark.parametrize("space, alpha, counted", [
    (line(), OPTIMAL_ALPHA_GENERAL, 1),
    (matrix_space([[0, 1], [1, 0]]), OPTIMAL_ALPHA_GENERAL, 1),
    (half_line(), OPTIMAL_ALPHA_HALF_LINE, 1),
    (line(), OPTIMAL_ALPHA_HALF_LINE, 0),
    (half_line(), 1.2, 0),
], ids=["line", "matrix", "half-line", "line-below", "half-line-below"])
def test_check_trace_counts_late_schedules_from_the_optimal_alpha(space, alpha, counted):
    point = 1 if space.kind == MATRIX else 1.0
    inst = make_instance(space, 1, [(space.origin, point, 0.0)])
    assert _check_trace(inst, _late_trace(alpha), OptCache(inst)) == counted


def test_check_trace_counts_long_schedules_for_every_alpha():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    trace = _late_trace(1.0)
    trace.schedules[0].length = 1.5
    assert _check_trace(inst, trace, OptCache(inst)) == 1


@pytest.mark.parametrize("eps, ratio, opt", [(1e-3, 2.4987506246876565, 2.001),
                                             (1e-6, 2.499998750000625, 2.000001)])
def test_three_request_family_at_alpha_one(eps, ratio, opt):
    # (0 -> 1, t = 0), (1/2 -> 0, t = 0.43), (1 -> 1, t = 2 + eps): lazy at
    # alpha = 1 finishes at 5 against OPT = 2 + eps, a ratio of 2.5 - O(eps);
    # power-of-two scalings keep every bit of the ratio
    for scale in (1.0, 2.0 ** 10, 2.0 ** -10):
        inst = make_instance(half_line(), 1, [(0.0, scale, 0.0), (scale / 2, 0.0, scale * 0.43),
                                              (scale, scale, scale * (2.0 + eps))])
        cache = OptCache(inst)
        trace, got_opt, got = measure_ratio(inst, "lazy", 1.0, cache)
        assert got == ratio
        assert got_opt == opt * scale and trace.completion == 5.0 * scale
        assert _check_trace(inst, trace, cache) == 0


@pytest.mark.parametrize("alpha", [1.1, 1.2, 1.3])
def test_three_request_family_scales_exactly(alpha):
    # (0 -> 1, t = 0), (1/2 + delta -> 0, t = 0), (p -> p, t = 2 alpha + eps):
    # lazy reaches (4 alpha + 1 - 2 delta) / (2 alpha + eps).  At scale 2**-10
    # the late request comes about 1e-9 after lazy's start at alpha * OPT, so
    # the checkers must count it out of OPT(t) as the engine does
    delta, eps = 1e-4, 1e-6
    p = max(1.0, 2.0 * alpha - 1.0 - 2.0 * delta)
    ratios = set()
    for scale in (1.0, 2.0 ** 10, 2.0 ** -10):
        inst = make_instance(half_line(), 1, [(0.0, scale, 0.0), (scale * (0.5 + delta), 0.0, 0.0),
                                              (scale * p, scale * p, scale * (2.0 * alpha + eps))])
        cache = OptCache(inst)
        trace, _, ratio = measure_ratio(inst, "lazy", alpha, cache)
        ratios.add(ratio.hex())
        assert ratio == pytest.approx((4.0 * alpha + 1.0 - 2.0 * delta) / (2.0 * alpha + eps), rel=1e-12)
        assert _check_trace(inst, trace, cache) == 0
    assert len(ratios) == 1


def test_check_trace_counts_a_schedule_that_starts_elsewhere():
    # a schedule at a node must start where its record stands, and one from
    # inside an edge at one of the edge's ends
    inst = generate_instance(FuzzConfig(seed=0), 0)
    cache = OptCache(inst)
    trace = measure_ratio(inst, "replan", None, cache)[0]
    last = max(i for i, rec in enumerate(trace.schedules) if not rec.interrupted)
    rec = trace.schedules[last]
    assert rec.start_pos == pytest.approx(2.84, abs=0.01) and _check_trace(inst, trace, cache) == 0
    moved = replace(trace, schedules=trace.schedules[:last] + [replace(rec, start_pos=rec.start_pos + 5.0)])
    assert _check_trace(inst, moved, cache) == 1
    sp = matrix_space([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    inst = make_instance(sp, 1, [(1, 1, 0.0)])
    cache = OptCache(inst)
    trace = measure_ratio(inst, "replan", None, cache)[0]
    (rec,) = trace.schedules
    assert rec.schedule.start_pos == 0 and _check_trace(inst, trace, cache) == 0
    # each offset puts the lead-in to node 0 at 0; edge (1, 2) has no end at 0
    for edge, offset, count in (([0, 1], 0.0, 0), ([1, 0], 2.0, 0), ([1, 2], 1.0, 1)):
        off_edge = replace(rec, start_pos=EdgePos(*edge, offset))
        assert _check_trace(inst, replace(trace, schedules=[off_edge]), cache) == count


def test_check_trace_replays_mid_edge_and_loaded_schedules(monkeypatch):
    # replan starts schedules inside matrix edges and with cargo on board;
    # each completed one is replayed, from the end node its lead-in reaches
    calls = []
    validate = experiments.validate_schedule

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(experiments, "validate_schedule", counted)
    cfg = FuzzConfig(seed=0)
    completed = at_u = at_v = loaded = 0
    for i in range(40):
        inst = generate_instance(cfg, i)
        cache = OptCache(inst)
        trace = measure_ratio(inst, "replan", None, cache)[0]
        del calls[:]
        assert _check_trace(inst, trace, cache) == 0
        recs = [rec for rec in trace.schedules if not rec.interrupted]
        completed += len(recs)
        assert len(calls) == len(recs)
        for rec in recs:
            wrong = []
            pos = rec.start_pos
            if isinstance(pos, EdgePos):
                at_u += rec.schedule.start_pos == pos.u
                at_v += rec.schedule.start_pos == pos.v
                wrong.append(replace(rec, start_pos=replace(pos, offset=pos.offset + 0.5)))
            if rec.loaded:
                loaded += 1
                wrong.append(replace(rec, loaded=()))
            for bad in wrong:
                broken = replace(trace, schedules=[bad if r is rec else r for r in trace.schedules])
                assert _check_trace(inst, broken, cache) == 1
    # the first 40 instances hold 52 completed schedules, 4 starting mid-edge
    # toward u, 6 toward v, and 10 with cargo
    assert completed == 52 and min(at_u, at_v, loaded) >= 4


def test_instance_round_trip_keeps_ids_and_ratios():
    # documents list requests in id order, so reading one back changes no
    # id and no tie-break
    cfg = FuzzConfig(seed=0, max_requests=6)
    for i in range(500):
        inst = generate_instance(cfg, i)
        back = instance_from_dict(instance_to_dict(inst))
        assert back == inst
        caches = OptCache(inst), OptCache(back)
        for algo, alpha in (("lazy", OPTIMAL_ALPHA_GENERAL), ("replan", None), ("ignore", None)):
            ratio, ratio_back = (measure_ratio(x, algo, alpha, c)[2] for x, c in zip((inst, back), caches))
            assert ratio.hex() == ratio_back.hex()


def test_make_policy():
    assert isinstance(make_policy("lazy", 1.3), LazyPolicy)
    assert isinstance(make_policy("replan", None), ReplanPolicy)
    assert isinstance(make_policy("ignore", None), IgnorePolicy)
    with pytest.raises(ValueError):
        make_policy("lazy", None)
    with pytest.raises(ValueError):
        make_policy("greedy", None)


def test_competitive_ratio_single_request():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    assert competitive_ratio(inst, "lazy", 1.366) == pytest.approx(2.366, abs=1e-12)
    assert competitive_ratio(inst, "replan") == pytest.approx(1.0)
    assert competitive_ratio(inst, "ignore") == pytest.approx(1.0)


def test_competitive_ratio_zero_opt():
    inst = make_instance(line(), 1, [(0.0, 0.0, 0.0)])
    assert competitive_ratio(inst, "lazy", 1.5) == 1.0


def test_measure_ratio_solves_opt_before_the_run(monkeypatch):
    # an instance above the search cap fails before any simulation step
    def no_run(*args):
        raise AssertionError("simulate ran before OPT was solved")

    monkeypatch.setattr(experiments, "simulate", no_run)
    inst = make_instance(line(), 1, [(float(i % 3), 1.0, float(i)) for i in range(11)])
    for algo, alpha in (("replan", None), ("lazy", 1.5)):
        with pytest.raises(SearchCapExceeded, match="^11 released requests exceed"):
            measure_ratio(inst, algo, alpha)


@pytest.mark.parametrize("algo, alpha, message", [
    ("lazy", True, "alpha is not a number"),
    ("greedy", None, "unknown algorithm 'greedy'"),
], ids=["bool-alpha", "unknown-algo"])
def test_measure_ratio_checks_the_policy_before_it_solves_opt(monkeypatch, algo, alpha, message):
    solves = []
    solve_prefix = OptCache.solve_prefix
    monkeypatch.setattr(OptCache, "solve_prefix", lambda cache, k: solves.append(k) or solve_prefix(cache, k))
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0), (2.0, -1.0, 1.0)])
    with pytest.raises(ValueError, match=message):
        competitive_ratio(inst, algo, alpha)
    assert solves == []
    competitive_ratio(inst, "replan")  # the count sees the solves of a good run
    assert solves


def test_generate_instance_deterministic():
    cfg = FuzzConfig(seed=42)
    a = generate_instance(cfg, 7)
    b = generate_instance(cfg, 7)
    assert a == b
    assert generate_instance(cfg, 8) != a


def test_generate_instance_respects_config():
    cfg = FuzzConfig(
        seed=5, spaces=(MATRIX,), capacities=(2,), matrix_nodes=(4, 4), max_requests=3
    )
    for i in range(20):
        inst = generate_instance(cfg, i)
        assert inst.space.kind == MATRIX
        assert inst.space.size == 4
        assert matrix_space(inst.space.matrix) == inst.space  # rebuilding checks the axioms
        assert inst.capacity == 2
        assert 1 <= len(inst.requests) <= 3
        for r in inst.requests:
            assert r.release >= 0.0


def test_generate_instance_halfline_points_nonnegative():
    cfg = FuzzConfig(seed=9, spaces=(HALF_LINE,))
    for i in range(30):
        inst = generate_instance(cfg, i)
        for r in inst.requests:
            assert r.a >= 0.0 and r.b >= 0.0


def test_fuzz_serial_matches_workers():
    cfg = FuzzConfig(count=30, seed=3, alpha=1.4, check_schedules=True)
    serial = fuzz(cfg, "lazy")
    parallel = fuzz(FuzzConfig(**{**cfg.__dict__, "workers": 2}), "lazy")
    assert serial == parallel  # worst_instance is excluded from equality
    assert serial.violations == 0
    assert serial.count == 30
    assert serial.worst >= 1.0
    assert serial.worst_instance == generate_instance(cfg, serial.worst_index)


def test_fuzz_replan_and_ignore_run_clean():
    cfg = FuzzConfig(count=25, seed=11, check_schedules=True)
    for algo in ("replan", "ignore"):
        report = fuzz(cfg, algo)
        assert report.violations == 0
        assert report.algo == algo and report.alpha is None
        assert 1.0 <= report.worst < 10.0
        assert 1.0 <= report.mean <= report.worst


def test_fuzz_empty_config():
    report = fuzz(FuzzConfig(count=0), "ignore")
    assert report.count == 0 and report.worst is None and report.worst_index == -1
    assert report.worst_instance is None and report.mean == 0.0


@pytest.mark.parametrize("field, value", [
    ("count", -1), ("count", True), ("count", 2.5), ("count", None),
    ("seed", True), ("seed", "0"),
    ("max_requests", 0), ("max_requests", False),
    ("workers", True), ("workers", -1), ("workers", 1.0), ("workers", MAX_FUZZ_WORKERS + 1),
    ("alpha", math.nan), ("alpha", math.inf), ("alpha", True), ("alpha", "1.2"),
    ("spaces", ()), ("spaces", ("moon",)), ("spaces", "line"),
    ("capacities", (0,)), ("capacities", (True,)), ("capacities", ("2",)), ("capacities", 2),
    ("matrix_nodes", (3, 2)), ("matrix_nodes", (2,)),
    ("check_schedules", "yes"),
    ("max_requests", DEFAULT_SEARCH_CAP + 1), ("max_requests", 20_000_000),
    ("matrix_nodes", (2, MAX_MATRIX_NODES + 1)),
    ("alpha", -1.0),
])
def test_fuzz_config_rejects_bad_fields(field, value):
    # the check runs when the config is built, so no pool is ever started
    with pytest.raises(ValueError, match=f"fuzz config: {field} must be"):
        FuzzConfig(**{field: value})


def test_fuzz_config_accepts_the_worker_cap():
    assert FuzzConfig(workers=MAX_FUZZ_WORKERS).workers == MAX_FUZZ_WORKERS
    cfg = FuzzConfig(max_requests=DEFAULT_SEARCH_CAP, matrix_nodes=(MAX_MATRIX_NODES, MAX_MATRIX_NODES))
    assert cfg.max_requests == DEFAULT_SEARCH_CAP and cfg.matrix_nodes[1] == MAX_MATRIX_NODES
    assert FuzzConfig(workers=0, alpha=1, count=0).alpha == 1


def test_fuzz_streams_in_memory_independent_of_count(monkeypatch):
    import tracemalloc

    from openride import experiments

    monkeypatch.setattr(experiments, "_fuzz_task", lambda task: (1.0 + (task[2] == 7), 0))

    def peak(count):
        tracemalloc.start()
        try:
            report = fuzz(FuzzConfig(count=count), "ignore")
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    small, _ = peak(1_000)
    large, report = peak(200_000)
    assert report.count == 200_000 and report.worst == 2.0 and report.worst_index == 7
    assert report.mean == (200_000 + 1.0) / 200_000
    # a list of 200 000 task tuples alone takes several megabytes
    assert large - small < 100_000, (small, large)


def test_fuzz_workers_keep_a_bounded_window(monkeypatch):
    # a stub pool runs each chunk in process when it is submitted and counts
    # the chunks submitted but not yet consumed; no process starts
    from openride import experiments

    flight = {"now": 0, "most": 0}

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            flight["now"] -= 1
            return self.value

    class Pool:
        def __init__(self, max_workers):
            assert max_workers == 3

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            flight["now"] += 1
            flight["most"] = max(flight["most"], flight["now"])
            return Done(fn(*args))

    # the pool is imported from its module on the path with workers alone
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(experiments, "_fuzz_task",
                        lambda task: (1.0 + (task[2] == 99_998), task[2] % 2))
    report = fuzz(FuzzConfig(count=100_000, workers=3), "ignore")
    assert flight == {"now": 0, "most": 3 * experiments.FUZZ_CHUNKS_PER_WORKER}
    # results come back in index order: the one worst ratio keeps its index
    assert report.worst == 2.0 and report.worst_index == 99_998
    assert report.violations == 50_000 and report.mean == (100_000 + 1.0) / 100_000


def test_the_process_pool_loads_for_runs_with_workers_only():
    # a fresh interpreter: the test process has the pool stack loaded already
    code = """
import sys
import openride
from openride.experiments import FuzzConfig, fuzz
pool = ("concurrent.futures", "multiprocessing", "logging", "socket")
print(sorted(m for m in sys.modules if m in pool))
serial = fuzz(FuzzConfig(count=8), "ignore")
print(fuzz(FuzzConfig(count=8, workers=2), "ignore") == serial, "multiprocessing" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(openride.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "True True", ""]


# ---------------------------------------------------------------------------
# lower-bound sweep


def test_sweep_spot_values():
    rows = sweep_lower_bounds([0.0, 0.5, 1.2, 2.0])
    assert rows[0].bound == pytest.approx(4.0)
    assert rows[0].source == "1+3/(alpha+1)"
    assert rows[1].bound == pytest.approx(3.0)
    assert rows[1].source == "1+3/(alpha+1)"
    assert rows[2].bound == pytest.approx(2.0 + 1.0 / 2.4)
    assert rows[2].source == "2+1/(2*alpha)"
    assert rows[3].bound == pytest.approx(3.0)
    assert rows[3].source == "1+alpha"


def test_sweep_boundary_at_half_line_optimum():
    a = OPTIMAL_ALPHA_HALF_LINE
    row = sweep_lower_bounds([a])[0]
    assert row.source == "1+alpha"
    assert row.bound == pytest.approx(1.0 + a)


def test_sweep_rejects_negative():
    with pytest.raises(ValueError):
        sweep_lower_bounds([-0.5])
