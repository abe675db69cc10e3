"""Online simulation engine and trace checkers."""

from dataclasses import replace

import pytest

from openride import engine
from openride.engine import (
    EdgePos,
    EngineError,
    IgnorePolicy,
    LazyPolicy,
    ReplanPolicy,
    check_alpha_good,
    check_lazy_starts,
    simulate,
)
from openride.experiments import OPTIMAL_ALPHA_GENERAL, FuzzConfig, gen_halfline_lb, generate_instance, make_policy
from openride.metric import HALF_LINE, LINE, MATRIX, half_line, line, matrix_space
from openride.model import (
    Instance,
    Load,
    Move,
    Schedule,
    ScheduleRecord,
    Trace,
    Unload,
    Wait,
    make_instance,
    trace_to_dict,
)
from openride.offline import DEFAULT_SEARCH_CAP, OptCache, opt_upto


def test_lazy_single_request_waits_then_serves():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    for alpha in (1.0, 1.366, 1.457):
        trace = simulate(inst, LazyPolicy(alpha))
        assert trace.completion == pytest.approx(alpha + 1.0, abs=1e-12)
        assert len(trace.schedules) == 1
        rec = trace.schedules[0]
        assert rec.start_time == pytest.approx(alpha, abs=1e-12)
        assert rec.length == pytest.approx(1.0)
        assert not rec.interrupted


def test_lazy_alpha_zero_is_eager():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    trace = simulate(inst, LazyPolicy(0.0))
    assert trace.completion == pytest.approx(1.0)
    assert trace.schedules[0].start_time == 0.0


def test_lazy_rejects_negative_alpha():
    with pytest.raises(ValueError):
        LazyPolicy(-0.1)


def test_lazy_rejects_an_overflowing_waiting_target():
    # alpha * OPT(t) past the float range would end the run at t = inf;
    # a huge release or a huge alpha each overflow it
    for inst, alpha in ((make_instance(line(), 1, [(1.0, 2.0, 1e308)]), 2.0),
                        (make_instance(line(), 1, [(1.0, 2.0, 1.0)]), 1e308)):
        with pytest.raises(ValueError, match="alpha"):
            simulate(inst, LazyPolicy(alpha))
    inst = make_instance(line(), 1, [(1.0, 2.0, 1e308)])
    assert simulate(inst, LazyPolicy(1.0)).completion == 1e308
    assert simulate(inst, ReplanPolicy()).completion == 1e308


def test_lazy_zero_optimum_instance():
    # a single point-to-point request at the origin costs nothing
    inst = make_instance(line(), 1, [(0.0, 0.0, 0.0)])
    trace = simulate(inst, LazyPolicy(1.0))
    assert trace.completion == 0.0


def test_replan_and_ignore_single_request_are_eager():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    for policy in (ReplanPolicy(), IgnorePolicy()):
        trace = simulate(inst, policy)
        assert trace.completion == pytest.approx(1.0)
        assert trace.alpha is None


def test_lazy_lower_bound_walk():
    # the four-request half-line family at alpha = 1.2, epsilon = 0.01
    inst = gen_halfline_lb(1.2, 0.01)
    trace = simulate(inst, LazyPolicy(1.2))
    assert trace.completion == pytest.approx(11.556, abs=1e-9)
    assert len(trace.schedules) == 2
    first, second = trace.schedules
    assert first.start_time == pytest.approx(1.2 * 3.98, abs=1e-9)
    assert first.length == pytest.approx(3.98, abs=1e-9)
    assert not first.interrupted
    assert second.start_time == pytest.approx(8.756, abs=1e-9)
    assert second.length == pytest.approx(2.8, abs=1e-9)
    _, opt = opt_upto(inst, trace.completion)
    assert opt == pytest.approx(4.8, abs=1e-9)
    assert trace.completion / opt == pytest.approx(2.4075, abs=1e-9)


def test_lazy_interrupts_and_returns_mid_edge():
    # server is partway along an edge, empty-handed, when the second
    # request lands; going back and starting over beats pressing on
    sp = matrix_space([[0, 10, 2], [10, 0, 9], [2, 9, 0]])
    inst = make_instance(sp, 1, [(1, 1, 0.0), (2, 2, 20.0)])
    trace = simulate(inst, LazyPolicy(1.5))
    assert trace.completion == pytest.approx(41.0, abs=1e-9)
    first, second = trace.schedules
    assert first.start_time == pytest.approx(15.0)
    assert first.interrupted
    assert second.start_time == pytest.approx(30.0)
    assert second.length == pytest.approx(11.0)
    assert second.request_ids == (0, 1)
    kinds = [ev.kind for ev in trace.events]
    assert "interrupt" in kinds and "return" in kinds


def test_lazy_delivers_cargo_during_interrupt():
    inst = make_instance(half_line(), 1, [(0.0, 1.0, 0.0), (0.1, 0.1, 2.5)])
    trace = simulate(inst, LazyPolicy(2.0))
    assert trace.completion == pytest.approx(5.1, abs=1e-9)
    first, second = trace.schedules
    assert first.start_time == pytest.approx(2.0)
    assert first.interrupted
    assert second.start_time == pytest.approx(5.0)
    assert second.length == pytest.approx(0.1)
    # the first request was dropped off by the return run itself
    unloads = [ev for ev in trace.events if ev.kind == "unload"]
    assert unloads[0].data == {"id": 0}
    assert unloads[0].time == pytest.approx(3.0)
    assert check_alpha_good(trace, inst) == []
    assert check_lazy_starts(trace, inst) == []


def test_ignore_two_phases():
    inst = make_instance(line(), 1, [(1.0, 1.0, 0.0), (-0.2, -0.2, 0.5)])
    trace = simulate(inst, IgnorePolicy())
    assert trace.completion == pytest.approx(2.2, abs=1e-12)
    first, second = trace.schedules
    assert (first.start_time, first.length) == (0.0, 1.0)
    assert second.start_time == pytest.approx(1.0)
    assert second.length == pytest.approx(1.2)
    kinds = [ev.kind for ev in trace.events]
    assert kinds.count("idle") == 1 and kinds[-1] == "idle"


def test_release_at_exact_schedule_end_is_seen_first():
    inst = make_instance(line(), 1, [(1.0, 1.0, 0.0), (2.0, 2.0, 1.0)])
    trace = simulate(inst, IgnorePolicy())
    assert trace.completion == pytest.approx(2.0)
    assert len(trace.schedules) == 2
    second = trace.schedules[1]
    assert second.start_time == pytest.approx(1.0)
    assert second.request_ids == (1,)
    at_one = [ev.kind for ev in trace.events if ev.time == 1.0]
    assert at_one.index("arrival") < at_one.index("schedule-end")


def test_replan_mid_edge_backtracks():
    sp = matrix_space([[0, 10, 2], [10, 0, 9], [2, 9, 0]])
    inst = make_instance(sp, 1, [(1, 1, 0.0), (2, 2, 3.0)])
    trace = simulate(inst, ReplanPolicy())
    assert trace.completion == pytest.approx(17.0, abs=1e-9)
    first, second = trace.schedules
    assert first.interrupted
    assert second.start_time == pytest.approx(3.0)
    assert second.start_pos == EdgePos(0, 1, 3.0)
    assert trace_to_dict(trace)["schedules"][1]["p"] == {"edge": [0, 1], "offset": 3.0}
    assert second.length == pytest.approx(14.0)


def test_lazy_capacity_two_sweep():
    inst = make_instance(half_line(), 2, [(1.0, 3.0, 0.0), (2.0, 4.0, 0.0)])
    trace = simulate(inst, LazyPolicy(1.0))
    assert trace.completion == pytest.approx(8.0)
    rec = trace.schedules[0]
    assert rec.start_time == pytest.approx(4.0)
    assert rec.schedule.actions == (
        Move(0.0, 1.0, 1.0),
        Load(0),
        Move(1.0, 2.0, 1.0),
        Load(1),
        Move(2.0, 3.0, 1.0),
        Unload(0),
        Move(3.0, 4.0, 1.0),
        Unload(1),
    )


def test_simulate_accepts_shared_cache():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    cache = OptCache(inst)
    t1 = simulate(inst, LazyPolicy(1.0), opt_cache=cache)
    t2 = simulate(inst, LazyPolicy(1.0), opt_cache=cache)
    assert t1.completion == t2.completion == pytest.approx(2.0)


@pytest.mark.parametrize("kind", [LINE, HALF_LINE, MATRIX])
def test_runs_do_not_see_the_future(kind):
    # every ratio assumes an online run: dropping the requests of the last
    # release epoch, ids kept, leaves every event before that epoch as it was
    cfg = FuzzConfig(seed=5, max_requests=7, spaces=(kind,))
    compared = 0
    for i in range(60):
        inst = generate_instance(cfg, i)
        epoch = inst.requests[-1].release
        kept = tuple(r for r in inst.requests if r.release < epoch)
        early = Instance(inst.space, inst.capacity, kept)
        for algo, alpha in (("lazy", OPTIMAL_ALPHA_GENERAL), ("lazy", 1.0), ("replan", None), ("ignore", None)):
            want, got = ([ev for ev in trace_to_dict(simulate(x, make_policy(algo, alpha)))["events"]
                          if ev["t"] < epoch] for x in (inst, early))
            assert got == want, (kind, i, algo, alpha)
            compared += len(want)
    assert compared > 1500


# ---------------------------------------------------------------------------
# trace checkers on fabricated traces


def test_planned_schedule_with_a_wait_is_refused(monkeypatch):
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    waiting = Schedule(0.0, (Wait(1.0), Load(0), Move(0.0, 1.0, 1.0), Unload(0)))
    monkeypatch.setattr(engine, "shortest_schedule", lambda *args: waiting)
    with pytest.raises(EngineError, match="planned schedules never wait"):
        simulate(inst, IgnorePolicy())


def _fake_trace(records):
    return Trace(algo="lazy", alpha=1.0, schedules=records, events=[], completion=0.0)


def _rec(i, start, length):
    return ScheduleRecord(
        index=i,
        start_time=start,
        start_pos=0.0,
        request_ids=(0,),
        length=length,
        interrupted=False,
    )


class _WaitInPlace:
    """Never moves: every handler starts a wait that ends at once."""

    name = "stuck"

    def on_request(self, sim):
        sim.start_wait(sim.time)

    def on_idle(self, sim):
        sim.start_wait(sim.time)


class _AlwaysIdle:
    """Never serves: every handler leaves the server idle."""

    name = "idle"

    def on_request(self, sim):
        sim.note_idle()

    def on_idle(self, sim):
        sim.note_idle()


class _DropOnRelease:
    """Serves when idle; a release that finds a command running drops it with `drop`."""

    name = "drop"

    def __init__(self, drop):
        self.drop = drop

    def on_request(self, sim):
        if sim.cmd is not None:
            self.drop(sim)

    def on_idle(self, sim):
        sim.serve_pending()


@pytest.mark.parametrize("kind, drop", [
    ("idle", lambda sim: sim.note_idle()),
    ("wait", lambda sim: sim.start_wait(sim.time)),
], ids=["idle", "wait"])
def test_an_idle_note_or_a_wait_interrupts_a_running_schedule(kind, drop):
    # the second release finds the server at 1, on its way to pick up at 2
    inst = make_instance(line(), 1, [(2.0, 3.0, 0.0), (-1.0, -1.0, 1.0)])
    trace = simulate(inst, _DropOnRelease(drop))
    first, second = trace.schedules
    assert first.interrupted and not second.interrupted
    assert second.start_time == 1.0 and second.request_ids == (0, 1)
    kinds = [ev.kind for ev in trace.events]
    at = kinds.index("interrupt")
    assert trace.events[at].data == {"schedule": 1}
    assert trace.events[at].time == 1.0 and kinds[at + 1] == kind


def test_a_policy_that_never_advances_hits_the_step_guard():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    with pytest.raises(EngineError, match="simulation failed to make progress"):
        simulate(inst, _WaitInPlace())


def test_a_policy_that_never_serves_ends_with_unserved_requests():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0), (1.0, 2.0, 3.0)])
    with pytest.raises(EngineError, match="run ended with unserved requests"):
        simulate(inst, _AlwaysIdle())


def test_step_guard_leaves_a_wide_margin(monkeypatch):
    # run()'s loop takes one iteration per finished step, ended command and
    # release batch, and one more to stop.  The steps of the commands a run
    # starts bound the steps it finishes.  Over the instances of the golden
    # fuzz stream and the plan corpus that stays far below the guard
    from test_golden import FUZZ_COUNT, POLICIES
    from test_golden_plan import COUNT, make_case

    steps = [0]
    command = engine.Command

    def counted(kind, cmd_steps):
        steps[0] += len(cmd_steps)
        return command(kind, cmd_steps)

    monkeypatch.setattr(engine, "Command", counted)
    insts = [generate_instance(FuzzConfig(seed=0), i) for i in range(FUZZ_COUNT)]
    insts += [make_case(i)[0] for i in range(COUNT)]
    worst = 0.0
    for full in insts:
        cache = OptCache(full)
        for algo, alpha in POLICIES:
            inst = full
            if algo == "lazy" and len(full.requests) > DEFAULT_SEARCH_CAP:
                # lazy reads OPT over every release prefix, which the search
                # cap bounds: it runs on the longest prefix it can solve
                inst = replace(full, requests=full.requests[:DEFAULT_SEARCH_CAP])
            steps[0] = 0
            trace = simulate(inst, make_policy(algo, alpha), cache if inst is full else None)
            ends = sum(ev.kind.endswith("-end") for ev in trace.events)
            batches = len({r.release for r in inst.requests})
            guard = 200 * (len(inst.requests) + 1) + 1000
            worst = max(worst, (steps[0] + ends + batches + 1) / guard)
    assert 0.0 < worst < 0.1


def test_check_alpha_good_flags_bad_schedules():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    bad = check_alpha_good(_fake_trace([_rec(1, 0.1, 5.0)]), inst)
    assert [(v["i"], v["rule"]) for v in bad] == [(1, "length-within-opt"), (1, "finish-by-deadline")]
    assert bad[0]["lhs"] == 5.0 and bad[0]["rhs"] == pytest.approx(1.0)
    assert bad[1]["lhs"] == pytest.approx(5.1) and bad[1]["rhs"] == pytest.approx(2.0)


def test_check_lazy_starts_flags_early_start():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    bad = check_lazy_starts(_fake_trace([_rec(1, 0.1, 1.0)]), inst)
    assert any(v["rule"] == "start-after-alpha-opt" for v in bad)


def test_check_lazy_starts_flags_inverted_pair():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    bad = check_lazy_starts(_fake_trace([_rec(1, 3.0, 1.0), _rec(2, 3.5, 1.0)]), inst)
    assert any(v["rule"] == "opt-dominates-previous-start" for v in bad)


@pytest.mark.parametrize("check", [check_alpha_good, check_lazy_starts], ids=lambda f: f.__name__)
def test_lazy_checkers_need_alpha(check):
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    trace = Trace(algo="ignore", alpha=None, schedules=[], events=[], completion=0.0)
    with pytest.raises(ValueError):
        check(trace, inst)
