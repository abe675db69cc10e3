"""Online simulation engine.

The simulator runs a discrete event loop with two event sources:
request releases (grouped into batches of equal release time) and
command boundaries of the single server.  Policies react through two
handlers, mirroring how an online algorithm is specified:

* on_request fires after a release batch is added to the pending set,
  whatever the server is doing;
* on_idle fires when the server finishes a command, and again after a
  batch if the server is left without a command, so an idle server
  reconsiders as soon as anything changes.

At equal timestamps releases are processed before command completions,
so the idle handler always sees the updated pending set and the
request handler sees the server state before any same-instant action.

Between nodes of a matrix space the server occupies a point strictly
inside an edge, tracked as EdgePos; the induced distance from such a
point to a node w is min(offset + d(u, w), rest + d(v, w)), which is
how interrupted routes are re-planned mid-edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from .metric import MATRIX, MetricSpace
from .model import (
    EdgePos,
    Instance,
    Load,
    Move,
    Position,
    ScheduleRecord,
    Trace,
    TraceEvent,
    Unload,
    Wait,
)
from .numeric import CHECK_TOL, TIE_EPS, TOLERANCE, real
from .offline import OptCache, fastest_delivery_and_return, shortest_schedule


class EngineError(RuntimeError):
    """The simulation violated an internal invariant."""


@dataclass
class Command:
    """A run of the model's actions; a lead Move may start at an EdgePos."""

    kind: str  # "wait" | "schedule" | "return"; a running schedule is records[-1]
    steps: list
    idx: int = 0
    moved: float = 0.0  # progress inside the current move step


class Simulation:
    """State of one online run: clock, server, pending requests, command."""

    def __init__(self, inst: Instance, policy, opt_cache: OptCache | None = None):
        self.inst = inst
        self.space = inst.space
        self.policy = policy
        self.time = 0.0
        self.pos: Position = inst.space.origin
        self.pending: set[int] = set()  # released, not yet served (loaded included)
        self.loaded: set[int] = set()
        self.cmd: Command | None = None
        self.records: list[ScheduleRecord] = []
        self.events: list[TraceEvent] = []
        self.last_unload = 0.0
        # every policy plans against the cache, so it is built up front
        self.opt_cache = opt_cache if opt_cache is not None else OptCache(inst)

    # -- queries used by policies ------------------------------------

    def opt_now(self) -> float:
        """OPT(t) at the current time, over the requests released by it (see OptCache)."""
        return self.opt_cache.value(self.opt_cache.prefix_for(self.time))

    def _plan_from_here(self, plan):
        """Plan from the server's position, via the better end of its edge.

        plan(p) returns (length, result) for a plan starting at point p.
        Returns (total length, lead steps, result); mid-edge the lead step
        is a Move to the end node whose plan finishes first, ties going
        to u.  Each plan checks its start point, so the edge length is
        read unchecked.
        """
        pos = self.pos
        if not isinstance(pos, EdgePos):
            length, result = plan(pos)
            return length, [], result
        lu, ru = plan(pos.u)
        lv, rv = plan(pos.v)
        back, ahead = pos.offset, self.space.raw_distance(pos.u, pos.v) - pos.offset
        if back + lu <= ahead + lv + TIE_EPS:
            return back + lu, [Move(pos, pos.u, back)], ru
        return ahead + lv, [Move(pos, pos.v, ahead)], rv

    def fastest_return_plan(self):
        """Duration and steps of the quickest deliver-all-and-go-home route."""
        total, lead, steps = self._plan_from_here(
            lambda p: fastest_delivery_and_return(self.loaded, p, self.opt_cache))
        return total, lead + steps

    # -- commands issued by policies ---------------------------------

    def log(self, kind: str, **data) -> None:
        self.events.append(TraceEvent(self.time, kind, data))

    def _start(self, kind: str, steps: list | None, **data) -> None:
        """Start a command, or go idle when steps is None; either ends a running schedule."""
        if self.cmd is not None and self.cmd.kind == "schedule":
            rec = self.records[-1]
            rec.interrupted = True
            self.log("interrupt", schedule=rec.index)
        self.cmd = None if steps is None else Command(kind, steps)
        self.log(kind, **data)

    def start_wait(self, until: float) -> None:
        self._start("wait", [Wait(until)], until=until)

    def note_idle(self) -> None:
        self._start("idle", None)

    def start_return(self, steps: list) -> None:
        self._start("return", steps)

    def serve_pending(self) -> None:
        """Every policy's idle rule: a shortest schedule over the pending set, or idle."""
        if not self.pending:
            self.note_idle()
        elif isinstance(self.pos, EdgePos) or self.loaded:
            raise EngineError("schedules start empty-handed at a node")
        else:
            self.start_replan_schedule()

    def start_replan_schedule(self) -> None:
        """Re-plan over all unserved requests, keeping what is on board."""
        ids = sorted(self.pending)

        def plan(p):
            sched = shortest_schedule(ids, p, self.opt_cache, self.loaded, self.time)
            length = 0  # summed in action order from int 0, as schedule_length sums
            for act in sched.actions:
                if isinstance(act, Move):
                    length += act.distance
                elif isinstance(act, Wait):
                    raise EngineError("planned schedules never wait")
            return length, sched

        total, lead, sched = self._plan_from_here(plan)
        index = len(self.records) + 1  # appended after _start, which ends records[-1]
        self._start("schedule", lead + list(sched.actions), i=index, length=total)
        self.records.append(ScheduleRecord(
            index=index,
            start_time=self.time,
            start_pos=self.pos,
            request_ids=tuple(ids),
            loaded=tuple(sorted(self.loaded)),
            length=total,
            interrupted=False,
            schedule=sched,
        ))

    # -- event loop ---------------------------------------------------

    def _interpolate(self, step: Move, moved: float) -> Position:
        if moved >= step.distance - TIE_EPS:
            return step.end
        if moved <= TIE_EPS:
            return step.start
        frm = step.start
        if self.space.kind != MATRIX:
            return frm + (moved if step.end > frm else -moved)
        if isinstance(frm, EdgePos):
            if step.end == frm.u:
                return EdgePos(frm.u, frm.v, frm.offset - moved)
            return EdgePos(frm.u, frm.v, frm.offset + moved)
        return EdgePos(frm, step.end, moved)

    def _advance_to(self, t: float) -> None:
        if t > self.time and self.cmd is not None:  # the run loop ends finished commands first
            step = self.cmd.steps[self.cmd.idx]
            if isinstance(step, Move):
                self.cmd.moved += t - self.time
                self.pos = self._interpolate(step, self.cmd.moved)
        self.time = t

    def _finish_step(self) -> None:
        """Finish the current Load, Unload or Wait step; run() finishes a Move itself."""
        cmd = self.cmd
        step = cmd.steps[cmd.idx]
        if isinstance(step, Load):
            rid = step.request_id
            if rid not in self.pending or rid in self.loaded:
                raise EngineError(f"load of request {rid} out of order")
            if len(self.loaded) >= self.inst.effective_capacity:
                raise EngineError("capacity exceeded")
            if not self.space.same_point(self.pos, self.inst.request(rid).a):
                raise EngineError(f"load of request {rid} away from its pickup")
            self.loaded.add(rid)
            self.log("load", id=rid)
        elif isinstance(step, Unload):
            rid = step.request_id
            if rid not in self.loaded:
                raise EngineError(f"unload of request {rid} not on board")
            if not self.space.same_point(self.pos, self.inst.request(rid).b):
                raise EngineError(f"unload of request {rid} away from its dropoff")
            self.loaded.remove(rid)
            self.pending.remove(rid)
            self.last_unload = self.time
            self.log("unload", id=rid)
        cmd.idx += 1

    def run(self) -> Trace:
        # release batches of equal release time, the next one last
        batches = [list(g) for _, g in groupby(self.inst.requests, key=lambda r: r.release)][::-1]
        for _ in range(200 * (len(self.inst.requests) + 1) + 1000):
            # one turn: end a finished command, take the next release batch
            # if it comes no later than the current step ends, or finish the step
            cmd = self.cmd
            if cmd is None:
                end = math.inf
            elif cmd.idx < len(cmd.steps):
                step = cmd.steps[cmd.idx]
                if isinstance(step, Move):
                    end = self.time + (step.distance - cmd.moved)
                elif isinstance(step, Wait):
                    end = max(self.time, step.until)
                else:
                    end = self.time
            else:
                self.cmd = None
                self.log(f"{cmd.kind}-end")
                self.policy.on_idle(self)
                continue
            if batches and batches[-1][0].release <= end:
                batch = batches.pop()
                self._advance_to(batch[0].release)
                for r in batch:
                    self.pending.add(r.id)
                    self.log("arrival", id=r.id)
                self.policy.on_request(self)
                if self.cmd is None:
                    self.policy.on_idle(self)
            elif cmd is None:
                break
            else:
                self.time = end
                if isinstance(step, Move):
                    self.pos = step.end
                    cmd.moved = 0.0
                    cmd.idx += 1
                else:
                    self._finish_step()
        else:
            raise EngineError("simulation failed to make progress")
        if self.pending:
            raise EngineError("run ended with unserved requests")
        return Trace(
            algo=self.policy.name,
            alpha=getattr(self.policy, "alpha", None),
            schedules=self.records,
            events=self.events,
            completion=self.last_unload,
        )


# ---------------------------------------------------------------------------
# policies


class LazyPolicy:
    """Wait-then-serve online algorithm with waiting parameter alpha.

    On every release the server checks whether it can finish dropping
    off what it carries and be back at the origin by alpha times the
    current clairvoyant optimum; if so it abandons its plan and does
    exactly that.  When idle it waits until the clock catches up with
    alpha times the optimum, then serves everything pending via a
    shortest schedule.
    """

    name = "lazy"

    def __init__(self, alpha: float):
        if not 0 <= real(alpha, "alpha") < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        self.alpha = alpha

    def _target(self, sim: Simulation) -> float:
        """alpha times the current optimum: the time the waiting rule tests."""
        target = self.alpha * sim.opt_now()
        if not math.isfinite(target):
            raise ValueError(f"alpha * OPT(t) = {self.alpha} * {sim.opt_now()} overflows the float range")
        return target

    def on_request(self, sim: Simulation) -> None:
        dur, steps = sim.fastest_return_plan()
        if sim.time + dur <= self._target(sim) + TOLERANCE:
            sim.start_return(steps)

    def on_idle(self, sim: Simulation) -> None:
        target = self._target(sim)
        if sim.time < target - TOLERANCE:
            sim.start_wait(target)
        else:
            sim.serve_pending()


class ReplanPolicy:
    """Re-plan a minimal-completion schedule at every release epoch."""

    name = "replan"

    def on_request(self, sim: Simulation) -> None:
        sim.start_replan_schedule()

    def on_idle(self, sim: Simulation) -> None:
        sim.serve_pending()


class IgnorePolicy:
    """Serve the pending set when idle; never react while busy."""

    name = "ignore"

    def on_request(self, sim: Simulation) -> None:
        pass

    def on_idle(self, sim: Simulation) -> None:
        sim.serve_pending()


def simulate(inst: Instance, policy, opt_cache: OptCache | None = None) -> Trace:
    """Run a policy on an instance; deterministic for fixed inputs."""
    return Simulation(inst, policy, opt_cache).run()


# ---------------------------------------------------------------------------
# trace checkers


def _lazy_inputs(trace: Trace, inst: Instance, cache: OptCache | None):
    """The trace's alpha and an OPT cache; a trace without an alpha is refused."""
    if trace.alpha is None:
        raise ValueError("lazy trace checks need a trace with its alpha")
    return trace.alpha, cache if cache is not None else OptCache(inst)


def check_alpha_good(trace: Trace, inst: Instance, cache: OptCache | None = None) -> list[dict]:
    """Check each schedule of a lazy trace against the two-part bound.

    Schedule i starting at time t with optimum value opt = OPT(t) must
    be no longer than opt ("length-within-opt") and finish by
    (1 + alpha) * opt ("finish-by-deadline"), both up to CHECK_TOL.
    Returns the list of violations, as check_lazy_starts does.
    """
    alpha, cache = _lazy_inputs(trace, inst, cache)
    bad = []
    for rec in trace.schedules:
        opt = cache.value(cache.prefix_for(rec.start_time))
        finish, deadline = rec.start_time + rec.length, (1 + alpha) * opt
        if rec.length > opt + CHECK_TOL:
            bad.append({"i": rec.index, "rule": "length-within-opt", "lhs": rec.length, "rhs": opt})
        if finish > deadline + CHECK_TOL:
            bad.append({"i": rec.index, "rule": "finish-by-deadline", "lhs": finish, "rhs": deadline})
    return bad


def check_lazy_starts(trace: Trace, inst: Instance, cache: OptCache | None = None) -> list[dict]:
    """Consecutive-schedule inequalities of a lazy trace.

    For schedules i-1, i: OPT(t_i) >= t_{i-1} and
    t_{i-1} >= alpha * OPT(t_{i-1}), both up to CHECK_TOL.  Returns the
    list of violations (empty when the trace is consistent).
    """
    alpha, cache = _lazy_inputs(trace, inst, cache)
    bad = []
    recs = trace.schedules
    for rec in recs:
        opt_rec = cache.value(cache.prefix_for(rec.start_time))
        if rec.start_time < alpha * opt_rec - CHECK_TOL:
            bad.append({"i": rec.index, "rule": "start-after-alpha-opt",
                        "lhs": rec.start_time, "rhs": alpha * opt_rec})
    for prev, cur in zip(recs, recs[1:]):
        opt_cur = cache.value(cache.prefix_for(cur.start_time))
        if opt_cur < prev.start_time - CHECK_TOL:
            bad.append({"i": cur.index, "rule": "opt-dominates-previous-start",
                        "lhs": opt_cur, "rhs": prev.start_time})
    return bad
