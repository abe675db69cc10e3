"""Core problem model: requests, instances, schedules, and traces.

An instance is a metric space, a capacity (a positive integer or None
for unbounded), and a list of transportation requests.  A schedule is a
start position plus a sequence of Move/Load/Unload/Wait actions; a trace
is the record of one simulated online run.

The JSON wire formats are:

  instance  {"metric": {"type": "line"} | {"type": "halfline"}
                       | {"type": "matrix", "d": [[...], ...]},
             "capacity": <positive int> | "inf",
             "requests": [{"a": .., "b": .., "t": ..}, ...]}

  trace     {"algo": "lazy" | "replan" | "ignore",
             "alpha": <float> | null,
             "schedules": [{"i", "t", "p", "length", "interrupted",
                            "requests"}, ...],
             "events": [{"t", "kind", ...}, ...],
             "completion": <float>}

A schedule's "p" is the point it starts from, or, when the server is
inside an edge (u, v) of a matrix space, {"edge": [u, v], "offset": s}
with s the distance travelled from u toward v.

Request ids are assigned by input order, and requests are written in
id order, so a document read back keeps its ids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .metric import (HALF_LINE, LINE, MATRIX, InstanceError, MetricSpace, Point, SemanticError,
                     matrix_space, short_repr)
from .numeric import TOLERANCE, is_int, real


class ParseError(InstanceError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Request:
    """One transportation request: pick up at a, drop off at b, released at t."""

    id: int
    a: Point
    b: Point
    release: float


@dataclass(frozen=True)
class Instance:
    space: MetricSpace
    capacity: int | None  # None means unbounded
    requests: tuple[Request, ...]

    def __post_init__(self) -> None:
        cap = self.capacity
        if cap is not None and not (is_int(cap) and cap >= 1):
            raise SemanticError("capacity must be a positive integer or None", "capacity")
        seen: set[int] = set()
        for r in self.requests:
            if r.id in seen:
                raise SemanticError(f"duplicate request id {r.id}", f"requests[{r.id}]")
            seen.add(r.id)
            for label, p in (("a", r.a), ("b", r.b)):
                if not self.space.is_point(p):
                    raise SemanticError(self.space.not_a_point(p), f"requests[{r.id}].{label}")
            t = _number(r.release, f"requests[{r.id}].t")
            if not math.isfinite(t) or t < 0:
                raise SemanticError("release time must be finite and nonnegative",
                                    f"requests[{r.id}].t")
        where = _completion_overflow(self)
        if where is not None:
            raise SemanticError("the completion bound (last release plus 2n + 1 times the "
                                "diameter) overflows the float range", where)
        # kept sorted by release time, ties by id, so release prefixes are contiguous
        object.__setattr__(
            self, "requests", tuple(sorted(self.requests, key=lambda r: (r.release, r.id)))
        )
        object.__setattr__(self, "_by_id", {r.id: r for r in self.requests})

    @property
    def effective_capacity(self) -> int:
        return len(self.requests) if self.capacity is None else self.capacity

    def request(self, rid: int) -> Request:
        return self._by_id[rid]


def _completion_overflow(inst: Instance) -> str | None:
    """The field to blame when an instance's completion bound overflows, else None.

    A server that waits for the last release and then serves the
    requests one at a time finishes within 2n + 1 trips across the
    diameter of the origin and the request points, which bounds the
    optimum; an online run's times stay within a small factor of it.
    When that bound is infinite, travel and event times become inf.
    The blame goes to the point farthest from the origin (metric.d for a
    matrix) if the trips alone overflow, and otherwise to the last
    release.
    """
    reqs = inst.requests
    if not reqs:
        return None
    trips = 2 * len(reqs) + 1
    a = [r.a for r in reqs]
    b = [r.b for r in reqs]
    if inst.space.kind == MATRIX:
        d = inst.space.matrix
        nodes = {inst.space.origin, *a, *b}
        diameter = max(d[p][q] for p in nodes for q in nodes)
    else:
        diameter = max(0.0, max(a), max(b)) - min(0.0, min(a), min(b))
    if not math.isfinite(trips * diameter):
        if inst.space.kind == MATRIX:
            return "metric.d"
        ends = a + b
        i = max(range(len(ends)), key=lambda i: abs(ends[i]))
        return f"requests[{reqs[i % len(reqs)].id}].{'ab'[i // len(reqs)]}"
    if not math.isfinite(max([r.release for r in reqs]) + trips * diameter):
        last = max(reqs, key=lambda r: r.release)
        return f"requests[{last.id}].t"
    return None


def make_instance(space: MetricSpace, capacity: int | None, triples) -> Instance:
    """Build an instance from (a, b, t) triples, ids by position; t must be a real number."""
    reqs = tuple(Request(i, a, b, _number(t, f"requests[{i}].t")) for i, (a, b, t) in enumerate(triples))
    return Instance(space, capacity, reqs)


# ---------------------------------------------------------------------------
# schedules


# The records a run builds by the hundred (actions, schedules, trace events)
# are frozen dataclasses whose __init__ is written by hand: it fills
# __dict__ directly, where the generated one calls object.__setattr__ once
# per field.  Each takes its fields in order, as the generated one would;
# test_model checks that against dataclasses.fields.


@dataclass(frozen=True)
class Move:
    start: Point
    end: Point
    distance: float

    def __init__(self, start: Point, end: Point, distance: float):
        d = self.__dict__
        d["start"] = start
        d["end"] = end
        d["distance"] = distance


@dataclass(frozen=True)
class Load:
    request_id: int

    def __init__(self, request_id: int):
        self.__dict__["request_id"] = request_id


@dataclass(frozen=True)
class Unload:
    request_id: int

    def __init__(self, request_id: int):
        self.__dict__["request_id"] = request_id


@dataclass(frozen=True)
class Wait:
    until: float  # absolute time

    def __init__(self, until: float):
        self.__dict__["until"] = until


Action = Move | Load | Unload | Wait


@dataclass(frozen=True)
class Schedule:
    start_pos: Point
    actions: tuple[Action, ...]

    def __init__(self, start_pos: Point, actions: tuple[Action, ...]):
        d = self.__dict__
        d["start_pos"] = start_pos
        d["actions"] = actions


def schedule_length(sched: Schedule) -> float:
    """Total travel distance of a schedule (waiting contributes nothing)."""
    return sum(a.distance for a in sched.actions if isinstance(a, Move))


@dataclass(frozen=True)
class ScheduleViolation:
    rule: str
    action_index: int
    detail: str


def validate_schedule(
    inst: Instance,
    sched: Schedule,
    start_time: float = 0.0,
    scope: set[int] | tuple[int, ...] | None = None,
    loaded: tuple[int, ...] = (),
):
    """Replay a schedule against an instance.

    Returns the finish time of the action sequence if every rule holds,
    otherwise a ScheduleViolation naming the first broken rule.  Rules:
    moves chain, loads happen at the request pickup point no earlier
    than its release, unloads at the dropoff after the load, the load
    count never exceeds capacity, and the schedule serves exactly the
    request ids in scope (default: all of the instance's requests).
    The ids in loaded are on board at the start: each must be in scope,
    counts against capacity from the first action, is unloaded without
    a load, and may not be loaded again.
    """
    space = inst.space
    by_id = inst._by_id
    scope = set(by_id if scope is None else scope)
    cap = inst.effective_capacity
    pos = sched.start_pos
    t = start_time
    loaded = set(loaded)
    served: set[int] = set()
    if not loaded <= scope:
        return ScheduleViolation("out-of-scope", 0, f"requests {sorted(loaded - scope)} on board are not in scope")
    for i, act in enumerate(sched.actions):
        if isinstance(act, Move):
            if not space.same_point(act.start, pos):
                return ScheduleViolation("move-chain", i, f"move starts at {act.start!r}, server at {pos!r}")
            t += space.distance(act.start, act.end)
            pos = act.end
        elif isinstance(act, Wait):
            if act.until > t:
                t = act.until
        elif isinstance(act, Load):
            r = by_id.get(act.request_id)
            if r is None:
                return ScheduleViolation("unknown-request", i, f"no request {act.request_id}")
            if r.id not in scope:
                return ScheduleViolation("out-of-scope", i, f"request {r.id} is not in scope")
            if r.id in loaded or r.id in served:
                return ScheduleViolation("double-load", i, f"request {r.id} loaded twice")
            if not space.same_point(pos, r.a):
                return ScheduleViolation("load-position", i, f"load of {r.id} at {pos!r}, pickup is {r.a!r}")
            if t < r.release - TOLERANCE:
                return ScheduleViolation("load-before-release", i, f"load of {r.id} at {t}, released {r.release}")
            if len(loaded) + 1 > cap:
                return ScheduleViolation("capacity", i, f"{len(loaded) + 1} loaded exceeds capacity {cap}")
            loaded.add(r.id)
        elif isinstance(act, Unload):
            r = by_id.get(act.request_id)
            if r is None:
                return ScheduleViolation("unknown-request", i, f"no request {act.request_id}")
            if r.id not in loaded:
                return ScheduleViolation("unload-not-loaded", i, f"request {r.id} is not on board")
            if not space.same_point(pos, r.b):
                return ScheduleViolation("unload-position", i, f"unload of {r.id} at {pos!r}, dropoff is {r.b!r}")
            loaded.remove(r.id)
            served.add(r.id)
        else:
            return ScheduleViolation("unknown-action", i, repr(act))
    if served != scope:
        missing = sorted(scope - served)
        return ScheduleViolation("incomplete", len(sched.actions), f"requests {missing} not served")
    return t


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class EdgePos:
    """Position strictly inside edge (u, v) of a matrix space."""

    u: int
    v: int
    offset: float  # distance travelled from u toward v


Position = Point | EdgePos


@dataclass
class ScheduleRecord:
    """One planned schedule of an online run."""

    index: int
    start_time: float
    start_pos: Position
    request_ids: tuple[int, ...]
    length: float
    interrupted: bool
    schedule: Schedule | None = None  # kept for replay checks, not serialized
    loaded: tuple[int, ...] = ()  # ids on board at the start; replay-only, like schedule


_FRESH = object()  # TraceEvent's data default: a new empty dict per event


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str
    data: dict = field(default_factory=dict)

    def __init__(self, time: float, kind: str, data: dict = _FRESH):
        d = self.__dict__
        d["time"] = time
        d["kind"] = kind
        d["data"] = {} if data is _FRESH else data


@dataclass
class Trace:
    algo: str
    alpha: float | None
    schedules: list[ScheduleRecord]
    events: list[TraceEvent]
    completion: float


# ---------------------------------------------------------------------------
# JSON


def _number(v, where: str) -> float:
    """real(v), as metric._entry reads a matrix entry; else fail at where."""
    try:
        return real(v)
    except ValueError as e:
        raise SemanticError(f"{short_repr(v)} {e}", where) from None


def instance_from_dict(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise SemanticError("instance must be a JSON object", "$")
    for key in ("metric", "capacity", "requests"):
        if key not in obj:
            raise SemanticError(f"missing field {key!r}", key)
    m = obj["metric"]
    if not isinstance(m, dict) or "type" not in m:
        raise SemanticError("metric must be an object with a 'type'", "metric")
    kind = m["type"]
    if kind == LINE:
        space = MetricSpace(LINE)
    elif kind == HALF_LINE:
        space = MetricSpace(HALF_LINE)
    elif kind == MATRIX:
        if "d" not in m:
            raise SemanticError("matrix metric needs entries under 'd'", "metric.d")
        d = m["d"]
        if not isinstance(d, list) or not all(isinstance(row, list) for row in d):
            raise SemanticError("matrix entries must be an array of arrays", "metric.d")
        space = matrix_space([[_number(v, f"metric.d[{i}][{j}]") for j, v in enumerate(row)]
                              for i, row in enumerate(d)])
    else:
        raise SemanticError(f"unknown metric type {short_repr(kind)}", "metric.type")
    cap = obj["capacity"]
    if cap == "inf":
        capacity = None
    elif is_int(cap) and cap >= 1:
        capacity = cap
    else:
        raise SemanticError("capacity must be a positive integer or \"inf\"", "capacity")
    reqs = obj["requests"]
    if not isinstance(reqs, list):
        raise SemanticError("requests must be an array", "requests")
    triples = []
    for i, r in enumerate(reqs):
        if not isinstance(r, dict) or not all(k in r for k in ("a", "b", "t")):
            raise SemanticError("request needs fields a, b, t", f"requests[{i}]")
        a, b = r["a"], r["b"]
        if kind != MATRIX:  # matrix points are checked as node indices by Instance
            a, b = _number(a, f"requests[{i}].a"), _number(b, f"requests[{i}].b")
        triples.append((a, b, r["t"]))
    return make_instance(space, capacity, triples)


def instance_to_dict(inst: Instance) -> dict:
    if inst.space.kind == MATRIX:
        m = {"type": MATRIX, "d": [list(row) for row in inst.space.matrix]}
    else:
        m = {"type": inst.space.kind}
    return {
        "metric": m,
        "capacity": "inf" if inst.capacity is None else inst.capacity,
        "requests": [{"a": r.a, "b": r.b, "t": r.release}
                     for r in sorted(inst.requests, key=lambda r: r.id)],
    }


def parse_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from e
    return instance_from_dict(obj)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def action_to_obj(act: Action) -> list:
    if isinstance(act, Move):
        return ["move", act.start, act.end]
    if isinstance(act, Load):
        return ["load", act.request_id]
    if isinstance(act, Unload):
        return ["unload", act.request_id]
    return ["wait", act.until]


def schedule_to_obj(sched: Schedule) -> dict:
    return {"start": sched.start_pos, "actions": [action_to_obj(a) for a in sched.actions]}


def trace_to_dict(trace: Trace) -> dict:
    return {
        "algo": trace.algo,
        "alpha": trace.alpha,
        "schedules": [
            {
                "i": rec.index,
                "t": rec.start_time,
                "p": ({"edge": [rec.start_pos.u, rec.start_pos.v], "offset": rec.start_pos.offset}
                      if isinstance(rec.start_pos, EdgePos) else rec.start_pos),
                "length": rec.length,
                "interrupted": rec.interrupted,
                "requests": list(rec.request_ids),
            }
            for rec in trace.schedules
        ],
        "events": [{"t": ev.time, "kind": ev.kind, **ev.data} for ev in trace.events],
        "completion": trace.completion,
    }
