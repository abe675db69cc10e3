"""Instance model, schedule validation, and JSON round trips."""

import dataclasses
import inspect
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from openride.metric import half_line, line, matrix_space
from openride.model import (
    Instance,
    Load,
    Move,
    ParseError,
    Request,
    Schedule,
    ScheduleViolation,
    SemanticError,
    TraceEvent,
    Unload,
    Wait,
    canonical_json,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    parse_instance,
    schedule_length,
    schedule_to_obj,
    validate_schedule,
)


def test_requests_sorted_by_release_then_id():
    inst = make_instance(line(), 1, [(1.0, 2.0, 5.0), (0.0, 1.0, 0.0), (3.0, 3.0, 5.0)])
    assert [r.id for r in inst.requests] == [1, 0, 2]
    assert inst.request(2).a == 3.0
    with pytest.raises(KeyError):
        inst.request(7)


def test_effective_capacity():
    inst = make_instance(line(), None, [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
    assert inst.capacity is None
    assert inst.effective_capacity == 2
    assert make_instance(line(), 3, [(0.0, 1.0, 0.0)]).effective_capacity == 3


def test_duplicate_id_rejected():
    reqs = (Request(0, 0.0, 1.0, 0.0), Request(0, 1.0, 0.0, 0.0))
    with pytest.raises(SemanticError, match="duplicate"):
        Instance(line(), 1, reqs)


def test_bad_point_rejected():
    with pytest.raises(SemanticError) as ei:
        make_instance(half_line(), 1, [(-1.0, 2.0, 0.0)])
    assert ei.value.where == "requests[0].a"


def test_negative_release_rejected():
    with pytest.raises(SemanticError, match="release"):
        make_instance(line(), 1, [(0.0, 1.0, -0.5)])


def test_non_finite_release_and_point_rejected():
    # a library release that is not a real number fails naming it, as in a document
    for t in (float("nan"), float("inf"), 10 ** 400, "x", None, True):
        with pytest.raises(SemanticError) as ei:
            make_instance(line(), 1, [(0.0, 1.0, t)])
        assert ei.value.where == "requests[0].t"
    # a directly built instance checks its releases by the same rule
    for t in (10 ** 400, "x", None, True):
        with pytest.raises(SemanticError) as ei:
            Instance(line(), 1, (Request(0, 0.0, 1.0, t),))
        assert ei.value.where == "requests[0].t"
    for t in (np.float32(1.5), np.int64(2)):  # NumPy scalars are real numbers
        assert Instance(line(), 1, (Request(0, 0.0, 1.0, t),)).requests[0].release == t
    with pytest.raises(SemanticError) as ei:
        make_instance(line(), 1, [(0.0, float("-inf"), 0.0)])
    assert ei.value.where == "requests[0].b"
    base = {"metric": {"type": "line"}, "capacity": 1}
    for field_, value in (("t", True), ("t", "1"), ("a", None)):
        req = {"a": 0.0, "b": 1.0, "t": 0.0, field_: value}
        with pytest.raises(SemanticError) as ei:
            instance_from_dict({**base, "requests": [req]})
        assert ei.value.where == f"requests[0].{field_}"


@pytest.mark.parametrize("space, triples, where", [
    (line(), [(1.7e308, 0.0, 0.0)], "requests[0].a"),
    (line(), [(0.0, 1.0, 0.0), (1e308, -1e308, 0.0)], "requests[1].a"),
    (line(), [(0.0, -1.7e308, 0.0)], "requests[0].b"),
    (half_line(), [(1.0, 2.0, 0.0), (2.0, 1e308, 0.0)], "requests[1].b"),
    (matrix_space([[0, 1e308], [1e308, 0]]), [(1, 0, 0.0)], "metric.d"),
    (line(), [(1e307, 0.0, 1.7e308), (1.0, 2.0, 3.0)], "requests[0].t"),
], ids=["line", "line-both-ends", "line-negative", "half-line", "matrix", "release"])
def test_overflowing_completion_bound_rejected(space, triples, where):
    # the last release plus 2n + 1 trips across the diameter must stay
    # finite, or travel and event times become inf
    with pytest.raises(SemanticError) as ei:
        make_instance(space, 1, triples)
    assert ei.value.where == where


def test_completion_bound_ignores_unused_matrix_nodes():
    # the diameter is over the origin and the request points only
    inst = make_instance(matrix_space([[0, 1, 1e308], [1, 0, 1e308], [1e308, 1e308, 0]]),
                         1, [(1, 0, 1e300)])
    assert inst.requests[0].release == 1e300
    make_instance(line(), None, [(1e307, -1e307, 0.0)] * 3)  # 7 trips of 2e307


@pytest.mark.parametrize("entries, entry, reason", [
    ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], "d[0][2] = 5.0 > d[0][1] + d[1][2] = 2.0", "triangle"),
    ([], "the matrix has no nodes", "shape"),
], ids=["non-metric", "empty"])
def test_library_matrix_instances_are_checked(entries, entry, reason):
    # a library-built space runs the same metric check as the JSON path
    requests = [(0, 2, 0.0)] if entries else []
    with pytest.raises(SemanticError, match=f"invalid distance matrix: {reason}") as ei:
        make_instance(matrix_space(entries), 1, requests)
    assert ei.value.where == "metric.d"
    assert entry in str(ei.value)


@pytest.mark.parametrize("space", [line(), half_line(), matrix_space([[0, 1], [1, 0]])],
                         ids=["line", "half-line", "matrix"])
def test_integer_point_beyond_float_range_is_rejected_briefly(space):
    for huge in (-10 ** 400, 10 ** 400):
        assert not space.is_point(huge)
        with pytest.raises(SemanticError) as ei:
            make_instance(space, 1, [(0, huge, 0.0)])
        assert ei.value.where == "requests[0].b"
        assert "is not a point" in str(ei.value) and len(str(ei.value)) < 200


def test_long_junk_values_are_cut_in_messages():
    junk = "x" * 1000
    doc = {"metric": {"type": "line"}, "capacity": 1, "requests": [{"a": 0, "b": 1, "t": junk}]}
    for bad, where in ((doc, "requests[0].t"), ({**doc, "metric": {"type": junk}}, "metric.type")):
        with pytest.raises(SemanticError) as ei:
            instance_from_dict(bad)
        assert ei.value.where == where and len(str(ei.value)) < 200


def test_bad_capacity_rejected():
    for cap in (0, -2, 1.5, True):
        with pytest.raises(SemanticError):
            make_instance(line(), cap, [(0.0, 1.0, 0.0)])


def test_point_to_point():
    # a zero-length request is a valid request
    make_instance(line(), 1, [(2.0, 2.0, 0.0), (0.0, 1.0, 0.0)])


# ---------------------------------------------------------------------------
# schedule validation


def _two_req_instance():
    return make_instance(line(), 1, [(1.0, 3.0, 0.0), (2.0, -1.0, 0.0)])


def test_validate_schedule_ok_finish_time():
    inst = _two_req_instance()
    sched = Schedule(
        0.0,
        (
            Move(0.0, 1.0, 1.0),
            Load(0),
            Move(1.0, 3.0, 2.0),
            Unload(0),
            Move(3.0, 2.0, 1.0),
            Load(1),
            Move(2.0, -1.0, 3.0),
            Unload(1),
        ),
    )
    assert validate_schedule(inst, sched) == 7.0
    assert schedule_length(sched) == 7.0


def test_validate_schedule_start_time_offset():
    inst = make_instance(line(), 1, [(1.0, 1.0, 0.0)])
    sched = Schedule(0.0, (Move(0.0, 1.0, 1.0), Load(0), Unload(0)))
    assert validate_schedule(inst, sched, start_time=4.0) == 5.0


def test_validate_schedule_wait_for_release():
    inst = make_instance(line(), 1, [(1.0, 1.0, 6.0)])
    sched = Schedule(0.0, (Move(0.0, 1.0, 1.0), Wait(6.0), Load(0), Unload(0)))
    assert validate_schedule(inst, sched) == 6.0
    # a wait in the past is a no-op
    late = Schedule(0.0, (Wait(0.5), Move(0.0, 1.0, 1.0), Wait(6.0), Load(0), Unload(0)))
    assert validate_schedule(inst, late) == 6.0


def test_validate_schedule_move_chain():
    inst = _two_req_instance()
    sched = Schedule(0.0, (Move(0.5, 1.0, 0.5),))
    v = validate_schedule(inst, sched)
    assert isinstance(v, ScheduleViolation)
    assert v.rule == "move-chain" and v.action_index == 0


def test_validate_schedule_load_position():
    inst = _two_req_instance()
    sched = Schedule(0.0, (Load(0),))
    v = validate_schedule(inst, sched)
    assert v.rule == "load-position"


def test_validate_schedule_load_before_release():
    inst = make_instance(line(), 1, [(1.0, 1.0, 5.0)])
    sched = Schedule(0.0, (Move(0.0, 1.0, 1.0), Load(0), Unload(0)))
    v = validate_schedule(inst, sched)
    assert v.rule == "load-before-release" and v.action_index == 1


def test_validate_schedule_capacity():
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0), (0.0, 2.0, 0.0)])
    sched = Schedule(0.0, (Load(0), Load(1)))
    v = validate_schedule(inst, sched)
    assert v.rule == "capacity" and v.action_index == 1


def test_validate_schedule_unload_not_loaded():
    inst = _two_req_instance()
    sched = Schedule(0.0, (Move(0.0, 3.0, 3.0), Unload(0)))
    v = validate_schedule(inst, sched)
    assert v.rule == "unload-not-loaded"


def test_validate_schedule_unload_position():
    inst = make_instance(line(), 1, [(1.0, 3.0, 0.0)])
    sched = Schedule(0.0, (Move(0.0, 1.0, 1.0), Load(0), Unload(0)))
    v = validate_schedule(inst, sched)
    assert v.rule == "unload-position"


def test_validate_schedule_double_load():
    inst = make_instance(line(), 2, [(1.0, 1.0, 0.0), (2.0, 0.0, 0.0)])
    sched = Schedule(0.0, (Move(0.0, 1.0, 1.0), Load(0), Unload(0), Load(0)))
    v = validate_schedule(inst, sched)
    assert v.rule == "double-load" and v.action_index == 3


def test_validate_schedule_unknown_request():
    inst = _two_req_instance()
    v = validate_schedule(inst, Schedule(0.0, (Load(9),)))
    assert v.rule == "unknown-request"


def test_validate_schedule_incomplete():
    inst = _two_req_instance()
    sched = Schedule(
        0.0, (Move(0.0, 1.0, 1.0), Load(0), Move(1.0, 3.0, 2.0), Unload(0))
    )
    v = validate_schedule(inst, sched)
    assert v.rule == "incomplete" and "1" in v.detail


def test_validate_schedule_scope_cutoff():
    inst = make_instance(line(), 1, [(1.0, 1.0, 0.0), (2.0, 2.0, 9.0)])
    early = Schedule(0.0, (Move(0.0, 1.0, 1.0), Load(0), Unload(0)))
    # scoped to the first request, the early schedule is complete
    assert validate_schedule(inst, early, scope={0}) == 1.0
    sched = Schedule(
        0.0,
        (Move(0.0, 1.0, 1.0), Load(0), Unload(0), Move(1.0, 2.0, 1.0), Wait(9.0), Load(1), Unload(1)),
    )
    v = validate_schedule(inst, sched, scope={0})
    assert v.rule == "out-of-scope"
    assert validate_schedule(inst, sched) == 9.0


def test_validate_schedule_starts_with_cargo_on_board():
    inst = make_instance(line(), 1, [(1.0, 3.0, 0.0), (3.0, 4.0, 0.0)])
    # request 0, loaded before the schedule, is unloaded without a load
    carry = Schedule(2.0, (Move(2.0, 3.0, 1.0), Unload(0)))
    assert validate_schedule(inst, carry, start_time=4.0, scope={0}, loaded=(0,)) == 5.0
    assert validate_schedule(inst, carry, start_time=4.0, scope={0}).rule == "unload-not-loaded"
    # it may not be loaded again
    reload = Schedule(1.0, (Load(0), Move(1.0, 3.0, 2.0), Unload(0)))
    v = validate_schedule(inst, reload, scope={0}, loaded=(0,))
    assert v.rule == "double-load" and v.action_index == 0
    # it must be in scope
    v = validate_schedule(inst, carry, scope={1}, loaded=(0,))
    assert v.rule == "out-of-scope" and v.action_index == 0 and "[0]" in v.detail
    # and it counts against capacity from the first action
    more = Schedule(3.0, (Load(1), Unload(0), Move(3.0, 4.0, 1.0), Unload(1)))
    v = validate_schedule(inst, more, loaded=(0,))
    assert v.rule == "capacity" and v.action_index == 0
    assert validate_schedule(replace(inst, capacity=2), more, loaded=(0,)) == 1.0


def test_validate_schedule_matrix_point_to_point():
    sp = matrix_space([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
    inst = make_instance(sp, 1, [(1, 2, 0.0)])
    sched = Schedule(0, (Move(0, 1, 3.0), Load(0), Move(1, 2, 2.0), Unload(0)))
    assert validate_schedule(inst, sched) == 5.0


# ---------------------------------------------------------------------------
# JSON


def test_parse_instance_roundtrip():
    inst = make_instance(half_line(), 2, [(1.0, 2.0, 0.0), (1.5, 0.5, 3.0)])
    again = instance_from_dict(instance_to_dict(inst))
    assert again == inst


def test_matrix_roundtrip_and_capacity_inf():
    sp = matrix_space([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
    inst = make_instance(sp, None, [(1, 2, 0.0)])
    obj = instance_to_dict(inst)
    assert obj["capacity"] == "inf"
    assert obj["metric"]["d"][0] == [0.0, 3.0, 1.0]
    assert instance_from_dict(obj) == inst


def test_parse_instance_invalid_json_reports_location():
    with pytest.raises(ParseError) as ei:
        parse_instance("{\"metric\": }")
    assert ei.value.line == 1 and ei.value.col is not None


def test_parse_instance_missing_fields():
    with pytest.raises(SemanticError, match="missing field"):
        parse_instance('{"metric": {"type": "line"}, "capacity": 1}')


def test_parse_instance_bad_metric_type():
    with pytest.raises(SemanticError) as ei:
        instance_from_dict({"metric": {"type": "torus"}, "capacity": 1, "requests": []})
    assert ei.value.where == "metric.type"


def test_parse_instance_invalid_matrix():
    obj = {
        "metric": {"type": "matrix", "d": [[0, 10, 2], [10, 0, 2], [2, 2, 0]]},
        "capacity": 1,
        "requests": [],
    }
    with pytest.raises(SemanticError, match="triangle"):
        instance_from_dict(obj)
    with pytest.raises(SemanticError) as ei:  # the metric is read before the capacity
        instance_from_dict({**obj, "capacity": 0})
    assert ei.value.where == "metric.d"
    for d, where in ((5, "metric.d"), ([0, 1], "metric.d"),
                     ([[0, "x"], [1, 0]], r"metric.d\[0\]\[1\]"),
                     ([[0, True], [1, 0]], r"metric.d\[0\]\[1\]")):
        obj["metric"]["d"] = d
        with pytest.raises(SemanticError, match=where):
            instance_from_dict(obj)


def test_parse_instance_capacity_forms():
    base = {"metric": {"type": "line"}, "requests": [{"a": 0, "b": 1, "t": 0}]}
    assert instance_from_dict({**base, "capacity": "inf"}).capacity is None
    assert instance_from_dict({**base, "capacity": 2}).capacity == 2
    for bad in (0, -1, 1.5, True, "two"):
        with pytest.raises(SemanticError):
            instance_from_dict({**base, "capacity": bad})


def test_parse_instance_matrix_points_must_be_ints():
    obj = {
        "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]},
        "capacity": 1,
        "requests": [{"a": 0.0, "b": 1, "t": 0}],
    }
    with pytest.raises(SemanticError, match="0.0 is not a point of the matrix space") as ei:
        instance_from_dict(obj)
    assert ei.value.where == "requests[0].a"


def test_parse_instance_request_missing_field():
    obj = {"metric": {"type": "line"}, "capacity": 1, "requests": [{"a": 0, "b": 1}]}
    with pytest.raises(SemanticError) as ei:
        instance_from_dict(obj)
    assert ei.value.where == "requests[0]"


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1.5, {"z": None, "y": 2}]})
    assert s == '{"a":[1.5,{"y":2,"z":null}],"b":1}'
    assert json.loads(s) == {"b": 1, "a": [1.5, {"z": None, "y": 2}]}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):  # NaN and Infinity are not JSON
            canonical_json({"ratio": bad})


def test_schedule_to_obj():
    sched = Schedule(0.0, (Move(0.0, 1.0, 1.0), Load(0), Unload(0), Wait(3.0)))
    obj = schedule_to_obj(sched)
    assert obj == {
        "start": 0.0,
        "actions": [["move", 0.0, 1.0], ["load", 0], ["unload", 0], ["wait", 3.0]],
    }


# one value per field of each record with a hand-written __init__, and a
# second value for its first field
RECORDS = {
    Move: ((0.0, 2.5, 2.5), 1.0),
    Load: ((3,), 4),
    Unload: ((3,), 4),
    Wait: ((7.5,), 8.0),
    Schedule: ((0.0, (Move(0.0, 1.0, 1.0), Load(0))), 1.0),
    TraceEvent: ((1.5, "load", {"id": 2}), 2.0),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_hand_written_records_match_generated_dataclasses(cls):
    fields = dataclasses.fields(cls)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in params] == [f.name for f in fields]
    for p, f in zip(params, fields):
        if f.default is not dataclasses.MISSING:
            assert p.default == f.default, f.name
        else:  # a factory default is some marker; a required field has none
            assert (p.default is p.empty) == (f.default_factory is dataclasses.MISSING), f.name
    # the dataclass generated from the same fields, as a reference
    twin = dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory))
        for f in fields], frozen=True)
    args, other = RECORDS[cls]
    obj, ref = cls(*args), twin(*args)
    assert obj == cls(**{f.name: a for f, a in zip(fields, args)})
    assert repr(obj) == repr(ref)
    try:
        want = hash(ref)
    except TypeError:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == want
    first = fields[0].name
    moved = replace(obj, **{first: other})
    assert repr(moved) == repr(replace(ref, **{first: other}))
    assert (moved == obj) == (replace(ref, **{first: other}) == ref)
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and back == obj and repr(back) == repr(obj)
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, other)
    # defaulted fields left out are filled as the generated __init__ fills
    # them, a factory's value new for each record; an explicit None is kept
    required = args[:sum(p.default is p.empty for p in params)]
    if len(required) < len(args):
        short = cls(*required)
        assert repr(short) == repr(twin(*required))
        for f in fields[len(required):]:
            if f.default_factory is not dataclasses.MISSING:
                assert getattr(short, f.name) is not getattr(cls(*required), f.name)
            assert getattr(cls(*required, **{f.name: None}), f.name) is None
