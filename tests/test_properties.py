"""Property tests: exact optima against brute force, online runs against them,
and instance documents that must be rejected naming a field."""

import math
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from openride.experiments import OPTIMAL_ALPHA_GENERAL, _check_trace, make_policy
from openride.engine import simulate
from openride.metric import half_line, line, matrix_space
from openride.model import Instance, InstanceError, instance_from_dict, make_instance
from openride.offline import OptCache

from oracles import opt_upto_naive

# few distinct values, so pickups, dropoffs, the origin and releases coincide
LINE_POINTS = (-2.5, -1.0, 0.0, 0.5, 2.0)
HALF_LINE_POINTS = (0.0, 0.5, 1.5, 3.0)
RELEASES = (0.0, 0.5, 1.0, 2.5, 4.0)
POLICIES = (("lazy", OPTIMAL_ALPHA_GENERAL), ("replan", None), ("ignore", None))


@st.composite
def matrices(draw):
    """A 2-4 node metric: random edge weights closed under shortest paths."""
    n = draw(st.integers(2, 4))
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.25)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return matrix_space(d)


@st.composite
def instances(draw):
    """Up to 6 requests; 5 with unbounded capacity, where brute force over
    6 requests enumerates 12!/2**6 orders and takes some 15 s."""
    kind = draw(st.sampled_from(("line", "halfline", "matrix")))
    if kind == "matrix":
        space = draw(matrices())
        points = st.integers(0, space.size - 1)
    else:
        space = line() if kind == "line" else half_line()
        points = st.sampled_from(LINE_POINTS if kind == "line" else HALF_LINE_POINTS)
    capacity = draw(st.sampled_from((1, 2, None)))
    n = draw(st.integers(1, 5 if capacity is None else 6))
    triples = [(draw(points), draw(points), draw(st.sampled_from(RELEASES))) for _ in range(n)]
    return make_instance(space, capacity, triples)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_optimum_equals_brute_force_and_bounds_every_policy(inst):
    cache = OptCache(inst)
    for t in sorted({0.0} | {r.release for r in inst.requests}):
        assert abs(cache.value(cache.prefix_for(t)) - opt_upto_naive(inst, t)) <= 1e-9
    opt = cache.value(len(inst.requests))
    for algo, alpha in POLICIES:
        trace = simulate(inst, make_policy(algo, alpha), cache)
        assert trace.completion >= opt - 1e-9
        assert _check_trace(inst, trace, cache) == 0


# ---------------------------------------------------------------------------
# bad instance documents

# every place instance_from_dict may blame: the document root only when it
# is not an object, otherwise a field
FIELD = re.compile(r"metric(\.type|\.d(\[\d+\]\[\d+\])?)?|capacity|requests(\[\d+\](\.[abt])?)?")
JUNK = (math.nan, math.inf, -math.inf, True, False, None, "1", [], {}, 10 ** 400, -10 ** 400)
FAULTS = ("root", "missing", "metric", "type", "d-shape", "d-axiom", "d-entry", "capacity",
          "requests", "request", "request-key", "point", "negative", "release", "overflow")


@st.composite
def documents(draw):
    """A valid instance document with one or two faults, each put in one place."""
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2))
    kind = draw(st.sampled_from(("line", "halfline", "matrix")))
    metric = {"type": kind}
    if kind == "matrix":
        d = [list(row) for row in draw(matrices()).matrix]
        metric["d"] = d
        point = st.integers(0, len(d) - 1)
    else:
        point = st.sampled_from(LINE_POINTS if kind == "line" else HALF_LINE_POINTS)
    reqs = [{"a": draw(point), "b": draw(point), "t": draw(st.sampled_from(RELEASES))}
            for _ in range(draw(st.integers(1, 4)))]
    doc = {"metric": metric, "capacity": draw(st.sampled_from((1, 2, "inf"))), "requests": reqs}
    i = draw(st.integers(0, len(reqs) - 1))
    end = draw(st.sampled_from("ab"))
    for fault in faults:
        if fault == "root":
            return draw(st.sampled_from(([], 1, "instance", None, True)))
        if fault == "missing":
            doc.pop(draw(st.sampled_from(sorted(doc))))
        elif fault == "metric":
            doc["metric"] = draw(st.sampled_from(JUNK + ({"d": []},)))
        elif fault == "type":
            metric["type"] = draw(st.sampled_from(("plane", "Line", 7, None, [])))
        elif fault == "capacity":
            doc["capacity"] = draw(st.sampled_from((0, -1, 1.5, "1", "none") + JUNK))
        elif fault == "requests":
            doc["requests"] = draw(st.sampled_from(({}, "requests", 2, None)))
        elif fault == "request":
            reqs[i] = draw(st.sampled_from(([1, 2, 0], "r", 3, None)))
        elif isinstance(reqs[i], dict) and fault == "request-key":
            reqs[i].pop(draw(st.sampled_from(sorted(reqs[i]))))
        elif isinstance(reqs[i], dict) and fault == "point":
            reqs[i][end] = draw(st.sampled_from(JUNK + ((99, 1.0) if kind == "matrix" else ())))
        elif isinstance(reqs[i], dict) and fault == "negative":
            reqs[i][end] = -1 if kind == "matrix" else draw(st.sampled_from((-1.0, -1e-3)))
        elif isinstance(reqs[i], dict) and fault == "release":
            reqs[i]["t"] = draw(st.sampled_from((-1.0, 1e308) + JUNK))
        elif fault == "overflow":
            if kind == "matrix":
                d[0][-1] = d[-1][0] = 1e308
            elif isinstance(reqs[i], dict):
                reqs[i][end] = draw(st.sampled_from((1.7e308, 1e308)))
        elif kind == "matrix" and fault == "d-shape":
            metric["d"] = draw(st.sampled_from(([], {}, 3, [1, 2], [[0.0], 1], d[:-1], d + [d[0]])))
        elif kind == "matrix" and fault == "d-entry":
            d[draw(st.integers(0, len(d) - 1))][0] = draw(st.sampled_from(JUNK))
        elif kind == "matrix" and fault == "d-axiom":
            axiom = draw(st.sampled_from(("asymmetric", "negative", "diagonal", "triangle")))
            if axiom == "asymmetric":
                d[0][1] += 1.0
            elif axiom == "negative":
                d[0][1] = d[1][0] = -1.0
            elif axiom == "diagonal":
                d[1][1] = 0.5
            else:
                d[0][1] = d[1][0] = sum(map(sum, d)) + 1.0
    return doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(documents())
def test_bad_instance_documents_fail_naming_a_field(doc):
    # an Instance, or an InstanceError naming where; any other exception fails
    try:
        inst = instance_from_dict(doc)
    except InstanceError as e:
        if isinstance(doc, dict):
            assert FIELD.fullmatch(e.where), (e.where, doc)
        else:
            assert e.where == "$"
    else:
        assert isinstance(inst, Instance)
