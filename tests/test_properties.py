"""Property tests: exact optima against brute force, and online runs against them."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from openride.experiments import OPTIMAL_ALPHA_GENERAL, _check_trace, make_policy
from openride.engine import simulate
from openride.metric import half_line, line, matrix_space
from openride.model import make_instance
from openride.offline import OptCache, opt_upto_naive

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
        assert _check_trace(inst, trace, algo, alpha, cache) == 0
