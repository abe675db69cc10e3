"""The benchmark's workloads: inputs made from a seed, one op, its checks.

Each workload builds a pool of op inputs ahead of time (counted in
setup_s) and runs ops over the pool in order, starting again at its
head when a run outlasts it.  Every op is independent: each fuzz batch,
instance and factor-revealing solve starts from fresh library objects,
so going round the pool again repeats the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from openride import experiments, factor_revealing, offline
from openride.experiments import OPTIMAL_ALPHA_GENERAL, FuzzConfig
from openride.metric import HALF_LINE, LINE, MATRIX, half_line, line, matrix_space
from openride.model import make_instance

GENERAL_BOUND = 2.457427 + 1e-6  # the waiting policy's proven ratio at OPTIMAL_ALPHA_GENERAL
REFERENCE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]  # seed -> [(key, input)], made ahead of time
    run: Callable[[Any], Any]  # one op on one input, through the public API
    check: Callable[[Any, Any], str | None]  # output check that holds on every seed
    summary: Callable[[Any], list]  # numbers compared with the recorded reference
    round: int  # ops in one balanced round; timed runs stop on a round boundary
    traced_ops: int  # fixed op count of a traced pass, so its counts repeat exactly


# ---------------------------------------------------------------------------
# fuzz-small: the acceptance suite's criterion-3 stream, in small batches

FUZZ_BATCH = 20
FUZZ_POOL = 500


def _fuzz_build(seed: int) -> list:
    return [(j, FuzzConfig(count=FUZZ_BATCH, seed=seed * FUZZ_POOL + j,
                           spaces=(LINE, HALF_LINE, MATRIX), max_requests=5,
                           capacities=(1, 2, None), matrix_nodes=(4, 4),
                           alpha=OPTIMAL_ALPHA_GENERAL, check_schedules=True))
            for j in range(FUZZ_POOL)]


def _fuzz_run(cfg: FuzzConfig):
    return experiments.fuzz(cfg, "lazy")


def _fuzz_check(cfg: FuzzConfig, report) -> str | None:
    if report.count != cfg.count:
        return f"fuzz reported {report.count} instances, asked for {cfg.count}"
    if report.violations:
        return f"fuzz seed {cfg.seed}: {report.violations} trace violations"
    if not report.worst <= GENERAL_BOUND:
        return f"fuzz seed {cfg.seed}: worst ratio {report.worst!r} above {GENERAL_BOUND}"
    return None


def _fuzz_summary(report) -> list:
    return [report.worst, report.worst_index, report.mean, report.violations]


# ---------------------------------------------------------------------------
# exact-large: 8-request instances near the search cap, lazy then replan

EXACT_REQUESTS = 8
EXACT_POOL = 400
# (space, capacity) in turn; see exact_instance for the missing (MATRIX, None)
EXACT_STRATA = ((LINE, 1), (LINE, 2), (LINE, None), (HALF_LINE, 1), (HALF_LINE, 2),
                (HALF_LINE, None), (MATRIX, 1), (MATRIX, 2))


def _random_matrix(rng: random.Random):
    n = rng.randint(6, 8)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = float(rng.randint(1, 9)) if rng.random() < 0.5 else rng.uniform(1.0, 9.0)
    for k in range(n):  # shortest-path closure makes the matrix a metric
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return matrix_space(d)


def exact_instance(seed: int, i: int):
    """Instance i of the exact-large pool; space and capacity cycle with i.

    Exact optima of these instances spend their time exploring orders of
    events, and equal-cost orders multiply that work.  Such ties come from
    coincident points, so, unlike the fuzz stream, a pickup never shares
    its dropoff and line coordinates are not snapped to integers.  On a
    6-8-node matrix endpoints must share nodes, and with unbounded
    capacity about one instance in three hundred took 10-20 s for OPT
    alone (against 0.3 s typically), so one op could fill half a run.
    That combination is left out; fuzz-small keeps ties, at 1-5 requests.
    """
    rng = random.Random(seed * 1_000_003 + i)
    kind, capacity = EXACT_STRATA[i % len(EXACT_STRATA)]
    if kind == MATRIX:
        space = _random_matrix(rng)

        def point():
            return rng.randrange(space.size)
    else:
        space = line() if kind == LINE else half_line()
        lo = -10.0 if kind == LINE else 0.0

        def point():
            return rng.uniform(lo, 10.0)
    triples = []
    for _ in range(EXACT_REQUESTS):
        a = point()
        b = point()
        while b == a:
            b = point()
        u = rng.random()
        t = 0.0 if u < 0.2 else float(rng.randint(0, 4)) if u < 0.4 else rng.uniform(0.0, 10.0)
        triples.append((a, b, t))
    return make_instance(space, capacity, triples)


def _exact_build(seed: int) -> list:
    return [(i, exact_instance(seed, i)) for i in range(EXACT_POOL)]


def _exact_run(inst):
    cache = offline.OptCache(inst)
    lazy = experiments.competitive_ratio(inst, "lazy", OPTIMAL_ALPHA_GENERAL, cache)
    replan = experiments.competitive_ratio(inst, "replan", None, cache)
    return cache.value(len(inst.requests)), lazy, replan


def _exact_check(inst, out) -> str | None:
    opt, lazy, replan = out
    if not (lazy >= 1.0 - 1e-9 and replan >= 1.0 - 1e-9):
        return f"ratio below 1: lazy {lazy!r}, replan {replan!r} (OPT {opt!r})"
    if not lazy <= GENERAL_BOUND:
        return f"lazy ratio {lazy!r} above {GENERAL_BOUND}"
    return None


# ---------------------------------------------------------------------------
# factor-grid: solve_fr over alpha = 1.00, 1.01, ..., 2.00

GRID_POINTS = 101


def _grid_build(seed: int) -> list:
    keys = list(range(GRID_POINTS))
    random.Random(seed).shuffle(keys)
    return [(k, 1.0 + k / 100.0) for k in keys]


def _grid_run(alpha: float):
    return factor_revealing.solve_fr(alpha)


def _grid_check(alpha: float, sol) -> str | None:
    want = factor_revealing.fr_closed_form(alpha)
    if not abs(sol.value - want) <= 1e-6:
        return f"solve_fr({alpha}) = {sol.value!r}, closed form {want!r}"
    return None


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("fuzz-small", _fuzz_build, _fuzz_run, _fuzz_check, _fuzz_summary,
                 round=1, traced_ops=200),
        Workload("exact-large", _exact_build, _exact_run, _exact_check, list,
                 round=len(EXACT_STRATA), traced_ops=48),
        Workload("factor-grid", _grid_build, _grid_run, _grid_check, lambda sol: [sol.value],
                 round=GRID_POINTS, traced_ops=2 * GRID_POINTS),
    )
}


def reference_mismatch(got: list, want: list) -> str | None:
    """Compare an op's summary with the recorded one, to REFERENCE_TOL."""
    if len(got) != len(want) or any(not abs(g - w) <= REFERENCE_TOL for g, w in zip(got, want)):
        return f"output {got!r} differs from the reference {want!r}"
    return None
