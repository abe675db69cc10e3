"""Experiments: adversarial instances, ratio measurement, fuzzing.

The fuzzer draws random instances from a seeded generator, runs a
policy on each, and compares the online completion time against the
exact offline optimum.  Generation is deterministic per (seed, index),
so any worst case found can be regenerated from its index alone; the
parallel path returns bare numbers from workers and rebuilds the worst
instance in the parent for exactly this reason.  The process-pool stack
(concurrent.futures, multiprocessing and what they import) loads on the
first fuzz run with workers, so a process that never runs one does not
carry it.

Coordinates and release times are snapped to small integers with some
probability.  That is deliberate: coincident points, zero legs and
simultaneous releases are where tie-breaking and batching bugs live,
and purely continuous draws would never hit them.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from .engine import IgnorePolicy, LazyPolicy, ReplanPolicy, check_alpha_good, check_lazy_starts, simulate
from .metric import HALF_LINE, LINE, MATRIX, MetricSpace, half_line, line, matrix_space, short_repr
from .model import EdgePos, Instance, Trace, make_instance, validate_schedule
from .numeric import CHECK_TOL, OPTIMAL_ALPHA_GENERAL, OPTIMAL_ALPHA_HALF_LINE, TOLERANCE, is_int, real
from .offline import DEFAULT_SEARCH_CAP, OptCache, cache_for

# the half-line impossibility threshold
HALF_LINE_LOWER_BOUND = (3.0 + math.sqrt(3.0)) / 2.0


def gen_halfline_lb(alpha: float, epsilon: float = 1e-4) -> Instance:
    """Half-line instance forcing a waiting policy with this alpha high.

    Needs 1 <= alpha < (1 + sqrt(3)) / 2, the range in which the late
    lone request still cannot be folded into the first schedule.  The
    ratio approaches (3 + sqrt(3)) / 2 as alpha approaches the upper
    end and epsilon approaches zero.
    """
    if not 1.0 <= real(alpha, "alpha") < OPTIMAL_ALPHA_HALF_LINE:
        raise ValueError("alpha must lie in [1, (1+sqrt(3))/2)")
    if not 0.0 < real(epsilon, "epsilon") < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    far = 4.0 * alpha - 2.0
    return make_instance(
        half_line(),
        1,
        [
            (0.0, 1.0, 0.0),
            (1.0, 0.0, 0.0),
            (1.0, 2.0 - epsilon, 0.0),
            (far, far, 4.0 * alpha),
        ],
    )


def make_policy(algo: str, alpha: float | None):
    if algo == "lazy":
        if alpha is None:
            raise ValueError("the lazy policy needs an alpha")
        return LazyPolicy(alpha)
    if algo == "replan":
        return ReplanPolicy()
    if algo == "ignore":
        return IgnorePolicy()
    raise ValueError(f"unknown algorithm {algo!r}")


def measure_ratio(inst: Instance, algo: str, alpha: float | None = None,
                  opt_cache: OptCache | None = None) -> tuple[Trace, float, float]:
    """Run algo once; return its trace, the offline optimum and their ratio.

    A zero optimum gives ratio 1 when the run also finishes at time 0,
    and infinity otherwise.  A bad algo or alpha, or an opt_cache built
    for another instance, fails before OPT is solved, and an instance
    above the search cap before the run.
    """
    policy = make_policy(algo, alpha)
    cache = cache_for(inst, opt_cache, "opt_cache")
    opt = cache.value(len(inst.requests))
    trace = simulate(inst, policy, cache)
    if opt <= TOLERANCE:
        return trace, opt, 1.0 if trace.completion <= TOLERANCE else math.inf
    return trace, opt, trace.completion / opt


def competitive_ratio(inst: Instance, algo: str, alpha: float | None = None,
                      opt_cache: OptCache | None = None) -> float:
    """Online completion divided by the offline optimum for one instance."""
    return measure_ratio(inst, algo, alpha, opt_cache)[2]


# ---------------------------------------------------------------------------
# fuzzing

# most worker processes one fuzz run may start
MAX_FUZZ_WORKERS = 64
# most nodes of a generated matrix space, whose closure and check are cubic
MAX_MATRIX_NODES = 64
# instances per task of a run with workers, and tasks in flight per worker
FUZZ_CHUNK = 64
FUZZ_CHUNKS_PER_WORKER = 2
# the generator's coordinate bound, last release time, and the chance that
# a request's dropoff is its pickup
SPAN = 10.0
HORIZON = 10.0
SAME_POINT_PROB = 0.25


@dataclass(frozen=True)
class FuzzConfig:
    """Generator settings; every field is checked when the config is built."""

    count: int = 100
    seed: int = 0
    spaces: tuple[str, ...] = (LINE, HALF_LINE, MATRIX)
    max_requests: int = 5
    capacities: tuple[int | None, ...] = (1, 2, None)
    matrix_nodes: tuple[int, int] = (2, 5)
    alpha: float | None = None
    workers: int | None = None
    check_schedules: bool = False

    def __post_init__(self):
        def bad(field_name, rule):
            value = getattr(self, field_name)
            raise ValueError(f"fuzz config: {field_name} must be {rule}, got {short_repr(value)}")

        if not is_int(self.count) or self.count < 0:
            bad("count", "a nonnegative integer")
        if not is_int(self.seed):
            bad("seed", "an integer")
        if not (is_int(self.max_requests) and 1 <= self.max_requests <= DEFAULT_SEARCH_CAP):
            bad("max_requests", f"an integer from 1 to the search cap {DEFAULT_SEARCH_CAP}")
        if self.workers is not None and not (
                is_int(self.workers) and 0 <= self.workers <= MAX_FUZZ_WORKERS):
            bad("workers", f"null or an integer from 0 to {MAX_FUZZ_WORKERS}")
        if self.alpha is not None:
            try:
                alpha = real(self.alpha)
            except ValueError:
                alpha = math.nan
            if not 0 <= alpha < math.inf:
                bad("alpha", "a finite nonnegative number or null")
        if (not isinstance(self.spaces, (tuple, list)) or not self.spaces
                or any(k not in (LINE, HALF_LINE, MATRIX) for k in self.spaces)):
            bad("spaces", f"a non-empty list of {LINE}, {HALF_LINE}, {MATRIX}")
        if (not isinstance(self.capacities, (tuple, list)) or not self.capacities
                or any(c is not None and not (is_int(c) and c >= 1) for c in self.capacities)):
            bad("capacities", "a non-empty list of positive integers or unbounded")
        nodes = self.matrix_nodes
        if not (isinstance(nodes, (tuple, list)) and len(nodes) == 2 and all(map(is_int, nodes))
                and 1 <= nodes[0] <= nodes[1] <= MAX_MATRIX_NODES):
            bad("matrix_nodes", f"two integers lo, hi with 1 <= lo <= hi <= {MAX_MATRIX_NODES}")
        if not isinstance(self.check_schedules, bool):
            bad("check_schedules", "true or false")


@dataclass(frozen=True)
class RatioReport:
    algo: str
    alpha: float | None
    count: int
    worst: float | None  # None when count is 0
    worst_index: int
    mean: float
    violations: int
    worst_instance: Instance | None = field(default=None, compare=False)


def _coord(rng: random.Random, lo: float) -> float:
    if rng.random() < 0.25:
        x = float(rng.randint(-3, 3))
        return abs(x) if lo == 0.0 else x
    return rng.uniform(lo, SPAN)


def _release(rng: random.Random) -> float:
    u = rng.random()
    if u < 0.2:
        return 0.0
    if u < 0.4:
        return float(rng.randint(0, 4))
    return rng.uniform(0.0, HORIZON)


def _random_matrix(rng: random.Random, nodes: tuple[int, int]) -> MetricSpace:
    n = rng.randint(*nodes)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = float(rng.randint(1, 9)) if rng.random() < 0.5 else rng.uniform(1.0, 9.0)
            d[i][j] = d[j][i] = w
    for k in range(n):  # shortest-path closure restores the triangle inequality
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return matrix_space(d)


def generate_instance(cfg: FuzzConfig, index: int) -> Instance:
    """Instance number `index` of the stream defined by cfg.seed."""
    rng = random.Random(cfg.seed * 1_000_003 + index)
    kind = rng.choice(cfg.spaces)
    if kind == LINE:
        space, lo = line(), -SPAN
    elif kind == HALF_LINE:
        space, lo = half_line(), 0.0
    else:
        space, lo = _random_matrix(rng, cfg.matrix_nodes), 0.0
    n = rng.randint(1, cfg.max_requests)
    capacity = rng.choice(cfg.capacities)
    triples = []
    for _ in range(n):
        if kind == MATRIX:
            a = rng.randrange(space.size)
            b = a if rng.random() < SAME_POINT_PROB else rng.randrange(space.size)
        else:
            a = _coord(rng, lo)
            b = a if rng.random() < SAME_POINT_PROB else _coord(rng, lo)
        triples.append((a, b, _release(rng)))
    return make_instance(space, capacity, triples)


def _check_trace(inst: Instance, trace: Trace, cache: OptCache) -> int:
    """Structural checks on one run; returns the number of violations.

    Every completed schedule must start where its record stands, or at
    an end of the record's edge when that is mid-edge, and is replayed
    from there with its recorded on-board set.  The policy and alpha are
    the trace's.  A lazy trace with alpha >= 1 adds one per lazy checker
    that reports a counted rule.
    """
    bad = 0
    opt = cache.value(len(inst.requests))
    if trace.completion < opt - CHECK_TOL:
        bad += 1  # an online run can never beat the clairvoyant optimum
    space = inst.space
    for rec in trace.schedules:
        if rec.interrupted or rec.schedule is None:
            continue
        first = rec.schedule.start_pos
        lead = 0.0  # mid-edge, the lead-in to the schedule's first node
        pos = rec.start_pos
        if isinstance(pos, EdgePos):
            if space.same_point(first, pos.u):
                lead = pos.offset
            elif space.same_point(first, pos.v):
                lead = space.raw_distance(pos.u, pos.v) - pos.offset
            else:  # a schedule from inside an edge starts at one of its ends
                bad += 1
                continue
        elif not space.same_point(first, pos):  # or where the record stands
            bad += 1
            continue
        finish = validate_schedule(inst, rec.schedule, start_time=rec.start_time + lead,
                                   scope=rec.request_ids, loaded=rec.loaded)
        if not isinstance(finish, float):
            bad += 1
        elif abs(finish - (rec.start_time + rec.length)) > CHECK_TOL:
            bad += 1
    alpha = trace.alpha
    if trace.algo == "lazy" and alpha is not None and alpha >= 1.0:
        counted = {"length-within-opt", "start-after-alpha-opt", "opt-dominates-previous-start"}
        # the deadline (1 + alpha) * OPT(t) is a proven bound only from the
        # space's optimal alpha up: below it the half-line family reaches
        # 2 + 1/(2 alpha) > 1 + alpha
        if alpha >= (OPTIMAL_ALPHA_HALF_LINE if inst.space.kind == HALF_LINE else OPTIMAL_ALPHA_GENERAL):
            counted.add("finish-by-deadline")
        for check in (check_alpha_good, check_lazy_starts):
            bad += any(v["rule"] in counted for v in check(trace, inst, cache=cache))
    return bad


def _fuzz_task(args) -> tuple[float, int]:
    cfg, algo, index = args
    inst = generate_instance(cfg, index)
    cache = OptCache(inst)
    trace, _, ratio = measure_ratio(inst, algo, cfg.alpha, cache)
    bad = _check_trace(inst, trace, cache) if cfg.check_schedules else 0
    return ratio, bad


def _fuzz_chunk(cfg: FuzzConfig, algo: str, start: int, stop: int) -> list[tuple[float, int]]:
    return [_fuzz_task((cfg, algo, i)) for i in range(start, stop)]


def _fuzz_results(cfg: FuzzConfig, algo: str):
    """(ratio, violations) of each instance, in index order.

    With workers, the instances go out in chunks of FUZZ_CHUNK, at most
    FUZZ_CHUNKS_PER_WORKER chunks per worker in flight, so memory does
    not grow with cfg.count on either path.  ProcessPoolExecutor is
    imported on that path only, so its stack loads on the first run
    with workers.
    """
    if not (cfg.workers and cfg.workers > 1):
        yield from map(_fuzz_task, ((cfg, algo, i) for i in range(cfg.count)))
        return
    from concurrent.futures import ProcessPoolExecutor  # its stack loads only here

    window: deque = deque()
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        for start in range(0, cfg.count, FUZZ_CHUNK):
            stop = min(start + FUZZ_CHUNK, cfg.count)
            window.append(pool.submit(_fuzz_chunk, cfg, algo, start, stop))
            if len(window) == cfg.workers * FUZZ_CHUNKS_PER_WORKER:
                yield from window.popleft().result()
        while window:
            yield from window.popleft().result()


def fuzz(cfg: FuzzConfig, algo: str) -> RatioReport:
    """Run `algo` over cfg.count random instances and report the ratios.

    Both paths stream their instances, so memory does not grow with
    cfg.count.
    """
    worst, worst_index = -math.inf, -1
    total = 0.0
    violations = 0
    for i, (ratio, bad) in enumerate(_fuzz_results(cfg, algo)):
        total += ratio
        violations += bad
        if ratio > worst:
            worst, worst_index = ratio, i
    return RatioReport(
        algo=algo,
        alpha=cfg.alpha,
        count=cfg.count,
        worst=worst if worst_index >= 0 else None,
        worst_index=worst_index,
        mean=total / cfg.count if cfg.count else 0.0,
        violations=violations,
        worst_instance=generate_instance(cfg, worst_index) if worst_index >= 0 else None,
    )


# ---------------------------------------------------------------------------
# lower-bound sweep


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    bound: float
    source: str


def sweep_lower_bounds(alphas) -> list[SweepRow]:
    """Best known half-line ratio lower bound per waiting parameter.

    Every alpha is subject to bound 1 + alpha.  Below 1 an eager
    server can be lured arbitrarily far out, giving 1 + 3 / (alpha + 1);
    between 1 and (1 + sqrt(3)) / 2 the four-request family gives
    2 + 1 / (2 alpha).  The reported source is the binding expression.
    Each alpha must be a finite nonnegative number, kept as given.
    """
    rows = []
    for alpha in alphas:
        if not 0 <= real(alpha, "alpha") < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        candidates = [("1+alpha", 1.0 + alpha)]
        if alpha < 1.0:
            candidates.append(("1+3/(alpha+1)", 1.0 + 3.0 / (alpha + 1.0)))
        elif alpha < OPTIMAL_ALPHA_HALF_LINE:
            candidates.append(("2+1/(2*alpha)", 2.0 + 1.0 / (2.0 * alpha)))
        source, bound = max(candidates, key=lambda c: c[1])
        rows.append(SweepRow(alpha=alpha, bound=bound, source=source))
    return rows
