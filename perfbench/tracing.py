"""Per-layer spans recorded from outside the program.

Each layer's public entry point is replaced, for the length of a traced
pass, by a wrapper installed at the name the calling module looks up
(``openride.experiments.simulate``, ``openride.engine.shortest_schedule``,
a method on ``OptCache``).  Wrapped calls nest: a span's time is charged
to its own layer minus the time of the wrapped spans it contains, so
each layer reports self time.  Counts come from the wrapper's arguments
and from the objects the call returns.  Nothing inside ``openride`` is
modified; the originals are put back when the pass ends.
"""

from __future__ import annotations

import functools
import weakref
from contextlib import contextmanager
from time import perf_counter

from openride import engine, experiments, factor_revealing, offline


def _count_solves(tracer, args, kwargs, result):
    cache = args[0]
    k = args[1] if len(args) > 1 else kwargs["k"]
    seen = tracer.solved.setdefault(cache, set())
    if k not in seen:
        seen.add(k)
        tracer.values["offline.OptCache.solve_prefix.solves"] += 1


def _count_requests(tracer, args, kwargs, result):
    reqs = args[0] if args else kwargs["requests"]
    tracer.values["offline.shortest_schedule.requests"] += len(reqs)


def _count_trace(tracer, args, kwargs, result):
    values = tracer.values
    values["engine.simulate.events"] += len(result.events)
    values["engine.simulate.schedules"] += len(result.schedules)
    values["engine.simulate.interrupted"] += sum(1 for rec in result.schedules if rec.interrupted)


def _count_lp(tracer, args, kwargs, result):
    tracer.values["lp.solve_lp.pivots"] += result.iterations
    if result.status != "optimal":
        tracer.values["lp.solve_lp.infeasible"] += 1


# (layer, owner, attribute, extra counts, what it should move).  The owner is
# the module or class whose attribute the calling code looks up at call time.
LAYERS = (
    ("experiments.fuzz", experiments, "fuzz", None,
     "throughput_ops_s, op_ms_p50 on fuzz-small; flat elsewhere"),
    ("experiments.generate_instance", experiments, "generate_instance", None,
     "throughput_ops_s, op_ms_p50 on fuzz-small; flat elsewhere"),
    ("offline.OptCache.init", offline.OptCache, "__init__", None,
     "throughput_ops_s, op_ms_p50 on fuzz-small; flat on exact-large"),
    ("offline.OptCache.solve_prefix", offline.OptCache, "solve_prefix", _count_solves,
     "op_ms_p90, peak_rss_mb on exact-large first, then throughput_ops_s on fuzz-small"),
    ("offline.shortest_schedule", engine, "shortest_schedule", _count_requests,
     "throughput_ops_s on fuzz-small and exact-large"),
    ("offline.fastest_delivery_and_return", engine, "fastest_delivery_and_return", None,
     "op_ms_p50 on fuzz-small"),
    ("engine.simulate", experiments, "simulate", _count_trace,
     "throughput_ops_s on fuzz-small"),
    ("engine.check_alpha_good", experiments, "check_alpha_good", None,
     "throughput_ops_s on fuzz-small only"),
    ("engine.check_lazy_starts", experiments, "check_lazy_starts", None,
     "throughput_ops_s on fuzz-small only"),
    ("model.validate_schedule", experiments, "validate_schedule", None,
     "throughput_ops_s on fuzz-small only"),
    ("factor_revealing.solve_fr", factor_revealing, "solve_fr", None,
     "throughput_ops_s, op_ms_p50 on factor-grid only"),
    ("lp.solve_lp", factor_revealing, "solve_lp", _count_lp,
     "throughput_ops_s, op_ms_p50 on factor-grid only"),
)

# counts beyond calls and self_s, per layer
_EXTRA = {
    "offline.OptCache.solve_prefix": ("solves", "hit_ratio"),
    "offline.shortest_schedule": ("requests",),
    "engine.simulate": ("events", "schedules", "interrupted"),
    "lp.solve_lp": ("pivots", "infeasible"),
}

OVERHEAD_MOVES = "tracing cost only; moves no end-to-end metric"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, *_ in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        names += [f"{layer}.{extra}" for extra in _EXTRA.get(layer, ())]
    return names + ["trace.overhead_s", "trace.overhead_frac"]


def moves_of(metric: str) -> str:
    """Which end-to-end metric and workload a per-layer metric should move."""
    for layer, *_, moves in LAYERS:
        if metric.startswith(layer + "."):
            return moves
    return OVERHEAD_MOVES


class Tracer:
    """Folds nested spans into per-layer call counts and self times."""

    def __init__(self):
        self.values: dict[str, float] = {name: 0 for name in metric_names()}
        self._child_time = [0.0]  # per open span: time spent in wrapped children
        self.solved = weakref.WeakKeyDictionary()  # OptCache -> prefixes seen

    def _wrap(self, layer: str, fn, count):
        values = self.values
        stack = self._child_time
        calls, self_s = f"{layer}.calls", f"{layer}.self_s"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                stack[-1] += dt
                values[calls] += 1
                values[self_s] += dt - children
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return span

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        originals = []
        try:
            for layer, owner, attr, count, _ in LAYERS:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def metrics(self) -> dict[str, float]:
        """Layer totals; hit_ratio is 1 - solves / calls (0 when never called)."""
        out = dict(self.values)
        calls = out["offline.OptCache.solve_prefix.calls"]
        solves = out["offline.OptCache.solve_prefix.solves"]
        out["offline.OptCache.solve_prefix.hit_ratio"] = 1.0 - solves / calls if calls else 0.0
        return out
