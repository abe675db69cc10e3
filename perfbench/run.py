"""openride benchmark: run one workload, check every op, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz-small --seed 0 --seconds 30 --trace 0

Workloads are fuzz-small, exact-large and factor-grid (see workloads.py).
Each is a closed loop: one caller in one process sends the next op when
the previous one has returned.  The program is imported from ./src.

--trace 0 times ops for at least --seconds (and at least MIN_OPS ops,
ending on a whole round of the workload) and reports the end-to-end
metrics.  Their times are scaled to a reference host speed: a fixed
kernel runs after every op, and each op time is scaled by the kernel
times around it (hostspeed.py), so that a run made while the shared host
is slow does not read as a regression.  The unscaled wall-time figures
are printed beside them.  --trace 1 runs a fixed number of ops, each once plain and once
with per-layer spans (tracing.py), and reports the per-layer metrics
plus the tracing overhead; end-to-end numbers never come from a traced
run.  Every op's output is checked, and on the default seed also
compared with reference.json.  The last line of output is one JSON
object with the keys correct, attempted, failed and metrics; metric
names and units are the ones declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0  # the seed whose op outputs are recorded in reference.json
MIN_OPS = 100  # op_ms_p90 needs at least ten ops beyond it
MEASURE_LIMIT_S = 120.0  # a timed loop stops here whatever else holds, so a run ends within 180 s
SETUP_PROBES = 6  # extra set-ups in fresh interpreters; setup_s is the median of these and our own
SETUP_KERNEL_RUNS = 15  # host-speed kernel runs that scale each set-up time
WORKLOAD_NAMES = ("fuzz-small", "exact-large", "factor-grid")


def use_source() -> None:
    """Put the checkout's src/ first on the import path, or stop."""
    if not (SRC / "openride" / "__init__.py").is_file():
        raise SystemExit(f"error: openride sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def setup(name: str, seed: int):
    """Import openride and build the workload's inputs; returns (workload, inputs, seconds).

    The seconds are wall time, not yet scaled to the reference host.
    """
    t0 = perf_counter()
    use_source()
    import openride
    import workloads

    if not Path(openride.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported openride from {openride.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed)
    return wl, inputs, perf_counter() - t0


def scaled_setup(seconds: float) -> float:
    """A set-up time of this interpreter, scaled by kernel runs made right after it."""
    from hostspeed import REFERENCE_S, kernel_median

    return seconds * REFERENCE_S / kernel_median(SETUP_KERNEL_RUNS)


def probe_setups(name: str, seed: int) -> list[float]:
    """Scaled set-up times of SETUP_PROBES fresh interpreters, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def load_reference(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "reference.json") as f:
        return {key: want for key, want in json.load(f)[name]}


def one_op(wl, n: int, key, arg, reference):
    """Run and check one op; returns (seconds, failure message or None).

    Only the call into the library is timed; the checks come after it.
    """
    from workloads import reference_mismatch

    t0 = perf_counter()
    try:
        out = wl.run(arg)
    except Exception as exc:  # a raising op is a failed op, not a failed run
        return perf_counter() - t0, f"op {n} (input {key}) raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    bad = wl.check(arg, out)
    if bad is None and reference is not None:
        bad = reference_mismatch(wl.summary(out), reference[key])
    return seconds, None if bad is None else f"op {n} (input {key}): {bad}"


def run_ops(wl, inputs, reference, stop):
    """Closed loop over inputs (cycling) until stop(ops, elapsed) holds.

    The host-speed kernel runs after every op.  Returns (per-op seconds,
    failure messages, elapsed seconds, kernel seconds after each op).
    """
    from hostspeed import kernel

    latencies, failures, kernel_times = [], [], []
    kernel()  # warm-up
    start = perf_counter()
    while True:
        n = len(latencies)
        seconds, bad = one_op(wl, n, *inputs[n % len(inputs)], reference)
        latencies.append(seconds)
        if bad is not None:
            failures.append(bad)
        kernel_times.append(kernel())
        elapsed = perf_counter() - start
        if stop(n + 1, elapsed):
            return latencies, failures, elapsed, kernel_times


def end_to_end(wl, inputs, reference, seconds: float, setup_times: list[float]):
    def stop(n, elapsed):
        return elapsed >= MEASURE_LIMIT_S or (elapsed >= seconds and n >= MIN_OPS and n % wl.round == 0)

    from hostspeed import REFERENCE_S, scaled

    wall, failures, elapsed, kernel_times = run_ops(wl, inputs, reference, stop)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = scaled(wall, kernel_times)
    n = len(latencies)

    def p90_of(times):
        return statistics.quantiles(times, n=10)[8] if n > 1 else times[0]

    p90 = p90_of(latencies)
    metrics = {
        "throughput_ops_s": n / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * p90,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    notes = {
        "throughput_ops_s": "per second of scaled op time",
        "op_ms_p90": f"{n} samples, {sum(1 for x in latencies if x > p90)} beyond",
        "setup_s": f"median of {len(setup_times)} set-ups",
    }
    host = statistics.median(kernel_times) / REFERENCE_S
    lines = [f"{n} ops in {elapsed:.3f} s, host-speed kernel after each",
             f"failed_ops_frac {len(failures) / n:.6g} ({len(failures)} of {n})",
             f"host: median kernel time {host:.3f}x the reference; unscaled wall time: "
             f"{n / sum(wall):.6g} ops/s, p50 {1e3 * statistics.median(wall):.6g} ms, "
             f"p90 {1e3 * p90_of(wall):.6g} ms"]
    return metrics, notes, lines, n, failures


def per_layer(wl, inputs, reference):
    """Each of the first traced_ops ops runs twice, plain and traced.

    The two runs of an op are back to back, in alternating order, so that
    drift in host speed falls on both sides of the overhead alike.
    """
    from tracing import Tracer, moves_of

    tracer = Tracer()
    spent = {False: 0.0, True: 0.0}
    failures = []
    for n in range(wl.traced_ops):
        key, arg = inputs[n % len(inputs)]
        for traced in (False, True) if n % 2 == 0 else (True, False):
            if traced:
                with tracer.installed():
                    seconds, bad = one_op(wl, n, key, arg, reference)
            else:
                seconds, bad = one_op(wl, n, key, arg, reference)
            spent[traced] += seconds
            if bad is not None:
                failures.append(bad)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = spent[True] - spent[False]
    metrics["trace.overhead_frac"] = (spent[True] - spent[False]) / spent[False]
    notes = {name: "-> " + moves_of(name) for name in metrics}
    lines = [f"{wl.traced_ops} ops, each untraced in {spent[False]:.3f} s in all "
             f"and traced in {spent[True]:.3f} s"]
    return metrics, notes, lines, 2 * wl.traced_ops, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    wl, inputs, own_setup = setup(args.workload, args.seed)
    if args.probe_setup:
        print(repr(scaled_setup(own_setup)))
        return 0
    reference = load_reference(wl.name, args.seed)

    if args.trace:
        metrics, notes, lines, attempted, failures = per_layer(wl, inputs, reference)
        kind = "per_layer"
    else:
        setup_times = [scaled_setup(own_setup)] + probe_setups(wl.name, args.seed)
        metrics, notes, lines, attempted, failures = end_to_end(
            wl, inputs, reference, args.seconds, setup_times)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        raise SystemExit(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}")

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}, "
          f"reference {'checked' if reference is not None else 'not recorded for this seed'}")
    for line in lines:
        print("  " + line)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {value:>14.6g} {units[name]}{note}")
    for msg in failures[:10]:
        print("FAILED " + msg, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
