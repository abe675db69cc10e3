"""Golden corpus: CLI output and fuzz traces that must not change.

tests/golden/cli.json holds the exact stdout of ``openride lower-bound``,
``ratio``, ``opt`` and ``simulate`` on the half-line lower-bound family,
of ``sweep`` and ``factor-reveal`` grids, of one ``factor-reveal`` value
and of ``fuzz`` runs, in JSON and in CSV.
tests/golden/fuzz.jsonl holds one line per (policy, index) over the
first instances of FuzzConfig(seed=0): the ratio, a sha256 of the full
trace, each planned schedule, and OPT's schedule.
tests/golden/exact.jsonl holds one line per (index, policy) over the
first exact-large benchmark inputs (8 requests, perfbench's
exact_instance on seed 0), lazy and then replan on one OptCache as the
benchmark runs them: the ratio, a sha256 of the full trace, where each
planned schedule starts, and each planned schedule.

A difference is a behaviour change.  To re-record after an intended
change, run ``python tests/test_golden.py`` with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

from openride.cli import main
from openride.engine import simulate
from openride.experiments import (OPTIMAL_ALPHA_GENERAL, FuzzConfig, competitive_ratio,
                                  generate_instance, make_policy, measure_ratio)
from openride.model import canonical_json, schedule_to_obj, trace_to_dict
from openride.offline import OptCache, opt_upto

GOLDEN = Path(__file__).with_name("golden")
CLI_FILE = GOLDEN / "cli.json"
FUZZ_FILE = GOLDEN / "fuzz.jsonl"
EXACT_FILE = GOLDEN / "exact.jsonl"

ALPHAS = ("1.0", "1.1", "1.2", "1.3")
EPSILON = "0.01"
CSV = ["--format", "csv"]
FUZZ_COUNT = 200
EXACT_COUNT = 48
POLICIES = (("lazy", OPTIMAL_ALPHA_GENERAL), ("replan", None), ("ignore", None))


def _cli(argv: list[str], stdin: str = "") -> str:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code == 0, argv
    return out.getvalue()


def cli_outputs() -> dict[str, str]:
    """Exact stdout of each command, keyed by its command line."""
    out = {}
    for alpha in ALPHAS:
        lb = ["lower-bound", "--alpha", alpha, "--epsilon", EPSILON]
        out[" ".join(lb)] = _cli(lb)
        out[" ".join(lb + CSV)] = _cli(lb + CSV)
        inst = _cli(lb + ["--emit-instance"])
        for algo in ("lazy", "replan", "ignore"):
            ratio = ["ratio", "--instance", "-", "--algo", algo]
            if algo == "lazy":
                ratio += ["--alpha", alpha]
            out[" ".join(ratio) + " < " + " ".join(lb + ["--emit-instance"])] = _cli(ratio, inst)
        for cmd in (["opt"], ["opt", "--upto", "4.0"], ["opt"] + CSV, ["opt", "--upto", "4.0"] + CSV,
                    ["ratio", "--algo", "lazy", "--alpha", alpha] + CSV,
                    ["simulate", "--algo", "lazy", "--alpha", alpha],
                    ["simulate", "--algo", "replan", "--format", "csv"]):
            argv = cmd[:1] + ["--instance", "-"] + cmd[1:]
            out[" ".join(argv) + " < " + " ".join(lb + ["--emit-instance"])] = _cli(argv, inst)
    for argv in (["sweep", "--grid", "0:3:0.25"],
                 ["fuzz", "--algo", "lazy", "--alpha", "1.4574271077563381", "--count", "50",
                  "--check-schedules"],
                 ["sweep", "--grid", "0:3:0.25"] + CSV,
                 ["factor-reveal", "--alpha", "1.3660254"],
                 ["factor-reveal", "--alpha", "1.3660254"] + CSV,
                 ["factor-reveal", "--grid", "1:2:0.25"],
                 ["factor-reveal", "--grid", "1:2:0.25"] + CSV,
                 ["fuzz", "--algo", "ignore", "--count", "0"] + CSV,
                 ["fuzz", "--algo", "lazy", "--alpha", "1.4574271077563381", "--count", "50",
                  "--check-schedules"] + CSV,
                 ["fuzz", "--algo", "replan", "--count", "30", "--seed", "2", "--spaces",
                  "halfline,matrix", "--capacities", "1,inf", "--check-schedules"] + CSV):
        out[" ".join(argv)] = _cli(argv)
    return out


def fuzz_lines() -> list[str]:
    """One canonical JSON line per (policy, index) of the seed-0 fuzz stream."""
    cfg = FuzzConfig(seed=0)
    lines = []
    for algo, alpha in POLICIES:
        for index in range(FUZZ_COUNT):
            inst = generate_instance(cfg, index)
            cache = OptCache(inst)
            trace = simulate(inst, make_policy(algo, alpha), cache)
            opt_sched = opt_upto(inst, math.inf, cache)[0]
            digest = hashlib.sha256(canonical_json(trace_to_dict(trace)).encode()).hexdigest()
            lines.append(canonical_json({
                "policy": algo,
                "index": index,
                "ratio": competitive_ratio(inst, algo, alpha),
                "trace_sha256": digest,
                "schedules": [schedule_to_obj(rec.schedule) for rec in trace.schedules],
                "opt": schedule_to_obj(opt_sched),
            }))
    return lines


def exact_lines() -> list[str]:
    """One canonical JSON line per (index, policy) of the seed-0 exact-large inputs."""
    from perfbench.workloads import exact_instance

    lines = []
    for index in range(EXACT_COUNT):
        inst = exact_instance(0, index)
        cache = OptCache(inst)
        for algo, alpha in POLICIES[:2]:
            trace, _, ratio = measure_ratio(inst, algo, alpha, cache)
            full = trace_to_dict(trace)
            lines.append(canonical_json({
                "policy": algo,
                "index": index,
                "ratio": ratio,
                "trace_sha256": hashlib.sha256(canonical_json(full).encode()).hexdigest(),
                "starts": [rec["p"] for rec in full["schedules"]],
                "schedules": [schedule_to_obj(rec.schedule) for rec in trace.schedules],
            }))
    return lines


def test_cli_output_matches_golden():
    want = json.loads(CLI_FILE.read_text())
    got = cli_outputs()
    assert list(got) == list(want)
    for key, text in want.items():
        assert got[key] == text, key


def test_fuzz_stream_matches_golden():
    want = FUZZ_FILE.read_text().splitlines()
    got = fuzz_lines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1} of {FUZZ_FILE.name} differs"


def test_exact_stream_matches_golden():
    want = EXACT_FILE.read_text().splitlines()
    got = exact_lines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1} of {EXACT_FILE.name} differs"


def test_exact_golden_has_a_mid_edge_replan():
    # replan is the one policy that plans from inside a matrix edge; the
    # corpus pins at least one such plan
    lines = [json.loads(line) for line in EXACT_FILE.read_text().splitlines()]
    assert any(isinstance(p, dict) and "edge" in p
               for line in lines if line["policy"] == "replan" for p in line["starts"])


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    CLI_FILE.write_text(json.dumps(cli_outputs(), indent=1) + "\n")
    FUZZ_FILE.write_text("\n".join(fuzz_lines()) + "\n")
    EXACT_FILE.write_text("\n".join(exact_lines()) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the root, for perfbench, as pytest adds it
    record()
