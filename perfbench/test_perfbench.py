"""Checks on the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import run

run.use_source()

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

FEW_OPS = {"fuzz-small": 10, "exact-large": 9, "factor-grid": 12}


def _run_few(name: str, seed: int, reference, tracer=None):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed)

    def stop(n, elapsed):
        return n >= FEW_OPS[name]

    if tracer is None:
        return run.run_ops(wl, inputs, reference, stop)[1]
    with tracer.installed():
        return run.run_ops(wl, inputs, reference, stop)[1]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(name):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        assert _run_few(name, 3, None, tracer) == []
        counts.append({k: v for k, v in tracer.metrics().items()
                       if not k.endswith("_s") and not k.startswith("trace.")})
    assert counts[0] == counts[1]
    assert any(v for k, v in counts[0].items() if k.endswith(".calls"))
    for _, owner, attr, _, _ in LAYERS:  # the originals are back
        assert not hasattr(getattr(owner, attr), "__wrapped__")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_default_seed_matches_reference(name):
    reference = run.load_reference(name, run.DEFAULT_SEED)
    assert reference is not None
    assert _run_few(name, run.DEFAULT_SEED, reference) == []


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_other_seed_passes_output_checks(name):
    assert run.load_reference(name, 7) is None
    assert _run_few(name, 7, None) == []


def test_reference_catches_a_wrong_output():
    reference = run.load_reference("factor-grid", run.DEFAULT_SEED)
    key = workloads.WORKLOADS["factor-grid"].build(run.DEFAULT_SEED)[0][0]
    reference[key] = [reference[key][0] + 1e-6]
    failures = _run_few("factor-grid", run.DEFAULT_SEED, reference)
    assert len(failures) == 1 and "differs from the reference" in failures[0]


def test_scaling_follows_the_nearby_kernel_times():
    times = [0.01] * 40
    kernel_times = [hostspeed.REFERENCE_S] * 20 + [2 * hostspeed.REFERENCE_S] * 20
    out = hostspeed.scaled(times, kernel_times)
    assert out[0] == pytest.approx(0.01)  # a host at reference speed leaves times alone
    assert out[-1] == pytest.approx(0.005)  # a host at half speed halves them
    assert hostspeed.kernel() > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fuzz-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
