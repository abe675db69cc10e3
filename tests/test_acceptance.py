"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints one PASS/FAIL line
(visible with pytest -s; the -v test names mirror the same list), and
enforces the stated tolerance and runtime budget.
"""

import math
import time

import pytest

from openride.experiments import (
    HALF_LINE_LOWER_BOUND,
    OPTIMAL_ALPHA_GENERAL,
    OPTIMAL_ALPHA_HALF_LINE,
    FuzzConfig,
    competitive_ratio,
    fuzz,
    gen_halfline_lb,
    generate_instance,
    sweep_lower_bounds,
)
from openride.factor_revealing import fr_closed_form, solve_fr
from openride.metric import HALF_LINE, line
from openride.model import make_instance
from openride.offline import opt_upto

from oracles import opt_upto_naive, witness_solution


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line_ = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if detail:
        line_ += f" ({detail})"
    print(line_)
    assert ok, line_


@pytest.fixture(scope="module")
def general_fuzz():
    """Criterion 3/5 workload: 5000 instances over all three space kinds."""
    cfg = FuzzConfig(
        count=5000,
        seed=0,
        spaces=("line", "halfline", "matrix"),
        max_requests=5,
        capacities=(1, 2, None),
        matrix_nodes=(4, 4),
        alpha=OPTIMAL_ALPHA_GENERAL,
        check_schedules=True,
    )
    t0 = time.perf_counter()
    report = fuzz(cfg, "lazy")
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def halfline_fuzz():
    """Criterion 4 workload: 5000 half-line instances."""
    cfg = FuzzConfig(
        count=5000,
        seed=1,
        spaces=(HALF_LINE,),
        max_requests=5,
        capacities=(1, 2, None),
        alpha=OPTIMAL_ALPHA_HALF_LINE,
    )
    t0 = time.perf_counter()
    report = fuzz(cfg, "lazy")
    return report, time.perf_counter() - t0


def test_criterion_1_lower_bound_family_ratio():
    t0 = time.perf_counter()
    eps = 1e-4
    ok = True
    worst_dev = 0.0
    for alpha in (1.0, 1.1, 1.2, 1.3):
        ratio = competitive_ratio(gen_halfline_lb(alpha, eps), "lazy", alpha)
        want = (8.0 * alpha + 2.0 - (2.0 * alpha + 2.0) * eps) / (4.0 * alpha)
        asymptote = 2.0 + 1.0 / (2.0 * alpha)
        worst_dev = max(worst_dev, abs(ratio - want))
        ok = ok and abs(ratio - want) <= 1e-9 and abs(ratio - asymptote) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, "four-request family hits its predicted ratio",
            ok, f"max deviation {worst_dev:.2e}, {elapsed:.2f}s")


def test_criterion_2_single_request_ratio():
    t0 = time.perf_counter()
    inst = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
    ok = True
    for alpha in (1.0, 1.366, 1.457):
        ratio = competitive_ratio(inst, "lazy", alpha)
        ok = ok and abs(ratio - (1.0 + alpha)) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, "single request costs exactly 1 + alpha", ok, f"{elapsed:.2f}s")


def test_criterion_3_general_fuzz_stays_below_bound(general_fuzz):
    report, elapsed = general_fuzz
    bound = 2.457427 + 1e-6
    ok = report.count >= 5000 and report.worst <= bound and elapsed < 300.0
    _report(3, "mixed-space fuzz never beats the target ratio",
            ok, f"worst {report.worst:.7f} at index {report.worst_index}, {elapsed:.1f}s")


def test_criterion_4_halfline_fuzz_stays_below_bound(halfline_fuzz):
    report, elapsed = halfline_fuzz
    bound = 2.366026 + 1e-6
    ok = report.count >= 5000 and report.worst <= bound and elapsed < 300.0
    _report(4, "half-line fuzz never beats the target ratio",
            ok, f"worst {report.worst:.7f} at index {report.worst_index}, {elapsed:.1f}s")


def test_criterion_5_trace_invariants_hold(general_fuzz):
    report, _ = general_fuzz
    ok = report.violations == 0
    _report(5, "every schedule is short enough and on time",
            ok, f"{report.violations} violations over {report.count} runs")


def test_criterion_6_opt_matches_naive():
    t0 = time.perf_counter()
    cfg = FuzzConfig(count=200, seed=1234, max_requests=5)
    worst_dev = 0.0
    for i in range(cfg.count):
        inst = generate_instance(cfg, i)
        releases = [r.release for r in inst.requests]
        probes = {0.0, releases[len(releases) // 2], math.inf}
        for t in probes:
            _, fast = opt_upto(inst, t)
            naive = opt_upto_naive(inst, t)
            worst_dev = max(worst_dev, abs(fast - naive))
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 1e-9 and elapsed < 60.0
    _report(6, "search optimum equals brute-force optimum",
            ok, f"max deviation {worst_dev:.2e} over 200 instances, {elapsed:.1f}s")


def test_criterion_7_factor_revealing_matches_closed_form():
    t0 = time.perf_counter()
    worst_dev = 0.0
    for k in range(101):
        alpha = 1.0 + k / 100.0
        sol = solve_fr(alpha)
        worst_dev = max(worst_dev, abs(sol.value - fr_closed_form(alpha)))
    star = solve_fr(OPTIMAL_ALPHA_HALF_LINE)
    x_ref, b_ref = witness_solution(OPTIMAL_ALPHA_HALF_LINE)
    ok = worst_dev <= 1e-6
    ok = ok and abs(star.value - 2.366025) <= 1e-6
    ok = ok and star.binaries == b_ref
    ok = ok and all(abs(g - w) <= 1e-6 for g, w in zip(star.x, x_ref))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(7, "branch solver reproduces the closed form on [1, 2]",
            ok, f"max deviation {worst_dev:.2e}, {elapsed:.1f}s")


def test_criterion_8_sweep_minimum_location():
    rows = sweep_lower_bounds([k / 1000.0 for k in range(3001)])
    best = min(rows, key=lambda r: r.bound)
    ok = abs(best.bound - HALF_LINE_LOWER_BOUND) <= 1e-3
    ok = ok and abs(best.alpha - 1.366) <= 0.001 + 1e-12
    _report(8, "lower-bound sweep bottoms out at the optimal alpha",
            ok, f"min {best.bound:.6f} at alpha {best.alpha:.3f}")
