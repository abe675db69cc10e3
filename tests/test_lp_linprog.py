"""Cross-check of the dense simplex against scipy's HiGHS solver.

The runtime needs only numpy; this test is skipped when scipy is absent.
Every program must get the same status from both solvers, and an
optimal value must agree to 1e-7.
"""

import numpy as np
import pytest

from openride.factor_revealing import build_fr_milp
from openride.lp import LinearProgram, solve_lp

from oracles import BRANCH_CODES, substitute

linprog = pytest.importorskip("scipy.optimize").linprog

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
VALUE_TOL = 1e-7


def _highs(lp: LinearProgram):
    bounds = [(lo, None if np.isinf(hi) else hi) for lo, hi in zip(lp.lb, lp.ub)]
    res = linprog(-lp.objective, A_ub=lp.a_ub if lp.a_ub.size else None,
                  b_ub=lp.b_ub if lp.a_ub.size else None, bounds=bounds, method="highs")
    return _STATUS.get(res.status, f"scipy status {res.status}"), (
        -res.fun if res.status == 0 else None)


def _assert_agree(lp: LinearProgram, label: str) -> str:
    ours = solve_lp(lp)
    status, value = _highs(lp)
    assert ours.status == status, label
    if status == "optimal":
        assert abs(ours.value - value) <= VALUE_TOL, (label, ours.value, value)
    return status


def _random_lp(rng: np.random.Generator) -> LinearProgram:
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 9))
    if rng.random() < 0.5:
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
    else:  # small integers: degenerate vertices and ratio-test ties
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-3, 4, size=m).astype(float)
    c = rng.normal(size=n)
    lb = np.where(rng.random(n) < 0.3, rng.integers(-2, 2, size=n), 0).astype(float)
    ub = np.where(rng.random(n) < 0.6, lb + rng.integers(0, 5, size=n), np.inf)
    return LinearProgram(c, a, b, lb, ub)


def test_grid_lps_agree_with_highs():
    seen = set()
    for k in range(101):
        alpha = 1.0 + k / 100
        milp = build_fr_milp(alpha)
        for b in BRANCH_CODES:
            seen.add(_assert_agree(substitute(milp, b), f"alpha={alpha} b={b}"))
    assert seen == {"optimal", "infeasible"}


def test_random_lps_agree_with_highs():
    rng = np.random.default_rng(20240607)
    counts = {}
    for i in range(400):
        status = _assert_agree(_random_lp(rng), f"random lp {i}")
        counts[status] = counts.get(status, 0) + 1
    # the draw must exercise every outcome, not only the easy one
    assert all(counts.get(s, 0) >= 20 for s in ("optimal", "infeasible", "unbounded")), counts
