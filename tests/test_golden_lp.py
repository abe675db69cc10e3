"""Golden corpus for the dense simplex on the factor-revealing grid.

tests/golden/lp.jsonl holds one line per (alpha, binaries) for alpha =
1.0 + k/100, k = 0..100, and each of the 16 binary codes: the repr of
every field of ``solve_lp(substitute(build_fr_milp(alpha), b))``.
tests/golden/fr.jsonl holds the repr of ``solve_fr(alpha)`` on the
same grid, with every branch result.  The comparison is exact: a
changed bit in any value, a different pivot count or another active
row is a behaviour change.

To re-record after an intended change, run ``python tests/test_golden_lp.py``
with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
from pathlib import Path

from openride.factor_revealing import build_fr_milp, solve_fr
from openride.lp import solve_lp

from oracles import BRANCH_CODES, substitute

GOLDEN = Path(__file__).with_name("golden")
LP_FILE = GOLDEN / "lp.jsonl"
FR_FILE = GOLDEN / "fr.jsonl"

ALPHAS = tuple(1.0 + k / 100 for k in range(101))


def lp_lines() -> list[str]:
    """One line per grid LP; x is written as the list of its Python floats."""
    lines = []
    for alpha in ALPHAS:
        milp = build_fr_milp(alpha)
        for b in BRANCH_CODES:
            sol = solve_lp(substitute(milp, b))
            lines.append(json.dumps({
                "alpha": repr(alpha),
                "binaries": repr(b),
                "status": repr(sol.status),
                "iterations": repr(sol.iterations),
                "value": repr(sol.value),
                "x": repr(None if sol.x is None else sol.x.tolist()),
                "active_rows": repr(sol.active_rows),
            }, sort_keys=True))
    return lines


def fr_lines() -> list[str]:
    return [json.dumps({"alpha": repr(alpha), "solution": repr(solve_fr(alpha))})
            for alpha in ALPHAS]


def _compare(got: list[str], path: Path) -> None:
    want = path.read_text().splitlines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1} of {path.name} differs"


def test_grid_lps_match_golden():
    _compare(lp_lines(), LP_FILE)


def test_solve_fr_matches_golden():
    _compare(fr_lines(), FR_FILE)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    LP_FILE.write_text("\n".join(lp_lines()) + "\n")
    FR_FILE.write_text("\n".join(fr_lines()) + "\n")


if __name__ == "__main__":
    record()
