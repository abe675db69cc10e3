"""Golden corpus for the release-respecting optimum.

tests/golden/opt.jsonl holds one line per release prefix of 99 seeded
instances of 6-8 requests: line, half-line and 6-8-node matrices, each
with capacity 1, 2 and unbounded.  Half of them draw points, matrix
weights and releases from coarse grids, so points coincide and many
event orders tie; the other half draw them uniformly, so forward sums
round differently from the DP's sums.  Each line gives the instance
index, the prefix size, ``repr`` of ``opt_upto``'s value and
``schedule_to_obj`` of its schedule.  The comparison is exact: a changed
bit in a value or another optimal order is a behaviour change.

To re-record after an intended change, run ``python tests/test_golden_opt.py``
with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from openride.metric import half_line, line, matrix_space
from openride.model import Load, Unload, make_instance, schedule_to_obj
from openride.offline import OptCache, opt_upto

GOLDEN = Path(__file__).with_name("golden")
OPT_FILE = GOLDEN / "opt.jsonl"

KINDS = tuple((space, cap) for space in ("line", "halfline", "matrix") for cap in (1, 2, None))
COUNT = 99
GRID_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.0)
GRID_RELEASES = (0.0, 0.5, 1.0, 2.5, 4.0)


def make_case(index: int):
    """Instance number index of the corpus: its kind cycles, its draws come from the index."""
    rng = random.Random(index)
    kind, capacity = KINDS[index % len(KINDS)]
    coarse = index // len(KINDS) % 2 == 0
    n = rng.randint(6, 8)
    if kind == "matrix":
        size = rng.randint(6, 8)
        d = [[0.0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                d[i][j] = d[j][i] = (rng.choice(GRID_WEIGHTS) if coarse
                                     else rng.uniform(0.5, 3.0))
        for k in range(size):
            for i in range(size):
                for j in range(size):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        space = matrix_space(d)

        def point():
            return rng.randrange(size)
    else:
        space = line() if kind == "line" else half_line()
        low = -3.0 if kind == "line" else 0.0

        def point():
            return rng.randint(int(2 * low), 6) / 2 if coarse else rng.uniform(low, 3.0)
    triples = [(point(), point(), rng.choice(GRID_RELEASES) if coarse else rng.uniform(0.0, 4.0))
               for _ in range(n)]
    return make_instance(space, capacity, triples)


def opt_lines() -> list[str]:
    """One line per (instance, release prefix), prefixes in release order."""
    lines = []
    for index in range(COUNT):
        inst = make_case(index)
        cache = OptCache(inst)
        prefixes = {cache.prefix_for(t): t for t in sorted({0.0} | {r.release for r in inst.requests})}
        for k, t in prefixes.items():
            sched, value = opt_upto(inst, t, cache)
            lines.append(json.dumps({
                "index": index,
                "prefix": k,
                "value": repr(value),
                "schedule": schedule_to_obj(sched),
            }, sort_keys=True))
    return lines


def test_prefix_optima_match_golden():
    want = OPT_FILE.read_text().splitlines()
    got = opt_lines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1} of {OPT_FILE.name} differs"


# Two instances beyond the corpus whose optimal orders tie with other orders
# up to the last bits of their sums.  A search that prunes on the release-free
# relaxation without a rounding margin returns another order here.
MARGIN_CASES = ((1382, 5, "6.900119039549196", "+4+2+3+6-4-6-2-3+1-1"),
                (1545, 5, "12.42652733213306", "+1-1+4-4+3-3+5-5+2-2"))


def test_near_ties_keep_their_order():
    for index, k, value, order in MARGIN_CASES:
        inst = make_case(index)
        cache = OptCache(inst)
        t = sorted(r.release for r in inst.requests)[k - 1]
        assert cache.prefix_for(t) == k
        sched, got = opt_upto(inst, t, cache)
        assert repr(got) == value
        assert "".join(("+" if isinstance(a, Load) else "-") + str(a.request_id)
                       for a in sched.actions if isinstance(a, (Load, Unload))) == order


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    OPT_FILE.write_text("\n".join(opt_lines()) + "\n")


if __name__ == "__main__":
    record()
