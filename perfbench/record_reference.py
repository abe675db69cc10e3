"""Record the default seed's op outputs into reference.json.

    python3 perfbench/record_reference.py

Every op in each workload's default-seed pool is run once and its
summary (fuzz report, or OPT and both ratios, or the solve_fr value) is
stored by input key.  run.py compares default-seed ops against this
file to 1e-9, so re-record it only for a change that is meant to alter
the program's outputs, and say so in that change.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.use_source()
    import workloads

    recorded = {}
    for name, wl in workloads.WORKLOADS.items():
        rows = []
        for key, arg in sorted(wl.build(run.DEFAULT_SEED), key=lambda item: item[0]):
            out = wl.run(arg)
            bad = wl.check(arg, out)
            if bad is not None:
                raise SystemExit(f"error: {name} input {key}: {bad}")
            rows.append([key, wl.summary(out)])
        recorded[name] = rows
        print(f"{name}: {len(rows)} ops recorded")
    with open(run.HERE / "reference.json", "w") as f:
        json.dump(recorded, f, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
