"""Command-line front end.

Every subcommand reads JSON instances (a path or ``-`` for stdin) and
writes one JSON document or CSV table to stdout.  Output is
deterministic for fixed inputs and seeds: keys are sorted, floats are
rounded to ``--precision`` digits, and CSV uses a bare newline.

Exit codes: 0 success, 1 domain failure (bad input file, solver error,
or a fuzz run that found violations), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .engine import EngineError, simulate
from .experiments import (FuzzConfig, competitive_ratio, fuzz, gen_halfline_lb,
                          make_policy, measure_ratio, sweep_lower_bounds)
from .factor_revealing import (FactorRevealingError, fr_closed_form, solve_fr)
from .metric import LINE, HALF_LINE, MATRIX
from .model import (canonical_json, instance_to_dict, parse_instance,
                    schedule_to_obj, trace_to_dict)
from .offline import SearchCapExceeded, opt_upto

ALGOS = ("lazy", "replan", "ignore")
MAX_GRID_POINTS = 100_000


class CliError(Exception):
    """Domain-level failure; message goes to stderr, exit code 1."""


def _read_instance(path: str):
    try:
        text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    except OSError as e:
        raise CliError(f"cannot read instance: {e}") from e
    return parse_instance(text)


def _round(obj, digits: int):
    if isinstance(obj, float):
        v = round(obj, digits)
        return 0.0 if v == 0 else v  # avoid -0.0 in output
    if isinstance(obj, dict):
        return {k: _round(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round(v, digits) for v in obj]
    return obj


def _emit(args, obj, columns=None, rows=None) -> None:
    """Write obj as JSON, or as CSV: the header columns, then rows, or by
    default one row per record (obj itself, or each dict of a list)."""
    if args.format == "csv":
        if columns is None:
            raise CliError("this subcommand has no CSV form; use --format json")
        if rows is None:
            records = obj if isinstance(obj, list) else [obj]
            rows = [[rec[c] for c in columns] for rec in records]
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(columns)
        w.writerows(_round(list(row), args.precision) for row in rows)
    else:
        sys.stdout.write(canonical_json(_round(obj, args.precision)) + "\n")


def _precision(text: str) -> int:
    """Parse --precision: a number of decimal places, an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _check_numbers(args) -> None:
    """Reject non-finite numeric options, naming the option."""
    for name in ("alpha", "epsilon"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise CliError(f"--{name} must be a finite number, got {value}")
    if getattr(args, "upto", None) is not None and math.isnan(args.upto):
        raise CliError("--upto must be a number, got nan")


def _require_alpha(algo: str, alpha: float | None, parser) -> float | None:
    if algo == "lazy" and alpha is None:
        parser.error("--alpha is required with --algo lazy")
    return alpha


# subcommands


def _cmd_simulate(args, parser) -> int:
    alpha = _require_alpha(args.algo, args.alpha, parser)
    inst = _read_instance(args.instance)
    trace = simulate(inst, make_policy(args.algo, alpha))
    obj = trace_to_dict(trace)
    rows = [(r.index, r.start_time, r.length, r.interrupted, len(r.request_ids))
            for r in trace.schedules]
    _emit(args, obj, ("index", "start", "length", "interrupted", "requests"), rows)
    return 0


def _cmd_opt(args, parser) -> int:
    inst = _read_instance(args.instance)
    upto = math.inf if args.upto is None else args.upto
    sched, value = opt_upto(inst, upto)
    obj = {"value": value, "schedule": schedule_to_obj(sched)}
    _emit(args, obj, ("value", "actions"), [(value, len(sched.actions))])
    return 0


def _cmd_ratio(args, parser) -> int:
    alpha = _require_alpha(args.algo, args.alpha, parser)
    inst = _read_instance(args.instance)
    trace, opt, ratio = measure_ratio(inst, args.algo, alpha)
    obj = {"algo": args.algo, "alpha": alpha, "completion": trace.completion,
           "opt": opt, "ratio": ratio}
    _emit(args, obj, list(obj))
    return 0


def _cmd_lower_bound(args, parser) -> int:
    inst = gen_halfline_lb(args.alpha, args.epsilon)
    if args.emit_instance:
        _emit(args, instance_to_dict(inst))
        return 0
    ratio = competitive_ratio(inst, "lazy", args.alpha)
    a, e = args.alpha, args.epsilon
    predicted = (8 * a + 2 - (2 * a + 2) * e) / (4 * a)
    obj = {"alpha": a, "epsilon": e, "ratio": ratio, "predicted": predicted}
    _emit(args, obj, list(obj))
    return 0


def _capacity(value):
    """One capacity, with the unbounded spellings "inf", "none" and null as None."""
    return None if value in ("inf", "none", None) else value


def _parse_capacities(text: str):
    out = []
    for part in text.split(","):
        cap = _capacity(part.strip())
        try:
            out.append(cap if cap is None else int(cap))
        except ValueError as e:
            raise CliError(f"bad --capacities {text!r}; expected integers or inf") from e
    return tuple(out)


def _cmd_fuzz(args, parser) -> int:
    base = {}
    if args.config:
        try:
            raw = open(args.config, encoding="utf-8").read()
        except OSError as e:
            raise CliError(f"cannot read config: {e}") from e
        try:
            base = json.loads(raw)
        except ValueError as e:
            raise CliError(f"bad fuzz config: {e}") from e
        if not isinstance(base, dict):
            raise CliError("bad fuzz config: expected a JSON object")
        # FuzzConfig checks the shape of every field
        if isinstance(base.get("capacities"), list):
            base["capacities"] = [_capacity(c) for c in base["capacities"]]
    for key in ("count", "seed", "alpha", "workers", "max_requests"):
        if getattr(args, key) is not None:
            base[key] = getattr(args, key)
    if args.spaces is not None:
        base["spaces"] = tuple(args.spaces.split(","))
    if args.capacities is not None:
        base["capacities"] = _parse_capacities(args.capacities)
    if args.check_schedules:
        base["check_schedules"] = True
    try:
        cfg = FuzzConfig(**base)
    except TypeError as e:
        raise CliError(f"bad fuzz config: {e}") from e
    _require_alpha(args.algo, cfg.alpha, parser)
    report = fuzz(cfg, args.algo)
    obj = {"algo": report.algo, "alpha": report.alpha, "count": report.count,
           "seed": cfg.seed, "worst": report.worst, "worst_index": report.worst_index,
           "mean": report.mean, "violations": report.violations}
    columns = list(obj)  # the worst instance is in the JSON form only
    if report.worst_instance is not None:
        obj["worst_instance"] = instance_to_dict(report.worst_instance)
    _emit(args, obj, columns)
    return 1 if report.violations else 0


def _parse_grid(text: str, lo: float, hi: float = math.inf):
    """Parse --grid a:b:step into its points, each within [lo, hi]."""
    try:
        a, b, step = (float(v) for v in text.split(":"))
    except ValueError as e:
        raise CliError(f"bad --grid {text!r}; expected a:b:step") from e
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise CliError(f"bad --grid {text!r}; a, b and step must be finite")
    if step <= 0 or b < a:
        raise CliError(f"bad --grid {text!r}; need a <= b and step > 0")
    # count the points before building the list
    if not (b - a) / step < MAX_GRID_POINTS:
        raise CliError(f"bad --grid {text!r}; more than {MAX_GRID_POINTS} points")
    out = []
    k = 0
    while True:
        v = a + k * step
        if v > b + step / 2:
            break
        out.append(min(v, b))
        k += 1
    if out[0] < lo or out[-1] > hi:
        raise CliError(f"bad --grid {text!r}; values must lie in [{lo:g}, {hi:g}]")
    return out


def _cmd_sweep(args, parser) -> int:
    rows = sweep_lower_bounds(_parse_grid(args.grid, 0.0))
    obj = [{"alpha": r.alpha, "bound": r.bound, "source": r.source} for r in rows]
    _emit(args, obj, list(obj[0]))
    return 0


def _cmd_factor_reveal(args, parser) -> int:
    if (args.alpha is None) == (args.grid is None):
        parser.error("exactly one of --alpha or --grid is required")
    if args.alpha is not None:
        sol = solve_fr(args.alpha)
        closed_form = fr_closed_form(sol.alpha)
        obj = {"alpha": sol.alpha, "value": sol.value, "closed_form": closed_form,
               "assignment": list(sol.x), "binaries": list(sol.binaries)}
        _emit(args, obj, ("alpha", "value", "closed_form", "binaries"),
              [(sol.alpha, sol.value, closed_form, "".join(map(str, sol.binaries)))])
        return 0
    obj = []
    for a in _parse_grid(args.grid, 1.0, 2.0):
        sol = solve_fr(a)
        obj.append({"alpha": a, "value": sol.value, "closed_form": fr_closed_form(a),
                    "binaries": "".join(map(str, sol.binaries))})
    _emit(args, obj, list(obj[0]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--precision", type=_precision, default=6,
                        help="decimal places in output (default 6)")

    parser = argparse.ArgumentParser(
        prog="openride",
        description="simulate online dial-a-ride policies and analyze their ratios")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="run one policy on one instance and dump the trace")
    p.add_argument("--instance", required=True, help="instance JSON path, - for stdin")
    p.add_argument("--algo", choices=ALGOS, required=True)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("opt", parents=[common],
                       help="offline optimum over requests released up to a time")
    p.add_argument("--instance", required=True)
    p.add_argument("--upto", type=float, help="release cutoff (default: all requests)")
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("ratio", parents=[common],
                       help="completion time of a policy divided by the optimum")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", choices=ALGOS, required=True)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("lower-bound", parents=[common],
                       help="half-line family forcing ratio 2 + 1/(2*alpha)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--emit-instance", action="store_true",
                   help="print the instance instead of running it")
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("fuzz", parents=[common],
                       help="seeded random instances; report the worst ratio")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--algo", choices=ALGOS, required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--spaces", help=f"comma list from {LINE},{HALF_LINE},{MATRIX}")
    p.add_argument("--capacities", help="comma list of ints or inf")
    p.add_argument("--max-requests", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--check-schedules", action="store_true",
                   help="also replay and validate every completed schedule")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("sweep", parents=[common],
                       help="best known lower bound for each waiting parameter")
    p.add_argument("--grid", default="0:3:0.001", help="a:b:step (default 0:3:0.001)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("factor-reveal", parents=[common],
                       help="worst-case two-plan model of the waiting policy")
    p.add_argument("--alpha", type=float)
    p.add_argument("--grid", help="a:b:step for a table of values")
    p.set_defaults(func=_cmd_factor_reveal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args, parser)
    except BrokenPipeError:
        return 0
    except (CliError, EngineError, SearchCapExceeded, FactorRevealingError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
