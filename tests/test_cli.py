"""Command-line interface: output shapes, determinism, exit codes."""

import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import openride
from openride.cli import main

from test_properties import FIELD, documents


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def lb_instance(tmp_path, capsys):
    """The four-request half-line file for alpha = 1.2, epsilon = 0.01."""
    code, out, _ = run(
        capsys, "lower-bound", "--alpha", "1.2", "--epsilon", "0.01", "--emit-instance"
    )
    assert code == 0
    path = tmp_path / "inst.json"
    path.write_text(out)
    return str(path)


def test_lower_bound_emit_instance_shape(lb_instance):
    obj = json.loads(Path(lb_instance).read_text())
    assert obj["metric"] == {"type": "halfline"}
    assert obj["capacity"] == 1
    assert len(obj["requests"]) == 4
    assert obj["requests"][-1] == {"a": 2.8, "b": 2.8, "t": 4.8}


def test_lower_bound_report(capsys):
    code, out, _ = run(capsys, "lower-bound", "--alpha", "1.2", "--epsilon", "0.01")
    assert code == 0
    obj = json.loads(out)
    assert obj["ratio"] == pytest.approx(2.4075)
    assert obj["predicted"] == pytest.approx(2.4075)
    assert obj["alpha"] == 1.2 and obj["epsilon"] == 0.01


def test_lower_bound_domain_error(capsys):
    code, out, err = run(capsys, "lower-bound", "--alpha", "1.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_emitted_instance_has_no_csv_form(capsys):
    code, out, err = run(capsys, "lower-bound", "--alpha", "1.2", "--emit-instance",
                         "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "no CSV form" in err


def test_ratio_json(capsys, lb_instance):
    code, out, _ = run(
        capsys, "ratio", "--instance", lb_instance, "--algo", "lazy", "--alpha", "1.2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "algo": "lazy",
        "alpha": 1.2,
        "completion": 11.556,
        "opt": 4.8,
        "ratio": 2.4075,
    }


def test_ratio_csv(capsys, lb_instance):
    code, out, _ = run(
        capsys,
        "ratio", "--instance", lb_instance, "--algo", "lazy", "--alpha", "1.2",
        "--format", "csv", "--precision", "3",
    )
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "algo,alpha,completion,opt,ratio"
    assert lines[1] == "lazy,1.2,11.556,4.8,2.408"
    assert lines[2] == ""


def test_simulate_json_and_csv(capsys, lb_instance):
    code, out, _ = run(
        capsys, "simulate", "--instance", lb_instance, "--algo", "lazy", "--alpha", "1.2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["algo"] == "lazy" and obj["alpha"] == 1.2
    assert obj["completion"] == pytest.approx(11.556)
    assert len(obj["schedules"]) == 2
    assert obj["schedules"][0]["t"] == pytest.approx(4.776)
    assert any(ev["kind"] == "arrival" for ev in obj["events"])

    code, out, _ = run(
        capsys,
        "simulate", "--instance", lb_instance, "--algo", "lazy", "--alpha", "1.2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,start,length,interrupted,requests"
    assert lines[1] == "1,4.776,3.98,False,3"
    assert lines[2] == "2,8.756,2.8,False,1"


def test_simulate_reads_stdin(capsys, monkeypatch, lb_instance):
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(lb_instance).read_text()))
    code, out, _ = run(
        capsys, "simulate", "--instance", "-", "--algo", "replan"
    )
    assert code == 0
    assert json.loads(out)["algo"] == "replan"


def test_opt_value_and_cutoff(capsys, lb_instance):
    code, out, _ = run(capsys, "opt", "--instance", lb_instance)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(4.8)
    assert obj["schedule"]["start"] == 0.0
    assert obj["schedule"]["actions"][0][0] == "load"

    code, out, _ = run(capsys, "opt", "--instance", lb_instance, "--upto", "0")
    assert json.loads(out)["value"] == pytest.approx(3.98)

    code, out, _ = run(capsys, "opt", "--instance", lb_instance, "--format", "csv")
    assert out.split("\n")[0] == "value,actions"


def test_missing_instance_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--algo", "lazy", "--alpha", "1.2"])
    assert ei.value.code == 2


def test_lazy_without_alpha_is_usage_error(capsys, lb_instance):
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--instance", lb_instance, "--algo", "lazy"])
    assert ei.value.code == 2


def test_unreadable_instance(capsys):
    code, out, err = run(
        capsys, "ratio", "--instance", "/no/such/file.json", "--algo", "ignore"
    )
    assert code == 1
    assert err.startswith("error: cannot read instance")


def test_invalid_instance_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "opt", "--instance", str(bad))
    assert code == 1
    assert "invalid JSON" in err


def test_sweep_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--grid", "1:2:0.5")
    assert code == 0
    rows = json.loads(out)
    assert [r["alpha"] for r in rows] == [1.0, 1.5, 2.0]
    assert rows[0]["bound"] == pytest.approx(2.5)
    assert rows[0]["source"] == "2+1/(2*alpha)"
    assert rows[2]["source"] == "1+alpha"


def test_sweep_csv_stable(capsys):
    _, first, _ = run(capsys, "sweep", "--grid", "0:1:0.25", "--format", "csv")
    _, second, _ = run(capsys, "sweep", "--grid", "0:1:0.25", "--format", "csv")
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "alpha,bound,source"
    assert len(lines) == 6  # header plus five grid points


def test_bad_grid(capsys):
    for grid in ("2:1:0.1", "1:2:-0.5", "nonsense"):
        code, _, err = run(capsys, "sweep", "--grid", grid)
        assert code == 1
        assert err.startswith("error:")


def test_factor_reveal_single(capsys):
    code, out, _ = run(capsys, "factor-reveal", "--alpha", "1.3660254")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 2.366025
    assert obj["closed_form"] == 2.366025
    assert obj["binaries"] == "0111"
    assert obj["assignment"] == [
        1.0, 1.732051, 0.732051, 0.633975, 0.732051, 1.0, 0.0, 0.633975, 0.0, 0.633975,
    ]
    _, again, _ = run(capsys, "factor-reveal", "--alpha", "1.3660254")
    assert again == out


def test_factor_reveal_precision(capsys):
    code, out, _ = run(capsys, "factor-reveal", "--alpha", "1.3660254", "--precision", "2")
    assert code == 0
    assert json.loads(out)["value"] == 2.37


def test_factor_reveal_grid_csv(capsys):
    code, out, _ = run(
        capsys, "factor-reveal", "--grid", "1.3:1.5:0.1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,value,closed_form,binaries"
    assert len(lines) == 4
    assert lines[1].startswith("1.3,") and lines[1].endswith(",0111")


def test_factor_reveal_alpha_xor_grid(capsys):
    for argv in (
        ["factor-reveal"],
        ["factor-reveal", "--alpha", "1.2", "--grid", "1:2:0.5"],
    ):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        capsys.readouterr()


def test_fuzz_small_run(capsys):
    code, out, _ = run(
        capsys,
        "fuzz", "--algo", "lazy", "--alpha", "1.3", "--count", "20", "--seed", "3",
        "--check-schedules",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 20 and obj["seed"] == 3
    assert obj["violations"] == 0
    assert obj["worst"] >= 1.0
    assert "worst_instance" in obj


def test_fuzz_config_file_with_flag_override(capsys, tmp_path):
    cfgfile = tmp_path / "fuzz.json"
    cfgfile.write_text(json.dumps({
        "count": 10,
        "seed": 1,
        "spaces": ["halfline"],
        "capacities": ["inf", 1],
    }))
    code, out, _ = run(
        capsys, "fuzz", "--algo", "ignore", "--config", str(cfgfile), "--seed", "5"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 10
    assert obj["seed"] == 5  # the flag wins over the file
    assert obj["worst_instance"]["metric"]["type"] == "halfline"


def test_fuzz_bad_config_key(capsys, tmp_path):
    cfgfile = tmp_path / "fuzz.json"
    cfgfile.write_text(json.dumps({"countt": 10}))
    code, _, err = run(capsys, "fuzz", "--algo", "ignore", "--config", str(cfgfile))
    assert code == 1
    assert "bad fuzz config" in err


def test_fuzz_config_has_no_generator_knobs(capsys, tmp_path):
    # the coordinate span, release horizon and same-point chance are constants
    cfgfile = tmp_path / "fuzz.json"
    cfgfile.write_text(json.dumps({"span": 5.0}))
    code, _, err = run(capsys, "fuzz", "--algo", "ignore", "--count", "1", "--config", str(cfgfile))
    assert code == 1
    assert "bad fuzz config" in err and "span" in err


def test_fuzz_lazy_needs_alpha(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["fuzz", "--algo", "lazy", "--count", "5"])
    assert ei.value.code == 2


def test_empty_fuzz_run_has_no_worst(capsys):
    code, out, _ = run(capsys, "fuzz", "--algo", "ignore", "--count", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 0 and obj["worst"] is None
    assert "worst_instance" not in obj


def test_empty_fuzz_run_csv_has_empty_worst(capsys):
    code, out, _ = run(capsys, "fuzz", "--algo", "ignore", "--count", "0", "--format", "csv")
    assert code == 0
    assert out == ("algo,alpha,count,seed,worst,worst_index,mean,violations\n"
                   "ignore,,0,0,,-1,0.0,0\n")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_guarded(*argv, stdin=""):
    """Run the CLI in a child process with a time and memory limit.

    A hang or runaway allocation then fails the test instead of stalling
    the suite.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(openride.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "openride.cli", *argv], input=stdin,
                          capture_output=True, text=True, timeout=30, env=env,
                          preexec_fn=_limit_memory)
    return proc.returncode, proc.stdout, proc.stderr


@settings(derandomize=True, max_examples=8, deadline=None)
@given(documents())
def test_bad_documents_run_or_fail_naming_a_field(doc):
    code, out, err = run_guarded("ratio", "--algo", "replan", "--instance", "-",
                                 stdin=json.dumps(doc))
    assert "Traceback" not in err
    if code != 0:
        assert code == 1 and out == "", (code, err)
        where = re.search(r"\(at (\S+)\)$", err.rstrip())
        assert where is not None, err
        assert FIELD.fullmatch(where[1]) or (where[1] == "$" and not isinstance(doc, dict)), err


def _line_instance(a="0", t="0"):
    return ('{"metric": {"type": "line"}, "capacity": 1, '
            f'"requests": [{{"a": {a}, "b": 1, "t": {t}}}]}}')


NAN_MATRIX = ('{"metric": {"type": "matrix", "d": [[0, NaN], [NaN, 0]]}, "capacity": 1, '
              '"requests": [{"a": 0, "b": 1, "t": 0}]}')


@pytest.mark.parametrize("argv, stdin, field", [
    (("opt",), _line_instance(t="NaN"), "requests[0].t"),
    (("simulate", "--algo", "ignore"), _line_instance(t="NaN"), "requests[0].t"),
    (("opt",), _line_instance(t="true"), "requests[0].t"),
    (("opt",), _line_instance(a="Infinity"), "requests[0].a"),
    (("opt",), NAN_MATRIX, "metric.d"),
], ids=["opt-nan-release", "simulate-nan-release", "bool-release", "inf-coordinate",
        "nan-matrix-entry"])
def test_non_finite_instance_fails_fast(argv, stdin, field):
    code, out, err = run_guarded(*argv, "--instance", "-", stdin=stdin)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("argv", [("opt",), ("ratio", "--algo", "replan"),
                                  ("simulate", "--algo", "lazy", "--alpha", "1.5")],
                         ids=["opt", "ratio", "simulate"])
@pytest.mark.parametrize("stdin, field", [
    (_line_instance(a="1.7e308"), "requests[0].a"),
    (_line_instance(a="1e308").replace('"b": 1', '"b": -1e308'), "requests[0].a"),
    (_line_instance(a="1e308").replace("line", "halfline"), "requests[0].a"),
    (NAN_MATRIX.replace("NaN", "1e308"), "metric.d"),
    (_line_instance(a="1e307", t="1.7e308"), "requests[0].t"),
], ids=["line", "line-both-ends", "half-line", "matrix", "release"])
def test_overflowing_instance_fails_fast(argv, stdin, field):
    # travel times past the float range used to reach the search as inf
    code, out, err = run_guarded(*argv, "--instance", "-", stdin=stdin)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err and "overflows" in err


LATE_RELEASE = '{"metric":{"type":"line"},"capacity":1,"requests":[{"a":1,"b":2,"t":1e308}]}'


@pytest.mark.parametrize("command", ["ratio", "simulate"])
@pytest.mark.parametrize("stdin, alpha", [(LATE_RELEASE, "2"), (_line_instance(t="1"), "1e308")],
                         ids=["late-release", "huge-alpha"])
def test_overflowing_waiting_target_fails_fast(command, stdin, alpha):
    # alpha times OPT(t) past the float range would reach the JSON encoder as inf
    code, out, err = run_guarded(command, "--instance", "-", "--algo", "lazy", "--alpha", alpha,
                                 stdin=stdin)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "alpha" in err and "overflows" in err


def test_late_release_runs_without_the_waiting_rule():
    code, out, _ = run_guarded("opt", "--instance", "-", stdin=LATE_RELEASE)
    assert code == 0 and json.loads(out)["value"] == 1e308
    code, out, _ = run_guarded("ratio", "--instance", "-", "--algo", "replan", stdin=LATE_RELEASE)
    assert code == 0
    assert out == ('{"algo":"replan","alpha":null,"completion":1e+308,"opt":1e+308,'
                   '"ratio":1.0}\n')


@pytest.mark.parametrize("tol", ["0", "nan", "1e-6"])
def test_bad_tolerance_fails_fast(tol):
    # the tolerance is a constant; the flag is gone, whatever its value
    code, out, err = run_guarded("opt", "--instance", "-", "--tolerance", tol,
                                 stdin=_line_instance())
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --tolerance" in err


EMPTY_MATRIX = '{"metric": {"type": "matrix", "d": []}, "capacity": 1, "requests": []}'


@pytest.mark.parametrize("argv", [
    ("opt",),
    ("simulate", "--algo", "ignore"),
    ("ratio", "--algo", "lazy", "--alpha", "1.5"),
], ids=["opt", "simulate", "ratio"])
def test_empty_matrix_fails_fast(argv):
    # a matrix with no nodes has no origin
    code, out, err = run_guarded(*argv, "--instance", "-", stdin=EMPTY_MATRIX)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "metric.d" in err and "shape" in err


@pytest.mark.parametrize("digits", ["-3", "-1", "1.5", "x"])
def test_bad_precision_is_a_usage_error(digits):
    code, out, err = run_guarded("opt", "--instance", "-", "--precision", digits,
                                 stdin=_line_instance())
    assert code == 2
    assert out == ""
    assert "--precision" in err


def test_zero_precision_rounds_to_integers(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(_line_instance()))
    code, out, _ = run(capsys, "opt", "--instance", "-", "--precision", "0")
    assert code == 0
    assert json.loads(out)["value"] == 1.0


@pytest.mark.parametrize("argv, field", [
    (("ratio", "--algo", "lazy", "--alpha", "nan"), "--alpha"),
    (("ratio", "--algo", "replan", "--alpha", "inf"), "--alpha"),
    (("simulate", "--algo", "lazy", "--alpha=-inf"), "--alpha"),
    (("opt", "--upto", "nan"), "--upto"),
], ids=["alpha-nan", "alpha-inf", "alpha-minus-inf", "upto-nan"])
def test_non_finite_option_fails_fast(argv, field):
    code, out, err = run_guarded(*argv, "--instance", "-", stdin=_line_instance())
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("stdin, field", [
    (_line_instance(a=HUGE), "requests[0].a"),
    (_line_instance().replace('"b": 1', f'"b": {HUGE}'), "requests[0].b"),
    (_line_instance(t=HUGE), "requests[0].t"),
    (NAN_MATRIX.replace("NaN", HUGE), "metric.d[0][1]"),
], ids=["a", "b", "t", "matrix-entry"])
def test_integer_beyond_float_range_fails_fast(stdin, field):
    code, out, err = run_guarded("opt", "--instance", "-", stdin=stdin)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err


def test_huge_matrix_point_message_is_short():
    # the point's repr is cut, the field still named
    stdin = NAN_MATRIX.replace("NaN", "1").replace('"b": 1', f'"b": -{HUGE}')
    code, out, err = run_guarded("opt", "--instance", "-", stdin=stdin)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "requests[0].b" in err and len(err) < 200


@pytest.mark.parametrize("argv", [
    ("sweep", "--grid", "0:1e9:1e-9"),
    ("sweep", "--grid", "0:1:1e-320"),
    ("sweep", "--grid", "0:inf:1"),
    ("factor-reveal", "--grid", "1:2:nan"),
    ("factor-reveal", "--grid", "1.5:2.5:0.5"),
    ("factor-reveal", "--grid", "0.5:1:0.5"),
    ("sweep", "--grid=-1:0:1"),
], ids=["too-many-points", "subnormal-step", "infinite-end", "nan-step", "above-the-model",
        "below-the-model", "negative-alpha"])
def test_oversized_or_non_finite_grid_fails_fast(argv):
    code, out, err = run_guarded(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad --grid")


def test_sweep_grid_at_the_cap(capsys):
    from openride.cli import MAX_GRID_POINTS
    code, out, _ = run(capsys, "sweep", "--grid", f"0:{MAX_GRID_POINTS - 1}:1", "--format", "csv")
    assert code == 0
    assert len(out.strip().split("\n")) == MAX_GRID_POINTS + 1


@pytest.mark.parametrize("config, argv, field", [
    ('{"alpha": NaN}', (), "alpha"),
    ('{"alpha": Infinity}', (), "alpha"),
    ('{"count": true}', (), "count"),
    ('{"max_requests": false}', (), "max_requests"),
    ('{"max_requests": 11}', (), "max_requests"),
    ('{"matrix_nodes": [2, 65], "spaces": ["matrix"]}', ("--count", "1"), "matrix_nodes"),
    ('{"spaces": ["line", "moon"]}', (), "spaces"),
    ('{"spaces": "line"}', (), "spaces"),
    ('{"capacities": [0]}', (), "capacities"),
    ('{"workers": 65}', ("--count", "1"), "workers"),
    (None, ("--count", "-1"), "count"),
    (None, ("--count", "1", "--workers", "65"), "workers"),
    (None, ("--count", "40", "--seed", "1", "--max-requests", "12"), "max_requests"),
    (None, ("--count", "1", "--max-requests", "20000000"), "max_requests"),
    ('[1, 2]', (), "fuzz config"),
    ('{"count": ', (), "fuzz config"),
    (None, ("--alpha=-1", "--count", "2"), "alpha"),
    ('{"alpha": -0.5}', ("--count", "2"), "alpha"),
    (None, ("--count", "1", "--capacities", "x"), "--capacities"),
    (None, ("--count", "3", "--spaces", ""), "spaces"),
    (None, ("--count", "3", "--capacities", ""), "--capacities"),
], ids=["alpha-nan", "alpha-inf", "bool-count", "bool-max-requests", "max-requests-over-cap",
        "matrix-nodes-over-bound", "unknown-space", "spaces-not-a-list", "zero-capacity",
        "workers-over-cap", "negative-count-flag", "workers-over-cap-flag",
        "max-requests-over-cap-flag", "huge-max-requests-flag", "not-an-object", "bad-json",
        "negative-alpha-flag", "negative-alpha", "bad-capacities-flag", "empty-spaces-flag",
        "empty-capacities-flag"])
def test_bad_fuzz_config_fails_fast(tmp_path, config, argv, field):
    # the config is checked before any instance runs or any worker starts
    args = ["fuzz", "--algo", "replan", *argv]
    if config is not None:
        path = tmp_path / "fuzz.json"
        path.write_text(config)
        args += ["--config", str(path)]
    code, out, err = run_guarded(*args)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err
