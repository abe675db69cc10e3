"""Tolerance constants, and the two number rules every input check asks."""

import json
import math
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openride.engine import LazyPolicy
from openride.experiments import FuzzConfig, competitive_ratio, gen_halfline_lb, sweep_lower_bounds
from openride.factor_revealing import fr_closed_form, solve_fr
from openride.metric import line, matrix_space
from openride.model import make_instance
from openride.numeric import CHECK_TOL, TOLERANCE, is_int, real

from test_cli import run_guarded

HUGE = 10 ** 400  # an int beyond the float range


def test_default_tolerance():
    assert TOLERANCE == 1e-9
    assert CHECK_TOL == 1e-6


def test_is_int():
    assert is_int(0) and is_int(-3) and is_int(HUGE)
    assert not any(map(is_int, (True, False, 1.0, "1", None, Fraction(1), np.float64(1.0))))


def test_real():
    for v in (0, 2, -1.5, math.inf, math.nan, Fraction(1, 4), np.float64(0.5), np.int64(3)):
        got = real(v)
        assert type(got) is float and (got == float(v) or math.isnan(v))
    for v in (True, False, "1", None, [1.0], 1j):
        with pytest.raises(ValueError, match="^x is not a number$"):
            real(v, "x")
    for v in (HUGE, -HUGE, Fraction(HUGE, 3)):
        with pytest.raises(ValueError, match="^is beyond the float range$"):
            real(v)


# ---------------------------------------------------------------------------
# each parameter check asks real, so a bad value fails naming the parameter


def _raised(call):
    def probe(tmp_path):
        with pytest.raises(ValueError) as err:
            call()
        return str(err.value)
    return probe


def _cli_fuzz_huge_alpha(tmp_path):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps({"alpha": HUGE, "count": 1}))
    code, out, err = run_guarded("fuzz", "--algo", "lazy", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


ONE_REQUEST = make_instance(line(), 1, [(0.0, 1.0, 0.0)])
PROBES = {
    "cli-fuzz-config-alpha": _cli_fuzz_huge_alpha,
    "FuzzConfig-huge-alpha": _raised(lambda: FuzzConfig(alpha=HUGE)),
    "LazyPolicy-bool": _raised(lambda: LazyPolicy(True)),
    "LazyPolicy-huge": _raised(lambda: LazyPolicy(HUGE)),
    "competitive_ratio-huge-alpha": _raised(lambda: competitive_ratio(ONE_REQUEST, "lazy", HUGE)),
    "fr_closed_form-huge": _raised(lambda: fr_closed_form(HUGE)),
    "fr_closed_form-bool": _raised(lambda: fr_closed_form(True)),
    "solve_fr-bool": _raised(lambda: solve_fr(True)),
    "gen_halfline_lb-bool": _raised(lambda: gen_halfline_lb(True)),
    "sweep-nan": _raised(lambda: sweep_lower_bounds([math.nan])),
    "sweep-bool": _raised(lambda: sweep_lower_bounds([True])),
    "sweep-huge": _raised(lambda: sweep_lower_bounds([HUGE])),
}


@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
def test_bad_parameter_fails_naming_it(probe, tmp_path):
    message = probe(tmp_path)
    assert "alpha" in message and len(message) < 200 and "Traceback" not in message, message


def test_integer_parameters_run_and_are_kept():
    assert type(LazyPolicy(1).alpha) is int
    sol = solve_fr(1)
    assert type(sol.alpha) is int and sol.value == solve_fr(1.0).value
    assert gen_halfline_lb(1) == gen_halfline_lb(1.0)


# ---------------------------------------------------------------------------
# every scalar a library caller passes in runs or fails naming its field

SCALARS = st.one_of(
    st.booleans(),
    st.sampled_from((HUGE, -HUGE, math.nan, math.inf, -math.inf, None)),
    st.text(max_size=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-3, 12),
    st.floats(min_value=-20.0, max_value=20.0),
)
# what each call is fed, and a pattern its message must contain
SCALAR_INPUTS = {
    "release": (lambda v: make_instance(line(), 1, [(0.0, 1.0, v)]), r"requests\[0\]\.t"),
    "line coordinate": (lambda v: make_instance(line(), 1, [(v, 1.0, 0.0)]), r"requests\[0\]\.a"),
    "matrix entry": (lambda v: matrix_space([[0, v], [v, 0]]), r"d\[0\]\[1\]"),
    "capacity": (lambda v: make_instance(line(), v, [(0.0, 1.0, 0.0)]), "capacity"),
    **{f"FuzzConfig.{f.name}": (lambda v, name=f.name: FuzzConfig(**{name: v}), f.name)
       for f in fields(FuzzConfig)},
    "LazyPolicy alpha": (LazyPolicy, "alpha"),
    "fr_closed_form alpha": (fr_closed_form, "alpha"),
    "gen_halfline_lb alpha": (gen_halfline_lb, "alpha"),
    "gen_halfline_lb epsilon": (lambda v: gen_halfline_lb(1.2, v), "epsilon"),
    "sweep_lower_bounds entry": (lambda v: sweep_lower_bounds([v]), "alpha"),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SCALARS)
def test_scalar_inputs_run_or_fail_naming_their_field(value):
    for target, (call, field) in SCALAR_INPUTS.items():
        try:
            call(value)
        except ValueError as e:  # any other exception fails the test
            message = str(e)
            assert re.search(field, message) and len(message) < 200, (target, value, message)
