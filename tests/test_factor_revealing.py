"""Branch-and-check solver for the waiting-policy worst-case model."""

import math

import pytest

import openride.factor_revealing as factor_revealing

from openride.factor_revealing import (
    BIG_M,
    BINARIES,
    VARIABLES,
    FactorRevealingError,
    build_fr_milp,
    fr_closed_form,
    solve_fr,
)
from openride.experiments import OPTIMAL_ALPHA_HALF_LINE

from oracles import check_unlinearized, substitute, witness_solution

ALPHA_STAR = OPTIMAL_ALPHA_HALF_LINE


def test_model_shape():
    assert len(VARIABLES) == 10
    assert VARIABLES[0] == "prev_start" and VARIABLES[-1] == "pickup_gap"
    assert len(BINARIES) == 4
    milp = build_fr_milp(1.2)
    assert len(milp.names) == 21
    assert len(set(milp.names)) == 21
    assert milp.base.a_ub.shape == (21, 10)
    assert milp.relax.shape == (16, 21)
    # objective maximizes last start plus last length
    objective = milp.base.objective
    assert objective[VARIABLES.index("last_start")] == 1.0
    assert objective[VARIABLES.index("last_len")] == 1.0
    assert sum(objective) == 2.0


def test_model_domain():
    for alpha in (0.5, 0.99, 2.01, 3.0):
        with pytest.raises(ValueError):
            build_fr_milp(alpha)
    build_fr_milp(1.0)
    build_fr_milp(2.0)


def test_substitute_binaries_validation():
    milp = build_fr_milp(1.2)
    with pytest.raises(ValueError):
        substitute(milp, (0, 1, 1))
    with pytest.raises(ValueError):
        substitute(milp, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        substitute(milp, (0, 1, 0.5, 0))


def test_substitute_relaxes_rows_by_big_m():
    milp = build_fr_milp(1.2)
    names = milp.names
    i = names.index("gap-tight-signed")  # enabled when the first binary is 1
    enabled = substitute(milp, (1, 0, 0, 0))
    relaxed = substitute(milp, (0, 0, 0, 0))
    assert enabled.b_ub[i] == pytest.approx(0.0)
    assert relaxed.b_ub[i] == pytest.approx(BIG_M)
    # rows without big-M terms never move
    j = names.index("opt-normalized-upper")
    assert enabled.b_ub[j] == relaxed.b_ub[j] == 1.0


def test_closed_form():
    assert fr_closed_form(1.0) == pytest.approx(3.0)
    assert fr_closed_form(1.2) == pytest.approx(3.0 + 1.0 / 1.2 - 1.2)
    assert fr_closed_form(2.0) == pytest.approx(3.0)
    # the two arms cross exactly at (1 + sqrt(3)) / 2
    assert fr_closed_form(ALPHA_STAR) == pytest.approx(1.0 + ALPHA_STAR, abs=1e-12)
    with pytest.raises(ValueError):
        fr_closed_form(0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            fr_closed_form(bad)


def test_solve_at_crossover():
    sol = solve_fr(ALPHA_STAR)
    assert sol.value == pytest.approx((3.0 + math.sqrt(3.0)) / 2.0, abs=1e-9)
    assert sol.binaries == (0, 1, 1, 1)
    x_ref, b_ref = witness_solution(ALPHA_STAR)
    assert sol.binaries == b_ref
    for got, want in zip(sol.x, x_ref):
        assert got == pytest.approx(want, abs=1e-9)
    assert len(sol.branches) == 16
    infeasible = {br.binaries for br in sol.branches if br.status != "optimal"}
    assert infeasible == {
        (0, 0, 0, 1),
        (0, 1, 0, 1),
        (1, 0, 0, 1),
        (1, 0, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 1),
    }


def test_solve_matches_witness_below_crossover():
    for alpha in (1.0, 1.2, 1.3):
        sol = solve_fr(alpha)
        x_ref, b_ref = witness_solution(alpha)
        assert sol.binaries == b_ref
        for got, want in zip(sol.x, x_ref):
            assert got == pytest.approx(want, abs=1e-7)
        assert sol.value == pytest.approx(fr_closed_form(alpha), abs=1e-9)


def test_solve_above_crossover():
    for alpha in (1.37, 1.5, 1.8, 2.0):
        sol = solve_fr(alpha)
        assert sol.value == pytest.approx(1.0 + alpha, abs=1e-9)
        assert check_unlinearized(alpha, sol.x) == []


def test_every_feasible_branch_is_sound():
    for alpha in (1.1, 1.5):
        closed = fr_closed_form(alpha)
        for br in solve_fr(alpha).branches:
            if br.status != "optimal":
                continue
            assert br.value <= closed + 1e-7
            assert check_unlinearized(alpha, br.x) == []


def test_solve_deterministic():
    assert solve_fr(1.25) == solve_fr(1.25)


def test_small_big_m_detected(monkeypatch):
    monkeypatch.setattr(factor_revealing, "BIG_M", 2.0)
    with pytest.raises(FactorRevealingError, match="big-M too small"):
        solve_fr(1.2)


def test_witness_solution_domain():
    with pytest.raises(ValueError):
        witness_solution(0.9)
    with pytest.raises(ValueError):
        witness_solution(1.5)
    x, b = witness_solution(1.2)
    assert b == (0, 1, 1, 1)
    assert x[0] == 1.0 and x[1] == pytest.approx(2.2 / 1.2)


def test_check_unlinearized_accepts_witness():
    for alpha in (1.0, 1.2, ALPHA_STAR):
        x, _ = witness_solution(alpha)
        assert check_unlinearized(alpha, x) == []


def test_check_unlinearized_flags_perturbations():
    x, _ = witness_solution(1.2)
    longer = list(x)
    longer[VARIABLES.index("last_len")] += 0.1
    assert check_unlinearized(1.2, longer) == ["last-len-via-pickup"]
    shifted = list(x)
    shifted[VARIABLES.index("last_opt")] = 2.0
    assert "opt-normalized" in check_unlinearized(1.2, shifted)
    negative = list(x)
    negative[0] = -0.5
    assert "nonnegative" in check_unlinearized(1.2, negative)


def test_model_module_imports_no_simulation_layer():
    import ast
    from pathlib import Path

    import openride.factor_revealing as fr

    tree = ast.parse(Path(fr.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            imported.update(alias.name for alias in node.names)
    assert imported.isdisjoint({"engine", "offline", "experiments"}), imported
