"""Two-phase simplex solver."""

import itertools
import random

import numpy as np
import pytest

from openride import lp as lp_module
from openride.lp import LinearProgram, solve_lp, solve_lps

from oracles import solve_lp_naive


def _lp(c, a, b, lb=None, ub=None):
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    return LinearProgram(c, np.asarray(a, dtype=float), np.asarray(b, dtype=float), lb, ub)


def test_basic_2d():
    # max 3x + 2y s.t. x + y <= 4, x <= 2  ->  (2, 2), value 10
    sol = solve_lp(_lp([3, 2], [[1, 1], [1, 0]], [4, 2]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(10.0, abs=1e-9)
    assert np.allclose(sol.x, [2.0, 2.0], atol=1e-9)
    assert sol.active_rows == (0, 1)


def test_empty_program():
    sol = solve_lp(_lp([], np.zeros((0, 0)), []))
    assert sol.status == "optimal" and sol.value == 0.0 and sol.active_rows == ()
    # rows without variables decide alone, as they do with one zero column:
    # infeasible beyond 1e-7 of artificial mass, active where -b_ub >= -1e-7
    for b_ub, status, active in [([-2e-7], "infeasible", ()), ([-5e-8], "optimal", (0,)),
                                 ([0.0, 3.0, 5e-8], "optimal", (0, 2))]:
        empty = solve_lp(_lp([], np.zeros((len(b_ub), 0)), b_ub))
        zero_column = solve_lp(_lp([0.0], np.zeros((len(b_ub), 1)), b_ub))
        assert (empty.status, empty.active_rows) == (zero_column.status, zero_column.active_rows)
        assert (empty.status, empty.active_rows) == (status, active)
        if status == "optimal":
            assert empty.value == 0.0 and empty.x.shape == (0,)


def test_unbounded():
    sol = solve_lp(_lp([1, 0], [[-1, 1]], [1]))
    assert sol.status == "unbounded"
    assert sol.x is None and sol.value is None


def test_infeasible_simple():
    # x <= -1 with x >= 0: phase one must keep artificial mass
    sol = solve_lp(_lp([1], [[1]], [-1]))
    assert sol.status == "infeasible"
    assert sol.x is None and sol.value is None


def test_infeasible_pair():
    # x + y <= 1 and -x - y <= -3 cannot both hold
    sol = solve_lp(_lp([0, 0], [[1, 1], [-1, -1]], [1, -3]))
    assert sol.status == "infeasible"


def test_negative_rhs_feasible():
    # -x <= -2 forces x >= 2; maximize -x  ->  x = 2
    sol = solve_lp(_lp([-1], [[-1]], [-2]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.value == pytest.approx(-2.0, abs=1e-9)


def test_lower_bound_shift():
    # lb = (-5, 1); max x + y s.t. x + y <= 0 with y >= 1  ->  (-1, 1)
    sol = solve_lp(_lp([1, 1], [[1, 1]], [0], lb=[-5, 1], ub=[np.inf, np.inf]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    assert sol.x[1] >= 1.0 - 1e-9


def test_upper_bounds_become_rows():
    sol = solve_lp(_lp([1, 1], np.zeros((0, 2)), [], ub=[1.5, 2.5]))
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.5, 2.5], atol=1e-9)
    assert sol.active_rows == ()  # bound rows are not reported as active


def test_degenerate_redundant_rows():
    sol = solve_lp(_lp([1, 1], [[1, 1], [1, 0], [0, 1], [2, 2]], [2, 1, 1, 4]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(2.0, abs=1e-9)


def test_active_rows_only_original_indices():
    # one original row (tight) plus a finite upper bound (also tight)
    sol = solve_lp(_lp([1, 2], [[1, 1]], [3], ub=[np.inf, 1.0]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(sol.x, [2.0, 1.0], atol=1e-9)
    assert sol.active_rows == (0,)


def test_validation_errors():
    with pytest.raises(ValueError):
        _lp([1, 2], [[1]], [1])
    with pytest.raises(ValueError):
        LinearProgram(
            np.ones(1), np.ones((1, 1)), np.ones(1), np.array([-np.inf]), np.array([1.0])
        )
    with pytest.raises(ValueError):
        _lp([1], [[1]], [1], lb=[2.0], ub=[1.0])
    # every array has its expected number of dimensions, named when it does not
    with pytest.raises(ValueError, match="objective"):
        LinearProgram(np.ones((2, 2)), np.ones((1, 2)), np.ones(1), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="lb"):
        LinearProgram(np.ones(2), np.ones((1, 2)), np.ones(1), np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="objective"):
        LinearProgram(1.0, np.ones((1, 1)), np.ones(1), np.zeros(1), np.ones(1))


# ---------------------------------------------------------------------------
# randomized cross-check against brute-force vertex enumeration


def _oracle_best(c, a, b, box):
    """Maximize c @ x over {a x <= b, 0 <= x <= box} by trying every vertex."""
    n = c.shape[0]
    cons = [(a[i], b[i]) for i in range(a.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cons.append((e, box))
        cons.append((-e, 0.0))
    best = None
    for combo in itertools.combinations(range(len(cons)), n):
        m = np.array([cons[i][0] for i in combo])
        r = np.array([cons[i][1] for i in combo])
        try:
            x = np.linalg.solve(m, r)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if all(g @ x <= h + 1e-7 for g, h in cons):
            v = float(c @ x)
            if best is None or v > best:
                best = v
    return best


@pytest.mark.parametrize("n,m,seed", [(2, 3, 11), (3, 4, 23), (3, 6, 57)])
def test_random_lps_match_vertex_enumeration(n, m, seed):
    rng = random.Random(seed)
    box = 5.0
    for case in range(80):
        c = np.array([rng.randint(-5, 5) for _ in range(n)], dtype=float)
        a = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], dtype=float)
        x0 = np.array([rng.uniform(0, box) for _ in range(n)])
        b = a @ x0 + np.array([rng.uniform(-2, 4) for _ in range(m)])
        if case % 5 == 4:
            b = b - 20.0  # push some cases into infeasibility
        lp = _lp(c, a, b, ub=np.full(n, box))
        sol = solve_lp(lp)
        want = _oracle_best(c, a, b, box)
        if want is None:
            assert sol.status == "infeasible", f"case {case}: expected infeasible"
        else:
            assert sol.status == "optimal", f"case {case}: {sol.status}"
            assert sol.value == pytest.approx(want, abs=1e-6), f"case {case}"
            # reported point must itself be feasible
            assert np.all(a @ sol.x <= b + 1e-7)
            assert np.all(sol.x >= -1e-9) and np.all(sol.x <= box + 1e-9)


@pytest.mark.parametrize("field, value", [
    ("objective", np.nan), ("objective", np.inf),
    ("a_ub", np.nan), ("a_ub", -np.inf),
    ("b_ub", np.nan), ("b_ub", np.inf), ("b_ub", -np.inf),
    ("lb", np.nan), ("ub", np.nan),
    pytest.param("objective", [10 ** 400], id="objective-beyond-float"),
    pytest.param("a_ub", [["x"]], id="a_ub-string"),
    pytest.param("ub", [[1.0], [2.0, 3.0]], id="ub-ragged"),
    pytest.param("objective", ["1"], id="objective-string"),
    pytest.param("ub", ["inf"], id="ub-string"),
    pytest.param("a_ub", [[True]], id="a_ub-bool"),
    pytest.param("lb", [None], id="lb-none"),
    pytest.param("b_rows", [[True]], id="b_rows-bool"),
    pytest.param("b_rows", [[10 ** 400]], id="b_rows-beyond-float"),
    pytest.param("b_rows", [["x"]], id="b_rows-string"),
])
def test_non_finite_data_is_rejected(field, value):
    # a single inf would turn the rank-1 pivot's 0 * inf into NaN; a value
    # that is no number by numeric.real's rule (a string, a bool, None) is
    # named by its field too, and so is a bad batch of right-hand sides
    data = {"objective": [1.0], "a_ub": [[1.0]], "b_ub": [1.0], "lb": [0.0], "ub": [np.inf]}
    if field == "b_rows":
        with pytest.raises(ValueError, match=field):
            solve_lps(LinearProgram(**data), value)
        return
    data[field] = value if isinstance(value, list) else np.full(np.shape(data[field]), value)
    with pytest.raises(ValueError, match=field):
        LinearProgram(**data)


# ---------------------------------------------------------------------------
# the array pivots against a reference that pivots row by row


def _exact(sol):
    x = None if sol.x is None else sol.x.tolist()
    return sol.status, sol.iterations, repr(sol.value), repr(x), sol.active_rows


def test_array_pivots_equal_the_row_loops():
    rng = np.random.default_rng(7)
    programs = []
    for case in range(1500):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        if case % 3 == 0:
            a, b = rng.normal(size=(m, n)), rng.normal(size=m)
        else:  # small integers: ties in the ratio test, zero-level artificials
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = rng.integers(-2, 3, size=m).astype(float)
            if m > 1 and case % 2:
                a[1], b[1] = -a[0], -b[0]
        c = rng.integers(-3, 4, size=n).astype(float)
        lb = np.where(rng.random(n) < 0.3, -1.0, 0.0)
        ub = np.where(rng.random(n) < 0.5, lb + rng.integers(0, 4, size=n), np.inf)
        programs.append(_lp(c, a, b, lb, ub))
    got = [_exact(solve_lp(p)) for p in programs]
    assert got == [_exact(solve_lp_naive(p)) for p in programs]
    assert {g[0] for g in got} == {"optimal", "infeasible", "unbounded"}


# ---------------------------------------------------------------------------
# one program solved once per right-hand side by solve_lps


def _random_base(rng, case):
    """A seeded program with a nonzero lb, infinite ub entries and sometimes no rows."""
    n = int(rng.integers(1, 6))
    m = 0 if case % 7 == 0 else int(rng.integers(1, 8))
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    if case % 3 == 0:
        a = rng.normal(size=(m, n))
    c = rng.integers(-3, 4, size=n).astype(float)
    lb = np.where(rng.random(n) < 0.4, rng.integers(-3, 2, size=n), 0).astype(float)
    ub = np.where(rng.random(n) < 0.5, lb + rng.integers(0, 4, size=n), np.inf)
    return c, a, lb, ub


def _random_batches(rng, cases):
    """(program, batch of b_ub rows) pairs; the rows mix signs, so artificial counts differ."""
    for case in range(cases):
        c, a, lb, ub = _random_base(rng, case)
        m = a.shape[0]
        base = LinearProgram(c, a, rng.integers(-2, 3, size=m).astype(float), lb, ub)
        rows = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), m)).astype(float)
        if case % 2:
            rows += rng.normal(size=rows.shape)
        yield base, rows


def test_solve_lps_equals_fresh_programs_bit_for_bit():
    rng = np.random.default_rng(19)
    seen = {"lb": False, "inf_ub": False, "no_rows": False, "mixed_artificials": False}
    got, fresh, want, statuses = [], [], [], set()
    for base, rows in _random_batches(rng, 300):
        c, a, lb, ub = base.objective, base.a_ub, base.lb, base.ub
        seen["lb"] |= bool((lb != 0).any())
        seen["inf_ub"] |= bool(np.isinf(ub).any())
        seen["no_rows"] |= a.shape[0] == 0
        # bound rows have ub - lb >= 0, so only the b_ub rows take artificials
        seen["mixed_artificials"] |= len(set(((rows - a @ lb) < 0).sum(axis=1).tolist())) > 1
        batch = [_exact(s) for s in solve_lps(base, rows)]
        assert len(batch) == len(rows)
        got += batch
        fresh += [_exact(solve_lp(LinearProgram(c, a, b, lb, ub))) for b in rows]
        want += [_exact(solve_lp_naive(base, b)) for b in rows]
        statuses |= {s[0] for s in batch}
    assert got == fresh == want
    assert all(seen.values()), seen
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_shared_tableaus_split_as_the_reference_does(monkeypatch):
    # rows near one base b_ub share their first pivots; each result must
    # still be the reference's, bit for bit and in input order
    pivots = []
    pivot = lp_module._pivot

    def counted(*args):
        pivots.append(None)
        pivot(*args)

    monkeypatch.setattr(lp_module, "_pivot", counted)
    rng = np.random.default_rng(29)
    seen = dict.fromkeys(("shared_then_split", "ends_while_others_go_on", "several_groups",
                          "numerical_beside_optimal"), False)
    cases = []
    for case in range(400):
        c, a, lb, ub = _random_base(rng, case)
        b = rng.integers(-1, 4, size=a.shape[0]).astype(float)
        rows = np.tile(b, (int(rng.integers(2, 7)), 1))
        moved = rng.random(rows.shape) < 0.3
        rows[moved] += rng.integers(-2, 3, size=int(moved.sum()))
        cases.append((LinearProgram(c, a, b, lb, ub), rows))
    for limit in (lp_module._MAX_PIVOTS, 1):
        # the limit counts each phase's pivots, in the reference as in the batch
        monkeypatch.setattr(lp_module, "_MAX_PIVOTS", limit)
        for base, rows in cases:
            pivots.clear()
            got = solve_lps(base, rows)
            assert [_exact(s) for s in got] == [_exact(solve_lp_naive(base, b)) for b in rows]
            groups = {}
            for j, negated in enumerate(rows - base.a_ub @ base.lb < 0):
                groups.setdefault(negated.tobytes(), []).append(j)
            seen["several_groups"] |= len(groups) > 1
            runs = [s.iterations for s in got]
            if len(groups) == 1:
                # fewer pivots than the paths take, more than the longest one
                seen["shared_then_split"] |= max(runs) < len(pivots) < sum(runs)
            for cols in groups.values():
                ends = {got[j].status for j in cols}
                stopped = ends & {"infeasible", "unbounded"}
                seen["ends_while_others_go_on"] |= "optimal" in ends and bool(stopped)
            ends = {s.status for s in got}
            seen["numerical_beside_optimal"] |= {"numerical", "optimal"} <= ends
    assert all(seen.values()), seen
    base = cases[1][0]
    assert solve_lps(base, np.zeros((0, base.a_ub.shape[0]))) == []


@pytest.mark.parametrize("b_ub", [
    [[1.0]], [[1.0, 2.0, 3.0]], [1.0, 2.0],
    [[1.0, 1.0], [np.nan, 1.0]], [[1.0, 1.0], [1.0, np.inf]], [[-np.inf, 0.0]],
    [[[1.0, 2.0]]], np.array(1.0),
])
def test_solve_lps_checks_its_b_ub(b_ub):
    # the batch is (rows, 2): a short or long row, a lone vector, one
    # non-finite entry, an extra dimension or a scalar fails the whole batch
    base = _lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="b_ub"):
        solve_lps(base, b_ub)


def test_programs_keep_their_own_read_only_data():
    data = {"objective": np.array([1.0, 1.0]), "a_ub": np.array([[1.0, 2.0], [3.0, 1.0]]),
            "b_ub": np.array([4.0, 6.0]), "lb": np.zeros(2), "ub": np.array([np.inf, 1.5])}
    lp = LinearProgram(**data)
    rows = np.array([[2.0, 3.0], [-1.0, 6.0], [4.0, -2.0]])
    sols = solve_lp(lp), *solve_lps(lp, rows)
    want = [_exact(s) for s in sols]
    for arr in (*data.values(), rows):
        arr[...] = np.nan  # the caller's arrays, not the program's or the batch's
    assert [_exact(s) for s in sols] == want
    assert [_exact(solve_lp(lp))] + [_exact(s) for s in solve_lps(lp, [[2.0, 3.0]])] == want[:2]
    assert [s[0] for s in want] == ["optimal", "optimal", "infeasible", "infeasible"]
    for name in ("objective", "a_ub", "b_ub", "lb", "ub"):
        with pytest.raises(ValueError):
            getattr(lp, name)[0] = 0.0


def test_programs_and_solutions_compare_by_identity():
    lp = _lp([1.0, 1.0], [[1.0, 2.0]], [4.0])
    twin = _lp([1.0, 1.0], [[1.0, 2.0]], [4.0])
    sol, again = solve_lp(lp), solve_lp(lp)
    assert lp == lp and lp != twin and sol == sol and sol != again
    assert len({lp, twin, sol, again}) == 4
