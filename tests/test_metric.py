"""Metric space kinds, distances, and matrix validation."""

import random

import pytest

from openride import metric
from openride.metric import (
    HALF_LINE,
    LINE,
    MATRIX,
    InvalidPointError,
    MetricSpace,
    half_line,
    line,
    matrix_space,
)
from openride.model import SemanticError, instance_from_dict, make_instance
from openride.numeric import TOLERANCE

from oracles import triangle_fault_naive


def test_kind_constructors():
    assert line().kind == LINE
    assert half_line().kind == HALF_LINE
    m = matrix_space([[0, 1], [1, 0]])
    assert m.kind == MATRIX
    assert m.size == 2
    assert line().size is None


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        MetricSpace("plane")


def test_matrix_entries_required_exactly_for_matrix():
    with pytest.raises(ValueError):
        MetricSpace(MATRIX)
    with pytest.raises(ValueError):
        MetricSpace(LINE, matrix=((0.0,),))


def test_origin_types():
    assert line().origin == 0.0
    assert isinstance(line().origin, float)
    o = matrix_space([[0, 2], [2, 0]]).origin
    assert o == 0
    assert isinstance(o, int)


def test_line_distance():
    sp = line()
    assert sp.distance(-2.0, 3.0) == 5.0
    assert sp.distance(1.5, 1.5) == 0.0
    assert sp.is_point(-10.0)


def test_halfline_points():
    sp = half_line()
    assert sp.is_point(0.0)
    assert sp.is_point(TOLERANCE / 2 * -1)  # within tolerance of 0
    assert not sp.is_point(-1.0)
    with pytest.raises(InvalidPointError):
        sp.distance(-1.0, 2.0)
    assert sp.distance(0.5, 4.0) == 3.5


def test_matrix_distance_and_points():
    sp = matrix_space([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
    assert sp.distance(0, 1) == 3.0
    assert sp.distance(2, 1) == 2.0
    assert not sp.is_point(3)
    assert not sp.is_point(-1)
    assert not sp.is_point(True)  # bools are not node indices
    assert not sp.is_point(1.0)
    with pytest.raises(InvalidPointError):
        sp.distance(0, 3)


@pytest.mark.parametrize("space, points", [
    (line(), [-0.0, 0, 0.0, 3, -2.5, 0.1, 1e-300, -7, 2.0 ** 60 + 1]),
    (half_line(), [-0.0, 0, 0.0, 0.5, 7, 1e-9, 0.1 + 0.2, -TOLERANCE / 2]),
    (matrix_space([[-0.0, 3, 0.5], [3, 0, 2.5], [0.5, 2.5, 0.0]]), [0, 1, 2, 2, 0]),
], ids=["line", "half-line", "matrix"])
def test_table_equals_raw_distance_bit_for_bit(space, points):
    want = [[space.raw_distance(x, y).hex() for y in points] for x in points]
    got = space.table(points, points)
    assert [[type(v) for v in row] for row in got] == [[float] * len(points)] * len(points)
    assert [[v.hex() for v in row] for row in got] == want
    assert space.table(points[:2], points[1:]) == [row[1:] for row in got[:2]]
    assert space.table([], points) == [] and space.table(points, []) == [[]] * len(points)


def test_same_point():
    assert line().same_point(1.0, 1.0 + TOLERANCE / 2)
    assert not line().same_point(1.0, 1.0 + 1e-6)
    sp = matrix_space([[0, 1], [1, 0]])
    assert sp.same_point(1, 1)
    assert not sp.same_point(0, 1)


def _assert_invalid(build, reason: str, entry: str):
    """Building the space raises the error an instance raises, naming reason and entry."""
    with pytest.raises(SemanticError, match=f"invalid distance matrix: {reason}: ") as err:
        build()
    assert err.value.where == "metric.d"
    assert entry in str(err.value), str(err.value)


def test_validate_line_kinds_always_pass():
    assert MetricSpace(LINE) == line()
    assert MetricSpace(HALF_LINE) == half_line()


def test_validate_ok_matrix():
    assert matrix_space([[0, 3, 1], [3, 0, 2], [1, 2, 0]]).size == 3
    # entries are stored as a tuple of float tuples, however they were given
    direct = MetricSpace(MATRIX, [[0, 2], [2, 0]])
    assert direct.matrix == ((0.0, 2.0), (2.0, 0.0)) and isinstance(direct.matrix[0][1], float)
    assert direct == matrix_space(((0.0, 2.0), (2.0, 0.0)))


def test_validate_shape():
    _assert_invalid(lambda: MetricSpace(MATRIX, ((0.0, 1.0), (1.0,))), "shape", "row 1 has length 1")
    _assert_invalid(lambda: matrix_space([[0, 1], 5]), "shape", "row 1 = 5 is not a sequence")


def test_validate_empty_matrix_has_no_origin():
    _assert_invalid(lambda: matrix_space([]), "shape", "the matrix has no nodes")


def test_empty_matrix_instance_is_rejected():
    with pytest.raises(SemanticError) as err:
        instance_from_dict({"metric": {"type": "matrix", "d": []}, "capacity": 1, "requests": []})
    assert err.value.where == "metric.d"


def test_validate_finite():
    _assert_invalid(lambda: matrix_space([[0, float("nan")], [float("nan"), 0]]), "finite", "d[0][1] = nan")
    _assert_invalid(lambda: matrix_space([[float("inf"), 1], [1, 0]]), "finite", "d[0][0] = inf")
    # an entry that is not a real number, or does not fit a float, is named briefly
    for v, entry in [("x", "d[0][1] = 'x' is not a number"), (None, "d[0][1] = None is not a number"),
                     (True, "d[0][1] = True is not a number"), ("1", "d[0][1] = '1' is not a number"),
                     (10 ** 400, "d[0][1] = 1000000000000000000000000000000000000000... (401 characters) "
                                 "is beyond the float range")]:
        _assert_invalid(lambda: matrix_space([[0, v], [v, 0]]), "finite", entry)
    # a space built directly checks its entries the same way
    _assert_invalid(lambda: MetricSpace(MATRIX, ((0.0, "x"), ("x", 0.0))), "finite", "d[0][1] = 'x' is not a number")
    _assert_invalid(lambda: MetricSpace(MATRIX, ((0.0, 10 ** 400), (10 ** 400, 0.0))), "finite",
                    "(401 characters) is beyond the float range")
    assert not line().is_point(float("inf")) and not half_line().is_point(float("nan"))


def test_validate_diagonal():
    _assert_invalid(lambda: matrix_space([[0, 1], [1, 0.5]]), "diagonal", "d[1][1] = 0.5")


def test_validate_symmetry():
    _assert_invalid(lambda: matrix_space([[0, 1], [2, 0]]), "symmetry", "d[0][1] = 1.0 but d[1][0] = 2.0")


def test_validate_negative():
    _assert_invalid(lambda: matrix_space([[0, -1], [-1, 0]]), "negative", "d[0][1] = -1.0")


def test_validate_triangle():
    # d[0][1] = 10 > d[0][2] + d[2][1] = 4
    _assert_invalid(lambda: matrix_space([[0, 10, 2], [10, 0, 2], [2, 2, 0]]), "triangle",
            "d[0][1] = 10.0 > d[0][2] + d[2][1] = 4.0")


def _closure(rng: random.Random, n: int) -> list[list[float]]:
    """A random n-node metric: symmetric entries in [1, 9], closed under shortest paths."""
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.choice((float(rng.randint(1, 9)), rng.uniform(1.0, 9.0)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


@pytest.mark.parametrize("n", range(3, 41))
def test_triangle_check_names_the_loops_first_triple(n, monkeypatch):
    # metrics, metrics with one or two pairs stretched, and stretches within
    # a few TOLERANCE of the bound, where the order of the sum decides; each
    # in one block of rows and in blocks of two rows
    rng = random.Random(n)
    for case in range(6):
        d = _closure(rng, n)
        for _ in range(case % 3):
            i, k = rng.sample(range(n), 2)
            grow = rng.uniform(0.0, 3.0) if case < 3 else rng.uniform(0.0, 3.0) * TOLERANCE
            d[i][k] = d[k][i] = d[i][k] + grow
        rows = tuple(tuple(row) for row in d)
        want = triangle_fault_naive(rows)
        for block in (metric.TRIANGLE_BLOCK, 2 * n * n):
            monkeypatch.setattr(metric, "TRIANGLE_BLOCK", block)
            assert metric._metric_fault(rows) == want
        if want is not None:
            _assert_invalid(lambda: matrix_space(d), "triangle", want.split(": ", 1)[1])


def test_validate_order_shape_before_triangle():
    # broken shape and broken triangle: shape reported first
    _assert_invalid(lambda: MetricSpace(MATRIX, ((0.0, 10.0, 2.0), (10.0, 0.0, 2.0), (2.0, 2.0))),
            "shape", "row 2 has length 2")


def test_matrix_is_checked_once_per_space(monkeypatch):
    # instances over one space reuse its check: the scan runs when the space is built
    calls = []
    monkeypatch.setattr(metric, "_metric_fault", lambda d: calls.append(d))
    space = matrix_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    for t in (0.0, 1.0, 2.0):
        make_instance(space, 1, [(0, 2, t), (2, 1, t)])
    assert len(calls) == 1
