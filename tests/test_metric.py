"""Metric space kinds, distances, and matrix validation."""

import pytest

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
from openride.model import SemanticError, instance_from_dict
from openride.numeric import TOLERANCE


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


def test_same_point():
    assert line().same_point(1.0, 1.0 + TOLERANCE / 2)
    assert not line().same_point(1.0, 1.0 + 1e-6)
    sp = matrix_space([[0, 1], [1, 0]])
    assert sp.same_point(1, 1)
    assert not sp.same_point(0, 1)


def test_validate_line_kinds_always_pass():
    assert line().validate() is None
    assert half_line().validate() is None


def test_validate_ok_matrix():
    assert matrix_space([[0, 3, 1], [3, 0, 2], [1, 2, 0]]).validate() is None


def test_validate_shape():
    v = MetricSpace(MATRIX, ((0.0, 1.0), (1.0,))).validate()
    assert v is not None and v.reason == "shape" and v.where == (1,)


def test_validate_empty_matrix_has_no_origin():
    v = matrix_space([]).validate()
    assert v is not None and v.reason == "shape" and v.where == ()


def test_empty_matrix_instance_is_rejected():
    with pytest.raises(SemanticError) as err:
        instance_from_dict({"metric": {"type": "matrix", "d": []}, "capacity": 1, "requests": []})
    assert err.value.where == "metric.d"


def test_validate_finite():
    v = matrix_space([[0, float("nan")], [float("nan"), 0]]).validate()
    assert v.reason == "finite" and v.where == (0, 1)
    assert matrix_space([[float("inf"), 1], [1, 0]]).validate().reason == "finite"
    assert not line().is_point(float("inf")) and not half_line().is_point(float("nan"))


def test_validate_diagonal():
    v = matrix_space([[0, 1], [1, 0.5]]).validate()
    assert v is not None and v.reason == "diagonal" and v.where == (1,)


def test_validate_symmetry():
    v = matrix_space([[0, 1], [2, 0]]).validate()
    assert v is not None and v.reason == "symmetry" and v.where == (0, 1)


def test_validate_negative():
    v = matrix_space([[0, -1], [-1, 0]]).validate()
    assert v is not None and v.reason == "negative"
    assert v.where == (0, 1)


def test_validate_triangle():
    v = matrix_space([[0, 10, 2], [10, 0, 2], [2, 2, 0]]).validate()
    assert v is not None and v.reason == "triangle"
    # d[0][1] = 10 > d[0][2] + d[2][1] = 4
    assert v.where == (0, 2, 1)


def test_validate_order_shape_before_triangle():
    # broken shape and broken triangle: shape reported first
    v = MetricSpace(MATRIX, ((0.0, 10.0, 2.0), (10.0, 0.0, 2.0), (2.0, 2.0))).validate()
    assert v is not None and v.reason == "shape"
