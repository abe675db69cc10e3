"""Metric spaces the server moves in.

Three kinds are supported: the real line, the half-line (nonnegative
reals), and finite symmetric distance matrices standing in for general
metric spaces.  Points on the line variants are floats; points of a
matrix space are integer node indices.  The origin is 0 in every kind.
A matrix is checked once, when its space is built, however it is built:
each entry must be a real number, read by numeric.real as a float, and
the matrix must satisfy the metric axioms.  A violation raises the
SemanticError an instance raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import TOLERANCE, is_int, real

LINE = "line"
HALF_LINE = "halfline"
MATRIX = "matrix"

KINDS = (LINE, HALF_LINE, MATRIX)

Point = float | int

# most (i, j, k) triples the triangle check tests in one numpy pass (512 KiB
# of float64); a row of a larger matrix is one pass
TRIANGLE_BLOCK = 1 << 16


class InvalidPointError(ValueError):
    """Point is not a member of the metric space."""


class InstanceError(ValueError):
    """Base class for instance parsing and validation failures."""


class SemanticError(InstanceError):
    def __init__(self, message: str, where: str):
        super().__init__(f"{message} (at {where})")
        self.where = where


def short_repr(v, limit: int = 40) -> str:
    """repr(v), cut after limit characters, so a huge value gives a short message."""
    r = repr(v)
    return r if len(r) <= limit else f"{r[:limit]}... ({len(r)} characters)"


@dataclass(frozen=True)
class MetricSpace:
    kind: str
    matrix: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if (self.kind == MATRIX) != (self.matrix is not None):
            raise ValueError("matrix entries required exactly for matrix spaces")
        if self.matrix is not None:
            object.__setattr__(self, "matrix", _rows(self.matrix))
            fault = _metric_fault(self.matrix)
            if fault is not None:
                raise SemanticError(f"invalid distance matrix: {fault}", "metric.d")

    @property
    def origin(self) -> Point:
        return 0 if self.kind == MATRIX else 0.0

    @property
    def size(self) -> int | None:
        """Number of nodes for matrix spaces, None otherwise."""
        return len(self.matrix) if self.matrix is not None else None

    def is_point(self, p: Point) -> bool:
        if self.kind == MATRIX:
            return is_int(p) and 0 <= p < len(self.matrix)
        if not isinstance(p, (int, float)):  # a point is an int or a float, not any other real
            return False
        try:
            x = p if isinstance(p, float) else real(p)  # a float needs no conversion
        except ValueError:  # a bool, or an int beyond the float range
            return False
        return math.isfinite(x) and (self.kind != HALF_LINE or x >= -TOLERANCE)

    def not_a_point(self, p) -> str:
        return f"{short_repr(p)} is not a point of the {self.kind} space"

    def check_point(self, p: Point) -> None:
        if not self.is_point(p):
            raise InvalidPointError(self.not_a_point(p))

    def distance(self, x: Point, y: Point) -> float:
        self.check_point(x)
        self.check_point(y)
        return self.raw_distance(x, y)

    def raw_distance(self, x: Point, y: Point) -> float:
        """distance() without the membership checks, for points checked once."""
        if self.kind == MATRIX:
            return float(self.matrix[x][y])
        return abs(float(x) - float(y))

    def table(self, xs, ys) -> list[list[float]]:
        """[[raw_distance(x, y) for y in ys] for x in xs], the same expression per pair, unchecked."""
        if self.kind == MATRIX:
            rows = self.matrix  # its entries are floats already
            return [[row[y] for y in ys] for row in (rows[x] for x in xs)]
        fys = [float(y) for y in ys]
        return [[abs(fx - fy) for fy in fys] for fx in map(float, xs)]

    def same_point(self, x: Point, y: Point) -> bool:
        if self.kind == MATRIX:
            return x == y
        return abs(float(x) - float(y)) <= TOLERANCE


def _metric_fault(d) -> str | None:
    """"reason: detail" for the first metric axiom a matrix breaks, else None.

    The checks run in order: shape, finite entries, zero diagonal,
    symmetry, nonnegativity, triangle inequality (all up to TOLERANCE).
    The triangle check tests every (j, k) of a block of rows i in one
    numpy pass, each block of at most TRIANGLE_BLOCK entries (at least
    one row), so a large matrix takes one n x n pass per row and a small
    one a single pass, where a Python loop would take n^3 steps.
    """
    n = len(d)
    if n == 0:
        return "shape: the matrix has no nodes, so no origin"
    for i, row in enumerate(d):
        if len(row) != n:
            return f"shape: row {i} has length {len(row)}, expected {n}"
    for i, row in enumerate(d):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                return f"finite: d[{i}][{j}] = {v} is not finite"
    for i in range(n):
        if abs(d[i][i]) > TOLERANCE:
            return f"diagonal: d[{i}][{i}] = {d[i][i]} is not 0"
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i][j] - d[j][i]) > TOLERANCE:
                return f"symmetry: d[{i}][{j}] = {d[i][j]} but d[{j}][{i}] = {d[j][i]}"
    for i in range(n):
        for j in range(n):
            if d[i][j] < -TOLERANCE:
                return f"negative: d[{i}][{j}] = {d[i][j]} < 0"
    a = np.array(d, dtype=float)
    rows = max(1, TRIANGLE_BLOCK // (n * n))
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf, as in Python
        for lo in range(0, n, rows):
            ai = a[lo:lo + rows]
            # bad[i, j, k] is d[i][k] > d[i][j] + d[j][k] + TOLERANCE, summed in that order
            bad = ai[:, None, :] > ai[:, :, None] + a + TOLERANCE
            if np.count_nonzero(bad):  # cheaper than bad.any() on a small block
                i, j, k = (int(x) for x in np.unravel_index(bad.argmax(), bad.shape))  # first in (i, j, k) order
                i += lo
                return (f"triangle: d[{i}][{k}] = {d[i][k]} > "
                        f"d[{i}][{j}] + d[{j}][{k}] = {d[i][j] + d[j][k]}")
    return None


def line() -> MetricSpace:
    return MetricSpace(LINE)


def half_line() -> MetricSpace:
    return MetricSpace(HALF_LINE)


def _entry(v, i: int, j: int) -> float:
    """real(v) for the entry d[i][j]; else the matrix is invalid."""
    try:
        return real(v)
    except ValueError as e:
        raise SemanticError(f"invalid distance matrix: finite: d[{i}][{j}] = {short_repr(v)} {e}",
                            "metric.d") from None


def _rows(d) -> tuple[tuple[float, ...], ...]:
    """d as a tuple of float tuples, each entry through _entry; a row that is not a sequence is a shape fault."""
    rows = []
    for i, row in enumerate(d):
        try:
            entries = enumerate(row)
        except TypeError:
            raise SemanticError(f"invalid distance matrix: shape: row {i} = {short_repr(row)} is not a sequence",
                                "metric.d") from None
        rows.append(tuple(_entry(v, i, j) for j, v in entries))
    return tuple(rows)


def matrix_space(entries) -> MetricSpace:
    return MetricSpace(MATRIX, entries)
