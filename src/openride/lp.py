"""Dense two-phase simplex for small linear programs.

Maximizes objective @ x subject to a_ub @ x <= b_ub and per-variable
bounds.  Variables are shifted by their (finite) lower bounds into
standard form, finite upper bounds become extra rows, and one slack is
added per row.  Phase one minimizes the sum of artificial variables on
rows whose shifted right-hand side is negative; phase two optimizes
the real objective with artificial columns barred from entering.

Pivoting uses Bland's smallest-index rule on entering columns and on
ratio-test ties, which prevents cycling on the degenerate vertices
these programs produce.  Everything is dense numpy; the intended scale
is tens of variables and rows, far below where sparsity or revised
factorizations would pay off.

Each pivot is one rank-1 array update of the whole tableau.  Every
entry still gets one multiply and one subtract, as it would in a loop
over rows, so the values are the same bit for bit (up to the sign of
an exact zero, which no comparison sees).  The entering column and the
ratio test's candidate rows are found by array masks; the ratio test's
tolerance and tie-break still run in row order over the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LP_TOL = 1e-9
_MAX_PIVOTS = 20000


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective @ x  s.t.  a_ub @ x <= b_ub,  lb <= x <= ub."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lb: np.ndarray  # finite, like objective, a_ub and b_ub
    ub: np.ndarray  # np.inf entries allowed

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "a_ub", np.asarray(self.a_ub, dtype=float))
        object.__setattr__(self, "b_ub", np.asarray(self.b_ub, dtype=float))
        object.__setattr__(self, "lb", np.asarray(self.lb, dtype=float))
        object.__setattr__(self, "ub", np.asarray(self.ub, dtype=float))
        n = self.objective.shape[0]
        if self.a_ub.ndim != 2 or self.a_ub.shape[1] != n:
            raise ValueError("a_ub must have one column per variable")
        if self.b_ub.shape[0] != self.a_ub.shape[0]:
            raise ValueError("b_ub length must match the number of rows")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            raise ValueError("bounds must cover every variable")
        for name in ("objective", "a_ub", "b_ub", "lb"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} entries must be finite")
        if np.isnan(self.ub).any():
            raise ValueError("ub entries must be numbers or +inf")
        if (self.ub < self.lb).any():
            raise ValueError("upper bounds must dominate lower bounds")


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "numerical"
    x: np.ndarray | None
    value: float | None
    active_rows: tuple[int, ...]
    iterations: int


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * T[row]
    basis[row] = col


def _set_costs(T: np.ndarray, basis: list[int], z: np.ndarray) -> None:
    """Price z out against the basis and store it as the reduced-cost row.

    Basic columns are exact unit vectors, so a row whose basic variable
    has zero cost contributes nothing and is skipped; the others are
    subtracted in row order.
    """
    for i in (z[basis] != 0.0).nonzero()[0].tolist():
        z -= z[basis[i]] * T[i]
    T[-1] = z


def _run_simplex(T: np.ndarray, basis: list[int], enter_limit: int, tol: float):
    """Optimize in place; the last tableau row holds reduced costs.

    Returns (status, pivots) where status is "optimal" or "unbounded".
    """
    m = T.shape[0] - 1
    pivots = 0
    while True:
        improving = T[-1, :enter_limit] > tol
        col = int(improving.argmax())  # Bland: smallest improving index
        if not improving[col]:
            return "optimal", pivots
        cand = (T[:m, col] > tol).nonzero()[0]
        ratios = (T[cand, -1] / T[cand, col]).tolist()
        best, row = np.inf, -1
        for i, ratio in zip(cand.tolist(), ratios):
            if ratio < best - tol or (ratio <= best + tol and (row < 0 or basis[i] < basis[row])):
                if ratio < best:
                    best = ratio
                row = i
        if row < 0:
            return "unbounded", pivots
        _pivot(T, basis, row, col)
        pivots += 1
        if pivots > _MAX_PIVOTS:
            return "numerical", pivots


def solve_lp(lp: LinearProgram) -> LpSolution:
    n = lp.objective.shape[0]
    if n == 0:
        return LpSolution("optimal", np.zeros(0), 0.0, (), 0)

    # shift to y = x - lb >= 0; finite upper bounds become rows
    bounded = np.isfinite(lp.ub).nonzero()[0]
    k = lp.a_ub.shape[0]
    m = k + bounded.shape[0]
    b = np.concatenate([lp.b_ub - lp.a_ub @ lp.lb, lp.ub[bounded] - lp.lb[bounded]])

    # equalities A y + s = b with slacks; negate rows to make b nonnegative,
    # and give each negated row an artificial column as its basic variable
    neg = b < 0
    art_rows = neg.nonzero()[0]
    n_art = art_rows.shape[0]
    ncols = n + m + n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:k, :n] = lp.a_ub
    T[np.arange(k, m), bounded] = 1.0
    T[:m, n : n + m] = np.eye(m)
    T[art_rows, : n + m] *= -1.0
    T[art_rows, n + m + np.arange(n_art)] = 1.0
    T[:m, -1] = np.where(neg, -b, b)
    basis = np.arange(n, n + m)
    basis[art_rows] = n + m + np.arange(n_art)
    basis = basis.tolist()
    pivots = 0
    if n_art:
        # phase one: maximize minus the sum of artificials
        z = np.zeros(ncols + 1)
        z[n + m : ncols] = -1.0
        _set_costs(T, basis, z)
        status, p1 = _run_simplex(T, basis, ncols, LP_TOL)
        pivots += p1
        if status == "numerical":
            return LpSolution("numerical", None, None, (), pivots)
        if T[-1, -1] > 1e-7:  # leftover artificial mass, see row invariant
            return LpSolution("infeasible", None, None, (), pivots)
        for i in range(m):  # drive leftover zero-level artificials out
            if basis[i] >= n + m:
                nonzero = (np.abs(T[i, : n + m]) > 1e-7).nonzero()[0]
                if nonzero.size:
                    _pivot(T, basis, i, int(nonzero[0]))
                    pivots += 1

    # phase two over the real objective, artificials barred from entering
    z = np.zeros(ncols + 1)
    z[:n] = lp.objective
    _set_costs(T, basis, z)
    status, p2 = _run_simplex(T, basis, n + m, LP_TOL)
    pivots += p2
    if status != "optimal":
        return LpSolution(status, None, None, (), pivots)

    y = np.zeros(ncols)
    y[basis] = T[:m, -1]
    x = lp.lb + y[:n]
    value = float(lp.objective @ x)
    resid = lp.a_ub @ x - lp.b_ub
    active = tuple((resid >= -1e-7).nonzero()[0].tolist())
    return LpSolution("optimal", x, value, active, pivots)
