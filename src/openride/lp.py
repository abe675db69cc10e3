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

A program holds read-only copies of its data.  ``solve_lps`` solves
one program once per row of a batch of right-hand sides.  It checks
the batch and builds the parts of the standard form that do not depend
on b_ub once per call: the ``[A | bound rows | I]`` block, the shift
``a_ub @ lb`` and the bound rows' right-hand side ``ub - lb``.  It
finds the rows to negate and their artificial columns for every
right-hand side together, and fills one tableau per right-hand side in
a single array, padded to the widest.  Each tableau then pivots on its
own: no basis or pivot carries over from one right-hand side to the
next, and padding columns stay zero and never enter.  ``solve_lp`` is
the one-row batch.

Each pivot is one rank-1 array update of the whole tableau.  Every
entry still gets one multiply and one subtract, as it would in a loop
over rows, so the values are the same bit for bit (up to the sign of
an exact zero, which no comparison sees).  The entering column is found
by an array mask; the ratio test runs in row order over the pivot
column and the right-hand side as Python floats, whose division gives
the same bits as numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LP_TOL = 1e-9
_MAX_PIVOTS = 20000


def _frozen(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


def _check_rhs(b_ub: np.ndarray, shape: tuple[int, ...]) -> None:
    if b_ub.shape != shape:
        raise ValueError(f"b_ub must have shape {shape}, one entry per row, got {b_ub.shape}")
    if not np.isfinite(b_ub).all():
        raise ValueError("b_ub entries must be finite")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective @ x  s.t.  a_ub @ x <= b_ub,  lb <= x <= ub.

    Programs compare by identity: their fields are arrays.
    """

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lb: np.ndarray  # finite, like objective, a_ub and b_ub
    ub: np.ndarray  # np.inf entries allowed

    def __post_init__(self):
        for name in ("objective", "a_ub", "b_ub", "lb", "ub"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.objective.ndim != 1:
            raise ValueError("objective must be a vector")
        n = self.objective.shape[0]
        if self.a_ub.ndim != 2 or self.a_ub.shape[1] != n:
            raise ValueError("a_ub must have one column per variable")
        for name in ("lb", "ub"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have one entry per variable")
        for name in ("objective", "a_ub", "lb"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} entries must be finite")
        _check_rhs(self.b_ub, self.a_ub.shape[:1])
        if np.isnan(self.ub).any():
            raise ValueError("ub entries must be numbers or +inf")
        if (self.ub < self.lb).any():
            raise ValueError("upper bounds must dominate lower bounds")


@dataclass(frozen=True, eq=False)
class LpSolution:
    """One solve's outcome; solutions compare by identity, as x is an array."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "numerical"
    x: np.ndarray | None
    value: float | None
    active_rows: tuple[int, ...]
    iterations: int


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    r = T[row]
    r /= r[col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * r
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
        rhs = T[:m, -1].tolist()
        best, row = np.inf, -1
        for i, a in enumerate(T[:m, col].tolist()):
            if a > tol:
                ratio = rhs[i] / a
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
    return solve_lps(lp, [lp.b_ub])[0]


def solve_lps(lp: LinearProgram, b_rows) -> list[LpSolution]:
    """Solve lp once per row of b_rows, each row taking the place of b_ub.

    The rows are checked as one (rows, len(b_ub)) batch and copied, and
    each gets the solution a program of its own with that b_ub would.
    """
    b_rows = np.array(b_rows, dtype=float)
    k = lp.a_ub.shape[0]
    _check_rhs(b_rows, b_rows.shape[:1] + (k,))
    n = lp.objective.shape[0]
    if n == 0:
        return [LpSolution("optimal", np.zeros(0), 0.0, (), 0) for _ in b_rows]

    # y = x - lb >= 0 with finite upper bounds as rows: A y + s = b with
    # slacks; negate rows to make b nonnegative, and give each negated
    # row an artificial column as its basic variable, numbered in row
    # order; rows needing fewer artificials leave the padding at zero
    bounded = np.isfinite(lp.ub).nonzero()[0]
    m = k + bounded.shape[0]
    block = np.zeros((m, n + m))  # [A | bound rows | I]
    block[:k, :n] = lp.a_ub
    block[np.arange(k, m), bounded] = 1.0
    block[:, n:] = np.eye(m)
    b = np.empty((b_rows.shape[0], m))
    np.subtract(b_rows, lp.a_ub @ lp.lb, out=b[:, :k])
    b[:, k:] = lp.ub[bounded] - lp.lb[bounded]
    negated = b < 0
    art = np.cumsum(negated, axis=1) - 1
    sign = np.where(negated, -1.0, 1.0)
    T = np.zeros((b.shape[0], m + 1, n + m + int(negated.sum(axis=1).max(initial=0)) + 1))
    np.multiply(block, sign[:, :, None], out=T[:, :m, : n + m])
    np.multiply(b, sign, out=T[:, :m, -1])
    r, i = negated.nonzero()
    T[r, i, n + m + art[r, i]] = 1.0
    return [_two_phase(lp, T[j], b_rows[j], negated[j].nonzero()[0].tolist())
            for j in range(b.shape[0])]


def _two_phase(lp: LinearProgram, T: np.ndarray, b_ub: np.ndarray, art_rows: list[int]) -> LpSolution:
    """Solve one right-hand side's tableau in place; art_rows are its negated rows."""
    n = lp.objective.shape[0]
    m = T.shape[0] - 1
    n_art = len(art_rows)
    ncols = n + m + n_art
    basis = list(range(n, n + m))
    for j, i in enumerate(art_rows):
        basis[i] = n + m + j
    pivots = 0
    if n_art:
        # phase one: maximize minus the sum of artificials
        z = np.zeros(T.shape[1])
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
    z = np.zeros(T.shape[1])
    z[:n] = lp.objective
    _set_costs(T, basis, z)
    status, p2 = _run_simplex(T, basis, n + m, LP_TOL)
    pivots += p2
    if status != "optimal":
        return LpSolution(status, None, None, (), pivots)

    y = np.zeros(T.shape[1] - 1)
    y[basis] = T[:m, -1]
    x = lp.lb + y[:n]
    value = float(lp.objective @ x)
    resid = lp.a_ub @ x - b_ub
    active = tuple((resid >= -1e-7).nonzero()[0].tolist())
    return LpSolution("optimal", x, value, active, pivots)
