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

A program holds read-only copies of its data, each entry read by
``numeric.real``'s rule unless given as an int or float
ndarray.  ``solve_lps`` solves one program once per row of a batch of
right-hand sides, read the same way.  It checks the batch and builds
the parts of the standard form that do not depend on b_ub once per
call: the ``[A | bound rows | I]`` block, the shift ``a_ub @ lb`` and
the bound rows' right-hand side ``ub - lb``.  The rows whose shifted b
negates the same rows of the standard form share one tableau: one body
(every column but the right-hand side, with one artificial column per
negated row) and one right-hand-side column each.  The entering column
depends on the body alone, so it is read once; each column then runs
its own ratio test, and one rank-1 pivot updates the body and every
column that chose that row.  A tableau splits into copies, each holding
the body and only its own columns, where its columns pick different
rows or some fail the phase-one infeasibility test.  Every entry gets
the same divide, multiply and subtract as on a tableau of its own, so
each right-hand side gets the status, pivot count and bits it would
get alone.  A program with no variables takes the same path with an
empty body.  ``solve_lp`` is the one-row batch.

Each pivot is one rank-1 array update of the whole tableau.  Every
entry still gets one multiply and one subtract, as it would in a loop
over rows, so the values are the same bit for bit (up to the sign of
an exact zero, which no comparison sees).  The entering column is found
by an array mask.  The ratio test divides the right-hand sides of the
rows with a positive pivot entry in one numpy step, whose division
gives the same bits as Python's, and compares the ratios in row order
as Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import real

LP_TOL = 1e-9
_MAX_PIVOTS = 20000


def _frozen(values, name: str) -> np.ndarray:
    try:
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
            cells = np.array(values, dtype=object)
            values = np.fromiter(map(real, cells.flat), float, cells.size).reshape(cells.shape)
        a = np.array(values, dtype=float)
    except (OverflowError, ValueError, TypeError):
        raise ValueError(f"{name} must be an array of numbers inside the float range") from None
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
            object.__setattr__(self, name, _frozen(getattr(self, name), name))
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


@dataclass(eq=False)
class _Group:
    """Right-hand sides that have followed one pivot path so far.

    T holds the shared body (every column but the right-hand sides) and
    then one right-hand-side column per entry of cols, the positions of
    those right-hand sides in the batch; its last row holds reduced
    costs.  pivots counts the path's pivots over both phases.
    """

    T: np.ndarray
    basis: list[int]
    cols: list[int]
    pivots: int

    @property
    def width(self) -> int:
        return self.T.shape[1] - len(self.cols)

    def take(self, keep: list[int]) -> _Group:
        """A copy holding the body and only the right-hand sides at positions keep."""
        width = self.width
        T = np.concatenate((self.T[:, :width], self.T[:, [width + c for c in keep]]), axis=1)
        return _Group(T, list(self.basis), [self.cols[c] for c in keep], self.pivots)


def _run_simplex(group: _Group, enter_limit: int, tol: float) -> list[tuple[str, _Group]]:
    """Optimize in place, splitting the group where its right-hand sides pick different rows.

    Every right-hand side shares the entering column, which depends on
    the body alone, and runs its own ratio test.  Returns (status,
    group) pairs that cover the group's right-hand sides, status being
    "optimal", "unbounded" or "numerical"; the pivot limit counts this
    phase's pivots only.
    """
    start = group.pivots
    m = group.T.shape[0] - 1
    stack, done = [group], []
    while stack:
        g = stack.pop()
        T, width = g.T, g.width
        improving = (T[-1, :enter_limit] > tol).nonzero()[0]
        if not improving.size:
            done.append(("optimal", g))
            continue
        col = int(improving[0])  # Bland: smallest improving index
        rows = (T[:m, col] > tol).nonzero()[0]
        if not rows.size:
            done.append(("unbounded", g))
            continue
        ranks = [g.basis[i] for i in rows.tolist()]
        picks = {}  # pivot row -> positions of the right-hand sides choosing it
        for c, ratios in enumerate((T[rows, width:] / T[rows, col, None]).T.tolist()):
            best, pick = np.inf, -1
            for j, ratio in enumerate(ratios):
                if ratio < best - tol or (ratio <= best + tol and (pick < 0 or ranks[j] < ranks[pick])):
                    if ratio < best:
                        best = ratio
                    pick = j
            picks.setdefault(int(rows[pick]), []).append(c)
        for row, keep in picks.items():
            h = g if len(picks) == 1 else g.take(keep)
            _pivot(h.T, h.basis, row, col)
            h.pivots += 1
            if h.pivots - start > _MAX_PIVOTS:
                done.append(("numerical", h))
            else:
                stack.append(h)
    return done


def solve_lp(lp: LinearProgram) -> LpSolution:
    return solve_lps(lp, lp.b_ub[None])[0]


def solve_lps(lp: LinearProgram, b_rows) -> list[LpSolution]:
    """Solve lp once per row of b_rows, each row taking the place of b_ub.

    The rows are checked as one (rows, len(b_ub)) batch and copied, and
    each gets the solution a program of its own with that b_ub would.
    Rows that negate the same rows of the standard form share one
    tableau, each as its own right-hand-side column, and split apart
    only where their ratio tests or phase-one tests disagree.
    """
    b_rows = _frozen(b_rows, "b_rows")
    k = lp.a_ub.shape[0]
    _check_rhs(b_rows, b_rows.shape[:1] + (k,))
    n = lp.objective.shape[0]

    # y = x - lb >= 0 with finite upper bounds as rows: A y + s = b with
    # slacks; negate rows to make b nonnegative, and give each negated
    # row an artificial column as its basic variable, numbered in row order
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
    groups = {}
    for j, row in enumerate(negated):
        groups.setdefault(row.tobytes(), []).append(j)
    out = [None] * b.shape[0]
    for cols in groups.values():
        art_rows = negated[cols[0]].nonzero()[0]
        width = n + m + art_rows.shape[0]
        sign = np.where(negated[cols[0]], -1.0, 1.0)[:, None]
        T = np.zeros((m + 1, width + len(cols)))
        np.multiply(block, sign, out=T[:m, : n + m])
        np.multiply(b[cols].T, sign, out=T[:m, width:])
        T[art_rows, np.arange(n + m, width)] = 1.0
        basis = list(range(n, n + m))
        for j, i in enumerate(art_rows.tolist()):
            basis[i] = n + m + j
        _two_phase(lp, _Group(T, basis, cols, 0), b_rows, out)
    return out


def _two_phase(lp: LinearProgram, group: _Group, b_rows: np.ndarray, out: list) -> None:
    """Solve a fresh group in place, storing each solution at its batch position in out."""
    n = lp.objective.shape[0]
    m = group.T.shape[0] - 1
    width = group.width

    def fail(status, cols, pivots):
        for j in cols:
            out[j] = LpSolution(status, None, None, (), pivots)

    groups = [group]
    if width > n + m:
        # phase one: maximize minus the sum of artificials
        z = np.zeros(group.T.shape[1])
        z[n + m : width] = -1.0
        _set_costs(group.T, group.basis, z)
        groups = []
        for status, g in _run_simplex(group, width, LP_TOL):
            if status == "numerical":
                fail(status, g.cols, g.pivots)
                continue
            # leftover artificial mass, see row invariant
            infeasible = (g.T[-1, width:] > 1e-7).tolist()
            if any(infeasible):
                fail("infeasible", [j for j, bad in zip(g.cols, infeasible) if bad], g.pivots)
                if all(infeasible):
                    continue
                g = g.take([c for c, bad in enumerate(infeasible) if not bad])
            for i in range(m):  # drive leftover zero-level artificials out
                if g.basis[i] >= n + m:
                    nonzero = (np.abs(g.T[i, : n + m]) > 1e-7).nonzero()[0]
                    if nonzero.size:
                        _pivot(g.T, g.basis, i, int(nonzero[0]))
                        g.pivots += 1
            groups.append(g)

    # phase two over the real objective, artificials barred from entering
    for g in groups:
        z = np.zeros(g.T.shape[1])
        z[:n] = lp.objective
        _set_costs(g.T, g.basis, z)
        for status, h in _run_simplex(g, n + m, LP_TOL):
            if status != "optimal":
                fail(status, h.cols, h.pivots)
                continue
            y = np.zeros((width, len(h.cols)))
            y[h.basis] = h.T[:m, width:]
            for c, j in enumerate(h.cols):
                x = lp.lb + y[:n, c]
                value = float(lp.objective @ x)
                resid = lp.a_ub @ x - b_rows[j]
                active = tuple((resid >= -1e-7).nonzero()[0].tolist())
                out[j] = LpSolution("optimal", x, value, active, h.pivots)
