"""Exact rational linear algebra and a vertex-producing feasibility solver.

Every exact solve, rank and simplex step goes through one elimination
kernel, :func:`_pivot`, acting on sparse rows: ``{column: Rat}`` dicts
that never store a zero.  :func:`solve_exact_linear` and
:func:`exact_rank` pivot column by column (Gauss-Jordan).  The simplex is
phase-I only, with Bland's rule; its tableau keeps the right-hand side as
the last column and the reduced costs as the last row, so a simplex step
is the same pivot.  Feasibility plus a vertex is all the rest of the
package needs, and a basic feasible solution of the barycentric system is
exactly a set of affinely independent points carrying the target in the
relative interior of their simplex, which is what the constructive
Caratheodory step requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Infeasible, NoSolution
from .ratio import ONE, ZERO, Rat, to_rat


def _sparse(row) -> dict:
    """A dense row as a sparse row: ``{column: Rat}`` without zeros."""
    return {j: q for j, v in enumerate(row) if (q := to_rat(v))}


def _pivot(rows, r, c):
    """Scale ``rows[r]`` to a unit entry in column ``c`` and clear column
    ``c`` from every other row."""
    row = rows[r]
    pv = row[c]
    if pv != 1:
        row = rows[r] = {j: v / pv for j, v in row.items()}
    for other in rows:
        f = other.get(c)
        if f is None or other is row:
            continue
        for j, v in row.items():
            w = other.get(j, ZERO) - f * v
            if w:
                other[j] = w
            else:
                del other[j]


def _row_reduce(rows, ncols):
    """Gauss-Jordan on the first ``ncols`` columns, taking them in order.

    Moves the ``k``-th pivot row to position ``k`` and returns the pivot
    columns; the rows after the pivot rows are zero on those columns.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
    return pivots


def solve_exact_linear(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly by Gauss-Jordan elimination.

    Returns one exact solution (free variables pinned to zero when the
    system is underdetermined).  Raises :class:`NoSolution` when the system
    is inconsistent.
    """
    b = [to_rat(v) for v in rhs]
    if len(matrix) != len(b):
        raise ValueError("matrix and rhs sizes differ")
    n = len(matrix[0]) if matrix else 0
    rows = [_sparse([*row, v]) for row, v in zip(matrix, b)]
    pivots = _row_reduce(rows, n)
    if any(rows[len(pivots):]):
        raise NoSolution("inconsistent linear system")
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = row.get(n, ZERO)
    return x


def exact_rank(matrix) -> int:
    rows = [_sparse(row) for row in matrix]
    return len(_row_reduce(rows, len(matrix[0]) if matrix else 0))


def _phase1_vertex(rows, rhs, n):
    """Phase-I simplex with Bland's rule on ``{x >= 0 : A x = b}``.

    ``rows`` are the sparse rows of ``A`` over ``n`` columns.  Returns one
    exact value per column for a basic feasible solution, or ``None`` when
    the system is infeasible.  Strictly positive values always sit on
    linearly independent columns.
    """
    m = len(rows)
    rhs_col = n + m
    # artificial column n + i starts basic in row i; a row with negative
    # right-hand side is negated so that the start is feasible
    T = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        t = dict(row) if b >= 0 else {j: -v for j, v in row.items()}
        t[n + i] = ONE
        if b:
            t[rhs_col] = abs(b)
        T.append(t)
    basis = list(range(n, n + m))

    # cost row for min(sum of artificials): artificial columns start at
    # zero, every other column at minus its column sum, so its right-hand
    # side entry is minus the objective value
    cost = {}
    for t in T:
        for j, v in t.items():
            if j < n or j == rhs_col:
                cost[j] = cost.get(j, ZERO) - v
    T.append({j: v for j, v in cost.items() if v})

    while True:
        # basic columns have zero reduced cost, so they never show up here
        negative = [j for j, v in T[m].items() if v < 0 and j != rhs_col]
        if not negative:
            break
        enter = min(negative)
        leave = None
        best = None
        for i in range(m):
            a = T[i].get(enter, ZERO)
            if a > 0:
                ratio = T[i].get(rhs_col, ZERO) / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-I objective cannot be unbounded")
        _pivot(T, leave, enter)
        basis[leave] = enter

    if rhs_col in T[m]:
        return None
    values = [ZERO] * n
    for i, j in enumerate(basis):
        if j < n:
            values[j] = T[i].get(rhs_col, ZERO)
    return values


@dataclass(frozen=True)
class BarycentricSolution:
    """A vertex of ``{mu >= 0, sum mu = 1, sum mu * point = target}``.

    The supported points are affinely independent and every coefficient is
    strictly positive, so the target lies in the relative interior of their
    simplex.
    """

    support_indices: tuple
    coefficients: tuple

    def as_pairs(self, points):
        return [(points[i], c) for i, c in zip(self.support_indices, self.coefficients)]


def barycentric_vertex(points, target) -> BarycentricSolution:
    """Find a basic feasible barycentric representation of ``target``.

    Raises :class:`Infeasible` exactly when ``target`` is outside the convex
    hull of ``points``.  Duplicate points are collapsed onto their first
    occurrence; if the target coincides with an input point, the one-point
    representation is returned directly.
    """
    if not points:
        raise ValueError("points must be nonempty")
    dim = len(points[0])
    pts = [tuple(int(c) for c in p) for p in points]
    if any(len(p) != dim for p in pts):
        raise ValueError("points of mixed dimension")
    tgt = tuple(int(c) for c in target)
    if len(tgt) != dim:
        raise ValueError("target dimension mismatch")

    first_index: dict[tuple, int] = {}
    for i, p in enumerate(pts):
        first_index.setdefault(p, i)
    if tgt in first_index:
        return BarycentricSolution((first_index[tgt],), (ONE,))

    unique = sorted(first_index)
    rows = [{j: Rat(p[c]) for j, p in enumerate(unique) if p[c]} for c in range(dim)]
    rows.append({j: ONE for j in range(len(unique))})
    rhs = [Rat(c) for c in tgt] + [ONE]

    values = _phase1_vertex(rows, rhs, len(unique))
    if values is None:
        raise Infeasible("target is outside the convex hull of the points")
    support = [
        (first_index[unique[j]], values[j])
        for j in range(len(unique))
        if values[j] > 0
    ]
    support.sort()
    return BarycentricSolution(
        tuple(i for i, _ in support), tuple(c for _, c in support)
    )


def lp_feasible(a_ub=None, b_ub=None, a_eq=None, b_eq=None, n_vars=None):
    """Exact feasibility of ``{x >= 0, a_ub x <= b_ub, a_eq x = b_eq}``.

    Returns ``(True, witness)`` with an exact rational witness, or
    ``(False, None)``.
    """
    a_ub = a_ub or []
    a_eq = a_eq or []
    rows = [_sparse(row) for row in a_ub] + [_sparse(row) for row in a_eq]
    b_ub = [to_rat(v) for v in (b_ub or [])]
    b_eq = [to_rat(v) for v in (b_eq or [])]
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise ValueError("constraint matrix and rhs sizes differ")
    widths = {len(r) for r in a_ub} | {len(r) for r in a_eq}
    if len(widths) > 1:
        raise ValueError("constraint rows of mixed width")
    if n_vars is None:
        if not widths:
            raise ValueError("n_vars required when there are no constraints")
        n_vars = widths.pop()
    elif widths and widths.pop() != n_vars:
        raise ValueError("n_vars does not match constraint width")
    if not rows:
        return True, [ZERO] * n_vars

    # one slack column per inequality, after the variables
    for i in range(len(a_ub)):
        rows[i][n_vars + i] = ONE
    values = _phase1_vertex(rows, b_ub + b_eq, n_vars + len(a_ub))
    if values is None:
        return False, None
    return True, values[:n_vars]
