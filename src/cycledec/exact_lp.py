"""Exact rational linear algebra and a vertex-producing feasibility solver.

Every exact solve, rank and simplex step goes through one elimination
kernel, :func:`_pivot`, acting on fraction-free integer rows: row ``i`` is
a sparse ``{column: int}`` numerator map that never stores a zero, plus
one positive row denominator ``dens[i]``, and stands for the values
``rows[i][j] / dens[i]``.  A pivot multiplies the other rows through by
the pivot numerator instead of dividing (Edmonds 1967, Bareiss 1968) and
then divides each changed row by its content, the gcd of its numerators
and its denominator, so no cell ever becomes a ``Rat``.  Rationals appear
only at the edges: an input row is brought to integers over the lcm of its
denominators, and results come back as ``Rat(numerator, denominator)``.

:func:`solve_exact_linear` and :func:`exact_rank` pivot column by column
(Gauss-Jordan).  The simplex is phase-I only, with Bland's rule; its
tableau keeps the right-hand side as the last column and the reduced costs
as the last row, so a simplex step is the same pivot.  Signs of reduced
costs are read off the numerators, and the ratio test cross-multiplies,
because the row denominator cancels from ``rhs / entry``.  Feasibility
plus a vertex is all the rest of the package needs, and a basic feasible
solution of the barycentric system is exactly a set of affinely
independent points carrying the target in the relative interior of their
simplex, which is what the constructive Caratheodory step requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import Infeasible, NoSolution
from .ratio import ONE, ZERO, Rat, to_rat


def _int_rows(matrix):
    """Rational rows as ``(rows, dens)``: each row's numerators, without
    zeros, over the lcm of its denominators, which leaves content one."""
    rows, dens = [], []
    for row in matrix:
        qs = [to_rat(v) for v in row]
        den = lcm(*(q.denominator for q in qs))
        rows.append({j: q.numerator * (den // q.denominator) for j, q in enumerate(qs) if q})
        dens.append(den)
    return rows, dens


def _width(matrix) -> int:
    """The common length of the rows of ``matrix``, 0 when it has none."""
    widths = {len(row) for row in matrix}
    if len(widths) > 1:
        raise ValueError("rows of mixed width")
    return widths.pop() if widths else 0


def _pivot(rows, dens, r, c):
    """Make the entry of row ``r`` in column ``c`` one and clear column
    ``c`` from every other row.

    Row ``r`` keeps its numerators over the pivot numerator ``p`` as its
    denominator, divided by their gcd and negated when the pivot is
    negative, so every denominator stays positive.  Every other row with
    an entry ``f`` in column ``c`` becomes ``row * p - f * rows[r]`` over
    ``den * p`` (the old denominator of row ``r`` cancels), with ``p`` and
    ``f`` first divided by their gcd, and is then divided by its content.
    Rows without an entry in ``c`` are not touched.
    """
    row = rows[r]
    p = row[c]
    g = gcd(*row.values())
    if p < 0:
        g = -g
    if g != 1:
        row = rows[r] = {j: v // g for j, v in row.items()}
        p //= g
    dens[r] = p
    for i, other in enumerate(rows):
        f = other.get(c)
        if f is None or i == r:
            continue
        g = gcd(p, f)
        a, f = p // g, f // g
        if a != 1:
            other = {j: v * a for j, v in other.items()}
        for j, v in row.items():
            w = other.get(j, 0) - f * v
            if w:
                other[j] = w
            else:
                del other[j]
        den = dens[i] * a
        g = gcd(den, *other.values())
        if g != 1:
            other = {j: v // g for j, v in other.items()}
            den //= g
        rows[i] = other
        dens[i] = den


def _row_reduce(rows, dens, ncols):
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
        dens[r], dens[i] = dens[i], dens[r]
        _pivot(rows, dens, r, c)
        pivots.append(c)
    return pivots


def solve_exact_linear(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly by Gauss-Jordan elimination.

    Each equation becomes an integer row over its own denominator (see
    the module docstring); the pivots stay on integers, and only the
    returned values are rationals.  Returns one exact solution (free
    variables pinned to zero when the system is underdetermined).  Raises
    :class:`NoSolution` when the system is inconsistent and
    ``ValueError`` when the rows differ in width.
    """
    rhs = list(rhs)
    if len(matrix) != len(rhs):
        raise ValueError("matrix and rhs sizes differ")
    n = _width(matrix)
    rows, dens = _int_rows([*row, v] for row, v in zip(matrix, rhs))
    pivots = _row_reduce(rows, dens, n)
    if any(rows[len(pivots):]):
        raise NoSolution("inconsistent linear system")
    x = [ZERO] * n
    for row, den, c in zip(rows, dens, pivots):
        if n in row:
            x[c] = Rat(row[n], den)
    return x


def exact_rank(matrix) -> int:
    n = _width(matrix)
    rows, dens = _int_rows(matrix)
    return len(_row_reduce(rows, dens, n))


def _phase1_vertex(rows, dens, rhs, n):
    """Phase-I simplex with Bland's rule on ``{x >= 0 : A x = b}``.

    Row ``i`` of ``A`` is the integer row ``rows[i]`` over ``dens[i]``
    (``n`` columns), and ``b[i]`` is ``rhs[i] / dens[i]``.  Returns one
    exact value per column for a basic feasible solution, or ``None`` when
    the system is infeasible.  Strictly positive values always sit on
    linearly independent columns.
    """
    m = len(rows)
    rhs_col = n + m
    # artificial column n + i starts basic in row i with the value one; a
    # row with negative right-hand side is negated so that the start is
    # feasible
    T = []
    for i, (row, den, b) in enumerate(zip(rows, dens, rhs)):
        t = dict(row) if b >= 0 else {j: -v for j, v in row.items()}
        t[n + i] = den
        if b:
            t[rhs_col] = abs(b)
        T.append(t)
    basis = list(range(n, n + m))

    # cost row for min(sum of artificials), over the lcm of the row
    # denominators: artificial columns start at zero, every other column
    # at minus its column sum, so its right-hand side entry is minus the
    # objective value
    den = lcm(*dens)
    cost = {}
    for t, d in zip(T, dens):
        s = den // d
        for j, v in t.items():
            if j < n or j == rhs_col:
                cost[j] = cost.get(j, 0) - v * s
    cost = {j: v for j, v in cost.items() if v}
    g = gcd(den, *cost.values())
    T.append({j: v // g for j, v in cost.items()})
    dens = [*dens, den // g]

    while True:
        # basic columns have zero reduced cost, so they never show up here
        enter = min(
            (j for j, v in T[m].items() if v < 0 and j != rhs_col), default=None
        )
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = T[i].get(enter, 0)
            if a > 0:
                b = T[i].get(rhs_col, 0)
                if leave is not None:
                    # b / a against best_b / best_a, a tie going to the
                    # smaller basic column
                    lhs, rhs = b * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_a, best_b = i, a, b
        if leave is None:
            raise AssertionError("phase-I objective cannot be unbounded")
        _pivot(T, dens, leave, enter)
        basis[leave] = enter

    if rhs_col in T[m]:
        return None
    values = [ZERO] * n
    for i, j in enumerate(basis):
        if j < n and rhs_col in T[i]:
            values[j] = Rat(T[i][rhs_col], dens[i])
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
    pts = [tuple(map(int, p)) for p in points]
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

    # integer coordinates give an integer tableau over unit denominators
    unique = sorted(first_index)
    rows = [{j: p[c] for j, p in enumerate(unique) if p[c]} for c in range(dim)]
    rows.append(dict.fromkeys(range(len(unique)), 1))
    values = _phase1_vertex(rows, [1] * (dim + 1), [*tgt, 1], len(unique))
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
    b_ub = list(b_ub or [])
    b_eq = list(b_eq or [])
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise ValueError("constraint matrix and rhs sizes differ")
    constraints = [*a_ub, *a_eq]
    width = _width(constraints)
    if n_vars is None:
        if not constraints:
            raise ValueError("n_vars required when there are no constraints")
        n_vars = width
    elif constraints and width != n_vars:
        raise ValueError("n_vars does not match constraint width")
    if not constraints:
        return True, [ZERO] * n_vars

    # each right-hand side shares its row's denominator, so it comes out of
    # the row at column n_vars; one slack column per inequality follows
    rows, dens = _int_rows([*row, v] for row, v in zip(constraints, b_ub + b_eq))
    rhs = [row.pop(n_vars, 0) for row in rows]
    for i in range(len(a_ub)):
        rows[i][n_vars + i] = dens[i]
    values = _phase1_vertex(rows, dens, rhs, n_vars + len(a_ub))
    if values is None:
        return False, None
    return True, values[:n_vars]
