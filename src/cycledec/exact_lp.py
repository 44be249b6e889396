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
plus a vertex is all the rest of the package needs.  The tableau serves
:func:`lp_feasible` only.

The barycentric system ``sum x_j (p_j, 1) = (target, 1)`` has just
``d + 1`` rows however many points it has, so :func:`barycentric_rounds`
runs a revised phase-I simplex on it instead: it keeps only the basis, as
its integer adjugate over its determinant, and prices the point columns
against it.  That state lives across the rounds of a Caratheodory
decomposition: killed points leave the problem and the simplex pivots
back to a vertex of what is left, without a rebuild.
:func:`barycentric_vertex` is its first vertex.  A basic feasible solution
of the barycentric system is exactly a set of affinely independent points
carrying the target in the relative interior of their simplex, which is
what the constructive Caratheodory step requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

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
    representation is returned directly.  Otherwise the vertex is the first
    one of :func:`barycentric_rounds` over the sorted distinct points.
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

    unique = sorted(first_index)
    vertex = next(barycentric_rounds(unique, tgt))
    support = sorted((first_index[unique[j]], c) for j, c in vertex.items())
    return BarycentricSolution(
        tuple(i for i, _ in support), tuple(c for _, c in support)
    )


def barycentric_rounds(points, target):
    """Vertices of ``{x >= 0 : sum x_j (p_j, 1) = (target, 1)}`` over a
    shrinking set of live points, from one revised phase-I simplex.

    ``points`` are distinct integer tuples and ``target`` an integer tuple
    of the same length ``d``.  The generator yields a vertex as
    ``{index: Rat}`` over its positive coordinates, sorted by index, and
    then receives (through ``send``) the indices of the points killed since;
    it may be sent ``None`` or an empty list.  Killed points never enter
    the basis again.  Raises :class:`Infeasible` when ``target`` is outside
    the convex hull of the live points.

    The ``m = d + 1`` basic columns ``B`` are kept as their adjugate ``M``
    over ``D = det B``, with ``M b`` as an extra last column.  Entering
    column ``q`` with ``w = M a_q`` on row ``r`` with ``p = w[r] > 0``
    keeps ``M_r`` and sets every other row to ``(M_i p - w_i M_r) / D``,
    which divides exactly (Bareiss 1968); then ``D = p`` stays positive.
    Phase I minimises the sum of the dead basic variables: the artificial
    columns of the start and, after a kill, the killed columns, so that
    the same loop drives them to zero from the current basis (a dead
    column left basic at level zero acts like an artificial).  Its prices
    are ``y``, the sum of the rows of ``M`` at the dead basic positions; a
    live point enters when ``y . a_j > 0``, the least index first (Bland
    1977), and the ratio test cross-multiplies, a tie going to the smaller
    basic index.  The loop stops as soon as the dead variables are zero.
    From there every pivot with a negative reduced cost would be
    degenerate, so the first vertex is the one the tableau of
    :func:`_phase1_vertex` ends at, and no artificial column needs a price:
    while the dead sum is positive and the target is in the hull, some
    live point has a negative reduced cost.
    """
    n = len(points)
    m = len(target) + 1
    # a row with a negative right-hand side is negated, so that the
    # artificial start (column n + i is the i-th unit vector) is feasible
    signs = [-1 if c < 0 else 1 for c in target] + [1]
    live = [(j, [s * c for s, c in zip(signs, (*p, 1))]) for j, p in enumerate(points)]
    columns = dict(live)
    M = [[int(i == j) for j in range(m)] + [b] for i, b in enumerate([*map(abs, target), 1])]
    D = 1
    basis = list(range(n, n + m))
    killed = set()

    while True:
        while True:
            dead = [M[i] for i, j in enumerate(basis) if j >= n or j in killed]
            if not any(row[m] for row in dead):
                break
            y = [sum(c) for c in zip(*dead)]
            enter = next((j for j, a in live if sum(map(mul, y, a)) > 0), None)
            if enter is None:
                raise Infeasible("target is outside the convex hull of the points")
            w = [sum(map(mul, row, columns[enter])) for row in M]
            leave = None
            for i, (row, a) in enumerate(zip(M, w)):
                if a > 0:
                    b = row[m]
                    if leave is not None:
                        lhs, rhs = b * best_a, best_b * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    leave, best_a, best_b = i, a, b
            if leave is None:
                raise AssertionError("phase-I objective cannot be unbounded")
            pivot_row = M[leave]
            for i, (row, f) in enumerate(zip(M, w)):
                if i != leave:
                    M[i] = [(v * best_a - f * u) // D for v, u in zip(row, pivot_row)]
            D = best_a
            basis[leave] = enter

        vertex = sorted((j, Rat(M[i][m], D)) for i, j in enumerate(basis) if j < n and M[i][m])
        killed.update((yield dict(vertex)) or ())
        live = [(j, a) for j, a in live if j not in killed]


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
