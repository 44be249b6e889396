"""Exact rational linear algebra and a vertex-producing barycentric solver.

Every exact solve and rank goes through one elimination kernel,
:func:`_pivot`, acting on fraction-free integer rows: row ``i`` is a
sparse ``{column: int}`` numerator map that never stores a zero, plus one
positive row denominator ``dens[i]``, and stands for the values
``rows[i][j] / dens[i]``.  A pivot multiplies the other rows through by
the pivot numerator instead of dividing (Edmonds 1967, Bareiss 1968) and
then divides each changed row by its content, the gcd of its numerators
and its denominator, so no cell ever becomes a ``Rat``.  Rationals appear
only at the edges: an input row is brought to integers over the lcm of its
denominators, and results come back as ``Rat(numerator, denominator)``.
:func:`solve_exact_linear` and :func:`exact_rank` pivot column by column
(Gauss-Jordan).  The solve serves the Laplace system of the torus Hodge
split and the chain recovery on non-orientable complexes; the rank, the
general-position test of the irreducible lattice class.

The barycentric system ``sum x_j (p_j, 1) = (target, 1)`` has just
``d + 1`` rows however many points it has, so :func:`barycentric_rounds`
runs a revised phase-I simplex on it: it keeps only the basis, as its
integer adjugate over its determinant, and prices the point columns
against it.  The point of largest price enters (Dantzig 1963), except
right after a degenerate pivot, when the least index with a positive
price does (Bland 1977), so that the simplex cannot cycle.  That state
lives across the rounds of a Caratheodory decomposition: killed points
leave the problem and the simplex pivots back to a vertex of what is
left, without a rebuild, in about one pivot per round.
:func:`barycentric_vertex` is its first vertex.  A basic feasible solution
of the barycentric system is exactly a set of affinely independent points
carrying the target in the relative interior of their simplex, which is
what the constructive Caratheodory step requires.
"""

from __future__ import annotations

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


def barycentric_vertex(points, target) -> dict:
    """A basic feasible barycentric representation of ``target``: the
    positive coefficients as ``{index into points: Rat}``, sorted by index.

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
        return {first_index[tgt]: ONE}

    unique = sorted(first_index)
    vertex = next(barycentric_rounds(unique, tgt))
    return dict(sorted((first_index[unique[j]], c) for j, c in vertex.items()))


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
    are ``y``, the sum of the rows of ``M`` at the dead basic positions,
    and a live point may enter when its price ``y . a_j`` is positive.
    The one of largest price enters, the least index on a tie (Dantzig
    1963), except right after a degenerate pivot, one whose leaving basic
    value was zero: then the least index with a positive price enters
    (Bland 1977).  The ratio test cross-multiplies, a tie going to the
    smaller basic index, which is Bland's leaving rule.  The loop stops as
    soon as the dead variables are zero, and no artificial column needs a
    price: while the dead sum is positive and the target is in the hull,
    some live point has a positive price.

    Termination: between two kills the phase-I objective is fixed, and a
    pivot that is not degenerate lowers it strictly, so a sequence of
    pivots that comes back to a basis is made of degenerate pivots only.
    Each of them follows a degenerate pivot, so each is a Bland pivot.  A
    dead column never enters, so it cannot leave inside such a cycle
    either; the cycle is then one of Bland's rule on the problem without
    the dead nonbasic columns, and Bland's rule does not cycle.  Kills
    are finitely many, so the generator reaches every vertex it yields
    after finitely many pivots.  The tests run the same rules on a
    ``Fraction`` tableau, ``fraction_phase1_rounds``, and compare every
    vertex.
    """
    n = len(points)
    m = len(target) + 1
    # a row with a negative right-hand side is negated, so that the
    # artificial start (column n + i is the i-th unit vector) is feasible
    signs = [-1 if c < 0 else 1 for c in target] + [1]
    live = {j: [s * c for s, c in zip(signs, (*p, 1))] for j, p in enumerate(points)}
    M = [[int(i == j) for j in range(m)] + [b] for i, b in enumerate([*map(abs, target), 1])]
    D = 1
    basis = list(range(n, n + m))
    killed = set()
    degenerate = False

    while True:
        while True:
            dead = [M[i] for i, j in enumerate(basis) if j >= n or j in killed]
            if not any(row[m] for row in dead):
                break
            y = [sum(c) for c in zip(*dead)]
            enter, top = None, 0
            for j, a in live.items():
                price = sum(map(mul, y, a))
                if price > top:
                    enter, top = j, price
                    if degenerate:
                        break
            if enter is None:
                raise Infeasible("target is outside the convex hull of the points")
            w = [sum(map(mul, row, live[enter])) for row in M]
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
            degenerate = not best_b

        vertex = sorted((j, Rat(M[i][m], D)) for i, j in enumerate(basis) if j < n and M[i][m])
        for j in (yield dict(vertex)) or ():
            killed.add(j)
            live.pop(j, None)
