"""Exact rational linear algebra and a vertex-producing barycentric solver.

The general exact solve and rank share one dense Gauss-Jordan elimination
on ``Rat`` rows, :func:`_gauss_jordan`: it takes the columns in order,
divides the pivot row by its pivot and clears the pivot column from every
other row.  Only small systems are left for it, so it keeps no sparse or
fraction-free representation.  :func:`solve_exact_linear` serves the
chain recovery on a non-orientable complex: one unknown, with one row
``2 t = c`` per edge whose faces disagree, about ten cells per operation
of the ``surface-fields`` benchmark workload and none on the others.
:func:`exact_rank` serves the general-position test of the irreducible
lattice class, on at most ``d`` difference vectors.

The Laplace system of the torus Hodge split is square, sparse, symmetric
and nonsingular, and its solution has far fewer bits than the
intermediate values of an elimination over the rationals.
:func:`_dixon_solve` therefore never eliminates over the integers: it
factors the system once modulo a word-size prime (a symmetric ``L D L^T``
in minimum-degree order), lifts the solution p-adically (Dixon 1982) and
reads the rationals off the p-adic approximation by rational
reconstruction over one running common denominator (Wang 1981; Monagan
2004).  A candidate is accepted only when its integer residual is exactly
zero, so the answer never depends on the prime; a pivot that vanishes
modulo the prime moves the solve to the next one of :data:`_PRIMES`.

The barycentric system ``sum x_j (p_j, 1) = (target, 1)`` has just
``d + 1`` rows however many points it has, so :func:`barycentric_rounds`
runs a revised phase-I simplex on it: it keeps only the basis, as its
integer adjugate over its determinant, and prices the point columns
against it.  The point of largest price enters (Dantzig 1963), except
right after a degenerate pivot, when the least index with a positive
price does (Bland 1977), so that the simplex cannot cycle.  That state
lives across the rounds of a Caratheodory decomposition: killed points
leave the problem and the simplex pivots back to a vertex of what is
left, without a rebuild, in about one pivot per round.  Each vertex
comes out as integer numerators over the determinant of its basis, so a
caller that clears denominators never meets a ``Rat``;
:func:`barycentric_vertex` is the first vertex, as rationals.  A basic
feasible solution of the barycentric system is exactly a set of affinely
independent points carrying the target in the relative interior of their
simplex, which is what the constructive Caratheodory step requires.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import isqrt
from operator import mul, sub

from .errors import Infeasible, NoSolution
from .ratio import ONE, ZERO, Rat, to_rat


def _width(matrix) -> int:
    """The common length of the rows of ``matrix``, 0 when it has none."""
    widths = {len(row) for row in matrix}
    if len(widths) > 1:
        raise ValueError("rows of mixed width")
    return widths.pop() if widths else 0


def _gauss_jordan(rows, ncols):
    """Reduce the ``Rat`` rows in place on their first ``ncols`` columns,
    taking the columns in order, and return the pivot columns.

    The ``k``-th pivot row moves to position ``k`` and is divided by its
    pivot; the pivot column is then cleared from every other row.  The
    rows after the pivot rows are zero on the first ``ncols`` columns.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        p = rows[r][c]
        pivot = rows[r] = [v / p for v in rows[r]]
        for i, other in enumerate(rows):
            f = other[c]
            if f and i != r:
                rows[i] = [a - f * b if b else a for a, b in zip(other, pivot)]
        pivots.append(c)
    return pivots


def solve_exact_linear(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly by Gauss-Jordan elimination.

    Cells are coerced with :func:`to_rat`.  Returns one exact solution as
    ``Rat`` values (free variables pinned to zero when the system is
    underdetermined).  Raises :class:`NoSolution` when the system is
    inconsistent and ``ValueError`` when the rows differ in width or their
    count differs from the length of ``rhs``.
    """
    rhs = list(rhs)
    if len(matrix) != len(rhs):
        raise ValueError("matrix and rhs sizes differ")
    n = _width(matrix)
    rows = [[*map(to_rat, row), to_rat(b)] for row, b in zip(matrix, rhs)]
    pivots = _gauss_jordan(rows, n)
    if any(row[n] for row in rows[len(pivots):]):
        raise NoSolution("inconsistent linear system")
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return x


def exact_rank(matrix) -> int:
    """The rank of ``matrix`` over the rationals."""
    n = _width(matrix)
    return len(_gauss_jordan([list(map(to_rat, row)) for row in matrix], n))


# Word-size primes for :func:`_dixon_solve`, tried in this order.
_PRIMES = (2**61 - 1, 2**62 - 57, 2**63 - 25)


def _elimination_order(rows):
    """Minimum-degree order of the symmetric pattern of ``rows``, the
    least index on a tie: ``(k, later)`` per pivot in order, ``later``
    being the rows that share an entry with ``k`` when it is eliminated,
    in elimination order.  The order depends on the pattern alone.
    """
    adjacent = [set(row) - {k} for k, row in enumerate(rows)]
    heap = [(len(s), k) for k, s in enumerate(adjacent)]
    heapify(heap)
    done = [False] * len(rows)
    plan = []
    while heap:
        degree, k = heappop(heap)
        neighbours = adjacent[k]
        if done[k] or degree != len(neighbours):
            continue
        done[k] = True
        for i in neighbours:
            other = adjacent[i]
            other |= neighbours
            other.discard(i)
            other.discard(k)
            heappush(heap, (len(other), i))
        plan.append((k, neighbours))
    position = [0] * len(rows)
    for t, (k, _) in enumerate(plan):
        position[k] = t
    return [(k, sorted(later, key=position.__getitem__)) for k, later in plan]


def _ldl_mod(rows, plan, p):
    """``L D L^T`` of the symmetric ``{column: int}`` rows modulo ``p`` in
    the order ``plan`` of :func:`_elimination_order`, or None when a pivot
    is zero modulo ``p``.

    One step per pivot ``k``: ``(k, 1 / d_k, column)``, where ``column``
    lists ``(i, l_ik)`` over the rows eliminated later.  Each row keeps the
    entries on and after its own pivot only, over the pattern the plan
    predicts, and is reduced modulo ``p`` when it becomes the pivot row.
    """
    a = [None] * len(rows)
    for k, later in plan:
        a[k] = dict.fromkeys(later, 0)
        a[k][k] = 0
    for k, row in enumerate(rows):
        ak = a[k]
        for j, v in row.items():
            if j in ak:
                ak[j] += v
    steps = []
    for k, later in plan:
        row = a[k]
        a[k] = None
        d = row[k] % p
        if not d:
            return None
        inv = pow(d, -1, p)
        values = [row[j] % p for j in later]
        column = []
        for t, i in enumerate(later):
            f = values[t] * inv % p
            column.append((i, f))
            other = a[i]
            tail = later[t:]
            other.update(zip(tail, map(sub, map(other.__getitem__, tail), map(f.__mul__, values[t:]))))
        steps.append((k, inv, column))
    return steps


def _solve_mod(steps, r, p):
    """``x`` with ``A x = r`` modulo ``p``, from the factor of :func:`_ldl_mod`."""
    y = list(r)
    for k, _, column in steps:
        yk = y[k] = y[k] % p
        if yk:
            for i, l in column:
                y[i] -= l * yk
    for k, inv, column in reversed(steps):
        v = y[k] * inv
        for i, l in column:
            v -= l * y[i]
        y[k] = v % p
    return y


def _reconstruct(x, modulus):
    """Numerators over one common denominator whose ratios are congruent
    to ``x`` modulo ``modulus``, with numerator and denominator bounded by
    ``sqrt(modulus / 2)`` component by component; None if one has no such
    fraction.

    The denominator found so far multiplies each next component before
    the extended Euclidean algorithm runs on it (Wang 1981), so once the
    denominators are known a component costs one product.
    """
    bound = isqrt(modulus // 2)
    half = modulus // 2
    den = 1
    found = []
    for v in x:
        y = v * den % modulus
        if y > half:
            y -= modulus
        if -bound <= y <= bound:
            found.append((y, den))
            continue
        r0, r1, t0, t1 = modulus, y % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if not t1 or abs(t1) > bound:
            return None
        if t1 < 0:
            r1, t1 = -r1, -t1
        den *= t1
        found.append((r1, den))
    return [n * (den // d) for n, d in found], den


def _dixon_solve(rows, b):
    """The solution of ``A x = b`` for a square nonsingular symmetric
    integer ``A``, given as sparse ``{column: int}`` rows, and an integer
    ``b``: ``(numerators, den)`` with ``x = numerators / den``.

    With ``A`` factored modulo ``p`` (:func:`_ldl_mod`), each step solves
    ``A c = r`` modulo ``p``, adds ``c p^k`` to the p-adic approximation
    and replaces ``r`` by ``(r - A c) / p``, an exact integer division
    (Dixon 1982).  After each step the approximation is reconstructed
    (:func:`_reconstruct`), and the candidate is returned once
    ``A numerators = den b`` holds exactly.  A zero pivot moves the solve
    to the next prime of :data:`_PRIMES`; raises :class:`NoSolution` when
    none is left.
    """
    plan = _elimination_order(rows)
    for p in _PRIMES:
        steps = _ldl_mod(rows, plan, p)
        if steps is not None:
            break
    else:
        raise NoSolution("a pivot vanishes modulo every prime")
    x = [0] * len(b)
    modulus = 1
    r = b
    while True:
        c = _solve_mod(steps, r, p)
        x = [xi + ci * modulus for xi, ci in zip(x, c)]
        modulus *= p
        r = [(ri - sum(map(mul, row.values(), map(c.__getitem__, row)))) // p for ri, row in zip(r, rows)]
        candidate = _reconstruct(x, modulus)
        if candidate is None:
            continue
        numerators, den = candidate
        if all(
            sum(map(mul, row.values(), map(numerators.__getitem__, row))) == den * bi
            for row, bi in zip(rows, b)
        ):
            return candidate


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
    den, vertex = next(barycentric_rounds(unique, tgt))
    return dict(sorted((first_index[unique[j]], Rat(n, den)) for j, n in vertex.items()))


def barycentric_rounds(points, target):
    """Vertices of ``{x >= 0 : sum x_j (p_j, 1) = (target, 1)}`` over a
    shrinking set of live points, from one revised phase-I simplex.

    ``points`` are distinct integer tuples and ``target`` an integer tuple
    of the same length ``d``.  The generator yields a vertex as
    ``(D, {index: numerator})``, the coordinate of point ``index`` being
    ``numerator / D``: ``D`` is positive, the map holds the positive
    coordinates only, sorted by index, as ints summing to ``D``, and no
    fraction is reduced.  It then receives (through ``send``) the indices
    of the points killed since; it may be sent ``None`` or an empty list.
    Killed points never enter the basis again.  Raises :class:`Infeasible`
    when ``target`` is outside the convex hull of the live points.

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

        vertex = sorted((j, M[i][m]) for i, j in enumerate(basis) if j < n and M[i][m])
        for j in (yield D, dict(vertex)) or ():
            killed.add(j)
            live.pop(j, None)
