"""Reference implementations that the tests compare the library against.

None of these runs in the library or the CLI.  They solve the same
problems the slow, direct way, on ``Fraction`` cells or on integers:

* :func:`fraction_phase1_rounds`, a phase-I tableau simplex with the
  pricing and the kill protocol of the library's revised simplex, and
  :func:`reference_lp_feasible` on its first solution;
* :func:`brute_force_Re_oracle`, elementary decomposability as the
  feasibility of its defining linear system;
* :func:`in_d_lambda2`, membership of a field in the face-boundary image;
* :func:`reference_validate`, :func:`reference_recover_psi` and
  :func:`reference_irreducible_class`, the surface check, the orientable
  chain recovery and the irreducible class as the library computed them
  before the face adjacency graph had one walk and the class came from
  the barycentric vertex: one traversal for the orientation claim and one
  for connectivity, a stack walk from any base face, and a general exact
  linear solve;
* :func:`reference_solve_exact_linear` and :func:`reference_exact_rank`,
  the fraction-free sparse Gauss-Jordan the library used before its dense
  ``Rat`` elimination: integer rows without zeros over one positive
  denominator each, every pivot multiplying the other rows through and
  dividing them by their content (Edmonds 1967, Bareiss 1968).  The other
  references below solve with it, so none of them shares the library's
  elimination, and it is fast enough for their 64-vertex Laplace systems;
* :func:`face_boundary_matrix` and
  :func:`reference_nonorientable_recover_psi`, the dense face-boundary
  rows and the chain recovery on a non-orientable complex by Gauss-Jordan
  on them, as the library computed it before the face-tree integration
  served every surface;
* :func:`reference_hodge_decompose`, the torus Hodge split with its
  Laplace system, vertex 0 pinned, solved by Gauss-Jordan on dense
  ``Rat`` rows, and the harmonic part from inner products, as the library
  computed it before the p-adic solver;
* :func:`reference_field_and_symmetric`, the field and the symmetric
  parts of oriented-edge rates on ``Fraction`` values after
  :func:`check_rates`, one rational per step, as the library computed
  them before it scaled the rates to integer numerators in one pass;
* :func:`reference_cycles`, the terms of an elementary decomposition as
  the library listed them before it dropped zero weights ahead of the
  sort and built the sort key from one ``repr`` per vertex: edge
  2-cycles sorted by ``str`` of the edge, then both orientations of every
  face, and the zero weights filtered out last;
* :func:`reference_periodic_reduction` and
  :func:`reference_row_probabilities`, the floor formula that reduced a
  sample point into the periods and the fixed four-neighbour walk that
  normalised each row of a random environment.
"""

from math import gcd, lcm

from cycledec.complexes import (
    HodgeParts,
    TwoChain,
    TwoComplex,
    VectorField,
    ZeroForm,
    boundary1,
    check_rates,
    coboundary0,
    harmonic_basis,
    recover_psi,
)
from cycledec.errors import NoSolution, NotGeneralPosition, NotHomologous, TooLarge, ZeroNotInterior
from cycledec.exact_lp import _width
from cycledec.lattice import LatticeCycleClass
from cycledec.ratio import ONE, ZERO, Rat, scaled, to_rat


def _sparse(row):
    return {j: q for j, v in enumerate(row) if (q := to_rat(v))}


def fraction_pivot(rows, r, c):
    """Make the entry of row ``r`` in column ``c`` one and clear column
    ``c`` from every other ``{column: Rat}`` row."""
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


def fraction_phase1_rounds(rows, rhs, n, ties=None, fallbacks=None):
    """Phase-I tableau simplex on ``{x >= 0 : A x = b}`` over a shrinking
    set of live columns, with the pricing of ``barycentric_rounds``.

    ``rows`` are the ``{column: Rat}`` rows of ``A`` over ``n`` columns and
    ``rhs`` is ``b``.  The tableau keeps the right-hand side as its last
    column.  The generator yields one value per column for a basic
    feasible solution, or ``None`` (and stops) when the live columns
    cannot reach ``b``, and then receives the columns killed since; a
    killed column never enters again and counts, like an artificial one,
    in the phase-I objective.  The reduced costs are recomputed from the
    tableau before every pivot, for the live columns ``j < n`` only.  The
    entering column has the most negative reduced cost, the least index
    on a tie, except right after a pivot whose leaving value was zero,
    when it is the least index with a negative reduced cost (Bland); each
    such pivot where the two choices differ is appended to ``fallbacks``
    as ``(Bland's column, the most negative column)``.  The leaving row
    has the least ratio, the smaller basic index on a tie, and every
    ratio-test tie is appended to ``ties``.
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
    killed = set()
    degenerate = False

    while True:
        while True:
            dead = [T[i] for i, j in enumerate(basis) if j >= n or j in killed]
            if not any(rhs_col in t for t in dead):
                break
            cost = {}
            for t in dead:
                for j, v in t.items():
                    if j < n and j not in killed:
                        cost[j] = cost.get(j, ZERO) - v
            negative = sorted(j for j, v in cost.items() if v < 0)
            if not negative:
                yield None
                return
            enter = min(negative, key=lambda j: cost[j])
            if degenerate and negative[0] != enter:
                if fallbacks is not None:
                    fallbacks.append((negative[0], enter))
                enter = negative[0]
            leave = None
            best = None
            for i in range(m):
                a = T[i].get(enter, ZERO)
                if a > 0:
                    ratio = T[i].get(rhs_col, ZERO) / a
                    if best is not None and ratio == best and ties is not None:
                        ties.append((enter, i, leave))
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            assert leave is not None
            degenerate = best == 0
            fraction_pivot(T, leave, enter)
            basis[leave] = enter

        values = [ZERO] * n
        for i, j in enumerate(basis):
            if j < n:
                values[j] = T[i].get(rhs_col, ZERO)
        killed.update((yield values) or ())


def reference_lp_feasible(a_ub=(), b_ub=(), a_eq=(), b_eq=(), n_vars=None):
    """Exact feasibility of ``{x >= 0, a_ub x <= b_ub, a_eq x = b_eq}``.

    Returns ``(True, witness)`` with an exact witness, or ``(False, None)``.
    ``n_vars`` defaults to the width of the constraints.
    """
    rows = [_sparse(row) for row in [*a_ub, *a_eq]]
    if n_vars is None:
        n_vars = len([*a_ub, *a_eq][0])
    if not rows:
        return True, [ZERO] * n_vars
    # one slack column per inequality
    for i in range(len(a_ub)):
        rows[i][n_vars + i] = ONE
    rhs = [to_rat(v) for v in [*b_ub, *b_eq]]
    values = next(fraction_phase1_rounds(rows, rhs, n_vars + len(a_ub)))
    if values is None:
        return False, None
    return True, values[:n_vars]


def brute_force_Re_oracle(rates: dict, complex: TwoComplex, max_vars: int = 400) -> bool:
    """Elementary decomposability as the feasibility of its linear system.

    One nonnegative variable per edge cycle and per oriented face cycle,
    one equation per oriented edge.  Small complexes only: more than
    ``max_vars`` variables raise :class:`TooLarge`.
    """
    rates = check_rates(rates, complex)
    n_edge_vars = complex.n_edges
    n_vars = n_edge_vars + 2 * complex.n_faces
    if n_vars > max_vars:
        raise TooLarge(f"{n_vars} variables exceed the budget of {max_vars}")

    rows = []
    rhs = []
    for eid, (u, v) in enumerate(complex.edges):
        for forward in (True, False):
            row = [ZERO] * n_vars
            row[eid] = ONE
            for fid, sign in complex.edge_faces[eid]:
                traverses_forward = sign == 1
                if traverses_forward == forward:
                    row[n_edge_vars + 2 * fid] += ONE
                else:
                    row[n_edge_vars + 2 * fid + 1] += ONE
            rows.append(row)
            rhs.append(rates.get((u, v) if forward else (v, u), ZERO))
    feasible, _ = reference_lp_feasible(a_eq=rows, b_eq=rhs, n_vars=n_vars)
    return feasible


def in_d_lambda2(phi: VectorField) -> bool:
    """Whether ``phi`` is the boundary of a two-chain."""
    try:
        recover_psi(phi)
    except NotHomologous:
        return False
    return True


def _admits_agreeing_orientation(cx: TwoComplex) -> bool:
    """Whether flips propagated across shared edges, one start per
    component, reach no conflict."""
    flip = [None] * cx.n_faces
    for start in range(cx.n_faces):
        if flip[start] is not None:
            continue
        flip[start] = 1
        stack = [start]
        while stack:
            fid = stack.pop()
            for eid, sign in cx.face_edges[fid]:
                for other, other_sign in cx.edge_faces[eid]:
                    if other == fid:
                        continue
                    needed = flip[fid] if sign != other_sign else -flip[fid]
                    if flip[other] is None:
                        flip[other] = needed
                        stack.append(other)
                    elif flip[other] != needed:
                        return False
    return True


def _dual_connected(cx: TwoComplex) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        fid = stack.pop()
        for eid, _ in cx.face_edges[fid]:
            for other, _ in cx.edge_faces[eid]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
    return len(seen) == cx.n_faces


def reference_validate(cx: TwoComplex):
    """``TwoComplex.validate`` on two separate traversals: the orientation
    claim first, then connectivity."""
    if cx.n_faces == 0:
        return
    for eid, incidences in enumerate(cx.edge_faces):
        if len(incidences) != 2:
            raise ValueError(
                f"edge {cx.edges[eid]} lies in {len(incidences)} faces, expected exactly 2"
            )
        if len({fid for fid, _ in incidences}) != 2:
            raise ValueError(f"edge {cx.edges[eid]} repeats inside a single face")
    if cx.orientable:
        for eid, incidences in enumerate(cx.edge_faces):
            if {s for _, s in incidences} != {1, -1}:
                raise ValueError(
                    f"faces around edge {cx.edges[eid]} are not oriented "
                    "in agreement; reorient or declare non-orientable"
                )
    elif _admits_agreeing_orientation(cx):
        raise ValueError(
            "complex declared non-orientable but an agreeing face orientation exists"
        )
    if not _dual_connected(cx):
        raise ValueError("face adjacency graph is disconnected")


def reference_recover_psi(phi: VectorField, base_face: int = 0) -> TwoChain:
    """Orientable chain recovery by a stack walk that integrates as it
    discovers faces, from ``base_face`` pinned to zero."""
    cx = phi.complex
    values = phi.values
    psi = [None] * cx.n_faces
    psi[base_face] = values[0] * 0 if values else ZERO
    stack = [base_face]
    while stack:
        fid = stack.pop()
        for eid, sign in cx.face_edges[fid]:
            for other, _ in cx.edge_faces[eid]:
                if other == fid or psi[other] is not None:
                    continue
                psi[other] = psi[fid] - values[eid] if sign == 1 else psi[fid] + values[eid]
                stack.append(other)
    if any(v is None for v in psi):
        raise NotHomologous("face adjacency graph is disconnected")
    for eid, incidences in enumerate(cx.edge_faces):
        if len(incidences) != 2 or incidences[0][1] == incidences[1][1]:
            raise ValueError("edge incidences are not in (+1, -1) form")
        (f1, s1), (f2, _) = incidences
        if (psi[f1] - psi[f2] if s1 == 1 else psi[f2] - psi[f1]) != values[eid]:
            raise NotHomologous(f"path-dependent integral at edge {cx.edges[eid]}")
    return TwoChain._exact(cx, psi)


def _int_rows(matrix):
    """Rational rows as ``(rows, dens)``: each row's numerators, without
    zeros, over the lcm of its denominators, which leaves content one.

    Integer cells are kept as they are and zero ones skipped; every other
    cell is coerced, and dropped when it comes out zero."""
    rows, dens = [], []
    for row in matrix:
        qs = {}
        for j, v in enumerate(row):
            if type(v) is int:
                if v:
                    qs[j] = v
            elif q := to_rat(v):
                qs[j] = q
        den = lcm(*(q.denominator for q in qs.values()))
        rows.append({j: q.numerator * (den // q.denominator) for j, q in qs.items()})
        dens.append(den)
    return rows, dens


def _int_pivot(rows, dens, r, c):
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


def _int_row_reduce(rows, dens, ncols):
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
        _int_pivot(rows, dens, r, c)
        pivots.append(c)
    return pivots


def reference_solve_exact_linear(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly by Gauss-Jordan elimination.

    Each equation becomes an integer row over its own denominator
    (:func:`_int_rows`); the pivots stay on integers, and only the
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
    pivots = _int_row_reduce(rows, dens, n)
    if any(rows[len(pivots):]):
        raise NoSolution("inconsistent linear system")
    x = [ZERO] * n
    for row, den, c in zip(rows, dens, pivots):
        if n in row:
            x[c] = Rat(row[n], den)
    return x


def reference_exact_rank(matrix) -> int:
    """The rank of ``matrix`` by the fraction-free elimination."""
    n = _width(matrix)
    rows, dens = _int_rows(matrix)
    return len(_int_row_reduce(rows, dens, n))


def face_boundary_matrix(complex: TwoComplex):
    """Matrix of the face boundary as int rows, one column per chosen face."""
    rows = []
    for incidences in complex.edge_faces:
        row = [0] * complex.n_faces
        for fid, sign in incidences:
            row[fid] += sign
        rows.append(row)
    return rows


def reference_nonorientable_recover_psi(phi: VectorField) -> TwoChain:
    """The unique chain with boundary ``phi`` on a non-orientable complex,
    by exact solve of the face-boundary system."""
    cx = phi.complex
    try:
        chain = reference_solve_exact_linear(face_boundary_matrix(cx), phi.values)
    except NoSolution:
        raise NotHomologous("field is not a boundary on this complex")
    return TwoChain._exact(cx, chain)


def reference_irreducible_class(points) -> LatticeCycleClass:
    """The irreducible class from the one solution of the barycentric
    system of the origin, by exact linear solve."""
    pts = [tuple(int(c) for c in p) for p in points]
    if not pts:
        raise ValueError("points must be nonempty")
    if len(set(pts)) != len(pts):
        raise NotGeneralPosition("duplicate points")
    d = len(pts[0])
    diffs = [[p[i] - pts[0][i] for i in range(d)] for p in pts[1:]]
    if diffs and reference_exact_rank(diffs) != len(diffs):
        raise NotGeneralPosition("difference vectors are linearly dependent")
    rows = [[Rat(p[i]) for p in pts] for i in range(d)] + [[ONE] * len(pts)]
    try:
        mu = reference_solve_exact_linear(rows, [ZERO] * d + [ONE])
    except NoSolution:
        raise ZeroNotInterior("origin not in the affine hull of the points")
    if any(c <= 0 for c in mu):
        raise ZeroNotInterior("origin not in the relative interior of the hull")
    return LatticeCycleClass(scaled(dict(zip(pts, mu)))[1])


def reference_hodge_decompose(phi: VectorField) -> HodgeParts:
    """Gradient, homologous and harmonic parts of a 2-torus field, with the
    potential from the dense Laplace system and the harmonic coefficients
    as inner products over norms."""
    cx = phi.complex
    div = boundary1(phi)
    n = cx.n_vertices
    neighbor_ids = [[] for _ in range(n)]
    for u, v in cx.edges:
        iu, iv = cx.vertex_index[u], cx.vertex_index[v]
        neighbor_ids[iu].append(iv)
        neighbor_ids[iv].append(iu)
    rows, rhs = [], []
    for i in range(n - 1):
        row = [ZERO] * n
        row[i] = -Rat(len(neighbor_ids[i]))
        for j in neighbor_ids[i]:
            row[j] += ONE
        rows.append(row)
        rhs.append(div.values[i])
    rows.append([ONE] + [ZERO] * (n - 1))
    rhs.append(ZERO)
    gradient = coboundary0(ZeroForm(cx, reference_solve_exact_linear(rows, rhs)))
    basis = harmonic_basis(cx)
    coefficients = tuple(phi.inner(b) / b.inner(b) for b in basis)
    harmonic = basis[0].scale(coefficients[0]) + basis[1].scale(coefficients[1])
    return HodgeParts(gradient, phi - gradient - harmonic, harmonic, coefficients)


def reference_periodic_reduction(u, period) -> Rat:
    """``u`` reduced into ``[0, period)`` as ``u - floor(u / period) * period``."""
    u = to_rat(u)
    q = u / period
    return u - (q.numerator // q.denominator) * period


def reference_row_probabilities(weights: dict, dims) -> dict:
    """Each vertex's weights to its four torus neighbours, walked in a fixed
    order, over their sum."""
    n1, n2 = dims
    probabilities = {}
    for i in range(n1):
        for j in range(n2):
            x = (i, j)
            ys = [((i + 1) % n1, j), (i, (j + 1) % n2), ((i - 1) % n1, j), (i, (j - 1) % n2)]
            total = sum((weights[(x, y)] for y in ys), ZERO)
            for y in ys:
                probabilities[(x, y)] = weights[(x, y)] / total
    return probabilities


def reference_field_and_symmetric(rates: dict, cx: TwoComplex):
    """``(field, symmetric)``: the field ``r(u, v) - r(v, u)`` and the list
    of ``min(r(u, v), r(v, u))`` per chosen edge, on ``Rat`` values."""
    rates = check_rates(rates, cx)
    values, s = [], []
    for u, v in cx.edges:
        a = rates.get((u, v), ZERO)
        b = rates.get((v, u), ZERO)
        values.append(a - b)
        s.append(min(a, b))
    return VectorField(cx, values), s


def reference_cycles(dec, cx: TwoComplex) -> list:
    """The nonzero ``(vertex cycle, weight)`` terms of an elementary
    decomposition in ``.dec`` order."""
    order = sorted(dec.edge_weights, key=lambda eid: str(cx.edges[eid]))
    terms = [(cx.edges[eid], dec.edge_weights[eid]) for eid in order]
    for fid in sorted(dec.face_weights):
        forward, backward = dec.face_weights[fid]
        cycle = tuple(
            cx.edges[eid][0 if sign == 1 else 1] for eid, sign in cx.face_edges[fid]
        )
        terms += [(cycle, forward), (cycle[::-1], backward)]
    return [(cycle, weight) for cycle, weight in terms if weight != 0]
