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
* :func:`check_rates`, the rate validation as the library ran it before
  its one pass from rates to field raised its own errors: the pair, the
  value and the sign of each rate in turn, and the nonzero rates back;
* :func:`reference_field_and_symmetric`, the field and the symmetric
  parts of oriented-edge rates on ``Fraction`` values after
  :func:`check_rates`, one rational per step, as the library computed
  them before it scaled the rates to integer numerators in one pass;
* :func:`reference_cycles`, the terms of an elementary decomposition as
  the library listed them before it dropped zero weights ahead of the
  sort and built the sort key from one ``repr`` per vertex: edge
  2-cycles sorted by ``str`` of the edge, then both orientations of every
  face, and the zero weights filtered out last;
* :func:`reference_format_elementary_decomposition`, the ``.dec`` text of
  an elementary decomposition as the library wrote it before it wrote
  from the decomposition's term ids: the ``(vertex cycle, weight)`` terms
  of ``cycles()`` through the shared ``term ... cycle`` line writer;
* :func:`reference_birkhoff_decompose` and :func:`reference_augment`,
  the Birkhoff split as the library computed it before it numbered the
  rows and columns: the residual in a dict keyed by label pairs, the
  matching in two dicts, the rows seen in a set, and the bistochastic
  check as a pass of its own;
* :func:`reference_reconstruct_on_complex`, the rebuild of an elementary
  or 1d decomposition as the library computed it before it ran on vertex
  ids: every step of every term a tuple of vertex tuples, looked up on
  the complex and then summed by :func:`edge_sum`;
* :func:`reference_parse_graph`, the graph reader as it was before it
  found duplicate edges by size: each edge line looked up for a
  duplicate before its weight is read;
* :func:`reference_parse_field`, the field reader as it was before it
  filed each value under its edge id: each record's head worked out from
  its coordinates, the values keyed by ``(tail, head)`` and passed
  through :func:`field_from_dict`;
* :func:`reference_periodic_reduction` and
  :func:`reference_row_probabilities`, the floor formula that reduced a
  sample point into the periods and the fixed four-neighbour walk that
  normalised each row of a random environment.
* :func:`reference_boundary2`, :func:`reference_coboundary0`,
  :func:`reference_face_center_chain` and
  :func:`reference_environment_weights`, the two chain operators, the
  face-center sampling and the random-environment weight pass as the
  library computed them before they ran on integer numerators: one
  ``Rat`` sum, difference, coordinate or weight at a time.

A few small helpers serve only the tests and live here for that reason:
:func:`permutation_to_cycles`, the orbits of a permutation,
:func:`oriented_edges`, both directions of every edge of a complex,
:func:`field_from_dict`, a field from oriented-edge values,
:func:`edge_direction`, the direction of a 2-torus edge read from its id,
:func:`zero_field`, :func:`zero_chain` and :func:`inner`, the zero field,
the zero chain and the edge inner product of two fields,
:func:`snap` and :func:`sample`, one snapped value and the snapped
potential at one point, the tests' reference for the face-center path, and
:func:`elementary_reconstruct` and :func:`elementary_matches`, the rates
an elementary decomposition sums to and their comparison with the input.
"""

import random
from math import gcd, lcm, prod

from cycledec.complexes import (
    HodgeParts,
    TwoChain,
    TwoComplex,
    VectorField,
    ZeroForm,
    boundary1,
    coboundary0,
    field_to_rates,
    harmonic_basis,
    recover_psi,
)
from cycledec.errors import (
    InputFormatError,
    NoPerfectMatching,
    NoSolution,
    NotBistochastic,
    NotGeneralPosition,
    NotHomologous,
    TooLarge,
    ZeroNotInterior,
)
from cycledec.discretize import DEFAULT_DENOMINATOR, _snap_numerator
from cycledec.exact_lp import _width
from cycledec.finite_graph import GraphCycle, cycle_edges, cycle_sum, edge_sum, is_bistochastic
from cycledec.io import FIELD_VERTEX_LIMIT, _content_lines, _cycle_terms, _fmt, _parse_value
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
    coefficients = tuple(inner(phi, b) / inner(b, b) for b in basis)
    harmonic = basis[0].scale(coefficients[0]) + basis[1].scale(coefficients[1])
    return HodgeParts(gradient, phi - gradient - harmonic, harmonic, coefficients)


def reference_augment(root, adjacency, match_row, match_col) -> bool:
    """Match the free row ``root`` along one augmenting path, on labels.

    The same Kuhn search with Duff's look-ahead as the library's, with
    the matching in dicts that lack unmatched keys and a set of the rows
    seen.  Returns False, leaving the matching as it was, when no path
    exists.
    """
    path, via, scans = [root], [], [None]
    seen = {root}
    while path:
        r = path[-1]
        if scans[-1] is None:
            free = next((c for c in adjacency[r] if c not in match_col), None)
            if free is not None:
                via.append(free)
                for u, col in zip(path, via):
                    match_row[u] = col
                    match_col[col] = u
                return True
            scans[-1] = iter(adjacency[r])
        for c in scans[-1]:
            nxt = match_col[c]
            if nxt not in seen:
                seen.add(nxt)
                via.append(c)
                path.append(nxt)
                scans.append(None)
                break
        else:
            path.pop()
            scans.pop()
            if via:
                via.pop()
    return False


def reference_birkhoff_decompose(g):
    """Birkhoff terms from one kept matching on label pairs."""
    if not is_bistochastic(g):
        raise NotBistochastic("row or column sums differ from 1")
    scale, residual = scaled(g.weights)
    adjacency = {r: [] for r in g.vertices}
    for u, v in sorted(residual):
        adjacency[u].append(v)
    match_row: dict = {}
    match_col: dict = {}
    free = g.vertices
    terms = []
    while residual:
        for r in free:
            if not reference_augment(r, adjacency, match_row, match_col):
                raise NoPerfectMatching(
                    "no perfect matching on a bistochastic support; arithmetic bug"
                )
        matching = {r: match_row[r] for r in g.vertices}
        m = min(residual[e] for e in matching.items())
        terms.append((matching, Rat(m, scale)))
        free = []
        for u, v in matching.items():
            residual[(u, v)] -= m
            if residual[(u, v)] == 0:
                del residual[(u, v)]
                adjacency[u].remove(v)
                del match_row[u], match_col[v]
                free.append(u)
    return terms


def reference_reconstruct_on_complex(mode, records, complex, path="<decomposition>"):
    """Oriented-edge weights of elementary or 1d records on ``complex``."""
    if mode not in ("elementary", "1d"):
        raise InputFormatError(path, 0, f"no reconstruction rule for mode {mode!r}")
    terms = [record[1:] for record in records if record[0] == "term"]
    scale = lcm(*(weight.denominator for weight, _, _ in terms))
    return edge_sum(_reference_complex_term_edges(terms, complex, path), scale)


def _reference_complex_term_edges(terms, complex, path):
    vertices = {}
    index = complex.edge_index
    for weight, kind, payload in terms:
        if kind != "cycle":
            raise InputFormatError(path, 0, f"unexpected term kind {kind!r}")
        if not payload:
            raise InputFormatError(path, 0, "cycle must be nonempty")
        cycle = []
        for token in payload:
            vertex = vertices.get(token)
            if vertex is None:
                if complex.is_torus():
                    try:
                        vertex = tuple(map(int, token.split(",")))
                    except ValueError:
                        raise InputFormatError(path, 0, f"bad coordinates {token!r}")
                else:
                    vertex = token
                vertices[token] = vertex
            cycle.append(vertex)
        edges = cycle_edges(cycle)
        for step in edges:
            if step not in index:
                u, v = step
                if (v, u) not in index:
                    raise InputFormatError(path, 0, f"no edge between {u} and {v}")
        yield edges, weight


def reference_parse_graph(text: str, path):
    """``(name, weights, lines)`` of a graph file, checked line by line."""
    name = None
    weights = {}
    values = {}
    lines = []
    for line_no, line in _content_lines(text):
        tokens = line.split()
        if name is None:
            if tokens[0] != "digraph" or len(tokens) != 2:
                raise InputFormatError(path, line_no, "expected header: digraph <name>")
            name = tokens[1]
            continue
        if len(tokens) != 3:
            raise InputFormatError(path, line_no, "expected: <u> <v> <num/den>")
        key = tokens[0], tokens[1]
        if key in weights:
            raise InputFormatError(path, line_no, f"duplicate edge {key[0]} {key[1]}")
        weight = values.get(tokens[2])
        if weight is None:
            weight = _parse_value(tokens[2], path, line_no, values)
            if weight.numerator < 0:
                raise InputFormatError(
                    path, line_no, f"negative weight {tokens[2]} on {key[0]} {key[1]}"
                )
        weights[key] = weight
        lines.append(line_no)
    if name is None:
        raise InputFormatError(path, 0, "missing digraph header")
    return name, weights, lines


def reference_parse_field(text: str, path):
    """``(complex, field)`` of a field file, each edge found from its
    tail's coordinates."""
    complex = None
    entries = {}
    values = {}
    for line_no, line in _content_lines(text):
        tokens = line.split()
        if complex is None:
            if len(tokens) not in (3, 4) or tokens[0] != "field" or tokens[1] != "torus":
                raise InputFormatError(
                    path, line_no, "expected header: field torus <N> [<N2>]"
                )
            try:
                dims = [int(t) for t in tokens[2:]]
            except ValueError:
                raise InputFormatError(path, line_no, "torus sizes must be integers")
            if min(dims) >= 3 and prod(dims) > FIELD_VERTEX_LIMIT:
                raise InputFormatError(
                    path, line_no,
                    f"torus of {prod(dims)} vertices exceeds the limit of {FIELD_VERTEX_LIMIT}",
                )
            try:
                complex = (
                    TwoComplex.torus1(*dims) if len(dims) == 1 else TwoComplex.torus2(*dims)
                )
            except ValueError as exc:
                raise InputFormatError(path, line_no, str(exc))
            continue
        d = complex.torus_dimension()
        if len(tokens) != d + 2:
            raise InputFormatError(
                path, line_no, f"expected {d} coordinates, a direction and a value"
            )
        try:
            point = tuple(int(t) for t in tokens[:d])
            direction = int(tokens[d])
        except ValueError:
            raise InputFormatError(path, line_no, "coordinates must be integers")
        if not 1 <= direction <= d:
            raise InputFormatError(path, line_no, f"direction must be in 1..{d}")
        shape = complex.torus_shape
        if any(not 0 <= c < n for c, n in zip(point, shape)):
            raise InputFormatError(path, line_no, f"vertex {point} outside the torus")
        head = list(point)
        head[direction - 1] = (head[direction - 1] + 1) % shape[direction - 1]
        key = (point, tuple(head))
        if key in entries:
            raise InputFormatError(path, line_no, f"duplicate edge {point} dir {direction}")
        entries[key] = _parse_value(tokens[-1], path, line_no, values)
    if complex is None:
        raise InputFormatError(path, 0, "missing field header")
    return complex, field_from_dict(complex, entries)


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


def reference_boundary2(psi: TwoChain) -> VectorField:
    """Per edge, the signed values of its faces summed as ``Rat``."""
    cx = psi.complex
    return VectorField(
        cx, [sum((sign * psi.values[fid] for fid, sign in inc), ZERO) for inc in cx.edge_faces]
    )


def reference_coboundary0(f: ZeroForm) -> VectorField:
    """``f(head) - f(tail)`` on every chosen edge, one ``Rat`` difference each."""
    cx = f.complex
    return VectorField(
        cx, [f.values[cx.vertex_index[v]] - f.values[cx.vertex_index[u]] for u, v in cx.edges]
    )


def reference_face_center_chain(potential, complex: TwoComplex, shift=(ZERO, ZERO)) -> TwoChain:
    """The potential at each face center, point by point: the center as a
    ``Rat``, moved by ``shift``, reduced modulo the period as a ``Rat``,
    turned into floats for the sampler and its value snapped."""
    n1, n2 = complex.torus_shape
    mesh = potential.periods is None
    p1, p2 = potential.periods or (1, 1)
    d = potential.denominator
    values = []
    for i in range(n1):
        for j in range(n2):
            if mesh:
                u1 = Rat(2 * i + 1, 2 * n1) + shift[0]
                u2 = Rat(2 * j + 1, 2 * n2) + shift[1]
            else:
                u1 = Rat(2 * i + 1, 2) + shift[0]
                u2 = Rat(2 * j + 1, 2) + shift[1]
            value = float(potential.fn(float(to_rat(u1) % p1), float(to_rat(u2) % p2)))
            try:
                values.append(Rat(round(value * d), d))
            except (ValueError, OverflowError):
                raise ValueError(f"cannot snap {value!r} to a multiple of 1/{d}") from None
    return TwoChain(complex, values)


def reference_environment_weights(spec):
    """``(shift, oscillation, weights, probabilities)`` of a random
    environment, one ``Rat`` step at a time: the minimal rates of the
    shifted chain's boundary, each edge's noise added to both directions,
    and each weight over its tail's row total."""
    n1, n2 = spec.dims
    cx = TwoComplex.torus2(n1, n2)
    rng = random.Random(spec.seed)
    d = spec.potential.denominator
    shift = (Rat(rng.randrange(n1 * d), d), Rat(rng.randrange(n2 * d), d))
    chain = reference_face_center_chain(spec.potential, cx, shift)
    minimal = field_to_rates(reference_boundary2(chain))
    span = spec.noise_hi - spec.noise_lo
    weights = {}
    for u, v in cx.edges:
        noise = spec.noise_lo + span * Rat(rng.randrange(d + 1), d)
        weights[(u, v)] = minimal.get((u, v), ZERO) + noise
        weights[(v, u)] = minimal.get((v, u), ZERO) + noise
    totals = dict.fromkeys(cx.vertices, ZERO)
    for (x, _), w in weights.items():
        totals[x] += w
    probabilities = {(x, y): w / totals[x] for (x, y), w in weights.items()}
    return shift, max(chain.values) - min(chain.values), weights, probabilities


def check_rates(rates: dict, complex: TwoComplex) -> dict:
    """Validate an oriented-edge weight map against the complex: the
    nonzero rates as ``Rat``, in the map's order.

    The reference for the library's one validating pass,
    ``complexes._field_and_symmetric``: per rate, the pair, then the
    value, then the sign, with the same errors and messages.
    """
    index = complex.edge_index
    cleaned = {}
    for (u, v), w in rates.items():
        if (u, v) not in index and (v, u) not in index:
            complex.edge_id(u, v)  # raises the KeyError naming the pair
        w = to_rat(w)
        n = w.numerator
        if n < 0:
            raise ValueError(f"negative rate on ({u}, {v})")
        if n:
            cleaned[(u, v)] = w
    return cleaned


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


def reference_format_elementary_decomposition(dec, cx: TwoComplex, source: str, decimals=None) -> str:
    """The ``.dec`` text of an elementary decomposition, one ``term`` line
    per term of ``dec.cycles(cx)``."""
    lines = [
        f"decomposition elementary {source}",
        f"constant {_fmt(dec.chosen_constant, decimals)}",
    ]
    return "\n".join(lines + _cycle_terms(dec.cycles(cx), decimals)) + "\n"


def field_from_dict(complex: TwoComplex, mapping) -> VectorField:
    """The field of oriented-edge values; opposite entries must agree
    antisymmetrically if both are present, and missing edges are zero."""
    values = [None] * complex.n_edges
    for (u, v), value in mapping.items():
        eid, sign = complex.edge_id(u, v)
        value = to_rat(value) if sign > 0 else -to_rat(value)
        if values[eid] is None:
            values[eid] = value
        elif values[eid] != value:
            raise ValueError(f"conflicting values on edge {complex.edges[eid]}")
    return VectorField(complex, [v if v is not None else ZERO for v in values])


def edge_direction(complex: TwoComplex, eid: int) -> int:
    """The direction, 0 or 1, of edge ``eid`` of the 2-torus: ``eid % 2``."""
    if not complex.is_torus() or complex.torus_dimension() != 2:
        raise ValueError("direction only defined on the 2-d torus")
    return eid % 2


def zero_field(complex: TwoComplex) -> VectorField:
    return VectorField(complex, [ZERO] * complex.n_edges)


def zero_chain(complex: TwoComplex) -> TwoChain:
    return TwoChain(complex, [ZERO] * complex.n_faces)


def inner(phi: VectorField, psi: VectorField) -> Rat:
    """The sum of ``phi * psi`` over the chosen edges of one complex."""
    phi._check(psi)
    return sum((a * b for a, b in zip(phi.values, psi.values)), ZERO)


def snap(value: float, denominator: int = DEFAULT_DENOMINATOR) -> Rat:
    """Nearest rational with the given denominator; ``ValueError`` when
    ``value`` is not finite or its scaled value overflows a float."""
    return Rat(_snap_numerator(value, denominator), denominator)


def sample(sampler, u1, u2) -> Rat:
    """The snapped value of ``sampler`` at ``(u1, u2)``, reduced modulo its
    periods (the unit square when it has none)."""
    p1, p2 = sampler.periods if sampler.periods else (1, 1)
    u1, u2 = to_rat(u1) % p1, to_rat(u2) % p2
    return snap(float(sampler.fn(float(u1), float(u2))), sampler.denominator)


def elementary_reconstruct(dec, complex: TwoComplex) -> dict:
    """The oriented-edge rates that the terms of an elementary
    decomposition sum to."""
    return cycle_sum(dec.cycles(complex))


def elementary_matches(dec, rates: dict, complex: TwoComplex) -> bool:
    return elementary_reconstruct(dec, complex) == check_rates(rates, complex)


def oriented_edges(cx: TwoComplex):
    """All oriented edges of the full edge set, both directions."""
    return [e for u, v in cx.edges for e in ((u, v), (v, u))]


def permutation_to_cycles(pi: dict):
    """Orbit decomposition of a permutation.

    Returns ``(cycles, fixed_points)``: vertex-disjoint cycles of length at
    least two, plus the fixed points reported separately.
    """
    domain = sorted(pi)
    if sorted(pi.values()) != domain:
        raise ValueError("mapping is not a permutation of its domain")
    seen = set()
    cycles = []
    fixed = []
    for start in domain:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        x = pi[start]
        while x != start:
            orbit.append(x)
            seen.add(x)
            x = pi[x]
        if len(orbit) == 1:
            fixed.append(start)
        else:
            cycles.append(GraphCycle(tuple(orbit)))
    return cycles, fixed
