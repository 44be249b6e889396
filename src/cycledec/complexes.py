"""Discrete tori and surface cell complexes with exact chain calculus.

A :class:`TwoComplex` stores one chosen orientation per unoriented edge
(the set ``E'``) and per two-cell (the set ``F'``); the opposite
orientations are implicit through antisymmetry.  Incidence is recorded as
signed pairs: a face's boundary lists ``(edge_id, +1)`` when it traverses
the chosen orientation and ``(edge_id, -1)`` otherwise; the transposed map
lists, for every edge, the faces passing through it with the same signs.

On an orientable complex whose chosen faces are pairwise oriented in
agreement, every edge sees exactly one ``+1`` face (called ``f_plus``, the
face traversing the edge forwards) and one ``-1`` face (``f_minus``).  For
the square torus with anticlockwise faces this puts ``f_plus`` of a
rightward edge above it and ``f_plus`` of an upward edge to its left.

Conventions for the discrete torus: vertex ``(i, j)`` stands for the point
``(i/N1, j/N2)``; edges point in the positive coordinate directions; faces
are indexed by their lower-left corner and oriented anticlockwise.  Mesh
sizes below three would identify opposite neighbors, so they are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import NoSolution, NotHomologous, TooLarge
from .exact_lp import dixon_solve, solve_exact_linear
from .finite_graph import cycle_edges
from .ratio import ONE, ZERO, Rat, rats_over, scaled_list, to_rat

# largest torus, in vertices, that hodge_decompose takes on: the 64 x 64
# torus took about 5 s, and 72 x 72 about 9 s, on a 2-core x86_64 machine
HODGE_VERTEX_LIMIT = 4096


class TwoComplex:
    """Vertices, chosen edges and faces with their signed incidences.

    Only :meth:`torus1` and :meth:`torus2` set ``torus_shape``; they lay
    out the torus so that the edge leaving vertex id ``v`` in direction
    ``k`` has id ``d v + k`` on the ``d``-torus, and every reader of a
    torus edge's direction takes it from that id.
    """

    def __init__(self, vertices, edges, face_edges, orientable, name="complex"):
        self.name = name
        self.vertices = list(vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.edges = [tuple(e) for e in edges]
        self.edge_index = {}
        for eid, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in self.vertex_index or v not in self.vertex_index:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertex")
            if (u, v) in self.edge_index or (v, u) in self.edge_index:
                raise ValueError(f"duplicate edge between {u} and {v}")
            self.edge_index[(u, v)] = eid
        self.face_edges = [tuple(tuple(p) for p in f) for f in face_edges]
        self.edge_faces = [[] for _ in self.edges]
        for fid, boundary in enumerate(self.face_edges):
            for eid, sign in boundary:
                if sign not in (1, -1):
                    raise ValueError("incidence signs must be +1 or -1")
                self.edge_faces[eid].append((fid, sign))
        self.edge_faces = [tuple(inc) for inc in self.edge_faces]
        self.orientable = bool(orientable)
        self.torus_shape = None

    # -- constructors -------------------------------------------------

    @classmethod
    def torus1(cls, n: int) -> "TwoComplex":
        n = int(n)
        if n < 3:
            raise ValueError("torus mesh must be at least 3")
        vertices = [(i,) for i in range(n)]
        edges = [((i,), ((i + 1) % n,)) for i in range(n)]
        cx = cls(vertices, edges, [], orientable=True, name=f"torus1[{n}]")
        cx.torus_shape = (n,)
        return cx

    @classmethod
    def torus2(cls, n1: int, n2: int | None = None) -> "TwoComplex":
        n1 = int(n1)
        n2 = n1 if n2 is None else int(n2)
        if n1 < 3 or n2 < 3:
            raise ValueError("torus mesh must be at least 3")
        vertices = [(i, j) for i in range(n1) for j in range(n2)]
        # vertex (i, j) has id i * n2 + j; its edge in direction d has id
        # 2 * (i * n2 + j) + d, and face (i, j) has the id of its corner
        edges = []
        face_edges = []
        edge_faces = []
        for i, j in vertices:
            here = i * n2 + j
            right = ((i + 1) % n1) * n2 + j
            top = i * n2 + (j + 1) % n2
            below = i * n2 + (j - 1) % n2
            left = ((i - 1) % n1) * n2 + j
            edges.append(((i, j), vertices[right]))
            edges.append(((i, j), vertices[top]))
            face_edges.append(((2 * here, 1), (2 * right + 1, 1), (2 * top, -1), (2 * here + 1, -1)))
            # each edge lists its two faces in face order, as __init__ does
            edge_faces.append(((here, 1), (below, -1)) if here < below else ((below, -1), (here, 1)))
            edge_faces.append(((here, -1), (left, 1)) if here < left else ((left, 1), (here, -1)))
        # the structure is valid by construction, so __init__'s checks are skipped
        cx = cls.__new__(cls)
        cx.name = f"torus2[{n1}x{n2}]"
        cx.vertices = vertices
        cx.vertex_index = {v: k for k, v in enumerate(vertices)}
        cx.edges = edges
        cx.edge_index = {e: k for k, e in enumerate(edges)}
        cx.face_edges = face_edges
        cx.edge_faces = edge_faces
        cx.orientable = True
        cx.torus_shape = (n1, n2)
        return cx

    @classmethod
    def from_face_cycles(cls, face_cycles, orientable, name="surface"):
        """Build a surface complex from faces given as vertex cycles.

        Each unoriented edge takes the orientation of its first traversal.
        """
        vertices = []
        seen = set()
        edges = []
        edge_ids = {}
        face_edges = []
        for cycle in face_cycles:
            boundary = []
            for a, b in cycle_edges(cycle):
                for v in (a, b):
                    if v not in seen:
                        seen.add(v)
                        vertices.append(v)
                if (a, b) in edge_ids:
                    boundary.append((edge_ids[(a, b)], 1))
                elif (b, a) in edge_ids:
                    boundary.append((edge_ids[(b, a)], -1))
                else:
                    edge_ids[(a, b)] = len(edges)
                    edges.append((a, b))
                    boundary.append((edge_ids[(a, b)], 1))
            face_edges.append(tuple(boundary))
        return cls(vertices, edges, face_edges, orientable, name=name)

    @classmethod
    def klein_grid(cls, n1: int, n2: int) -> "TwoComplex":
        """Grid cellulation of the Klein bottle (vertical wrap flipped)."""
        n1, n2 = int(n1), int(n2)
        if n1 < 3 or n2 < 3:
            raise ValueError("grid sides must be at least 3")

        def ident(i, j):
            if i == n1:
                return f"0,{(-j) % n2}"
            return f"{i},{j % n2}"

        faces = []
        for i in range(n1):
            for j in range(n2):
                corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
                faces.append([ident(a, b) for a, b in corners])
        return cls.from_face_cycles(faces, orientable=False, name=f"klein[{n1}x{n2}]")

    # -- structure queries --------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_faces(self):
        return len(self.face_edges)

    def is_torus(self) -> bool:
        return self.torus_shape is not None

    def torus_dimension(self) -> int:
        if not self.is_torus():
            raise ValueError("not a torus complex")
        return len(self.torus_shape)

    def edge_id(self, u, v):
        """Edge id and sign (+1 along E', -1 against it)."""
        eid = self.edge_index.get((u, v))
        if eid is not None:
            return eid, 1
        eid = self.edge_index.get((v, u))
        if eid is not None:
            return eid, -1
        raise KeyError(f"no edge between {u} and {v}")

    def face_cycle(self, fid: int) -> tuple:
        """Vertex cycle traversed by a chosen face's boundary."""
        edges = self.edges
        return tuple([edges[eid][0 if sign == 1 else 1] for eid, sign in self.face_edges[fid]])

    def validate(self):
        """Check the two-cells-per-edge invariant and the orientation claim.

        Orientable complexes must come with pairwise agreeing face
        orientations; non-orientable ones must genuinely admit no agreeing
        reorientation: with each face flipped to agree with its parent in
        :meth:`_face_tree`, some edge must still disagree.
        """
        if self.n_faces == 0:
            return
        for eid, incidences in enumerate(self.edge_faces):
            if len(incidences) != 2:
                raise ValueError(
                    f"edge {self.edges[eid]} lies in {len(incidences)} faces, "
                    "expected exactly 2"
                )
            if len({fid for fid, _ in incidences}) != 2:
                raise ValueError(
                    f"edge {self.edges[eid]} repeats inside a single face"
                )
        tree, flip = self._face_tree()
        if self.orientable:
            for eid, incidences in enumerate(self.edge_faces):
                if {s for _, s in incidences} != {1, -1}:
                    raise ValueError(
                        f"faces around edge {self.edges[eid]} are not oriented "
                        "in agreement; reorient or declare non-orientable"
                    )
        if len(tree) < self.n_faces:
            raise ValueError("face adjacency graph is disconnected")
        if not self.orientable:
            if all(flip[f1] * s1 != flip[f2] * s2 for (f1, s1), (f2, s2) in self.edge_faces):
                raise ValueError(
                    "complex declared non-orientable but an agreeing "
                    "face orientation exists"
                )

    def _face_tree(self):
        """Depth-first spanning tree of the face adjacency graph from face 0.

        Returns ``(tree, flip)``.  ``tree`` has one ``(face, parent, edge,
        parent sign, face sign)`` entry per face reached, in the order they
        are reached: ``edge`` is the shared edge the walk crossed and the
        signs are how the two faces traverse it.  The root comes first as
        ``(0, None, None, None, None)``, and a list shorter than the face
        count means the graph is disconnected.  ``flip[f]`` is the
        orientation, ``+1`` or ``-1`` times the chosen one, in which face
        ``f`` agrees with its tree parent across the tree edge, with face 0
        at ``+1`` and unreached faces at 0.  A complex declared orientable
        claims that its chosen orientations agree, so there every reached
        face has flip ``+1``.
        """
        tree = [(0, None, None, None, None)]
        flip = [0] * self.n_faces
        flip[0] = 1
        turn = not self.orientable
        stack = [0]
        while stack:
            fid = stack.pop()
            for eid, sign in self.face_edges[fid]:
                for other, other_sign in self.edge_faces[eid]:
                    if not flip[other]:
                        flip[other] = -flip[fid] if turn and sign == other_sign else flip[fid]
                        tree.append((other, fid, eid, sign, other_sign))
                        stack.append(other)
        return tree, flip


class _Valued:
    """Shared arithmetic for the three chain types."""

    def __init__(self, complex: TwoComplex, values):
        self.complex = complex
        self.values = [to_rat(v) for v in values]

    @classmethod
    def _exact(cls, complex: TwoComplex, values: list):
        """Wrap exact values (integer numerators or rationals) uncoerced."""
        chain = cls.__new__(cls)
        chain.complex = complex
        chain.values = values
        return chain

    def _like(self, values):
        return type(self)(self.complex, values)

    def __add__(self, other):
        self._check(other)
        return self._like([a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check(other)
        return self._like([a - b for a, b in zip(self.values, other.values)])

    def scale(self, factor):
        factor = to_rat(factor)
        return self._like([factor * v for v in self.values])

    def _check(self, other):
        if type(other) is not type(self) or other.complex is not self.complex:
            raise ValueError("operands live on different complexes")

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.complex is self.complex
            and other.values == self.values
        )


class ZeroForm(_Valued):
    """Rational function on the vertices."""


class VectorField(_Valued):
    """Antisymmetric edge function, stored on the chosen orientations."""


class TwoChain(_Valued):
    """Orientation-antisymmetric face function, stored on F'."""


@dataclass
class HodgeParts:
    """Exact three-way orthogonal split of a vector field on the 2-torus."""

    gradient: VectorField
    homologous: VectorField
    harmonic: VectorField
    harmonic_coefficients: tuple


# -- operators ---------------------------------------------------------


def coboundary0(f: ZeroForm) -> VectorField:
    """Gradient: value ``f(head) - f(tail)`` on every chosen edge.

    The differences are taken on integer numerators over the lcm of the
    values' denominators; each distinct difference becomes one ``Rat``.
    """
    cx = f.complex
    scale, values = scaled_list(f.values)
    index = cx.vertex_index
    return VectorField._exact(
        cx, rats_over([values[index[v]] - values[index[u]] for u, v in cx.edges], scale)
    )


def boundary1(phi: VectorField) -> ZeroForm:
    """Discrete divergence: at each vertex, the sum of outgoing values."""
    cx = phi.complex
    out = [ZERO] * cx.n_vertices
    for eid, (u, v) in enumerate(cx.edges):
        out[cx.vertex_index[u]] += phi.values[eid]
        out[cx.vertex_index[v]] -= phi.values[eid]
    return ZeroForm(cx, out)


def boundary2(psi: TwoChain) -> VectorField:
    """Field collecting, per edge, the signed values of its faces.

    The sums are taken on integer numerators over the lcm of the chain's
    denominators; each distinct sum becomes one ``Rat``, so a chain of
    ints, as :func:`recover_psi` may return, gives ``Rat`` values too.
    """
    scale, values = scaled_list(psi.values)
    return VectorField._exact(psi.complex, rats_over(boundary_sums(psi.complex, values), scale))


def boundary_sums(cx: TwoComplex, values: list) -> list:
    """Per edge, the signed sum of the integer ``values`` of its faces."""
    sums = []
    for incidences in cx.edge_faces:
        total = 0
        for fid, sign in incidences:
            total += sign * values[fid]
        sums.append(total)
    return sums


def coboundary1(phi: VectorField) -> TwoChain:
    """Circulation of the field around every chosen face."""
    cx = phi.complex
    values = []
    for boundary in cx.face_edges:
        values.append(sum((sign * phi.values[eid] for eid, sign in boundary), ZERO))
    return TwoChain(cx, values)


def harmonic_basis(complex: TwoComplex):
    """The two constant direction fields spanning the 2-torus harmonics:
    ones on the even edge ids, then ones on the odd ones."""
    if not (complex.is_torus() and complex.torus_dimension() == 2):
        raise ValueError("direction only defined on the 2-d torus")
    n = complex.n_vertices
    return [VectorField(complex, [ONE, ZERO] * n), VectorField(complex, [ZERO, ONE] * n)]


def recover_psi(phi: VectorField) -> TwoChain:
    """Find a chain whose boundary is ``phi``, exactly.

    One integration for every complex with faces: along
    :meth:`TwoComplex._face_tree`, in the orientations its flips give, with
    face 0 at an unknown constant ``t`` taken as zero.  Every edge is then
    visited once.  An edge whose faces agree under the flips checks the
    integral; a mismatch certifies that no preimage exists.  An edge whose
    faces disagree, which only a non-orientable surface has, gives one row
    of ``2 t = +-phi(edge) - psi'_1 - psi'_2``.  Without such rows the chain
    keeps the field's number type: the integer numerators of
    :func:`rates_pass` give an integer chain on the same scale, a
    field of ``Rat`` values a ``Rat`` chain.  With them,
    :func:`solve_exact_linear` finds ``t`` (an inconsistent system
    certifies that no preimage exists) and the unique chain comes back as
    ``Rat`` values on the field's scale.  An edge outside exactly two
    faces, or one whose faces disagree on a complex declared orientable,
    raises ``ValueError``.
    """
    cx = phi.complex
    values = phi.values
    if cx.n_faces == 0:
        if phi.is_zero():
            return TwoChain(cx, [])
        raise NotHomologous("no faces, only the zero field is a boundary")
    tree, flip = cx._face_tree()
    if len(tree) < cx.n_faces:
        raise NotHomologous("face adjacency graph is disconnected")
    # the chain in the flipped orientations, less t
    psi = [None] * cx.n_faces
    psi[0] = values[0] * 0 if values else ZERO
    for fid, parent, eid, parent_sign, _ in tree[1:]:
        # psi[f_plus] - psi[f_minus] = phi(edge) in the flipped orientations
        psi[fid] = psi[parent] - values[eid] if flip[parent] == parent_sign else psi[parent] + values[eid]
    rows, rhs = [], []
    for eid, incidences in enumerate(cx.edge_faces):
        if len(incidences) != 2:
            raise ValueError("edge incidences are not in (+1, -1) form")
        (f1, s1), (f2, s2) = incidences
        s1 *= flip[f1]
        if s1 != flip[f2] * s2:
            if (psi[f1] - psi[f2] if s1 == 1 else psi[f2] - psi[f1]) != values[eid]:
                raise NotHomologous(
                    f"path-dependent integral at edge {cx.edges[eid]}"
                )
        elif cx.orientable:
            # every flip is +1 there, so these faces break the claim
            raise ValueError("edge incidences are not in (+1, -1) form")
        else:
            # s1 (psi[f1] + psi[f2] + 2 t) = phi(edge)
            rows.append([2])
            rhs.append((values[eid] if s1 == 1 else -values[eid]) - psi[f1] - psi[f2])
    if rows:
        try:
            t = solve_exact_linear(rows, rhs)[0]
        except NoSolution:
            raise NotHomologous("field is not a boundary on this complex")
        if t.denominator == 1:
            # the sums stay ints on an integer field; each value becomes one Rat
            t = t.numerator
            psi = [Rat(f * (t + v)) for f, v in zip(flip, psi)]
        else:
            psi = [f * (t + v) for f, v in zip(flip, psi)]
    elif -1 in flip:
        # an agreeing orientation, on a complex declared non-orientable
        psi = [f * v for f, v in zip(flip, psi)]
    return TwoChain._exact(cx, psi)


def hodge_decompose(phi: VectorField) -> HodgeParts:
    """Orthogonal gradient + homologous + harmonic split on the 2-torus.

    The gradient potential ``f`` has ``f = 0`` on the first vertex and
    solves ``L f = -div phi`` on the others, where ``L`` is the graph
    Laplacian (degree minus adjacency) with that vertex removed: sparse
    integer rows, symmetric and positive definite, solved exactly by the
    p-adic solver ``exact_lp.dixon_solve``.  Harmonic coefficients are the
    inner products against the two constant direction fields over their
    norms; the homologous part is the remainder and passes the membership
    test by construction.  Everything runs on integer numerators over the
    lcm of the field's denominators; ``Rat`` comes back only in the three
    parts and the coefficients.  A torus of more than :data:`HODGE_VERTEX_LIMIT`
    vertices raises :class:`TooLarge` before any system is built.
    """
    cx = phi.complex
    if not (cx.is_torus() and cx.torus_dimension() == 2):
        raise ValueError("hodge decomposition implemented on the 2-d torus")
    n = cx.n_vertices
    if n > HODGE_VERTEX_LIMIT:
        raise TooLarge(
            f"torus of {n} vertices exceeds complexes.HODGE_VERTEX_LIMIT = {HODGE_VERTEX_LIMIT}"
        )

    # the field as integer numerators over ``scale``; row and column
    # i - 1 of the Laplacian stand for vertex i
    scale, field = scaled_list(phi.values)
    index = cx.vertex_index
    ends = [(index[u], index[v]) for u, v in cx.edges]
    div = [0] * n
    rows = [{i: 0} for i in range(n - 1)]
    for (iu, iv), value in zip(ends, field):
        div[iu] += value
        div[iv] -= value
        for a, b in ((iu - 1, iv - 1), (iv - 1, iu - 1)):
            if a >= 0:
                row = rows[a]
                row[a] += 1
                if b >= 0:
                    row[b] = row.get(b, 0) - 1
    numerators, den = dixon_solve(rows, [-d for d in div[1:]])
    potential = [0, *numerators]

    # edge 2v + k points in direction k, so each direction has n edges
    sums = [sum(field[0::2]), sum(field[1::2])]
    coefficients = tuple(Rat(total, scale * n) for total in sums)
    # every part as integer numerators over one denominator
    common = scale * lcm(den, n)
    per_field, per_potential = common // scale, common // (scale * den)
    per_harmonic = [total * common // (scale * n) for total in sums]
    gradient, homologous = [], []
    for (iu, iv), value, h in zip(ends, field, per_harmonic * n):
        g = (potential[iv] - potential[iu]) * per_potential
        gradient.append(Rat(g, common))
        homologous.append(Rat(value * per_field - g - h, common))
    harmonic = list(coefficients) * n
    gradient, homologous, harmonic = (
        VectorField._exact(cx, part) for part in (gradient, homologous, harmonic)
    )
    return HodgeParts(gradient, homologous, harmonic, coefficients)


# -- weights vs fields -------------------------------------------------


def rates_pass(rates: dict, complex: TwoComplex):
    """The one validated pass from rates to ``(D, field, symmetric)``, the
    field and the symmetric parts as int numerators over one scale ``D``:
    the triple that :func:`cycledec.elementary.recover_chain` and
    :func:`cycledec.elementary.family_1d` take, and that
    :func:`cycledec.discretize.random_environment` builds from its own
    numerators.

    It raises its own errors.  Each rate, in dict order, keyed by a
    ``(u, v)`` tuple, has its pair checked (``KeyError`` from
    :meth:`TwoComplex.edge_id`), then its value (:func:`to_rat`), then its
    sign (``ValueError``), so the first faulty rate is the one named.  Its
    numerator and denominator are filed under its edge and direction, and
    ``D`` is the lcm of the denominators.  Then, per chosen edge
    ``(u, v)``, with ``a = D r(u, v)`` and ``b = D r(v, u)``, the field
    carries the integer ``a - b`` and the symmetric part is the integer
    ``min(a, b)``; the symmetric parts come back as a list indexed by edge
    id.  Scaling by a positive integer keeps every comparison, so callers
    decide on these numerators and divide by ``D`` only in the values
    they return (``Rat(n, D)``).
    """
    index = complex.edge_index
    n_edges = len(complex.edges)
    forward_n, forward_d = [0] * n_edges, [1] * n_edges
    backward_n, backward_d = [0] * n_edges, [1] * n_edges
    scale = 1
    for pair, w in rates.items():
        # the pair as given is its own key; the reversed one is built on a miss
        eid = index.get(pair)
        if eid is None:
            u, v = pair
            eid = index.get((v, u))
            if eid is None:
                complex.edge_id(u, v)  # raises the KeyError naming the pair
            nums, dens = backward_n, backward_d
        else:
            nums, dens = forward_n, forward_d
        if type(w) is not Rat:
            w = to_rat(w)
        n, d = w.as_integer_ratio()
        if n < 0:
            u, v = pair
            raise ValueError(f"negative rate on ({u}, {v})")
        if scale % d:
            scale = scale // gcd(scale, d) * d
        nums[eid] = n
        dens[eid] = d
    values, s = [], []
    for an, ad, bn, bd in zip(forward_n, forward_d, backward_n, backward_d):
        a = an * (scale // ad)
        b = bn * (scale // bd)
        values.append(a - b)
        s.append(a if a < b else b)
    return scale, VectorField._exact(complex, values), s


def field_to_rates(phi: VectorField) -> dict:
    """Minimal rates with the given field: the positive parts."""
    out = {}
    for eid, (u, v) in enumerate(phi.complex.edges):
        value = phi.values[eid]
        if value > 0:
            out[(u, v)] = value
        elif value < 0:
            out[(v, u)] = -value
    return out
