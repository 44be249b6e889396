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

from .errors import NoSolution, NotHomologous
from .exact_lp import solve_exact_linear
from .finite_graph import cycle_edges
from .ratio import ONE, ZERO, Rat, scaled, to_rat


class TwoComplex:
    def __init__(self, vertices, edges, face_edges, orientable, torus_shape=None,
                 name="complex"):
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
        self.torus_shape = tuple(torus_shape) if torus_shape else None

    # -- constructors -------------------------------------------------

    @classmethod
    def torus(cls, d: int, n: int) -> "TwoComplex":
        if d == 1:
            return cls.torus1(n)
        if d == 2:
            return cls.torus2(n)
        raise ValueError("only d in {1, 2} is supported")

    @classmethod
    def torus1(cls, n: int) -> "TwoComplex":
        n = int(n)
        if n < 3:
            raise ValueError("torus mesh must be at least 3")
        vertices = [(i,) for i in range(n)]
        edges = [((i,), ((i + 1) % n,)) for i in range(n)]
        return cls(vertices, edges, [], orientable=True, torus_shape=(n,),
                   name=f"torus1[{n}]")

    @classmethod
    def torus2(cls, n1: int, n2: int | None = None) -> "TwoComplex":
        n1 = int(n1)
        n2 = n1 if n2 is None else int(n2)
        if n1 < 3 or n2 < 3:
            raise ValueError("torus mesh must be at least 3")
        vertices = [(i, j) for i in range(n1) for j in range(n2)]
        edges = []
        eid_of = {}
        for i in range(n1):
            for j in range(n2):
                for d, (di, dj) in enumerate(((1, 0), (0, 1))):
                    u = (i, j)
                    v = ((i + di) % n1, (j + dj) % n2)
                    eid_of[(u, d)] = len(edges)
                    edges.append((u, v))
        face_edges = []
        for i in range(n1):
            for j in range(n2):
                right = (i, j)
                up_right = ((i + 1) % n1, j)
                top = (i, (j + 1) % n2)
                up_left = (i, j)
                face_edges.append(
                    (
                        (eid_of[(right, 0)], 1),
                        (eid_of[(up_right, 1)], 1),
                        (eid_of[(top, 0)], -1),
                        (eid_of[(up_left, 1)], -1),
                    )
                )
        return cls(vertices, edges, face_edges, orientable=True,
                   torus_shape=(n1, n2), name=f"torus2[{n1}x{n2}]")

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
    def klein_grid(cls, n1: int, n2: int, name=None) -> "TwoComplex":
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
        return cls.from_face_cycles(
            faces, orientable=False, name=name or f"klein[{n1}x{n2}]"
        )

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
        return tuple(
            self.edges[eid][0 if sign == 1 else 1] for eid, sign in self.face_edges[fid]
        )

    def oriented_edges(self):
        """All oriented edges of the full edge set, both directions."""
        for u, v in self.edges:
            yield (u, v)
            yield (v, u)

    def edge_direction(self, eid: int) -> int:
        if not self.is_torus() or self.torus_dimension() != 2:
            raise ValueError("direction only defined on the 2-d torus")
        u, v = self.edges[eid]
        n1, n2 = self.torus_shape
        return 0 if v == ((u[0] + 1) % n1, u[1]) else 1

    def validate(self):
        """Check the two-cells-per-edge invariant and the orientation claim.

        Orientable complexes must come with pairwise agreeing face
        orientations; non-orientable ones must genuinely admit no agreeing
        reorientation (checked by propagating flips across shared edges).
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
        if self.orientable:
            for eid, incidences in enumerate(self.edge_faces):
                if {s for _, s in incidences} != {1, -1}:
                    raise ValueError(
                        f"faces around edge {self.edges[eid]} are not oriented "
                        "in agreement; reorient or declare non-orientable"
                    )
        else:
            if self._admits_agreeing_orientation():
                raise ValueError(
                    "complex declared non-orientable but an agreeing "
                    "face orientation exists"
                )
        if not self._dual_connected():
            raise ValueError("face adjacency graph is disconnected")

    def _admits_agreeing_orientation(self) -> bool:
        flip = [None] * self.n_faces
        for start in range(self.n_faces):
            if flip[start] is not None:
                continue
            flip[start] = 1
            stack = [start]
            while stack:
                fid = stack.pop()
                for eid, sign in self.face_edges[fid]:
                    for other, other_sign in self.edge_faces[eid]:
                        if other == fid:
                            continue
                        needed = flip[fid] if sign != other_sign else -flip[fid]
                        if flip[other] is None:
                            flip[other] = needed
                            stack.append(other)
                        elif flip[other] != needed:
                            return False
        return True

    def _dual_connected(self) -> bool:
        if self.n_faces == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            fid = stack.pop()
            for eid, _ in self.face_edges[fid]:
                for other, _ in self.edge_faces[eid]:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        return len(seen) == self.n_faces


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

    @classmethod
    def zero(cls, complex):
        return cls(complex, [ZERO] * complex.n_vertices)

    @classmethod
    def from_dict(cls, complex, mapping, default=ZERO):
        return cls(
            complex,
            [to_rat(mapping.get(v, default)) for v in complex.vertices],
        )

    def at(self, vertex) -> Rat:
        return self.values[self.complex.vertex_index[vertex]]


class VectorField(_Valued):
    """Antisymmetric edge function, stored on the chosen orientations."""

    @classmethod
    def zero(cls, complex):
        return cls(complex, [ZERO] * complex.n_edges)

    @classmethod
    def from_dict(cls, complex, mapping, default=ZERO):
        """Build from oriented-edge values; opposite entries must agree
        antisymmetrically if both are present."""
        values = [None] * complex.n_edges
        for (u, v), value in mapping.items():
            eid, sign = complex.edge_id(u, v)
            value = to_rat(value) * sign
            if values[eid] is None:
                values[eid] = value
            elif values[eid] != value:
                raise ValueError(f"conflicting values on edge {complex.edges[eid]}")
        return cls(complex, [v if v is not None else default for v in values])

    def at(self, u, v) -> Rat:
        eid, sign = self.complex.edge_id(u, v)
        return sign * self.values[eid]

    def inner(self, other) -> Rat:
        self._check(other)
        return sum((a * b for a, b in zip(self.values, other.values)), ZERO)


class TwoChain(_Valued):
    """Orientation-antisymmetric face function, stored on F'."""

    @classmethod
    def zero(cls, complex):
        return cls(complex, [ZERO] * complex.n_faces)


@dataclass
class HodgeParts:
    """Exact three-way orthogonal split of a vector field on the 2-torus."""

    gradient: VectorField
    homologous: VectorField
    harmonic: VectorField
    harmonic_coefficients: tuple

    def recompose(self) -> VectorField:
        return self.gradient + self.homologous + self.harmonic


# -- operators ---------------------------------------------------------


def coboundary0(f: ZeroForm) -> VectorField:
    """Gradient: value ``f(head) - f(tail)`` on every chosen edge."""
    cx = f.complex
    return VectorField(
        cx,
        [
            f.values[cx.vertex_index[v]] - f.values[cx.vertex_index[u]]
            for u, v in cx.edges
        ],
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
    """Field collecting, per edge, the signed values of its two faces."""
    cx = psi.complex
    values = []
    for incidences in cx.edge_faces:
        values.append(
            sum((sign * psi.values[fid] for fid, sign in incidences), ZERO)
        )
    return VectorField(cx, values)


def coboundary1(phi: VectorField) -> TwoChain:
    """Circulation of the field around every chosen face."""
    cx = phi.complex
    values = []
    for boundary in cx.face_edges:
        values.append(sum((sign * phi.values[eid] for eid, sign in boundary), ZERO))
    return TwoChain(cx, values)


def harmonic_basis(complex: TwoComplex):
    """The two constant direction fields spanning the 2-torus harmonics."""
    fields = []
    for direction in (0, 1):
        values = [
            ONE if complex.edge_direction(eid) == direction else ZERO
            for eid in range(complex.n_edges)
        ]
        fields.append(VectorField(complex, values))
    return fields


def recover_psi(phi: VectorField, base_face: int = 0) -> TwoChain:
    """Find a chain whose boundary is ``phi``, exactly.

    Orientable complexes: integrate along a spanning tree of the face
    adjacency graph, grown with a stack from ``base_face`` (which is pinned
    to zero), and verify every remaining adjacency; any mismatch certifies
    that no preimage exists.  The integration stays in the field's own
    number type: the integer numerators of :func:`_field_and_symmetric`
    give an integer chain on the same scale, a field of ``Rat`` values a
    ``Rat`` chain.  Non-orientable complexes: the preimage is unique,
    found by exact linear solve, and comes back as ``Rat`` values (on the
    field's scale); ``base_face`` is ignored.
    """
    cx = phi.complex
    values = phi.values
    if cx.n_faces == 0:
        if phi.is_zero():
            return TwoChain(cx, [])
        raise NotHomologous("no faces, only the zero field is a boundary")
    if not cx.orientable:
        try:
            chain = solve_exact_linear(face_boundary_matrix(cx), values)
        except NoSolution:
            raise NotHomologous("field is not a boundary on this complex")
        return TwoChain._exact(cx, chain)

    psi = [None] * cx.n_faces
    psi[base_face] = values[0] * 0 if values else ZERO
    stack = [base_face]
    while stack:
        fid = stack.pop()
        for eid, sign in cx.face_edges[fid]:
            for other, other_sign in cx.edge_faces[eid]:
                if other == fid or psi[other] is not None:
                    continue
                # psi[f_plus] - psi[f_minus] = phi(edge)
                if sign == 1:
                    psi[other] = psi[fid] - values[eid]
                else:
                    psi[other] = psi[fid] + values[eid]
                stack.append(other)
    if any(v is None for v in psi):
        raise NotHomologous("face adjacency graph is disconnected")
    for eid, incidences in enumerate(cx.edge_faces):
        if len(incidences) != 2 or incidences[0][1] == incidences[1][1]:
            raise ValueError("edge incidences are not in (+1, -1) form")
        (f1, s1), (f2, _) = incidences
        if (psi[f1] - psi[f2] if s1 == 1 else psi[f2] - psi[f1]) != values[eid]:
            raise NotHomologous(
                f"path-dependent integral at edge {cx.edges[eid]}"
            )
    return TwoChain._exact(cx, psi)


def hodge_decompose(phi: VectorField) -> HodgeParts:
    """Orthogonal gradient + homologous + harmonic split on the 2-torus.

    The gradient potential solves the exact Laplace system with the first
    vertex pinned; harmonic coefficients are the inner products against
    the two constant direction fields over their norms; the homologous
    part is the remainder and passes the membership test by construction.
    """
    cx = phi.complex
    if not (cx.is_torus() and cx.torus_dimension() == 2):
        raise ValueError("hodge decomposition implemented on the 2-d torus")

    div = boundary1(phi)
    n = cx.n_vertices
    rows = []
    rhs = []
    neighbor_ids = [[] for _ in range(n)]
    for u, v in cx.edges:
        iu, iv = cx.vertex_index[u], cx.vertex_index[v]
        neighbor_ids[iu].append(iv)
        neighbor_ids[iv].append(iu)
    for i in range(n - 1):
        row = [ZERO] * n
        row[i] = -Rat(len(neighbor_ids[i]))
        for j in neighbor_ids[i]:
            row[j] += ONE
        rows.append(row)
        rhs.append(div.values[i])
    pin = [ZERO] * n
    pin[0] = ONE
    rows.append(pin)
    rhs.append(ZERO)
    potential = ZeroForm(cx, solve_exact_linear(rows, rhs))
    gradient = coboundary0(potential)

    basis = harmonic_basis(cx)
    coefficients = tuple(
        phi.inner(b) / b.inner(b) for b in basis
    )
    harmonic = basis[0].scale(coefficients[0]) + basis[1].scale(coefficients[1])
    homologous = phi - gradient - harmonic
    return HodgeParts(gradient, homologous, harmonic, coefficients)


# -- weights vs fields -------------------------------------------------


def check_rates(rates: dict, complex: TwoComplex) -> dict:
    """Validate an oriented-edge weight map against the complex."""
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


def _field_and_symmetric(rates: dict, complex: TwoComplex):
    """The one validated pass from rates to ``(D, field, symmetric)``.

    The validated rates are scaled once by ``D``, the lcm of their
    denominators.  Per chosen edge ``(u, v)``, with ``a = D r(u, v)`` and
    ``b = D r(v, u)``, the field carries the integer ``a - b`` and the
    symmetric part is the integer ``min(a, b)``; the symmetric parts come
    back as a list indexed by edge id.  Scaling by a positive integer keeps
    every comparison, so callers decide on these numerators and divide by
    ``D`` only in the values they return (``Rat(n, D)``).
    """
    scale, numerators = scaled(check_rates(rates, complex))
    values, s = [], []
    for u, v in complex.edges:
        a = numerators.get((u, v), 0)
        b = numerators.get((v, u), 0)
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


def face_boundary_matrix(complex: TwoComplex):
    """Matrix of the face boundary, one column per chosen face."""
    rows = []
    for incidences in complex.edge_faces:
        row = [ZERO] * complex.n_faces
        for fid, sign in incidences:
            row[fid] += Rat(sign)
        rows.append(row)
    return rows
