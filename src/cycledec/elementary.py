"""Decompositions restricted to elementary cycles, and their membership tests.

Elementary cycles are the back-and-forth cycles on single edges and the
4-step cycles around oriented faces.  Whether given rates split over these
cycles reduces, through the recovered two-chain, to a one-dimensional
interval feasibility problem: each edge contributes the interval spanned by
the chain values of its two faces, shifted by the edge's symmetric part,
and the rates are decomposable exactly when all shifted intervals share a
point.  That common point is the additive constant used to build the
explicit decomposition.  Edges incident to no face (the one-dimensional
torus has only such edges) constrain nothing beyond nonnegativity.

Every verdict and construction runs the same pass: the rates are
validated once and split into field and symmetric parts in one loop, the
chain is recovered by :func:`recover_psi`, and the edge intervals are read
off it.  Non-orientable surfaces have no constant freedom (the chain is
unique) and edges traversed the same way by both faces contribute the
complement of an open interval instead.

The pass runs on Python ints over one scale ``D``, the lcm of the rate
denominators: the field, the symmetric parts, the chain and the interval
ends are integer numerators over ``D``, so every comparison and
subtraction is an integer one (on non-orientable complexes the chain adds
the one constant that an exact solve finds, a multiple of 1/2, and its
values are rationals on the same scale).
``Rat`` comes back only in returned values: the witness constant is
``Rat(lo + hi, 2 D)`` and every weight is ``Rat(n, D)``, or ``Rat(n, D q)``
for a chosen constant with denominator ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NegativeEdgeWeight,
    NotBalanced,
    NotHomologous,
    NotInRe,
)
from .finite_graph import cycle_sum
from .complexes import (
    TwoComplex,
    TwoChain,
    _field_and_symmetric,
    boundary1,
    check_rates,
    recover_psi,
)
from .ratio import ZERO, Rat, to_rat


def _distance_to_zero(lo, hi, opposite=True):
    """Distance from zero to ``[lo, hi]`` (``opposite``) or to the
    complement of ``(lo, hi)``: the symmetric mass an edge needs."""
    if opposite:
        return lo if lo > 0 else -hi if hi < 0 else 0
    return 0 if lo >= 0 or hi <= 0 else min(-lo, hi)


def _spans(psi: TwoChain, complex: TwoComplex) -> list:
    """Per edge id, ``None`` for an edge incident to no face, otherwise
    ``(lo, hi, opposite)``: the least and greatest chain value of its two
    faces and whether they see the edge with opposite signs."""
    values = psi.values
    out = []
    for incidences in complex.edge_faces:
        if not incidences:
            out.append(None)
            continue
        if len(incidences) != 2:
            raise ValueError("edge incidences must come in pairs")
        (f1, s1), (f2, s2) = incidences
        a, b = values[f1], values[f2]
        out.append((a, b, s1 != s2) if a <= b else (b, a, s1 != s2))
    return out


@dataclass
class ReVerdict:
    """Outcome of the elementary-decomposability test.

    ``witness_c`` is a feasible additive constant when the answer is yes;
    ``violating_edges`` certifies the failed polyhedron inequality (or the
    failed edges on non-orientable complexes) when it is no.
    """

    ok: bool
    reason: str | None = None
    witness_c: Rat | None = None
    violating_edges: tuple | None = None


def _recover_chain(rates, complex):
    """``(D, s, psi, spans)``: the scale, the symmetric parts, a chain
    bounding the field and the edge spans, all numerators over ``D``.

    Raises :class:`NotHomologous` when the field is not a face boundary.
    """
    scale, phi, s = _field_and_symmetric(rates, complex)
    psi = recover_psi(phi)
    return scale, s, psi, _spans(psi, complex)


def in_Re(rates: dict, complex: TwoComplex) -> ReVerdict:
    """Decide whether the rates decompose over elementary cycles.

    Pipeline: project the rates to their vector field and recover a chain
    with that boundary; a field that is not a face boundary already rules
    the decomposition out (necessary condition for homotopically trivial
    cycles, hence for elementary ones).  On an orientable complex, shift
    each edge interval by the edge's symmetric part and intersect in one
    pass; a nonempty intersection yields the witness constant (its
    midpoint), an empty one two edges violating the pairwise polyhedron
    inequality.  On a non-orientable one the constant is zero and every
    edge with symmetric part below its span's distance to zero is
    reported.  Edges without faces constrain nothing.
    """
    try:
        scale, s, _, spans = _recover_chain(rates, complex)
    except NotHomologous:
        return ReVerdict(False, reason="NotHomologous")
    if not complex.orientable:
        violations = tuple(
            complex.edges[eid]
            for eid, span in enumerate(spans)
            if span is not None and s[eid] < _distance_to_zero(*span)
        )
        if violations:
            return ReVerdict(False, reason="PolyhedronViolated", violating_edges=violations)
        return ReVerdict(True, witness_c=ZERO)

    lo, lo_edge = None, None
    hi, hi_edge = None, None
    for eid, span in enumerate(spans):
        if span is None:
            continue
        cand_lo = -span[1] - s[eid]
        cand_hi = -span[0] + s[eid]
        if lo is None or cand_lo > lo:
            lo, lo_edge = cand_lo, eid
        if hi is None or cand_hi < hi:
            hi, hi_edge = cand_hi, eid
    if lo is None:
        return ReVerdict(True, witness_c=ZERO)
    if lo <= hi:
        return ReVerdict(True, witness_c=Rat(lo + hi, 2 * scale))
    return ReVerdict(
        False,
        reason="PolyhedronViolated",
        violating_edges=(complex.edges[lo_edge], complex.edges[hi_edge]),
    )


def pairwise_in_Re(rates: dict, complex: TwoComplex) -> bool:
    """All-pairs polyhedron test; cross-check for the one-pass intersection.

    A pair of edges fails when their symmetric parts sum to less than the
    distance between their spans, ``max(0, lo_j - hi_i, lo_i - hi_j)``.
    The all-pairs test applies to orientable complexes only; on a
    non-orientable one the constant is pinned at zero and the verdict is
    that of :func:`in_Re`.  Edges without faces constrain nothing.
    """
    if not complex.orientable:
        return in_Re(rates, complex).ok
    try:
        _, s, _, spans = _recover_chain(rates, complex)
    except NotHomologous:
        return False
    constrained = [(s[eid], *span[:2]) for eid, span in enumerate(spans) if span is not None]
    for i, (s_i, lo_i, hi_i) in enumerate(constrained):
        for s_j, lo_j, hi_j in constrained[i:]:
            if s_i + s_j < max(0, lo_j - hi_i, lo_i - hi_j):
                return False
    return True


@dataclass
class ElementaryDecomposition:
    """Weights over edge cycles and oriented face cycles.

    ``face_weights`` maps a chosen-face id to the pair
    ``(weight of its cycle, weight of the reversed cycle)``.
    """

    edge_weights: dict
    face_weights: dict
    chosen_constant: Rat

    def cycles(self, complex: TwoComplex) -> list:
        """The nonzero terms as ``(vertex cycle, weight)`` pairs.

        Edge 2-cycles come first, sorted by the string ``str((u, v))`` of
        their edge, then each face in id order contributes its cycle and
        the reversed cycle.
        """
        edges = complex.edges
        weights = self.edge_weights
        # str((u, v)) is "(" + repr(u) + ", " + repr(v) + ")": one repr per vertex
        rep = {v: repr(v) for v in complex.vertices}

        def key(eid):
            u, v = edges[eid]
            return "(" + rep[u] + ", " + rep[v] + ")"

        live = [eid for eid, weight in weights.items() if weight]
        terms = [(edges[eid], weights[eid]) for eid in sorted(live, key=key)]
        for fid in sorted(self.face_weights):
            forward, backward = self.face_weights[fid]
            cycle = complex.face_cycle(fid)
            if forward:
                terms.append((cycle, forward))
            if backward:
                terms.append((cycle[::-1], backward))
        return terms

    def reconstruct(self, complex: TwoComplex) -> dict:
        return cycle_sum(self.cycles(complex))

    def matches(self, rates: dict, complex: TwoComplex) -> bool:
        return self.reconstruct(complex) == check_rates(rates, complex)


def elementary_decompose(
    rates: dict, complex: TwoComplex, c_star=None
) -> ElementaryDecomposition:
    """Build the explicit elementary decomposition.

    Faces carry ``[psi(f) + c]_+`` forwards and ``[-psi(f) - c]_+``
    backwards; each edge cycle absorbs what remains of the symmetric part,
    which the feasibility of ``c`` keeps nonnegative.  ``c_star`` defaults
    to the witness constant; passing an infeasible one raises
    :class:`NegativeEdgeWeight`.  On non-orientable complexes there is no
    constant to choose and ``c_star`` must be omitted or zero.
    """
    verdict = in_Re(rates, complex)
    if not verdict.ok:
        raise NotInRe(f"rates are not elementary-decomposable: {verdict.reason}")
    if complex.orientable:
        c = verdict.witness_c if c_star is None else to_rat(c_star)
    else:
        if c_star not in (None, 0):
            raise ValueError("non-orientable recovery admits no constant freedom")
        c = ZERO

    scale, s, psi, spans = _recover_chain(rates, complex)
    # with c = p/q, every weight is an integer numerator over D q
    q = c.denominator
    shift = c.numerator * scale
    unit = scale * q
    rats = {}  # many weights share a numerator; each Rat is built once
    face_weights = {}
    for fid, value in enumerate(psi.values):
        value = value * q + shift
        n = value if value > 0 else -value
        weight = rats.get(n)
        if weight is None:
            weight = rats[n] = Rat(n, unit)
        face_weights[fid] = (weight, ZERO) if value > 0 else (ZERO, weight)
    edge_weights = {}
    for eid, span in enumerate(spans):
        n = s[eid] * q
        if span is not None:
            n -= _distance_to_zero(span[0] * q + shift, span[1] * q + shift, span[2])
        if n < 0:
            raise NegativeEdgeWeight(
                f"constant {c} is infeasible at edge {complex.edges[eid]}"
            )
        weight = rats.get(n)
        if weight is None:
            weight = rats[n] = Rat(n, unit)
        edge_weights[eid] = weight
    return ElementaryDecomposition(edge_weights, face_weights, c)


@dataclass
class OneDimFamily:
    """All cycle decompositions of constant-field rates on the 1-d torus.

    Parameterized by ``a`` between zero and the minimal edge weight: edge
    cycles carry their symmetric part minus ``a`` and the two full loops
    carry ``[c]_+ + a`` and ``[-c]_+ + a``.  The rates split over edge
    cycles alone exactly when the field constant ``c`` is zero.
    """

    complex: TwoComplex
    constant: Rat
    min_weight: Rat
    symmetric: list

    @property
    def in_r_star(self) -> bool:
        return self.constant == 0

    def weights_at(self, a):
        a = to_rat(a)
        if a < 0 or a > self.min_weight:
            raise NegativeEdgeWeight(
                f"parameter {a} outside [0, {self.min_weight}] gives a "
                "negative cycle weight"
            )
        edge_weights = {eid: s - a for eid, s in enumerate(self.symmetric)}
        rho_plus = max(self.constant, ZERO) + a
        rho_minus = max(-self.constant, ZERO) + a
        return edge_weights, rho_plus, rho_minus

    def cycles_at(self, a) -> list:
        """The nonzero terms at parameter ``a`` as ``(vertex cycle, weight)``.

        Edge 2-cycles come first in edge order, then the full loop
        forwards and backwards.
        """
        edge_weights, rho_plus, rho_minus = self.weights_at(a)
        edges = self.complex.edges
        order = sorted(edge_weights, key=edges.__getitem__)
        terms = [(edges[eid], edge_weights[eid]) for eid in order]
        loop = tuple(self.complex.vertices)
        terms += [(loop, rho_plus), (loop[:1] + loop[:0:-1], rho_minus)]
        return [(cycle, weight) for cycle, weight in terms if weight != 0]

    def reconstruct_at(self, a) -> dict:
        return cycle_sum(self.cycles_at(a))


def decompose_1d(rates: dict, complex: TwoComplex) -> OneDimFamily:
    """Closed-form decomposition family on the one-dimensional torus.

    Requires the associated field to be constant (equivalently divergence
    free); otherwise raises :class:`NotBalanced` with the vertices where
    the divergence fails to vanish.
    """
    if not (complex.is_torus() and complex.torus_dimension() == 1):
        raise ValueError("decompose_1d expects the 1-d torus")
    scale, phi, s = _field_and_symmetric(rates, complex)
    constants = set(phi.values)
    if len(constants) > 1:
        divergence = boundary1(phi).values
        violators = [v for v, d in zip(complex.vertices, divergence) if d != 0]
        raise NotBalanced("field is not constant", violators=violators)
    c = constants.pop() if constants else 0
    symmetric = [Rat(n, scale) for n in s]
    return OneDimFamily(complex, Rat(c, scale), min(symmetric), symmetric)


def r_star_necessary(rates: dict, complex: TwoComplex) -> bool:
    """Necessary condition for homotopically trivial decomposability.

    Membership of the field in the face-boundary image.  The full
    characterization of homotopically trivial decomposability is open and
    not decided here.
    """
    _, phi, _ = _field_and_symmetric(rates, complex)
    try:
        recover_psi(phi)
    except NotHomologous:
        return False
    return True


def sufficient_diameter_bound(rates: dict, complex: TwoComplex):
    """One-sided test through the face-adjacency spanning tree.

    Chain differences between faces are bounded by the weight of any
    spanning tree of the face adjacency graph with edge weights ``|phi|``;
    a minimum spanning tree gives the bound ``M``.  If every symmetric
    part reaches ``M / 2`` the rates are elementary-decomposable.  Returns
    ``(sufficient, M)``; a negative answer decides nothing.
    """
    if complex.n_faces == 0:
        raise ValueError("complex has no faces")
    scale, phi, s = _field_and_symmetric(rates, complex)
    try:
        recover_psi(phi)
    except NotHomologous:
        raise NotHomologous("field is not a face boundary") from None

    dual_edges = sorted(
        (abs(phi.values[eid]), eid) for eid in range(complex.n_edges)
    )
    parent = list(range(complex.n_faces))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bound = 0
    used = 0
    for weight, eid in dual_edges:
        faces = [fid for fid, _ in complex.edge_faces[eid]]
        a, b = find(faces[0]), find(faces[1])
        if a != b:
            parent[a] = b
            bound += weight
            used += 1
            if used == complex.n_faces - 1:
                break
    sufficient = all(2 * value >= bound for value in s)
    return sufficient, Rat(bound, scale)
