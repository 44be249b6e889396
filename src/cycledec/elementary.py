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

Every verdict, construction and bound reads one chain.  The pipeline is
public: :func:`~cycledec.complexes.rates_pass` validates the rates once and
returns ``(D, field, symmetric)``; :func:`recover_chain` recovers the chain
and its edge intervals from that pass; one reader per rule takes the chain
(:func:`chain_verdict`, :func:`chain_decomposition`,
:func:`chain_diameter_bound`), and :func:`family_1d` reads the pass itself
on the 1-d torus.  A caller asking several questions of the same rates
runs the pass and the recovery once::

    validated = rates_pass(rates, complex)
    chain = recover_chain(validated, complex)
    verdict = chain_verdict(chain, complex)
    dec = chain_decomposition(chain, complex, verdict) if verdict.ok else None
    sufficient, bound = chain_diameter_bound(chain, complex)

:func:`in_Re` and :func:`elementary_decompose` take rates and run the
pipeline themselves.  Non-orientable surfaces have no constant freedom (the
chain is unique) and edges traversed the same way by both faces contribute
the complement of an open interval instead.

The pass runs on Python ints over one scale ``D``: the field, the
symmetric parts, the chain and the interval ends are integer numerators
over ``D``, so every comparison and subtraction is an integer one.  On an
orientable complex ``D`` is the lcm of the rate denominators.  On a
non-orientable one the chain adds the one constant that an exact solve
finds, a multiple of 1/2 on that scale, so ``D`` is twice the lcm: the
field and the symmetric parts are doubled before the recovery, and every
chain value comes back with denominator 1.
``Rat`` comes back only in returned values: the witness constant is
``Rat(lo + hi, 2 D)`` and every weight is ``Rat(n, D)``, or ``Rat(n, D q)``
for a chosen constant with denominator ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CycleDecError,
    NegativeEdgeWeight,
    NotBalanced,
    NotHomologous,
    NotInRe,
)
from .complexes import (
    TwoComplex,
    TwoChain,
    VectorField,
    boundary1,
    rates_pass,
    recover_psi,
)
from .ratio import ZERO, Rat, rats_over, to_rat


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


def recover_chain(rates_pass, complex):
    """``(D, s, psi, spans)`` from the ``(D, field, symmetric)`` of
    :func:`~cycledec.complexes.rates_pass`: the scale, the symmetric parts,
    a chain bounding the field and the edge spans, all ints over ``D``;
    ``None`` when the field is not a face boundary.

    ``recover_chain(...) is not None`` is the necessary condition for
    homotopically trivial decomposability: membership of the field in the
    face-boundary image.  The full characterization of homotopically
    trivial decomposability is open and not decided here.

    On a non-orientable complex ``D`` is twice the lcm of the rate
    denominators, so the chain :func:`recover_psi` returns as ``Rat``
    values is read back as ints; a value that is not one is an engine
    fault, raised as ``AssertionError``.
    """
    scale, phi, s = rates_pass
    try:
        if complex.orientable:
            psi = recover_psi(phi)
        else:
            scale *= 2
            s = [2 * n for n in s]
            values = recover_psi(VectorField._exact(complex, [2 * n for n in phi.values])).values
            if any(value.denominator != 1 for value in values):
                raise AssertionError("chain over twice the rate scale is not integral")
            psi = TwoChain._exact(complex, [value.numerator for value in values])
    except NotHomologous:
        return None
    return scale, s, psi, _spans(psi, complex)


def chain_verdict(chain, complex: TwoComplex) -> ReVerdict:
    """The verdict of :func:`in_Re` on a chain of :func:`recover_chain`:
    ``NotHomologous`` on ``None``."""
    if chain is None:
        return ReVerdict(False, reason="NotHomologous")
    scale, s, _, spans = chain
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
    return chain_verdict(recover_chain(rates_pass(rates, complex), complex), complex)


def pairwise_in_Re(rates: dict, complex: TwoComplex) -> bool:
    """All-pairs polyhedron test; cross-check for the one-pass intersection.

    A pair of edges fails when their symmetric parts sum to less than the
    distance between their spans, ``max(0, lo_j - hi_i, lo_i - hi_j)``.
    The all-pairs test applies to orientable complexes only; on a
    non-orientable one the constant is pinned at zero and the verdict is
    that of :func:`in_Re`.  Edges without faces constrain nothing.
    """
    chain = recover_chain(rates_pass(rates, complex), complex)
    if chain is None or not complex.orientable:
        return chain_verdict(chain, complex).ok
    _, s, _, spans = chain
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

    def term_ids(self, complex: TwoComplex):
        """The nonzero terms on ids, in ``.dec`` order: the ids of the edges
        of nonzero weight, sorted by the string ``str((u, v))`` of their
        edge, and ``(face id, forward, backward)`` for each face of a
        nonzero weight, in id order."""
        edges = complex.edges
        weights = self.edge_weights
        # str((u, v)) is "(" + repr(u) + ", " + repr(v) + ")": one repr per vertex
        rep = {v: repr(v) for v in complex.vertices}

        def key(eid):
            u, v = edges[eid]
            return f"({rep[u]}, {rep[v]})"

        live = sorted([eid for eid, weight in weights.items() if weight], key=key)
        faces = []
        for fid in sorted(self.face_weights):
            forward, backward = self.face_weights[fid]
            if forward or backward:
                faces.append((fid, forward, backward))
        return live, faces

    def cycles(self, complex: TwoComplex) -> list:
        """The nonzero terms of :meth:`term_ids` as ``(vertex cycle,
        weight)`` pairs: an edge's 2-cycle, a face's cycle and the reversed
        cycle."""
        live, faces = self.term_ids(complex)
        edges = complex.edges
        weights = self.edge_weights
        terms = [(edges[eid], weights[eid]) for eid in live]
        for fid, forward, backward in faces:
            cycle = complex.face_cycle(fid)
            if forward:
                terms.append((cycle, forward))
            if backward:
                terms.append((cycle[::-1], backward))
        return terms


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
    chain = recover_chain(rates_pass(rates, complex), complex) if verdict.ok else None
    return chain_decomposition(chain, complex, verdict, c_star)


def chain_decomposition(chain, complex: TwoComplex, verdict: ReVerdict, c_star=None):
    """:func:`elementary_decompose` on a chain of :func:`recover_chain`
    and its :func:`chain_verdict`: :class:`NotInRe` on a no verdict."""
    if not verdict.ok:
        raise NotInRe(f"rates are not elementary-decomposable: {verdict.reason}")
    if not complex.orientable and c_star not in (None, 0):
        raise ValueError("non-orientable recovery admits no constant freedom")
    c = verdict.witness_c if c_star is None else to_rat(c_star)

    scale, s, psi, spans = chain
    # with c = p/q, every weight is an integer numerator over D q
    q = c.denominator
    shift = c.numerator * scale
    faces = [value * q + shift for value in psi.values]
    edges = []
    for eid, span in enumerate(spans):
        n = s[eid] * q
        if span is not None:
            n -= _distance_to_zero(span[0] * q + shift, span[1] * q + shift, span[2])
        if n < 0:
            raise NegativeEdgeWeight(f"constant {c} is infeasible at edge {complex.edges[eid]}")
        edges.append(n)
    weights = rats_over([abs(n) for n in faces] + edges, scale * q)
    pairs = zip(faces, weights)
    face_weights = {fid: (w, ZERO) if n > 0 else (ZERO, w) for fid, (n, w) in enumerate(pairs)}
    edge_weights = dict(enumerate(weights[len(faces):]))
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


def family_1d(rates_pass, complex: TwoComplex) -> OneDimFamily:
    """Closed-form decomposition family on the one-dimensional torus, from
    the ``(D, field, symmetric)`` of :func:`~cycledec.complexes.rates_pass`.

    Requires the associated field to be constant (equivalently divergence
    free); otherwise raises :class:`NotBalanced` with the vertices where
    the divergence fails to vanish.  Another complex raises ``ValueError``.
    """
    if not (complex.is_torus() and complex.torus_dimension() == 1):
        raise ValueError("family_1d expects the 1-d torus")
    scale, phi, s = rates_pass
    constants = set(phi.values)
    if len(constants) > 1:
        divergence = boundary1(phi).values
        violators = [v for v, d in zip(complex.vertices, divergence) if d != 0]
        raise NotBalanced("field is not constant", violators=violators)
    c = constants.pop() if constants else 0
    symmetric = [Rat(n, scale) for n in s]
    return OneDimFamily(complex, Rat(c, scale), min(symmetric), symmetric)


def chain_diameter_bound(chain, complex: TwoComplex):
    """One-sided test through the face-adjacency spanning tree, on a chain
    of :func:`recover_chain`.

    Chain differences between faces are bounded by the weight of any
    spanning tree of the face adjacency graph with edge weights ``|phi|``;
    a minimum spanning tree gives the bound ``M``.  If every symmetric
    part reaches ``M / 2`` the rates are elementary-decomposable.  Returns
    ``(sufficient, M)``; a negative answer decides nothing.  The weights
    are read off the spans of the chain, which bounds the field: ``|phi|``
    is ``hi - lo`` on an edge its faces see with opposite signs and
    ``|lo + hi|`` on one they see alike.  A complex without faces raises
    :class:`CycleDecError`, and a ``None`` chain :class:`NotHomologous`.
    """
    if complex.n_faces == 0:
        raise CycleDecError("complex has no faces")
    if chain is None:
        raise NotHomologous("field is not a face boundary")
    scale, s, _, spans = chain

    dual_edges = sorted(
        (hi - lo if opposite else abs(lo + hi), eid)
        for eid, (lo, hi, opposite) in enumerate(spans)
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
