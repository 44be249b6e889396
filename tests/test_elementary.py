import pathlib
from collections import Counter
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cycledec import complexes, elementary
from cycledec import io as fio
from cycledec.complexes import (
    TwoChain,
    TwoComplex,
    VectorField,
    ZeroForm,
    boundary2,
    field_to_rates,
    recover_psi,
)
from cycledec.elementary import (
    ElementaryDecomposition,
    OneDimFamily,
    ReVerdict,
    _distance_to_zero,
    _spans,
    chain_decomposition,
    chain_diameter_bound,
    chain_verdict,
    elementary_decompose,
    family_1d,
    in_Re,
    pairwise_in_Re,
    recover_chain,
)
from cycledec.errors import (
    NegativeEdgeWeight,
    NotBalanced,
    NotHomologous,
    NotInRe,
    TooLarge,
)
from cycledec.finite_graph import GraphCycle, GraphDecomposition, cycle_sum
from cycledec.ratio import ONE, ZERO, Rat, rat_decimal, rat_str

from conftest import cube_complex, face_indicator
from oracles import (
    brute_force_Re_oracle,
    check_rates,
    connected_sum,
    elementary_matches,
    elementary_reconstruct,
    field_from_dict,
    in_d_lambda2,
    oriented_edges,
    reference_cycles,
    reference_field_and_symmetric,
    reference_format_elementary_decomposition,
    reference_nonorientable_recover_psi,
    zero_chain,
)

from test_complexes import fig2_field, rand_chain, surfaces

EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def with_noise(rates, cx, level):
    out = dict(rates)
    for e in oriented_edges(cx):
        out[e] = out.get(e, ZERO) + level
    return {e: w for e, w in out.items() if w != 0}


def face_walk(cx, fid):
    """Vertex cycle of a face, read off its signed boundary edges."""
    return tuple(cx.edges[eid][0 if sign == 1 else 1] for eid, sign in cx.face_edges[fid])


def symmetric_rates(cx, value=ONE):
    return {e: value for e in oriented_edges(cx)}


# the public pipeline composed per question: one rates pass, read through
# the module so that a counting patch sees it, and one chain recovery


def chain_of(rates, cx):
    return recover_chain(complexes.rates_pass(rates, cx), cx)


def r_star_holds(rates, cx):
    """The necessary condition for homotopically trivial decomposability:
    the field is a face boundary."""
    return chain_of(rates, cx) is not None


def diameter_bound(rates, cx):
    return chain_diameter_bound(chain_of(rates, cx), cx)


def family_of(rates, cx):
    return family_1d(complexes.rates_pass(rates, cx), cx)


class TestIntervalArithmetic:
    def test_interval_distance_to_zero(self):
        assert _distance_to_zero(ONE, Rat(2)) == ONE
        assert _distance_to_zero(-Rat(2), -ONE) == ONE
        assert _distance_to_zero(-ONE, ONE) == ZERO
        assert _distance_to_zero(ONE - Rat(3, 2), Rat(2) - Rat(3, 2)) == ZERO

    def test_cointerval_same_signs_passes_at_zero(self):
        # both faces traverse the edge the same way, chain values 1 and 2:
        # the constraint set is everything outside (1, 2), containing 0
        assert _distance_to_zero(ONE, Rat(2), opposite=False) == ZERO

    def test_cointerval_mixed_signs_needs_mass(self):
        assert _distance_to_zero(-ONE, Rat(2), opposite=False) == ONE


class TestEdgeIntervals:
    def test_zero_chain(self):
        cx = TwoComplex.torus2(3)
        assert _spans(zero_chain(cx), cx) == [(ZERO, ZERO, True)] * cx.n_edges

    def test_face_indicator(self):
        cx = TwoComplex.torus2(3)
        spans = sorted(span[:2] for span in _spans(face_indicator(cx, 4), cx))
        assert spans.count((ZERO, ONE)) == 4
        assert spans.count((ZERO, ZERO)) == cx.n_edges - 4

    def test_fig2_band(self):
        cx, phi = fig2_field()
        psi = recover_psi(phi)
        kinds = {span[:2] for span in _spans(psi, cx)}
        assert kinds == {(ZERO, ZERO), (ONE, ONE), (ZERO, ONE)}


class TestInRe:
    def test_symmetric_rates_accepted_with_zero_constant(self):
        cx = TwoComplex.torus2(3)
        verdict = in_Re(symmetric_rates(cx, Rat(2, 5)), cx)
        assert verdict.ok and verdict.witness_c == ZERO

    def test_fig2_minimal_rejected(self):
        cx, phi = fig2_field()
        verdict = in_Re(field_to_rates(phi), cx)
        assert not verdict.ok
        assert verdict.reason == "PolyhedronViolated"
        (u1, v1), (u2, v2) = verdict.violating_edges
        assert verdict.violating_edges is not None

    def test_fig2_with_half_noise_accepted(self):
        cx, phi = fig2_field()
        rates = with_noise(field_to_rates(phi), cx, Rat(1, 2))
        verdict = in_Re(rates, cx)
        assert verdict.ok and verdict.witness_c == -Rat(1, 2)

    def test_harmonic_rates_not_homologous(self):
        cx = TwoComplex.torus2(3)
        rates = {((i, j), ((i + 1) % 3, j)): ONE for i in range(3) for j in range(3)}
        verdict = in_Re(rates, cx)
        assert not verdict.ok and verdict.reason == "NotHomologous"
        assert not r_star_holds(rates, cx)

    def test_violating_pair_certificate(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(10):
            psi = rand_chain(rng, cx)
            rates = field_to_rates(boundary2(psi))
            verdict = in_Re(rates, cx)
            if verdict.ok or verdict.reason != "PolyhedronViolated":
                continue
            (u1, v1), (u2, v2) = verdict.violating_edges
            s = ZERO  # minimal rates have zero symmetric part
            psi2 = recover_psi(boundary2(psi))
            spans = _spans(psi2, cx)
            lo1, hi1, _ = spans[cx.edge_id(u1, v1)[0]]
            lo2, hi2, _ = spans[cx.edge_id(u2, v2)[0]]
            assert max(ZERO, lo2 - hi1, lo1 - hi2) > s


class TestElementaryDecompose:
    def test_single_face_cycle(self):
        cx = TwoComplex.torus2(3)
        rates = {}
        for eid, sign in cx.face_edges[4]:
            u, v = cx.edges[eid]
            rates[(u, v) if sign == 1 else (v, u)] = ONE
        dec = elementary_decompose(rates, cx)
        assert elementary_matches(dec, rates, cx)
        forward = {fid: w for fid, (w, _) in dec.face_weights.items() if w != 0}
        backward = {fid: w for fid, (_, w) in dec.face_weights.items() if w != 0}
        assert forward == {4: ONE} and backward == {}
        assert all(w == 0 for w in dec.edge_weights.values())

    def test_symmetric_rates_pure_edge_cycles(self):
        cx = TwoComplex.torus2(3)
        rates = symmetric_rates(cx, Rat(3, 7))
        dec = elementary_decompose(rates, cx)
        assert dec.chosen_constant == ZERO
        assert all(pair == (ZERO, ZERO) for pair in dec.face_weights.values())
        assert all(w == Rat(3, 7) for w in dec.edge_weights.values())
        assert elementary_matches(dec, rates, cx)

    def test_fig2_with_noise_reconstructs(self):
        cx, phi = fig2_field()
        rates = with_noise(field_to_rates(phi), cx, Rat(1, 2))
        dec = elementary_decompose(rates, cx)
        assert elementary_matches(dec, rates, cx)

    def test_every_feasible_constant_reconstructs(self):
        # with unit noise the feasible constants form the interval [-1, 0]
        cx, phi = fig2_field()
        rates = with_noise(field_to_rates(phi), cx, ONE)
        for c in (-ONE, -Rat(1, 2), ZERO):
            dec = elementary_decompose(rates, cx, c_star=c)
            assert elementary_matches(dec, rates, cx)
            assert all(w >= 0 for w in dec.edge_weights.values())

    def test_infeasible_constant_rejected(self):
        cx, phi = fig2_field()
        rates = with_noise(field_to_rates(phi), cx, Rat(1, 2))
        with pytest.raises(NegativeEdgeWeight):
            elementary_decompose(rates, cx, c_star=Rat(5))

    def test_not_in_re_rejected(self):
        cx, phi = fig2_field()
        with pytest.raises(NotInRe):
            elementary_decompose(field_to_rates(phi), cx)


class TestNonOrientable:
    def test_minimal_rates_verdict_matches_oracle(self, rng):
        cx = TwoComplex.klein_grid(3, 3)
        hits = {True: 0, False: 0}
        for _ in range(8):
            psi = rand_chain(rng, cx)
            rates = field_to_rates(boundary2(psi))
            verdict = in_Re(rates, cx)
            assert verdict.ok == brute_force_Re_oracle(rates, cx)
            hits[verdict.ok] += 1
        assert hits[False] > 0

    def test_noise_restores_membership(self, rng):
        cx = TwoComplex.klein_grid(3, 3)
        psi = TwoChain(cx, [Rat(rng.randrange(-2, 3)) for _ in range(cx.n_faces)])
        rates = with_noise(field_to_rates(boundary2(psi)), cx, Rat(5))
        verdict = in_Re(rates, cx)
        assert verdict.ok
        dec = elementary_decompose(rates, cx)
        assert elementary_matches(dec, rates, cx)


class TestOneDimensional:
    def make_rates(self, cx, forward, backward):
        rates = {}
        for u, v in cx.edges:
            if forward:
                rates[(u, v)] = forward
            if backward:
                rates[(v, u)] = backward
        return rates

    def test_drift_family(self):
        cx = TwoComplex.torus1(3)
        rates = self.make_rates(cx, Rat(2), ONE)
        family = family_of(rates, cx)
        assert family.constant == ONE and family.min_weight == ONE
        assert not family.in_r_star
        edge_w, plus, minus = family.weights_at(ZERO)
        assert set(edge_w.values()) == {ONE} and plus == ONE and minus == ZERO
        edge_w, plus, minus = family.weights_at(ONE)
        assert set(edge_w.values()) == {ZERO} and plus == Rat(2) and minus == ONE
        for a in (ZERO, Rat(1, 2), ONE):
            assert cycle_sum(family.cycles_at(a)) == rates
        loop = ((0,), (1,), (2,))
        half = Rat(1, 2)
        assert family.cycles_at(half) == [
            (((0,), (1,)), half), (((1,), (2,)), half), (((2,), (0,)), half),
            (loop, Rat(3, 2)), (((0,), (2,), (1,)), half),
        ]
        assert [w for _, w in family.cycles_at(ONE)] == [Rat(2), ONE]

    def test_symmetric_is_r_star(self):
        cx = TwoComplex.torus1(4)
        rates = self.make_rates(cx, Rat(5, 3), Rat(5, 3))
        family = family_of(rates, cx)
        assert family.in_r_star and family.constant == ZERO
        assert cycle_sum(family.cycles_at(ZERO)) == rates

    def test_parameter_outside_range_rejected(self):
        cx = TwoComplex.torus1(3)
        family = family_of(self.make_rates(cx, Rat(2), ONE), cx)
        with pytest.raises(NegativeEdgeWeight):
            family.weights_at(family.min_weight + 1)
        with pytest.raises(NegativeEdgeWeight):
            family.weights_at(-ONE)

    def test_nonconstant_field_rejected(self):
        cx = TwoComplex.torus1(3)
        rates = self.make_rates(cx, Rat(2), ONE)
        rates[((0,), (1,))] = Rat(5)
        with pytest.raises(NotBalanced) as info:
            family_of(rates, cx)
        assert info.value.violators


class TestDiameterBound:
    def test_zero_field(self):
        cx = TwoComplex.torus2(3)
        sufficient, bound = diameter_bound(symmetric_rates(cx), cx)
        assert sufficient and bound == ZERO

    def test_fig2(self):
        cx, phi = fig2_field()
        rates = with_noise(field_to_rates(phi), cx, Rat(1, 2))
        sufficient, bound = diameter_bound(rates, cx)
        assert bound >= ONE
        if sufficient:
            assert in_Re(rates, cx).ok

    def test_single_face_indicator(self):
        cx = TwoComplex.torus2(3)
        rates = with_noise(field_to_rates(boundary2(face_indicator(cx, 4))), cx, ONE)
        sufficient, bound = diameter_bound(rates, cx)
        if sufficient:
            assert in_Re(rates, cx).ok

    def test_never_false_positive(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(10):
            psi = rand_chain(rng, cx)
            level = rng.choice([ZERO, Rat(1, 2), ONE, Rat(2)])
            rates = with_noise(field_to_rates(boundary2(psi)), cx, level)
            sufficient, _ = diameter_bound(rates, cx)
            if sufficient:
                assert in_Re(rates, cx).ok


class TestBruteForceOracle:
    def test_symmetric_true(self):
        cx = TwoComplex.torus2(3)
        assert brute_force_Re_oracle(symmetric_rates(cx), cx)

    def test_small_fig2_analogue_false(self):
        cx = TwoComplex.torus2(4)
        values = {}
        for j in range(4):
            values[((1, j), (1, (j + 1) % 4))] = 1
            values[((3, j), (3, (j + 1) % 4))] = -1
        phi = field_from_dict(cx, values)
        rates = field_to_rates(phi)
        assert not brute_force_Re_oracle(rates, cx)
        assert not in_Re(rates, cx).ok

    def test_too_large_guard(self):
        cx = TwoComplex.torus2(3)
        with pytest.raises(TooLarge):
            brute_force_Re_oracle({}, cx, max_vars=10)

    def test_cube_agreement(self, rng):
        cx = cube_complex()
        for _ in range(6):
            psi = rand_chain(rng, cx)
            level = rng.choice([ZERO, Rat(1, 2), Rat(3)])
            rates = with_noise(field_to_rates(boundary2(psi)), cx, level)
            assert in_Re(rates, cx).ok == brute_force_Re_oracle(rates, cx)

    def test_four_torus_agreement(self, rng):
        cx = TwoComplex.torus2(4)
        verdicts = set()
        for _ in range(8):
            psi = rand_chain(rng, cx)
            level = rng.choice([ZERO, ONE, Rat(3), Rat(5)])
            rates = with_noise(field_to_rates(boundary2(psi)), cx, level)
            ok = in_Re(rates, cx).ok
            assert ok == brute_force_Re_oracle(rates, cx)
            verdicts.add(ok)
        assert verdicts == {True, False}


class TestInvariants:
    def test_monotonicity_in_symmetric_part(self, rng):
        cx = TwoComplex.torus2(3)
        found = 0
        for _ in range(10):
            psi = rand_chain(rng, cx)
            rates = with_noise(field_to_rates(boundary2(psi)), cx, ONE)
            if not in_Re(rates, cx).ok:
                continue
            found += 1
            bigger = dict(rates)
            for u, v in cx.edges:
                bump = Rat(rng.randrange(0, 4), 2)
                bigger[(u, v)] = bigger.get((u, v), ZERO) + bump
                bigger[(v, u)] = bigger.get((v, u), ZERO) + bump
            assert in_Re(bigger, cx).ok
        assert found > 0

    def test_helly_pairwise_agreement(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(15):
            psi = rand_chain(rng, cx)
            level = rng.choice([ZERO, Rat(1, 2), ONE])
            rates = with_noise(field_to_rates(boundary2(psi)), cx, level)
            assert in_Re(rates, cx).ok == pairwise_in_Re(rates, cx)

    def test_induced_graph_decomposition(self, rng):
        # elementary terms, read as vertex cycles, form a graph
        # decomposition whose indicator-weight sum is the input
        cx = TwoComplex.torus2(3)
        psi = rand_chain(rng, cx)
        rates = with_noise(field_to_rates(boundary2(psi)), cx, Rat(2))
        dec = elementary_decompose(rates, cx)
        terms = [
            (cx.edges[eid], w)
            for eid, w in sorted(dec.edge_weights.items(), key=lambda it: str(cx.edges[it[0]]))
            if w != 0
        ]
        for fid, (forward, backward) in sorted(dec.face_weights.items()):
            cycle = face_walk(cx, fid)
            if forward != 0:
                terms.append((cycle, forward))
            if backward != 0:
                terms.append((tuple(reversed(cycle)), backward))
        assert dec.cycles(cx) == terms
        rebuilt = GraphDecomposition([(GraphCycle(c), w) for c, w in terms]).reconstruct()
        assert rebuilt == rates == elementary_reconstruct(dec, cx)

    def test_torus_lift_records(self, rng):
        # the lift reads the same cycles, whatever their order
        cx = TwoComplex.torus2(3, 4)
        psi = rand_chain(rng, cx)
        rates = with_noise(field_to_rates(boundary2(psi)), cx, Rat(2))
        dec = elementary_decompose(rates, cx)
        pairs = [(cx.edges[eid], w) for eid, w in sorted(dec.edge_weights.items()) if w != 0]
        faces = sorted(dec.face_weights.items())
        pairs += [(face_walk(cx, fid), w) for fid, (w, _) in faces if w != 0]
        pairs += [(face_walk(cx, fid)[::-1], w) for fid, (_, w) in faces if w != 0]
        header, *lifted = fio.format_lift(dec.cycles(cx), cx.torus_shape).splitlines()
        assert header == "periodic-lift"
        assert Counter(lifted) == Counter(fio.format_lift(pairs, cx.torus_shape).splitlines()[1:])
        assert len(lifted) == len(pairs)
        assert all(line.endswith(" @ all 3x4-periodic translates") for line in lifted)

    def test_constant_shift_invariance(self, rng):
        # identical verdicts whichever chain recover_psi returns: shifting
        # the chain by a constant shifts every interval the same way
        cx = TwoComplex.torus2(3)
        psi = rand_chain(rng, cx)
        rates = with_noise(field_to_rates(boundary2(psi)), cx, ONE)
        base = in_Re(rates, cx)
        shifted = TwoChain(cx, [v + Rat(7, 2) for v in psi.values])
        assert boundary2(shifted) == boundary2(psi)
        assert in_Re(rates, cx).ok == base.ok


class TestFacelessComplex:
    """The 1-d torus has no faces: its edges constrain nothing."""

    def test_symmetric_rates_are_edge_cycles(self):
        cx = TwoComplex.torus1(4)
        rates = symmetric_rates(cx, Rat(2, 3))
        verdict = in_Re(rates, cx)
        assert verdict.ok and verdict.witness_c == ZERO
        assert pairwise_in_Re(rates, cx)
        assert brute_force_Re_oracle(rates, cx)
        dec = elementary_decompose(rates, cx)
        assert dec.face_weights == {}
        assert all(w == Rat(2, 3) for w in dec.edge_weights.values())
        assert elementary_reconstruct(dec, cx) == rates

    def test_drift_is_not_homologous(self):
        cx = TwoComplex.torus1(4)
        rates = {(u, v): Rat(2) for u, v in cx.edges}
        rates.update({(v, u): ONE for u, v in cx.edges})
        verdict = in_Re(rates, cx)
        assert not verdict.ok and verdict.reason == "NotHomologous"
        assert not pairwise_in_Re(rates, cx)
        assert not brute_force_Re_oracle(rates, cx)
        with pytest.raises(NotInRe):
            elementary_decompose(rates, cx)


SMALL_COMPLEXES = (
    TwoComplex.torus2(3),
    TwoComplex.torus1(4),
    cube_complex(),
    TwoComplex.klein_grid(3, 3),
)


@st.composite
def complex_rates(draw):
    """Rates of a random boundary field plus symmetric noise on a small complex.

    The noise is a per-case level plus a per-edge jitter (both may be zero,
    so minimal rates occur); about one case in four adds mass on a single
    oriented edge, which usually moves the field off the boundary image.
    """
    cx = draw(st.sampled_from(SMALL_COMPLEXES))
    chain = [Rat(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for _ in range(cx.n_faces)]
    rates = field_to_rates(boundary2(TwoChain(cx, chain)))
    level = draw(st.integers(0, 6))
    for u, v in cx.edges:
        noise = level + Rat(draw(st.integers(0, 1)), 2)
        for e in ((u, v), (v, u)):
            rates[e] = rates.get(e, ZERO) + noise
    if draw(st.integers(0, 3)) == 0:
        e = draw(st.sampled_from(oriented_edges(cx)))
        rates[e] = rates.get(e, ZERO) + Rat(draw(st.integers(1, 3)), 2)
    return cx, {e: w for e, w in rates.items() if w != 0}


VERDICT_KINDS = {
    (cx.name, reason)
    for cx in SMALL_COMPLEXES
    for reason in (None, "NotHomologous", "PolyhedronViolated")
    if cx.n_faces or reason != "PolyhedronViolated"
}


def with_examples(cases):
    """``@example(case)`` for every case, so that a coverage check after a
    derandomized run does not rest on which inputs happen to be drawn."""

    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test

    return decorate


def verdict_examples():
    """Per complex, unit rates (in Re), unit rates with 1/2 more on one
    oriented edge (not a boundary) and, with faces, the minimal rates of
    the chain 0, 1, 2, ... (the polyhedron is violated)."""
    cases = []
    for cx in SMALL_COMPLEXES:
        rates = symmetric_rates(cx)
        cases.append((cx, rates))
        e = oriented_edges(cx)[0]
        cases.append((cx, {**rates, e: rates[e] + Rat(1, 2)}))
        if cx.n_faces:
            cases.append((cx, field_to_rates(boundary2(TwoChain(cx, range(cx.n_faces))))))
    return cases


def test_verdict_matches_pairwise_test_and_lp_oracle():
    seen = set()

    @EXAMPLES
    @given(complex_rates())
    @with_examples(verdict_examples())
    def agree(case):
        cx, rates = case
        verdict = in_Re(rates, cx)
        seen.add((cx.name, verdict.reason))
        assert verdict.ok == pairwise_in_Re(rates, cx) == brute_force_Re_oracle(rates, cx)
        if not verdict.ok:
            with pytest.raises(NotInRe):
                elementary_decompose(rates, cx)
            return
        dec = elementary_decompose(rates, cx)
        assert elementary_reconstruct(dec, cx) == rates
        weights = list(dec.edge_weights.values())
        weights += [w for pair in dec.face_weights.values() for w in pair]
        assert all(w >= 0 for w in weights)
        assert sum(1 for w in weights if w != 0) <= cx.n_edges + 2 * cx.n_faces

    agree()
    assert seen == VERDICT_KINDS


@pytest.mark.parametrize("cx", SMALL_COMPLEXES, ids=lambda cx: cx.name)
def test_rates_are_validated_once_per_query(monkeypatch, cx):
    # the one validating pass is rates_pass, which in_Re and pairwise_in_Re
    # reach through elementary and the composed pipeline through complexes
    calls = []
    real = complexes.rates_pass

    def counting(rates, complex):
        calls.append(complex)
        return real(rates, complex)

    for module in (complexes, elementary):
        monkeypatch.setattr(module, "rates_pass", counting)
    rates = symmetric_rates(cx, Rat(1, 2))
    queries = [in_Re, pairwise_in_Re, r_star_holds]
    queries.append(diameter_bound if cx.n_faces else family_of)
    for query in queries:
        calls.clear()
        query(rates, cx)
        assert len(calls) == 1, query.__name__


@pytest.mark.parametrize(
    "cx", [TwoComplex.torus2(4, 3), TwoComplex.klein_grid(3, 3)], ids=lambda cx: cx.name
)
def test_one_pass_and_one_recovery_answer_every_question(monkeypatch, cx):
    # a library caller that holds the pass and the chain gets the verdict,
    # the decomposition and the diameter bound with no second pass or
    # recovery, and the answers of the rates-taking functions
    chain_rates = field_to_rates(boundary2(TwoChain(cx, range(cx.n_faces))))
    rates = with_noise(chain_rates, cx, Rat(cx.n_faces))
    expected = in_Re(rates, cx), elementary_decompose(rates, cx), reference_diameter_bound(rates, cx)
    calls = Counter()
    for module, name in ((complexes, "rates_pass"), (elementary, "recover_psi")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))

    chain = recover_chain(complexes.rates_pass(rates, cx), cx)
    verdict = chain_verdict(chain, cx)
    dec = chain_decomposition(chain, cx, verdict)
    bound = chain_diameter_bound(chain, cx)
    assert calls == {"rates_pass": 1, "recover_psi": 1}
    assert verdict.ok
    assert (verdict, dec, bound) == expected
    assert elementary_reconstruct(dec, cx) == rates


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), info.value.args


@pytest.mark.parametrize(
    "bad, error, message",
    [
        # an unknown pair before a float: the pair is named, not the float
        ({((0, 0), (2, 2)): 1, ((0, 0), (1, 0)): 0.5}, KeyError, "no edge between (0, 0) and (2, 2)"),
        ({((0, 0), (1, 0)): 0.5, ((0, 0), (2, 2)): 1}, TypeError, "floats are not exact"),
        # a negative rate after an unknown pair
        ({((0, 0), (2, 2)): 1, ((1, 0), (0, 0)): -1}, KeyError, "no edge between (0, 0) and (2, 2)"),
        ({((1, 0), (0, 0)): Rat(-1, 2), ((0, 0), (2, 2)): 1}, ValueError, "negative rate on ((1, 0), (0, 0))"),
        ({((0, 0), (1, 0)): 1, ((1, 0), (0, 0)): "-1"}, ValueError, "negative rate on ((1, 0), (0, 0))"),
        # an unknown pair of weight zero still fails
        ({((0, 0), (1, 0)): 1, ((0, 0), (2, 2)): 0}, KeyError, "no edge between (0, 0) and (2, 2)"),
        # a self-loop key
        ({((0, 0), (0, 0)): 1}, KeyError, "no edge between (0, 0) and (0, 0)"),
        ({((0, 0), (1, 0)): "1/0"}, ValueError, "denominator must be positive"),
        # within one rate, the pair before its value and its sign
        ({((0, 0), (2, 2)): 0.5}, KeyError, "no edge between (0, 0) and (2, 2)"),
        ({((0, 0), (2, 2)): -1}, KeyError, "no edge between (0, 0) and (2, 2)"),
    ],
)
def test_one_pass_raises_what_check_rates_raises(bad, error, message):
    cx = TwoComplex.torus2(3)
    expected = _raised(check_rates, bad, cx)
    assert expected[0] is error and message in str(expected[1][0])
    assert _raised(complexes.rates_pass, bad, cx) == expected
    assert _raised(in_Re, bad, cx) == expected


# -- reference: the elementary pass on Fraction values, one rational per step --


def reference_need(constraint, c=ZERO):
    """Symmetric mass an edge needs at constant ``c``: ``(lo, hi, opposite)``."""
    if constraint is None:
        return ZERO
    lo, hi, opposite = constraint
    if not opposite:
        return ZERO if lo >= 0 or hi <= 0 else min(-lo, hi)
    lo, hi = lo + c, hi + c
    return lo if lo > 0 else -hi if hi < 0 else ZERO


def reference_chain(rates, cx):
    """Symmetric parts, chain and per-edge ``(lo, hi, opposite)`` on rationals."""
    phi, s = reference_field_and_symmetric(rates, cx)
    psi = recover_psi(phi)
    constraints = {}
    for eid, incidences in enumerate(cx.edge_faces):
        if not incidences:
            constraints[eid] = None
            continue
        (f1, s1), (f2, s2) = incidences
        a, b = psi.values[f1], psi.values[f2]
        constraints[eid] = (min(a, b), max(a, b), s1 != s2)
    return s, psi, constraints


def reference_in_Re(rates, cx):
    try:
        s, _, constraints = reference_chain(rates, cx)
    except NotHomologous:
        return ReVerdict(False, reason="NotHomologous")
    if not cx.orientable:
        violations = tuple(
            cx.edges[eid] for eid, iv in constraints.items() if s[eid] < reference_need(iv)
        )
        if violations:
            return ReVerdict(False, reason="PolyhedronViolated", violating_edges=violations)
        return ReVerdict(True, witness_c=ZERO)
    lo = hi = lo_edge = hi_edge = None
    for eid, iv in constraints.items():
        if iv is None:
            continue
        cand_lo, cand_hi = -iv[1] - s[eid], -iv[0] + s[eid]
        if lo is None or cand_lo > lo:
            lo, lo_edge = cand_lo, eid
        if hi is None or cand_hi < hi:
            hi, hi_edge = cand_hi, eid
    if lo is None:
        return ReVerdict(True, witness_c=ZERO)
    if lo <= hi:
        return ReVerdict(True, witness_c=(lo + hi) / 2)
    return ReVerdict(False, reason="PolyhedronViolated",
                     violating_edges=(cx.edges[lo_edge], cx.edges[hi_edge]))


def reference_elementary_decompose(rates, cx, c_star=None):
    verdict = reference_in_Re(rates, cx)
    if not verdict.ok:
        raise NotInRe(verdict.reason)
    c = verdict.witness_c if c_star is None else Rat(c_star)
    s, psi, constraints = reference_chain(rates, cx)
    face_weights = {
        fid: (max(v + c, ZERO), max(-v - c, ZERO)) for fid, v in enumerate(psi.values)
    }
    edge_weights = {}
    for eid, iv in constraints.items():
        weight = s[eid] - reference_need(iv, c)
        if weight < 0:
            raise NegativeEdgeWeight(f"constant {c} is infeasible at edge {cx.edges[eid]}")
        edge_weights[eid] = weight
    return ElementaryDecomposition(edge_weights, face_weights, c)


def reference_family_1d(rates, cx):
    phi, s = reference_field_and_symmetric(rates, cx)
    constants = set(phi.values)
    if len(constants) > 1:
        raise NotBalanced("field is not constant")
    return OneDimFamily(cx, constants.pop() if constants else ZERO, min(s), s)


def reference_diameter_bound(rates, cx):
    """Kruskal on the dual graph with rational weights ``|phi|``."""
    phi, s = reference_field_and_symmetric(rates, cx)
    if not in_d_lambda2(phi):
        raise NotHomologous("field is not a face boundary")
    component = list(range(cx.n_faces))
    bound = ZERO
    for weight, eid in sorted((abs(v), eid) for eid, v in enumerate(phi.values)):
        a, b = (component[fid] for fid, _ in cx.edge_faces[eid])
        if a != b:
            component = [a if k == b else k for k in component]
            bound += weight
    return all(value >= bound / 2 for value in s), bound


def outcome(call, *args):
    """The value of ``call(*args)``, or the type of the cycledec error it raises."""
    try:
        return call(*args)
    except (NotBalanced, NotHomologous, NotInRe, NegativeEdgeWeight) as exc:
        return type(exc)


DIFFERENTIAL_COMPLEXES = SMALL_COMPLEXES + (
    TwoComplex.torus2(5, 4),
    TwoComplex.torus1(6),
    TwoComplex.klein_grid(4, 3),
)


def mixed_rat(draw, lo, hi):
    return Rat(draw(st.integers(lo, hi)), draw(st.integers(1, 12)))


@st.composite
def mixed_rates(draw):
    """Rates with denominators up to 12: a boundary field (or, on the
    1-d torus, a constant drift) plus per-edge symmetric noise, and about
    one case in four with extra mass on one oriented edge.  The last entry
    is an offset from the witness constant to build the decomposition at.
    """
    cx = draw(st.sampled_from(DIFFERENTIAL_COMPLEXES))
    if cx.n_faces:
        chain = [mixed_rat(draw, -6, 6) for _ in range(cx.n_faces)]
        rates = field_to_rates(boundary2(TwoChain(cx, chain)))
    else:
        drift = draw(st.sampled_from([ZERO, ZERO, mixed_rat(draw, -3, 3)]))
        rates = field_to_rates(VectorField(cx, [drift] * cx.n_edges))
    level = mixed_rat(draw, 0, 12)
    for u, v in cx.edges:
        noise = level + (mixed_rat(draw, 0, 2) if draw(st.booleans()) else ZERO)
        for e in ((u, v), (v, u)):
            rates[e] = rates.get(e, ZERO) + noise
    if draw(st.sampled_from([False, False, False, True])):
        e = draw(st.sampled_from(oriented_edges(cx)))
        rates[e] = rates.get(e, ZERO) + mixed_rat(draw, 1, 4)
    return cx, {e: w for e, w in rates.items() if w != 0}, mixed_rat(draw, -3, 3)


def assert_all_rat(*values):
    assert all(type(v) is Rat for v in values), [type(v) for v in values]


def differential_examples():
    """Per complex, ``(complex, rates, offset 0)`` for unit rates, which are
    in Re at the witness constant and not 100 above it, and on a complex
    with faces for the minimal rates of the chain 0, 1, 2, ..., which
    violate the polyhedron."""
    cases = []
    for cx in DIFFERENTIAL_COMPLEXES:
        cases.append((cx, symmetric_rates(cx), ZERO))
        if cx.n_faces:
            cases.append((cx, field_to_rates(boundary2(TwoChain(cx, range(cx.n_faces)))), ZERO))
    return cases


def test_integer_pass_matches_fraction_reference():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mixed_rates())
    @with_examples(differential_examples())
    def agree(case):
        cx, rates, offset = case
        verdict = in_Re(rates, cx)
        assert verdict == reference_in_Re(rates, cx)
        seen.add((cx.name, verdict.reason))
        if cx.n_edges + 2 * cx.n_faces <= 40:
            assert verdict.ok == pairwise_in_Re(rates, cx) == brute_force_Re_oracle(rates, cx)
        if not verdict.ok:
            assert outcome(elementary_decompose, rates, cx) is NotInRe
        else:
            assert_all_rat(verdict.witness_c)
            constants = [None]
            if cx.orientable:
                constants += [verdict.witness_c + offset, verdict.witness_c + 100]
            for c in constants:
                dec = outcome(elementary_decompose, rates, cx, c)
                assert dec == outcome(reference_elementary_decompose, rates, cx, c)
                seen.add((cx.name, c is None, dec if isinstance(dec, type) else "decomposed"))
                if isinstance(dec, ElementaryDecomposition):
                    assert_all_rat(dec.chosen_constant, *dec.edge_weights.values(),
                                   *(w for pair in dec.face_weights.values() for w in pair))
                    rebuilt = elementary_reconstruct(dec, cx)
                    assert rebuilt == check_rates(rates, cx)
                    assert_all_rat(*rebuilt.values())
        if cx.n_faces:
            bound = outcome(diameter_bound, rates, cx)
            assert bound == outcome(reference_diameter_bound, rates, cx)
            if isinstance(bound, tuple):
                assert_all_rat(bound[1])
                seen.add((cx.name, "bound"))
        else:
            family = outcome(family_of, rates, cx)
            assert family == outcome(reference_family_1d, rates, cx)
            if isinstance(family, OneDimFamily):
                assert_all_rat(family.constant, family.min_weight, *family.symmetric)
                for a in (ZERO, family.min_weight / 2, family.min_weight):
                    rebuilt = cycle_sum(family.cycles_at(a))
                    assert rebuilt == check_rates(rates, cx)
                    assert_all_rat(*rebuilt.values())

    agree()
    for cx in DIFFERENTIAL_COMPLEXES:
        assert {(cx.name, None), (cx.name, True, "decomposed")} <= seen, cx.name
        if cx.n_faces:
            # a bound on a Klein bottle weighs its edges by |lo + hi|
            assert {(cx.name, "PolyhedronViolated"), (cx.name, "bound")} <= seen, cx.name
        if cx.orientable and cx.n_faces:
            assert {(cx.name, False, NegativeEdgeWeight), (cx.name, False, "decomposed")} <= seen, cx.name


def test_public_values_stay_rational():
    cx = TwoComplex.klein_grid(3, 3)
    for complex in (TwoComplex.torus2(3), cx):
        phi = VectorField(complex, range(complex.n_edges))
        assert_all_rat(*phi.values)
        assert_all_rat(*field_from_dict(complex, {complex.edges[0]: 2}).values)
        assert_all_rat(*TwoChain(complex, [1] * complex.n_faces).values)
        assert_all_rat(*ZeroForm(complex, [0] * complex.n_vertices).values)
        psi = TwoChain(complex, [Rat(k, 3) for k in range(complex.n_faces)])
        recovered = recover_psi(boundary2(psi))
        assert_all_rat(*recovered.values)
    assert_all_rat(*cycle_sum([(("a", "b"), 1), (("b", "a"), Rat(1, 2))]).values())


# -- the one validating pass and the term list against their references --

# an orientable torus whose str order of edges differs from their tuple
# order ("(10, 0)" < "(2, 0)"), and complexes with string vertex labels
TERM_COMPLEXES = SMALL_COMPLEXES + (TwoComplex.torus2(11, 3),)


def _value_spelling(draw, n, d):
    """``n/d`` as an int (when ``d`` is 1), a string or a ``Rat``."""
    forms = ["str", "Rat"] + (["int"] if d == 1 else [])
    form = draw(st.sampled_from(forms))
    if form == "int":
        return n
    if form == "str":
        return draw(st.sampled_from([f"{n}/{d}", f" {n}/{d} "] + ([str(n)] if d == 1 else [])))
    return Rat(n, d)


# entries that check_rates refuses: a pair that is no edge, a key that is
# not a pair, and values that are negative, inexact or not rationals
BAD_ENTRIES = [
    (((0, 0), (2, 2)), 1),
    (((0, 0), (0, 0)), 1),
    (((0, 0), (1, 0), 1), 1),
    (5, 1),
    (None, -1),
    (None, "-1/2"),
    (None, Rat(-1, 3)),
    (None, 0.5),
    (None, "1/0"),
    (None, "x"),
    (None, None),
]


@st.composite
def spelled_rates(draw):
    """``(complex, rates)`` on a torus: some oriented edges with int, string
    or ``Rat`` values, and up to two of ``BAD_ENTRIES`` among them."""
    cx = draw(st.sampled_from((TwoComplex.torus2(3), TwoComplex.torus2(4, 3))))
    rates = {}
    for e in oriented_edges(cx):
        if draw(st.booleans()):
            rates[e] = _value_spelling(draw, draw(st.integers(0, 9)), draw(st.integers(1, 6)))
    for _ in range(draw(st.integers(0, 2))):
        key, value = draw(st.sampled_from(BAD_ENTRIES))
        if key is None:
            key = draw(st.sampled_from(oriented_edges(cx)))
        entries = list(rates.items())
        entries.insert(draw(st.integers(0, len(entries))), (key, value))
        rates = dict(entries)
    return cx, rates


def spelling_examples():
    """Unit int rates (scale 1) and string halves (scale 2) on the 3 x 3
    torus, and each of ``BAD_ENTRIES`` among unit rates there."""
    cx = TwoComplex.torus2(3)
    edges = oriented_edges(cx)
    cases = [(cx, dict.fromkeys(edges, 1)), (cx, dict.fromkeys(edges, "1/2"))]
    for key, value in BAD_ENTRIES:
        cases.append((cx, {**dict.fromkeys(edges, ONE), edges[0] if key is None else key: value}))
    return cases


def test_one_pass_matches_fraction_reference_on_any_spelling():
    """``rates_pass`` gives the reference's field and symmetric
    parts over the lcm of the rate denominators, for int, string and
    ``Rat`` rates, and otherwise raises the reference's error type and
    message."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(spelled_rates())
    @with_examples(spelling_examples())
    def agree(case):
        cx, rates = case
        try:
            phi, s = reference_field_and_symmetric(rates, cx)
        except Exception:
            expected = _raised(reference_field_and_symmetric, rates, cx)
            assert _raised(complexes.rates_pass, rates, cx) == expected
            seen.add(expected[0])
            return
        scale, field, symmetric = complexes.rates_pass(rates, cx)
        assert scale == lcm(*(w.denominator for w in check_rates(rates, cx).values()))
        assert all(type(n) is int for n in field.values + symmetric)
        assert [Rat(n, scale) for n in field.values] == phi.values
        assert [Rat(n, scale) for n in symmetric] == s
        seen.add(scale > 1)

    agree()
    assert seen == {KeyError, TypeError, ValueError, True, False}


def _reference_text(dec, cx, decimals):
    def fmt(w):
        return rat_str(w) + ("" if decimals is None else "~" + rat_decimal(w, decimals))

    lines = ["decomposition elementary r", f"constant {fmt(dec.chosen_constant)}"]
    for cycle, w in reference_cycles(dec, cx):
        lines.append(f"term {fmt(w)} cycle " + " ".join(fio.vertex_label(v) for v in cycle))
    return "\n".join(lines) + "\n"


@st.composite
def term_cases(draw):
    """``(complex, decomposition, drawn, decimals)``: a drawn decomposition
    on ``TERM_COMPLEXES`` with zero weights allowed, or one built from
    ``mixed_rates`` at the witness constant plus the drawn offset."""
    weight = st.one_of(st.just(ZERO), st.builds(Rat, st.integers(0, 9), st.integers(1, 7)))
    drawn = draw(st.booleans())
    if drawn:
        cx = draw(st.sampled_from(TERM_COMPLEXES))
        dec = ElementaryDecomposition(
            {eid: draw(weight) for eid in range(cx.n_edges) if draw(st.booleans())},
            {fid: (draw(weight), draw(weight)) for fid in range(cx.n_faces)},
            Rat(draw(st.integers(-9, 9)), draw(st.integers(1, 7))),
        )
    else:
        cx, rates, offset = draw(mixed_rates())
        verdict = in_Re(rates, cx)
        assume(verdict.ok)
        c = verdict.witness_c + offset if cx.orientable else None
        try:
            dec = elementary_decompose(rates, cx, c)
        except NegativeEdgeWeight:
            dec = elementary_decompose(rates, cx)
    return cx, dec, drawn, draw(st.sampled_from([None, 0, 3]))


def term_examples():
    """On every complex a decomposition with unit weights but for one zero
    edge weight and zero backward face halves, so the 11 x 3 torus has
    live edges out of ``str`` order; and unit rates on the 3 x 3 torus
    built at the constants 0 and 1/2."""
    cases = []
    for cx in TERM_COMPLEXES:
        edges = {eid: ONE if eid else ZERO for eid in range(cx.n_edges)}
        faces = {fid: (ONE, ZERO) for fid in range(cx.n_faces)}
        cases.append((cx, ElementaryDecomposition(edges, faces, Rat(1, 2)), True, None))
    cx = TERM_COMPLEXES[0]
    for c in (ZERO, Rat(1, 2)):
        cases.append((cx, elementary_decompose(symmetric_rates(cx), cx, c), False, 3))
    return cases


def test_cycles_and_text_match_the_str_sorted_reference():
    """``cycles()`` and the ``.dec`` text list the terms in the reference's
    order, with zero edge weights and zero face halves dropped, on drawn
    decompositions and on built ones at a constant with a denominator."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(term_cases())
    @with_examples(term_examples())
    def agree(case):
        cx, dec, drawn, decimals = case
        if drawn:
            zeros = sum(1 for w in dec.edge_weights.values() if w == 0)
            zeros += sum(1 for pair in dec.face_weights.values() for w in pair if w == 0)
            seen.add((cx.name, "drawn", zeros > 0))
            live = [eid for eid, w in dec.edge_weights.items() if w]
            if sorted(live, key=lambda eid: str(cx.edges[eid])) != sorted(live, key=cx.edges.__getitem__):
                seen.add("str order is not tuple order")
        else:
            seen.add(("built", dec.chosen_constant.denominator > 1))
        assert dec.cycles(cx) == reference_cycles(dec, cx)
        text = fio.format_elementary_decomposition(dec, cx, "r", decimals)
        assert text == _reference_text(dec, cx, decimals)

    agree()
    assert {("built", True), ("built", False), "str order is not tuple order"} <= seen
    for cx in TERM_COMPLEXES:
        assert (cx.name, "drawn", True) in seen, cx.name


# -- the non-orientable chain on ints over twice the rate scale --

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"
KLEIN_COMPLEXES = tuple(
    TwoComplex.klein_grid(*shape) for shape in ((3, 3), (3, 4), (4, 3), (5, 5))
) + (fio.read_surface(SAMPLES / "klein.surf"),)


def as_surf(cx):
    """``cx`` with its vertices relabelled as strings, written as a
    ``.surf`` file and read back."""
    label = {v: "/".join(map(str, v)) for v in cx.vertices}
    cycles = [[label[v] for v in cx.face_cycle(fid)] for fid in range(cx.n_faces)]
    relabelled = TwoComplex.from_face_cycles(cycles, cx.orientable, name="drawn")
    return fio.parse_surface(fio.format_surface(relabelled))


@st.composite
def nonorientable_rates(draw):
    """Rates on a Klein grid, the sample Klein bottle or a drawn Klein
    bottle (faces shuffled and some reversed) read from its ``.surf``
    text: the boundary of a chain with denominators up to 12 plus
    symmetric noise, and about one case in four with extra mass on one
    oriented edge."""
    if draw(st.booleans()):
        cx = draw(st.sampled_from(KLEIN_COMPLEXES))
    else:
        cx = as_surf(draw(surfaces(["klein3", "klein3x4"], st.just(False), most=1)))
    chain = [mixed_rat(draw, -6, 6) for _ in range(cx.n_faces)]
    rates = field_to_rates(boundary2(TwoChain(cx, chain)))
    level = mixed_rat(draw, 0, 8)
    for u, v in cx.edges:
        noise = level + (mixed_rat(draw, 0, 2) if draw(st.booleans()) else ZERO)
        for e in ((u, v), (v, u)):
            rates[e] = rates.get(e, ZERO) + noise
    if draw(st.sampled_from([False, False, False, True])):
        e = draw(st.sampled_from(oriented_edges(cx)))
        rates[e] = rates.get(e, ZERO) + mixed_rat(draw, 1, 4)
    return cx, {e: w for e, w in rates.items() if w != 0}


def nonorientable_examples():
    """On the 3 x 3 Klein grid: unit rates plus the boundary of the chain
    of halves (a chain of odd numerators over twice the scale), the
    minimal rates of the chain 0, 1, 2, ... (the polyhedron is violated)
    and unit rates with 1/2 more on one oriented edge (not a boundary)."""
    cx = KLEIN_COMPLEXES[0]
    unit = symmetric_rates(cx)
    halves = field_to_rates(boundary2(TwoChain(cx, [Rat(1, 2)] * cx.n_faces)))
    e = oriented_edges(cx)[0]
    return [
        (cx, {e: unit[e] + halves.get(e, ZERO) for e in unit}),
        (cx, field_to_rates(boundary2(TwoChain(cx, range(cx.n_faces))))),
        (cx, {**unit, e: unit[e] + Rat(1, 2)}),
    ]


def test_nonorientable_chain_is_ints_over_twice_the_scale():
    """On non-orientable complexes the shared step's chain and symmetric
    parts are ints over ``2 D``, ``D`` the lcm of the rate denominators:
    ``2 D`` times the Gauss-Jordan reference chain and the ``Rat``
    symmetric parts.  Verdicts agree with the LP oracle, and every
    decomposition reconstructs the rates exactly."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(nonorientable_rates())
    @with_examples(nonorientable_examples())
    def agree(case):
        cx, rates = case
        seen.add(("drawn", cx.name == "drawn"))
        phi, s = reference_field_and_symmetric(rates, cx)
        verdict = in_Re(rates, cx)
        if cx.n_edges + 2 * cx.n_faces <= 72:
            assert verdict.ok == brute_force_Re_oracle(rates, cx)
        seen.add(verdict.reason)
        rates_pass = complexes.rates_pass(rates, cx)
        try:
            expected = reference_nonorientable_recover_psi(phi)
        except NotHomologous:
            assert elementary.recover_chain(rates_pass, cx) is None
            assert verdict.reason == "NotHomologous"
            return
        scale, symmetric, psi, _ = elementary.recover_chain(rates_pass, cx)
        assert scale == 2 * lcm(*(w.denominator for w in check_rates(rates, cx).values()))
        assert all(type(n) is int for n in psi.values + symmetric)
        assert psi.values == [scale * v for v in expected.values]
        assert symmetric == [scale * v for v in s]
        seen.add(("odd chain numerator", any(n % 2 for n in psi.values)))
        if verdict.ok:
            dec = elementary_decompose(rates, cx)
            weights = list(dec.edge_weights.values())
            weights += [w for pair in dec.face_weights.values() for w in pair]
            assert_all_rat(dec.chosen_constant, *weights)
            assert elementary_reconstruct(dec, cx) == check_rates(rates, cx)

    agree()
    assert {None, "PolyhedronViolated", "NotHomologous"} <= seen
    assert {("odd chain numerator", True), ("odd chain numerator", False)} <= seen
    assert {("drawn", True), ("drawn", False)} <= seen


def test_a_chain_off_the_doubled_scale_is_an_engine_fault(monkeypatch):
    cx = KLEIN_COMPLEXES[0]
    monkeypatch.setattr(
        elementary, "recover_psi", lambda phi: TwoChain._exact(cx, [Rat(1, 2)] * cx.n_faces)
    )
    with pytest.raises(AssertionError, match="not integral"):
        in_Re(symmetric_rates(cx), cx)


# -- the .dec writer on term ids against the cycle-terms writer --

WRITER_COMPLEXES = (
    TwoComplex.torus2(3),
    TwoComplex.torus2(11, 3),
    TwoComplex.torus2(4, 3),
    cube_complex(),
) + KLEIN_COMPLEXES


@st.composite
def written_decompositions(draw):
    """``(complex, decomposition, decimals)``: drawn weights, zeros
    allowed, and a drawn constant on a torus, a Klein bottle, the cube or
    a drawn surface."""
    if draw(st.booleans()):
        cx = draw(st.sampled_from(WRITER_COMPLEXES))
    else:
        cx = draw(surfaces())
    weight = st.one_of(st.just(ZERO), st.builds(Rat, st.integers(0, 9), st.integers(1, 7)))
    dec = ElementaryDecomposition(
        {eid: draw(weight) for eid in range(cx.n_edges) if draw(st.booleans())},
        {fid: (draw(weight), draw(weight)) for fid in range(cx.n_faces)},
        Rat(draw(st.integers(-9, 9)), draw(st.integers(1, 7))),
    )
    return cx, dec, draw(st.sampled_from([None, 0, 3]))


def writer_examples():
    """On every complex of ``WRITER_COMPLEXES``, unit edge weights but a
    zero one and faces with one zero half, at the constant -1/2."""
    cases = []
    for cx in WRITER_COMPLEXES:
        edges = {eid: ONE if eid else ZERO for eid in range(cx.n_edges)}
        faces = {fid: (ONE, ZERO) if fid % 2 else (ZERO, Rat(2, 3)) for fid in range(cx.n_faces)}
        cases.append((cx, ElementaryDecomposition(edges, faces, Rat(-1, 2)), 3))
    return cases


def test_writer_equals_the_cycle_terms_writer():
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(written_decompositions())
    @with_examples(writer_examples())
    def agree(case):
        cx, dec, decimals = case
        text = fio.format_elementary_decomposition(dec, cx, "r", decimals)
        assert text == reference_format_elementary_decomposition(dec, cx, "r", decimals)
        weights = list(dec.edge_weights.values())
        weights += [w for pair in dec.face_weights.values() for w in pair]
        seen.add(("zero weight", ZERO in weights))
        seen.add(("constant", dec.chosen_constant != 0))
        seen.add(cx.name if cx in WRITER_COMPLEXES else "drawn")

    agree()
    assert {("zero weight", True), ("constant", True)} <= seen
    assert {cx.name for cx in WRITER_COMPLEXES} | {"drawn"} <= seen


# -- surfaces beyond the torus, the Klein bottle and the cube --

SUMMANDS = {"torus": TwoComplex.torus2(3), "klein": TwoComplex.klein_grid(3, 3)}


def face_cycles(cx, first=0):
    """The face vertex cycles of ``cx``, starting at face ``first``."""
    cycles = [cx.face_cycle(fid) for fid in range(cx.n_faces)]
    return cycles[first:] + cycles[:first]


def summed(second, first_a=0, first_b=0):
    """A 3 x 3 torus summed with a 3 x 3 torus (genus 2) or a 3 x 3 Klein
    grid (non-orientable genus 4), each missing face ``first_*``."""
    orientable = second == "torus"
    name = "genus2" if orientable else "nonorientable4"
    faces_a = face_cycles(SUMMANDS["torus"], first_a)
    return connected_sum(faces_a, face_cycles(SUMMANDS[second], first_b), orientable, name)


def test_connected_sums_are_surfaces_of_euler_characteristic_minus_two():
    for second in SUMMANDS:
        cx = summed(second)
        cx.validate()
        assert (cx.n_vertices, cx.n_edges, cx.n_faces) == (14, 32, 16)
        assert cx.orientable == (second == "torus")


@st.composite
def genus_rates(draw):
    """Rates on a genus-2 or non-orientable genus-4 sum, each summand
    missing a drawn face: the boundary of a chain with denominators up to
    12 plus symmetric noise, and about one case in five with extra mass on
    one oriented edge."""
    cx = summed(draw(st.sampled_from(sorted(SUMMANDS))), draw(st.integers(0, 8)), draw(st.integers(0, 8)))
    chain = [mixed_rat(draw, -6, 6) for _ in range(cx.n_faces)]
    rates = field_to_rates(boundary2(TwoChain(cx, chain)))
    level = draw(st.sampled_from([0, 3])) + mixed_rat(draw, 0, 8)
    for u, v in cx.edges:
        noise = level + (mixed_rat(draw, 0, 2) if draw(st.booleans()) else ZERO)
        for e in ((u, v), (v, u)):
            rates[e] = rates.get(e, ZERO) + noise
    if draw(st.sampled_from([False, False, False, False, True])):
        e = draw(st.sampled_from(oriented_edges(cx)))
        rates[e] = rates.get(e, ZERO) + mixed_rat(draw, 1, 4)
    return cx, {e: w for e, w in rates.items() if w != 0}


def genus_examples():
    """On each sum: unit rates plus the boundary of the chain of halves
    (in Re), the minimal rates of the chain 0, 1, 2, ... (the polyhedron is
    violated) and unit rates with 1/2 more on one oriented edge (not a
    boundary)."""
    cases = []
    for second in SUMMANDS:
        cx = summed(second)
        unit = symmetric_rates(cx)
        halves = field_to_rates(boundary2(TwoChain(cx, [Rat(1, 2)] * cx.n_faces)))
        e = oriented_edges(cx)[0]
        cases += [
            (cx, {e: unit[e] + halves.get(e, ZERO) for e in unit}),
            (cx, field_to_rates(boundary2(TwoChain(cx, range(cx.n_faces))))),
            (cx, {**unit, e: unit[e] + Rat(1, 2)}),
        ]
    return cases


def test_pipeline_on_higher_genus_surfaces():
    """On genus-2 and non-orientable genus-4 surfaces the pipeline's verdict
    is the LP oracle's and that of ``in_Re``, and every yes-decomposition is
    that of ``elementary_decompose``, rebuilds the rates exactly and has at
    most |E| + 2|F| terms."""
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(genus_rates())
    @with_examples(genus_examples())
    def agree(case):
        cx, rates = case
        chain = chain_of(rates, cx)
        verdict = chain_verdict(chain, cx)
        assert verdict == in_Re(rates, cx)
        assert verdict.ok == brute_force_Re_oracle(rates, cx)
        seen.add((cx.name, verdict.reason))
        if not verdict.ok:
            return
        dec = chain_decomposition(chain, cx, verdict)
        assert dec == elementary_decompose(rates, cx)
        assert elementary_reconstruct(dec, cx) == check_rates(rates, cx)
        assert len(dec.cycles(cx)) <= cx.n_edges + 2 * cx.n_faces

    agree()
    assert seen == {
        (name, reason)
        for name in ("genus2", "nonorientable4")
        for reason in (None, "NotHomologous", "PolyhedronViolated")
    }
