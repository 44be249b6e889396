"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

from cycledec.complexes import (
    TwoChain,
    TwoComplex,
    VectorField,
    boundary1,
    boundary2,
    face_boundary_matrix,
    field_to_rates,
    hodge_decompose,
    recover_psi,
)
from cycledec.discretize import (
    EnvironmentSpec,
    PotentialSampler,
    check_re_sufficient,
    discretize_potential,
    oscillation_bound,
    random_environment,
)
from cycledec.elementary import (
    decompose_1d,
    elementary_decompose,
    in_Re,
    pairwise_in_Re,
)
from cycledec.errors import Infeasible, NegativeEdgeWeight, NotBalanced
from cycledec.exact_lp import barycentric_vertex, exact_rank
from cycledec.finite_graph import (
    WeightedDigraph,
    birkhoff_decompose,
    decompose_graph,
    is_balanced_graph,
    is_bistochastic,
)
from cycledec.lattice import (
    HeavyTailOracle1D,
    LatticeMeasure,
    decompose_1d_heavy_tail,
    decompose_lattice,
    empirical_measure,
    irreducible_class,
    is_balanced,
    is_irreducible,
)
from cycledec.ratio import ONE, ZERO, Rat, denominator_lcm

from conftest import gradient_matrix, rand_pos_rat
from oracles import brute_force_Re_oracle, in_d_lambda2


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS  {text}")


# -- helpers shared across criteria ----------------------------------------


def random_balanced_graph(rng):
    n = rng.randrange(2, 11)
    vertices = [f"v{k}" for k in range(n)]
    weights = {}
    for _ in range(rng.randrange(1, 6)):
        size = rng.randrange(2, n + 1)
        cycle = rng.sample(vertices, size)
        w = Rat(rng.randrange(1, 50), rng.randrange(1, 101))
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            weights[(u, v)] = weights.get((u, v), ZERO) + w
    return WeightedDigraph(tuple(vertices), weights)


def random_mean_zero_measure(rng):
    d = rng.choice([1, 2, 3])
    atoms = {}
    for _ in range(rng.randrange(2, 6)):
        k = rng.randrange(2, 5)
        vectors = [
            tuple(rng.randrange(-4, 5) for _ in range(d)) for _ in range(k - 1)
        ]
        last = tuple(-sum(v[i] for v in vectors) for i in range(d))
        mass = rand_pos_rat(rng, 9, 20)
        for v in vectors + [last]:
            atoms[v] = atoms.get(v, ZERO) + mass
    if rng.random() < 0.3:
        origin = (0,) * d
        atoms[origin] = atoms.get(origin, ZERO) + rand_pos_rat(rng, 4, 6)
    p = LatticeMeasure(d, atoms)
    assert len(p.support()) <= 40
    return p


def random_dlambda2_rates(rng, cx):
    psi = TwoChain(
        cx, [Rat(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(cx.n_faces)]
    )
    rates = dict(field_to_rates(boundary2(psi)))
    level = rng.choice([ZERO, Rat(1, 4), Rat(1, 2), ONE, Rat(2)])
    for u, v in cx.edges:
        extra = level
        if rng.random() < 0.3:
            extra += Rat(rng.randrange(0, 3), 2)
        if extra:
            rates[(u, v)] = rates.get((u, v), ZERO) + extra
            rates[(v, u)] = rates.get((v, u), ZERO) + extra
    return rates


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criterion 8's instance set, reused by criterion 9."""
    rng = random.Random(88)
    cx = TwoComplex.torus2(3)
    instances = []
    for _ in range(100):
        rates = random_dlambda2_rates(rng, cx)
        verdict = in_Re(rates, cx)
        instances.append((rates, verdict))
    return cx, instances


# -- criteria ---------------------------------------------------------------


def test_criterion_01_finite_graph_round_trip():
    rng = random.Random(1)
    started = time.monotonic()
    for _ in range(200):
        g = random_balanced_graph(rng)
        dec = decompose_graph(g)
        assert dec.matches(g)
        assert len(dec.terms) <= len(g.weights)
    for _ in range(200):
        g = random_balanced_graph(rng)
        u, v = rng.sample(g.vertices, 2)
        weights = dict(g.weights)
        weights[(u, v)] = weights.get((u, v), ZERO) + rand_pos_rat(rng, 9, 100)
        bad = WeightedDigraph(g.vertices, weights)
        assert not is_balanced_graph(bad)[0]
        with pytest.raises(NotBalanced):
            decompose_graph(bad)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, f"400 digraph round trips in {elapsed:.2f}s (< 5s)")


def test_criterion_02_balance_equivalence():
    rng = random.Random(2)
    for _ in range(200):
        g = random_balanced_graph(rng)
        if rng.random() < 0.5:
            u, v = rng.sample(g.vertices, 2)
            weights = dict(g.weights)
            weights[(u, v)] = weights.get((u, v), ZERO) + rand_pos_rat(rng)
            g = WeightedDigraph(g.vertices, weights)
        balanced = is_balanced_graph(g)[0]
        try:
            decompose_graph(g)
            decomposed = True
        except NotBalanced:
            decomposed = False
        assert balanced == decomposed
    report(2, "decompose_graph succeeds exactly on balanced graphs (200 instances)")


def test_criterion_03_lattice_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        p = random_mean_zero_measure(rng)
        dec = decompose_lattice(p)
        assert dec.reconstruct(p.dimension) == p
        for cls, weight in dec.terms:
            assert weight > 0
            points = [v for v, _ in cls.items()]
            total = [0] * cls.dimension
            for vec, mult in cls.items():
                for i, c in enumerate(vec):
                    total[i] += mult * c
            assert not any(total)
            diffs = [
                [p2[i] - points[0][i] for i in range(cls.dimension)]
                for p2 in points[1:]
            ]
            if diffs:
                assert exact_rank(diffs) == len(points) - 1
            if cls.total_multiplicity() <= 24:
                assert is_irreducible(cls)
    for _ in range(100):
        p = random_mean_zero_measure(rng)
        d = p.dimension
        skew = tuple(rng.randrange(1, 4) for _ in range(d))
        atoms = dict(p.atoms)
        atoms[skew] = atoms.get(skew, ZERO) + rand_pos_rat(rng)
        bad = LatticeMeasure(d, atoms)
        if is_balanced(bad):
            continue
        with pytest.raises(NotBalanced):
            decompose_lattice(bad)
    report(3, "100 balanced measures reconstruct exactly; 100 skewed ones rejected")


def test_criterion_04_multiplicity_uniqueness():
    rng = random.Random(4)
    produced = 0
    while produced < 50:
        d = rng.choice([2, 3])
        k = rng.randrange(2, d + 2)
        vectors = [
            tuple(rng.randrange(-4, 5) for _ in range(d)) for _ in range(k - 1)
        ]
        if any(not any(v) for v in vectors):
            continue
        if exact_rank([list(v) for v in vectors]) != k - 1:
            continue
        coefficients = [rng.randrange(1, 4) for _ in range(k - 1)]
        last = tuple(
            -sum(c * v[i] for c, v in zip(coefficients, vectors)) for i in range(d)
        )
        points = vectors + [last]
        if len(set(points)) != k or not any(last):
            continue
        diffs = [[p[i] - points[0][i] for i in range(d)] for p in points[1:]]
        if diffs and exact_rank(diffs) != k - 1:
            continue
        cls = irreducible_class(points)
        total = cls.total_multiplicity()
        mu = {v: Rat(m, total) for v, m in cls.entries.items()}
        b = denominator_lcm(mu.values())
        assert {v: int(b * c) for v, c in mu.items()} == cls.entries
        produced += 1
    report(4, "50 general-position classes reproduce their multiplicities")


def test_criterion_05_birkhoff():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 8)
        vertices = [f"v{i}" for i in range(n)]
        raw = [rand_pos_rat(rng, 9, 9) for _ in range(rng.randrange(1, 9))]
        total = sum(raw, ZERO)
        weights = {}
        for coeff in raw:
            image = rng.sample(vertices, n)
            for u, v in zip(vertices, image):
                weights[(u, v)] = weights.get((u, v), ZERO) + coeff / total
        g = WeightedDigraph(tuple(vertices), weights, allow_self_loops=True)
        assert is_bistochastic(g)
        terms = birkhoff_decompose(g)
        assert sum((w for _, w in terms), ZERO) == ONE
        assert len(terms) <= (n - 1) ** 2 + 1
        rebuilt = {}
        for pi, w in terms:
            for u, v in pi.items():
                rebuilt[(u, v)] = rebuilt.get((u, v), ZERO) + w
        assert rebuilt == g.weights
    report(5, "100 bistochastic matrices split exactly within the term bound")


def test_criterion_06_hodge_suite():
    rng = random.Random(6)
    sizes = [3, 4, 5]
    complexes = {n: TwoComplex.torus2(n) for n in sizes}
    for n in sizes:
        cx = complexes[n]
        grad_rank = exact_rank(gradient_matrix(cx))
        face_rank = exact_rank(face_boundary_matrix(cx))
        assert grad_rank == n * n - 1
        assert face_rank == n * n - 1
        assert cx.n_edges - grad_rank - face_rank == 2
    for trial in range(100):
        cx = complexes[sizes[trial % 3]]
        phi = VectorField(
            cx,
            [Rat(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(cx.n_edges)],
        )
        parts = hodge_decompose(phi)
        assert parts.recompose() == phi
        assert parts.gradient.inner(parts.homologous) == ZERO
        assert parts.gradient.inner(parts.harmonic) == ZERO
        assert parts.homologous.inner(parts.harmonic) == ZERO
        assert in_d_lambda2(parts.homologous)
        again = hodge_decompose(parts.gradient)
        assert again.gradient == parts.gradient
        assert again.homologous.is_zero() and again.harmonic.is_zero()
    for trial in range(100):
        cx = complexes[sizes[trial % 3]]
        psi = TwoChain(
            cx,
            [Rat(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(cx.n_faces)],
        )
        assert boundary1(boundary2(psi)).is_zero()
    report(6, "100 Hodge splits exact and orthogonal; ranks match; d(d psi)=0")


def test_criterion_07_two_column_field_reproduction():
    cx = TwoComplex.torus2(10)
    values = {}
    for j in range(10):
        values[((7, j), (7, (j + 1) % 10))] = 1
        values[((3, j), (3, (j + 1) % 10))] = -1
    phi = VectorField.from_dict(cx, values)
    assert in_d_lambda2(phi)
    minimal = field_to_rates(phi)
    assert not in_Re(minimal, cx).ok
    rates = dict(minimal)
    for u, v in cx.oriented_edges():
        rates[(u, v)] = rates.get((u, v), ZERO) + Rat(1, 2)
    verdict = in_Re(rates, cx)
    assert verdict.ok
    dec = elementary_decompose(rates, cx)
    assert dec.matches(rates, cx)
    report(7, "two-column field: boundary image yes, minimal rates no, +1/2 yes+exact")


def test_criterion_08_oracle_equivalence(oracle_sweep):
    cx, instances = oracle_sweep
    for rates, verdict in instances:
        assert verdict.ok == brute_force_Re_oracle(rates, cx)
        assert verdict.ok == pairwise_in_Re(rates, cx)
    positives = sum(1 for _, v in instances if v.ok)
    assert 0 < positives < len(instances)
    report(
        8,
        f"100 instances agree with the LP oracle and the pairwise test "
        f"({positives} yes / {100 - positives} no)",
    )


def test_criterion_09_monotonicity(oracle_sweep):
    rng = random.Random(9)
    cx, instances = oracle_sweep
    checked = 0
    for rates, verdict in instances:
        if not verdict.ok:
            continue
        checked += 1
        for _ in range(10):
            bigger = dict(rates)
            for u, v in cx.edges:
                bump = Rat(rng.randrange(0, 5), rng.randrange(1, 3))
                if bump:
                    bigger[(u, v)] = bigger.get((u, v), ZERO) + bump
                    bigger[(v, u)] = bigger.get((v, u), ZERO) + bump
            assert in_Re(bigger, cx).ok
    assert checked > 0
    report(9, f"symmetric upward perturbations preserve membership ({checked} bases)")


def test_criterion_10_one_dimensional_family():
    rng = random.Random(10)
    for _ in range(50):
        n = rng.randrange(3, 9)
        cx = TwoComplex.torus1(n)
        c = rng.choice([ZERO, ZERO, Rat(1, 2), ONE, -Rat(3, 2), Rat(2)])
        rates = {}
        for u, v in cx.edges:
            s = Rat(rng.randrange(0, 5), rng.randrange(1, 4))
            forward = s + max(c, ZERO)
            backward = s + max(-c, ZERO)
            if forward:
                rates[(u, v)] = forward
            if backward:
                rates[(v, u)] = backward
        family = decompose_1d(rates, cx)
        assert family.constant == c
        assert family.in_r_star == (c == ZERO)
        m = family.min_weight
        for a in (ZERO, m / 2, m):
            assert family.reconstruct_at(a) == rates
        with pytest.raises(NegativeEdgeWeight):
            family.weights_at(m + 1)
    report(10, "50 constant-field families reconstruct at a in {0, m/2, m}")


def test_criterion_11_heavy_tail_stream():
    oracle = HeavyTailOracle1D(lambda x: Rat(1, x * x) if x else ZERO)
    terms, residual = decompose_1d_heavy_tail(oracle, 50)
    assert len(terms) == 50
    for x in range(-50, 51):
        if x:
            assert residual[x] == ZERO
    partial = {}
    previous = ZERO
    for cls, weight in terms:
        q = empirical_measure(cls)
        for (x,), mass in q.atoms.items():
            partial[x] = partial.get(x, ZERO) + weight * mass
        total = sum(partial.values(), ZERO)
        assert total >= previous
        previous = total
        for x, s in partial.items():
            assert s <= oracle.mass(x)
    report(11, "50 peeling rounds clear [-50, 50]; partial sums monotone, dominated")


def test_criterion_12_discretization():
    rng = random.Random(12)
    import math

    def random_potential():
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        c = rng.uniform(-2, 2)
        return PotentialSampler(
            lambda u1, u2, a=a, b=b, c=c: (
                a * math.sin(2 * math.pi * u1) * math.sin(2 * math.pi * u2)
                + b * math.cos(2 * math.pi * u1)
                + c * math.sin(2 * math.pi * u2)
            )
        )

    for trial in range(20):
        n = (4, 8)[trial % 2]
        sampler = random_potential()
        field, chain = discretize_potential(sampler, n)
        assert in_d_lambda2(field)
        assert boundary2(chain) == field
        recovered = recover_psi(field)
        assert len({a - b for a, b in zip(recovered.values, chain.values)}) == 1
        s_min = oscillation_bound(sampler, n) / 2
        assert check_re_sufficient(sampler, n, s_min)
        rates = field_to_rates(field)
        for u, v in field.complex.edges:
            rates[(u, v)] = rates.get((u, v), ZERO) + s_min
            rates[(v, u)] = rates.get((v, u), ZERO) + s_min
        if s_min == 0:
            rates = {e: w for e, w in rates.items() if w != 0}
        assert in_Re(rates, field.complex).ok
    report(12, "20 snapped potentials: exact membership, round trip, sufficiency")


def test_criterion_13_random_environment():
    def spec(seed):
        sampler = PotentialSampler(
            lambda u1, u2: 1.0 if 1 <= u1 < 3 else 0.0, periods=(4, 4)
        )
        return EnvironmentSpec(sampler, Rat(1, 2), Rat(1, 2), seed, (4, 4))

    for seed in range(20):
        env = random_environment(spec(seed))
        assert env.noise_certified
        assert env.certificate.ok
        n1, n2 = env.spec.dims
        for i in range(n1):
            for j in range(n2):
                x = (i, j)
                total = sum(
                    (
                        env.probabilities[(x, y)]
                        for y in (
                            ((i + 1) % n1, j),
                            (i, (j + 1) % n2),
                            ((i - 1) % n1, j),
                            (i, (j - 1) % n2),
                        )
                    ),
                    ZERO,
                )
                assert total == ONE
        if seed < 3:
            assert env.serialize() == random_environment(spec(seed)).serialize()
    report(13, "20 seeds: certificates yes, rows exactly 1, bit-identical repeats")


def test_criterion_14_quadrant_measure_infeasible():
    for k in range(1, 6):
        points = []
        for i in range(1, k + 1):
            points.append((2 * i, -i))
            points.append((-i, 2 * i))
        with pytest.raises(Infeasible):
            barycentric_vertex(points, (0, 0))
    report(14, "quadrant-support truncations stay outside the hull for K=1..5")
