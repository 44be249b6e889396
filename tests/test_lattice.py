import os
import pathlib
import subprocess
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cycledec import io as fio
from cycledec import lattice as lat
from cycledec.errors import (
    NotBalanced,
    NotGeneralPosition,
    OracleExhausted,
    TooLarge,
    ZeroNotInterior,
)
from cycledec.exact_lp import barycentric_rounds, barycentric_vertex, exact_rank
from cycledec.lattice import (
    HeavyTailOracle1D,
    LatticeCycleClass,
    LatticeDecomposition,
    LatticeMeasure,
    _rounds,
    class_sum,
    decompose_1d_heavy_tail,
    decompose_lattice,
    empirical_measure,
    irreducible_class,
    is_balanced,
    is_irreducible,
    mean,
)
from cycledec.ratio import ONE, ZERO, Rat, scaled

from conftest import rand_pos_rat
from oracles import reference_irreducible_class

# fixed example sequence and no example database, so every run is the same
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def measure(d, pairs):
    return LatticeMeasure(d, dict(pairs))


# -- references: the round-by-round loop that rebuilt a measure every round ----


def reference_caratheodory_step(p: LatticeMeasure):
    """One class, its maximal weight and the residual as a new validated measure."""
    if not is_balanced(p):
        raise NotBalanced("measure has nonzero mean", violators=[mean(p)])
    points = [x for x in p.support() if any(x)]
    if not points:
        raise ValueError("measure is trivial (support only at the origin)")
    mu = {points[j]: c for j, c in barycentric_vertex(points, p.origin()).items()}
    b = scaled(mu)[0]
    cls = LatticeCycleClass({w: int(b * c) for w, c in mu.items()})
    weight = min(p.mass(w) / c for w, c in mu.items())
    residual = dict(p.atoms)
    for w, c in mu.items():
        new_mass = residual[w] - weight * c
        if new_mass == 0:
            del residual[w]
        else:
            residual[w] = new_mass
    return cls, weight, LatticeMeasure(p.dimension, residual)


def reference_decompose_lattice(p: LatticeMeasure) -> LatticeDecomposition:
    if not is_balanced(p):
        raise NotBalanced("measure has nonzero mean", violators=[mean(p)])
    trivial = p.mass(p.origin())
    current = LatticeMeasure(p.dimension, {x: m for x, m in p.atoms.items() if any(x)})
    terms = []
    while current.atoms:
        cls, weight, current = reference_caratheodory_step(current)
        terms.append((cls, weight))
    return LatticeDecomposition(terms, trivial, p.dimension)


def reference_class_sum(terms) -> dict:
    """Weight times each class's empirical measure, built as a measure first."""
    acc = {}
    for cls, weight in terms:
        total = cls.total_multiplicity()
        q = LatticeMeasure(cls.dimension, {v: Rat(m, total) for v, m in cls.entries.items()})
        for point, mass in q.atoms.items():
            acc[point] = acc.get(point, ZERO) + weight * mass
    return {x: m for x, m in acc.items() if m != 0}


def exact_terms(terms):
    """Terms as plain data, so equal values of another type do not pass."""
    return [(cls.items(), type(w), str(w)) for cls, w in terms]


class TestTypes:
    def test_zero_atoms_dropped(self):
        p = measure(1, {(3,): ZERO, (1,): ONE})
        assert p.support() == [(1,)]

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            measure(1, {(1,): -1})

    def test_class_requires_zero_sum(self):
        with pytest.raises(ValueError):
            LatticeCycleClass({(1, 0): 1})

    def test_zero_vector_only_trivial(self):
        LatticeCycleClass({(0, 0): 1})
        with pytest.raises(ValueError):
            LatticeCycleClass({(0, 0): 2})
        with pytest.raises(ValueError):
            LatticeCycleClass({(0,): 1, (1,): 1, (-1,): 1})


class TestEmpiricalMeasure:
    def test_two_step_shuttle(self):
        cls = LatticeCycleClass({(1, 0): 1, (-1, 0): 1})
        assert empirical_measure(cls).atoms == {(1, 0): Rat(1, 2), (-1, 0): Rat(1, 2)}

    def test_three_vector_class(self):
        cls = LatticeCycleClass({(2, -1): 1, (-1, 2): 1, (-1, -1): 1})
        assert set(empirical_measure(cls).atoms.values()) == {Rat(1, 3)}

    def test_multiplicity_normalization(self):
        cls = LatticeCycleClass({(1, 0): 2, (-2, 0): 1})
        q = empirical_measure(cls)
        assert q.mass((1, 0)) == Rat(2, 3) and q.mass((-2, 0)) == Rat(1, 3)

    def test_mean_zero_always(self):
        cls = LatticeCycleClass({(3, 1): 1, (-1, 2): 3, (0, -7): 1})
        assert mean(empirical_measure(cls)) == (ZERO, ZERO)


class TestMeanAndBalance:
    def test_delta_zero(self):
        assert mean(measure(2, {(0, 0): ONE})) == (ZERO, ZERO)
        assert is_balanced(measure(2, {(0, 0): ONE}))

    def test_shuttle(self):
        assert mean(measure(2, {(1, 0): Rat(1, 2), (-1, 0): Rat(1, 2)})) == (ZERO, ZERO)

    def test_weighted_average(self):
        p = measure(2, {(1, 1): Rat(3, 4), (0, -1): Rat(1, 4)})
        assert mean(p) == (Rat(3, 4), Rat(1, 2))

    def test_uniform_nearest_neighbor(self):
        p = measure(
            2,
            {(1, 0): Rat(1, 4), (-1, 0): Rat(1, 4), (0, 1): Rat(1, 4), (0, -1): Rat(1, 4)},
        )
        assert is_balanced(p)

    def test_fig1_truncation_unbalanced(self):
        p = measure(2, {(2, -1): Rat(1, 2), (-1, 2): Rat(1, 2)})
        assert mean(p) == (Rat(1, 2), Rat(1, 2))
        assert not is_balanced(p)


class TestIrreducibleClass:
    def test_shuttle(self):
        assert irreducible_class([(1, 0), (-1, 0)]).entries == {(1, 0): 1, (-1, 0): 1}

    def test_three_vector(self):
        cls = irreducible_class([(2, -1), (-1, 2), (-1, -1)])
        assert cls.entries == {(2, -1): 1, (-1, 2): 1, (-1, -1): 1}

    def test_lcm_multiplicities(self):
        assert irreducible_class([(1, 0), (-2, 0)]).entries == {(1, 0): 2, (-2, 0): 1}

    def test_dependent_differences_rejected(self):
        with pytest.raises(NotGeneralPosition):
            irreducible_class([(1, 0), (-1, 0), (2, 0)])

    def test_zero_on_boundary_rejected(self):
        with pytest.raises(ZeroNotInterior):
            irreducible_class([(1, 0), (0, 1)])

    @EXAMPLES
    @given(st.data())
    def test_equals_the_linear_solve_route(self, data):
        """Same class or same exception type as the exact linear solve,
        on random points, on points around the origin (a positive
        combination closed by one more point) and on fewer of those plus
        one extra point, which leaves the origin outside the open
        simplex."""
        d = data.draw(st.integers(1, 3))
        point = st.tuples(*[st.integers(-4, 4)] * d)
        kind = data.draw(st.sampled_from(["random", "interior", "boundary"]))
        if kind == "random":
            points = data.draw(st.lists(point, min_size=1, max_size=d + 2))
        else:
            base = data.draw(st.lists(point, max_size=d - (kind == "boundary")))
            mults = data.draw(st.lists(st.integers(1, 3), min_size=len(base), max_size=len(base)))
            points = base + [tuple(-sum(n * p[i] for n, p in zip(mults, base)) for i in range(d))]
            if kind == "boundary":
                points.append(data.draw(point))
            points = data.draw(st.permutations(points))

        def outcome(build):
            try:
                return build(points)
            except (NotGeneralPosition, ZeroNotInterior, ValueError) as exc:
                return type(exc)

        assert outcome(irreducible_class) == outcome(reference_irreducible_class)


class TestIsIrreducible:
    def test_shuttle(self):
        assert is_irreducible(LatticeCycleClass({(1, 0): 1, (-1, 0): 1}))

    def test_doubled_shuttle_reducible(self):
        assert not is_irreducible(LatticeCycleClass({(1, 0): 2, (-1, 0): 2}))

    def test_collinear_irreducible_class(self):
        cls = LatticeCycleClass({(-5, -5): 1, (1, 1): 1, (2, 2): 2})
        assert is_irreducible(cls)

    def test_trivial_class(self):
        assert is_irreducible(LatticeCycleClass({(0, 0): 1}))

    def test_too_large(self):
        cls = LatticeCycleClass({(1,): 20, (-1,): 20})
        with pytest.raises(TooLarge, match="^total multiplicity 40 exceeds 24$"):
            is_irreducible(cls)
        assert is_irreducible(LatticeCycleClass({(1,): 12, (-1,): 12})) is False


@st.composite
def cycle_classes(draw, most=10):
    """Zero-sum displacement multisets in Z^1..Z^3 of total multiplicity at
    most ``most``: drawn nonzero vectors closed by minus their sum, or the
    trivial class."""
    d = draw(st.integers(1, 3))
    if draw(st.integers(0, 9)) == 0:
        return LatticeCycleClass({(0,) * d: 1})
    coord = st.integers(-2, 2)
    vectors = draw(st.lists(st.tuples(*[coord] * d).filter(any), min_size=1, max_size=most - 1))
    closing = tuple(-sum(c) for c in zip(*vectors))
    if any(closing):
        vectors.append(closing)
    elif len(vectors) == 1:
        vectors.append(tuple(-c for c in vectors[0]))
    return LatticeCycleClass(Counter(vectors))


@EXAMPLES
@given(cycle_classes())
def test_is_irreducible_equals_brute_force_enumeration(cls):
    vectors = [vec for vec, n in cls.items() for _ in range(n)]
    proper_zero_sum = any(
        not any(map(sum, zip(*chosen)))
        for r in range(1, len(vectors))
        for chosen in combinations(vectors, r)
    )
    assert is_irreducible(cls) == (not proper_zero_sum)


def first_round(p: LatticeMeasure):
    """The first round of ``_rounds`` on the non-origin atoms of ``p``, with
    the integer residual it leaves (over a scale of its own)."""
    scale, atoms = scaled(p.atoms)
    residual = {x: m for x, m in atoms.items() if any(x)}
    cls, weight = next(_rounds(scale, residual, p.origin()))
    return cls, weight, residual


class TestRounds:
    def test_shuttle_consumed_fully(self):
        p = measure(2, {(1, 0): Rat(1, 2), (-1, 0): Rat(1, 2)})
        cls, weight, residual = first_round(p)
        assert cls.entries == {(1, 0): 1, (-1, 0): 1}
        assert weight == ONE and residual == {}

    def test_three_vector_consumed_fully(self):
        p = measure(2, {(2, -1): Rat(1, 3), (-1, 2): Rat(1, 3), (-1, -1): Rat(1, 3)})
        cls, weight, residual = first_round(p)
        assert weight == ONE and residual == {}
        assert cls.total_multiplicity() == 3

    def test_postconditions_on_asymmetric_measure(self):
        p = measure(
            1,
            {(1,): Rat(1, 2), (-1,): Rat(1, 4), (-2,): Rat(1, 8), (0,): Rat(1, 8)},
        )
        cls, weight, residual = first_round(p)
        assert weight > 0
        assert len(residual) <= 2
        assert all(type(m) is int and m > 0 for m in residual.values())
        q = empirical_measure(cls)
        expected = {}
        for x in p.support():
            if any(x) and p.mass(x) != weight * q.mass(x):
                expected[x] = p.mass(x) - weight * q.mass(x)
        # the integer residual is the rational one times one common scale
        assert residual.keys() == expected.keys()
        assert len({Rat(m) / expected[x] for x, m in residual.items()}) == 1
        assert is_balanced(measure(1, residual))

    def test_one_balance_check_and_no_measure_per_round(self, rng, monkeypatch):
        p = random_balanced_measure(rng, 2, groups=6)
        calls = Counter()

        def counting(name):
            original = getattr(lat, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(lat, name, counted)

        for name in ("is_balanced", "LatticeMeasure", "barycentric_rounds"):
            counting(name)
        dec = lat.decompose_lattice(p)
        assert len(dec.terms) >= 2
        assert calls["barycentric_rounds"] == 1
        assert calls["is_balanced"] == 1
        assert calls["LatticeMeasure"] == 0


def random_balanced_measure(rng, d, groups=4, box=4):
    atoms = {}
    for _ in range(groups):
        k = rng.randrange(2, 5)
        vectors = [
            tuple(rng.randrange(-box, box + 1) for _ in range(d)) for _ in range(k - 1)
        ]
        last = tuple(-sum(v[i] for v in vectors) for i in range(d))
        mass = rand_pos_rat(rng, 8, 12)
        for v in vectors + [last]:
            atoms[v] = atoms.get(v, ZERO) + mass
    if rng.random() < 0.3:
        origin = (0,) * d
        atoms[origin] = atoms.get(origin, ZERO) + rand_pos_rat(rng, 3, 5)
    return LatticeMeasure(d, atoms)


def assert_class_shape(cls: LatticeCycleClass):
    """Every emitted class must look like a lcm-normalized simplex class."""
    points = [v for v, _ in cls.items()]
    d = cls.dimension
    if cls.entries != {(0,) * d: 1}:
        diffs = [[p[i] - points[0][i] for i in range(d)] for p in points[1:]]
        if diffs:
            assert exact_rank(diffs) == len(points) - 1
        assert irreducible_class(points) == cls
    total = cls.total_multiplicity()
    mu = {v: Rat(m, total) for v, m in cls.items()}
    assert all(c > 0 for c in mu.values())
    b = scaled(mu)[0]
    assert {v: int(b * c) for v, c in mu.items()} == cls.entries


class TestDecomposeLattice:
    def test_trivial_measure(self):
        dec = decompose_lattice(measure(2, {(0, 0): ONE}))
        assert dec.terms == [] and dec.trivial_mass == ONE

    def test_uniform_nearest_neighbor(self):
        p = measure(
            2,
            {(1, 0): Rat(1, 4), (-1, 0): Rat(1, 4), (0, 1): Rat(1, 4), (0, -1): Rat(1, 4)},
        )
        dec = decompose_lattice(p)
        assert dec.reconstruct() == p
        assert sorted(w for _, w in dec.terms) == [Rat(1, 2), Rat(1, 2)]

    def test_unbalanced_rejected(self):
        with pytest.raises(NotBalanced):
            decompose_lattice(measure(2, {(2, -1): Rat(1, 2), (-1, 2): Rat(1, 2)}))

    def test_support_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(lat, "SUPPORT_LIMIT", 4)
        p = measure(2, {(1, 0): ONE, (-1, 0): ONE, (0, 1): ONE, (0, -1): ONE})
        assert decompose_lattice(p).reconstruct() == p
        with pytest.raises(TooLarge, match=r"support of 5 points exceeds lattice\.SUPPORT_LIMIT = 4"):
            decompose_lattice(measure(2, {**p.atoms, (0, 0): ONE}))

    def test_support_above_the_limit_refused_before_any_round(self):
        atoms = {x: ONE for i in range(lat.SUPPORT_LIMIT // 2 + 1) for x in ((i, 1), (-i, -1))}
        with pytest.raises(TooLarge, match=r"lattice\.SUPPORT_LIMIT = 4096"):
            decompose_lattice(measure(2, atoms))
        # a nonzero mean is still the verdict above the limit
        atoms[(0, 1)] += ONE
        with pytest.raises(NotBalanced):
            decompose_lattice(measure(2, atoms))

    def test_random_reconstruction_and_class_shape(self, rng):
        for _ in range(25):
            d = rng.choice([1, 2, 3])
            p = random_balanced_measure(rng, d)
            dec = decompose_lattice(p)
            assert dec.reconstruct() == p
            assert len(dec.terms) <= len(p.support())
            assert sum((w for _, w in dec.terms), dec.trivial_mass) == sum(p.atoms.values(), ZERO)
            for cls, weight in dec.terms:
                assert weight > 0
                assert_class_shape(cls)
                if cls.total_multiplicity() <= 24:
                    assert is_irreducible(cls)


@st.composite
def balanced_measures(draw):
    """Sums of uniform masses on zero-sum vector lists in Z^1..Z^3.

    Masses use a few mixed denominators; the origin sometimes carries mass
    of its own, and a drawn vector may land on it too.
    """
    d = draw(st.integers(1, 3))
    dens = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    coord = st.integers(-3, 3)
    atoms = {}
    for _ in range(draw(st.integers(1, 4))):
        vectors = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=3))
        vectors.append(tuple(-sum(c) for c in zip(*vectors)))
        mass = Rat(draw(st.integers(1, 9)), draw(st.sampled_from(dens)))
        for v in vectors:
            atoms[v] = atoms.get(v, ZERO) + mass
    if draw(st.booleans()):
        origin = (0,) * d
        extra = Rat(draw(st.integers(1, 5)), draw(st.sampled_from(dens)))
        atoms[origin] = atoms.get(origin, ZERO) + extra
    return LatticeMeasure(d, atoms)


@EXAMPLES
@given(balanced_measures(), st.data())
def test_rounds_match_rebuild_every_round_reference(p, data):
    dec = decompose_lattice(p)
    reference = reference_decompose_lattice(p)
    # the warm start may take other vertices after the first round, so the
    # later terms differ from the reference but must still be valid
    assert exact_terms(dec.terms[:1]) == exact_terms(reference.terms[:1])
    assert dec.trivial_mass == reference.trivial_mass
    assert dec.reconstruct() == p
    assert len(dec.terms) <= len(p.support())
    for cls, weight in dec.terms:
        assert type(weight) is Rat and weight > 0
        points = [v for v, _ in cls.items()]
        assert len(points) <= p.dimension + 1
        diffs = [[a - b for a, b in zip(v, points[0])] for v in points[1:]]
        assert not diffs or exact_rank(diffs) == len(diffs)

    classes = dec.classes()
    assert class_sum(classes) == reference_class_sum(classes) == p.atoms
    signed = [
        (cls, Rat(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 12))))
        for cls, _ in classes
    ]
    assert class_sum(signed) == reference_class_sum(signed)


def recording(vertices):
    """``barycentric_rounds`` that appends ``(points, D, vertex)`` per vertex."""

    def engine(points, target):
        rounds = barycentric_rounds(points, target)
        killed = None
        while True:
            den, vertex = rounds.send(killed)
            vertices.append((points, den, dict(vertex)))
            killed = yield den, vertex

    return engine


@EXAMPLES
@given(balanced_measures())
def test_round_class_is_the_lcm_class_of_its_engine_vertex(p):
    scale, atoms = scaled(p.atoms)
    residual = {x: m for x, m in atoms.items() if any(x)}
    vertices = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lat, "barycentric_rounds", recording(vertices))
        classes = [cls for cls, _ in _rounds(scale, residual, p.origin())]
    assert len(classes) == len(vertices)
    for cls, (points, den, vertex) in zip(classes, vertices):
        expected = LatticeCycleClass(scaled({points[j]: Rat(n, den) for j, n in vertex.items()})[1])
        assert cls == expected and cls.items() == expected.items()
        assert all(type(n) is int for n in cls.entries.values())
        assert all(type(c) is int for v in cls.entries for c in v)


@pytest.mark.parametrize(
    "vertex",
    [
        (2, {0: 1, 1: 1}),  # (-1, 0) + (0, -1) is not zero
        (-2, {0: -1, 3: -1}),  # zero sum, negative multiplicities
        (2, {0: 0, 3: 0}),  # zero multiplicities
        (1, {}),  # no displacement at all
    ],
)
def test_rounds_refuse_an_engine_vertex_that_is_not_a_cycle_class(monkeypatch, vertex):
    def faulty(points, target):
        yield vertex

    monkeypatch.setattr(lat, "barycentric_rounds", faulty)
    p = measure(2, {(1, 0): ONE, (-1, 0): ONE, (0, 1): ONE, (0, -1): ONE})
    with pytest.raises(AssertionError, match="is not a cycle class"):
        decompose_lattice(p)


@pytest.mark.parametrize("sample", ["walk2d.msr", "heavy_tail.msr"])
def test_lattice_cli_output_does_not_depend_on_hash_seed(sample):
    root = pathlib.Path(__file__).resolve().parent.parent
    args = [sys.executable, "-m", "cycledec.cli", "decompose", "--mode", "lattice",
            str(root / "samples" / sample), "--verify", "--lift"]
    outputs = []
    for seed in ("0", "20110726"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        done = subprocess.run(args, env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and outputs[0]


class TestHeavyTail:
    def test_inverse_square_first_step(self):
        oracle = HeavyTailOracle1D(lambda x: Rat(1, x * x) if x else ZERO)
        terms, residual = decompose_1d_heavy_tail(oracle, 1)
        cls, weight = terms[0]
        assert cls.entries == {(1,): 1, (-1,): 1}
        assert weight == 2 * oracle.mass(-1)
        assert residual[1] == ZERO and residual[-1] == ZERO

    def test_two_atom_oracle(self):
        masses = {1: Rat(1, 2), -1: Rat(1, 2)}
        oracle = HeavyTailOracle1D(lambda x: masses.get(x, ZERO), search_limit=50)
        terms, residual = decompose_1d_heavy_tail(oracle, 1)
        assert terms[0][0].entries == {(1,): 1, (-1,): 1}
        assert terms[0][1] == ONE
        assert set(residual.values()) == {ZERO}
        with pytest.raises(OracleExhausted):
            decompose_1d_heavy_tail(oracle, 2)

    def test_case_boundary_consumes_both_sides(self):
        masses = {2: Rat(1, 4), -1: Rat(1, 2)}
        oracle = HeavyTailOracle1D(lambda x: masses.get(x, ZERO), search_limit=50)
        terms, residual = decompose_1d_heavy_tail(oracle, 1)
        cls, weight = terms[0]
        assert cls.entries == {(2,): 1, (-1,): 2}
        assert weight == Rat(3, 4)
        assert residual[2] == ZERO and residual[-1] == ZERO

    def test_case_b_keeps_negative_side(self):
        masses = {1: Rat(1, 2), -2: Rat(1, 2)}
        oracle = HeavyTailOracle1D(lambda x: masses.get(x, ZERO), search_limit=50)
        terms, residual = decompose_1d_heavy_tail(oracle, 1)
        cls, weight = terms[0]
        assert cls.entries == {(1,): 2, (-2,): 1}
        assert weight == Rat(3, 4)
        assert residual[1] == ZERO and residual[-2] == Rat(1, 4)

    def test_partial_sums_monotone_and_dominated(self):
        oracle = HeavyTailOracle1D(lambda x: Rat(1, x * x) if x else ZERO)
        terms, _ = decompose_1d_heavy_tail(oracle, 12)
        partial = {}
        previous_total = ZERO
        for cls, weight in terms:
            q = empirical_measure(cls)
            for (x,), mass in q.atoms.items():
                partial[x] = partial.get(x, ZERO) + weight * mass
            total = sum(partial.values(), ZERO)
            assert total >= previous_total
            previous_total = total
            for x, s in partial.items():
                assert s <= oracle.mass(x)

    def test_window_cleared_each_step(self):
        oracle = HeavyTailOracle1D(lambda x: Rat(1, abs(x) ** 3) if x else ZERO)
        residual = {}
        for step in range(1, 9):
            terms, residual = decompose_1d_heavy_tail(oracle, step)
            (xp,), (xn,) = sorted(terms[-1][0].entries)[-1], sorted(terms[-1][0].entries)[0]
            inside = [
                x
                for x in range(xn, xp + 1)
                if x and residual.get(x, oracle.mass(x)) > 0
            ]
            assert len(inside) <= 1


class TestFormatLift:
    def test_single_shuttle(self):
        cls = LatticeCycleClass({(1, 0): 1, (-1, 0): 1})
        assert fio.format_lift([(cls, ONE)]) == (
            "periodic-lift\nterm 1/1 class -1,0*1 1,0*1 @ all integer translates\n"
        )
        assert fio.format_lift([(cls, Rat(2, 3))], decimals=2) == (
            "periodic-lift\nterm 2/3~0.67 class -1,0*1 1,0*1 @ all integer translates\n"
        )

    def test_empty(self):
        assert fio.format_lift(LatticeDecomposition([], ZERO, 2).classes()) == "periodic-lift\n"

    def test_torus_terms(self):
        pairs = [(("edge", ((0, 0), (1, 0))), Rat(1, 2)), (("face", 3), Rat(1, 3))]
        assert fio.format_lift(pairs, periods=(4, 4)).splitlines() == [
            "periodic-lift",
            "term 1/2 ('edge', ((0, 0), (1, 0))) @ all 4x4-periodic translates",
            "term 1/3 ('face', 3) @ all 4x4-periodic translates",
        ]

    def test_trivial_mass_emitted(self):
        text = fio.format_lift(LatticeDecomposition([], Rat(1, 8), 2).classes())
        assert text == "periodic-lift\nterm 1/8 class 0,0*1 @ all integer translates\n"


@pytest.mark.parametrize("build, message", [
    (lambda: LatticeMeasure(2, {(1, 0, 0): ONE}), r"point \(1, 0, 0\) is not 2-dimensional"),
    (lambda: LatticeMeasure(2, {("1", 0): ONE, (1, 0): ONE}), r"duplicate atom at \(1, 0\)"),
    (lambda: LatticeCycleClass({("1", 0): 1, (1, 0): 1, (-1, 0): 2}),
     r"duplicate displacement \(1, 0\)"),
    (lambda: irreducible_class([]), "points must be nonempty"),
    (lambda: HeavyTailOracle1D(lambda x: -1).mass(3), "oracle returned negative mass at 3"),
], ids=["measure dimension", "duplicate atom", "duplicate displacement", "no points",
        "negative oracle mass"])
def test_lattice_argument_checks(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
