import pytest
from hypothesis import given, settings, strategies as st

from cycledec.errors import Infeasible, NoSolution
from cycledec.exact_lp import (
    barycentric_rounds,
    barycentric_vertex,
    exact_rank,
    solve_exact_linear,
)
from cycledec.ratio import ONE, ZERO, Rat

from conftest import rand_rat
from oracles import (
    fraction_phase1_rounds,
    reference_exact_rank,
    reference_lp_feasible,
    reference_solve_exact_linear,
)

# fixed example sequence and no example database, so every run is the same
EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def mat_vec(matrix, vector):
    return [sum((a * x for a, x in zip(row, vector)), ZERO) for row in matrix]


def reference_rounds(points, target, ties=None, fallbacks=None):
    """Reference: ``barycentric_rounds`` on the ``Rat`` tableau, yielding
    each vertex as the ``{index: Rat}`` map of its positive coefficients
    sorted by index and raising :class:`Infeasible` like the engine."""
    rows = [{j: Rat(p[c]) for j, p in enumerate(points) if p[c]} for c in range(len(target))]
    rows.append({j: ONE for j in range(len(points))})
    rhs = [Rat(c) for c in target] + [ONE]
    tableau = fraction_phase1_rounds(rows, rhs, len(points), ties, fallbacks)
    killed = None
    while True:
        values = tableau.send(killed)
        if values is None:
            raise Infeasible("target is outside the convex hull of the points")
        killed = yield {j: c for j, c in enumerate(values) if c > 0}


def reference_barycentric(points, target, ties=None, fallbacks=None):
    """Reference: ``barycentric_vertex`` on the ``Rat`` tableau, as the
    ``{index: Rat}`` map of the positive coefficients sorted by index."""
    pts = [tuple(int(c) for c in p) for p in points]
    tgt = tuple(int(c) for c in target)
    first_index = {}
    for i, p in enumerate(pts):
        first_index.setdefault(p, i)
    if tgt in first_index:
        return {first_index[tgt]: ONE}
    unique = sorted(first_index)
    vertex = next(reference_rounds(unique, tgt, ties, fallbacks))
    return dict(sorted((first_index[unique[j]], c) for j, c in vertex.items()))


small_rats = st.builds(Rat, st.integers(-3, 3), st.integers(1, 12))


@st.composite
def linear_systems(draw):
    """``(kind, matrix, rhs)`` for a small rational system of the given kind."""
    kind = draw(
        st.sampled_from(
            ["consistent", "inconsistent", "rank-deficient", "underdetermined"]
        )
    )
    if kind == "underdetermined":
        m = draw(st.integers(1, 5))
        n = draw(st.integers(m + 1, 6))
    else:
        m = draw(st.integers(1, 6))
        n = draw(st.integers(1, 6))

    def rows(count, width):
        return [[draw(small_rats) for _ in range(width)] for _ in range(count)]

    matrix = rows(m, n)
    if kind == "rank-deficient":
        # every row is a combination of fewer base rows than there are rows
        base = rows(draw(st.integers(1, max(1, m - 1))), n)
        matrix = [
            [sum((c * b[j] for c, b in zip(mix, base)), ZERO) for j in range(n)]
            for mix in rows(m, len(base))
        ]
    rhs = mat_vec(matrix, [draw(small_rats) for _ in range(n)])
    if kind == "inconsistent":
        # repeat the first equation with a different right-hand side
        matrix.append(list(matrix[0]))
        rhs.append(rhs[0] + 1)
    return kind, matrix, rhs


@EXAMPLES
@given(linear_systems())
def test_solve_and_rank_match_the_fraction_free_reference(system):
    kind, matrix, rhs = system
    assert exact_rank(matrix) == reference_exact_rank(matrix)
    if kind == "inconsistent":
        with pytest.raises(NoSolution):
            reference_solve_exact_linear(matrix, rhs)
        with pytest.raises(NoSolution):
            solve_exact_linear(matrix, rhs)
        return
    x = solve_exact_linear(matrix, rhs)
    assert x == reference_solve_exact_linear(matrix, rhs)
    assert all(type(v) is Rat for v in x)
    assert mat_vec(matrix, x) == rhs


def test_cells_that_coerce_to_zero_act_as_zeros():
    assert exact_rank([["0", 1, Rat(0), "1/2", 0, "-0/3"], [0, "0", Rat(0), "-0/3", 0, 0]]) == 1
    x = solve_exact_linear([["0", 2, "-0/3"], [Rat(0), 0, "0"]], ["1/2", "-0/3"])
    assert x == [ZERO, Rat(1, 4), ZERO]


def test_float_cells_are_rejected():
    with pytest.raises(TypeError):
        exact_rank([[1, 0.0]])
    with pytest.raises(TypeError):
        solve_exact_linear([[1, 0.0]], [1])
    with pytest.raises(TypeError):
        solve_exact_linear([[1]], [0.5])


def test_systems_without_unknowns():
    assert solve_exact_linear([], []) == []
    assert exact_rank([]) == 0
    assert solve_exact_linear([[]], [0]) == []
    with pytest.raises(NoSolution, match="inconsistent linear system"):
        solve_exact_linear([[]], [1])


def test_row_count_must_match_the_rhs():
    with pytest.raises(ValueError, match="matrix and rhs sizes differ"):
        solve_exact_linear([[1, 2]], [1, 2])
    with pytest.raises(ValueError, match="matrix and rhs sizes differ"):
        solve_exact_linear([[1], [2]], [1])


def test_every_returned_value_is_a_rat():
    # integer cells, a zero right-hand side and pinned free variables
    for matrix, rhs in [([[2, 0, 4]], [6]), ([[2]], [0]), ([[2], [2]], [3, 3]), ([[0, 1]], [0])]:
        x = solve_exact_linear(matrix, rhs)
        assert x and all(type(v) is Rat for v in x)
        assert mat_vec(matrix, x) == rhs
    assert solve_exact_linear([[2, 0, 4]], [6]) == [Rat(3), ZERO, ZERO]


@st.composite
def barycentric_cases(draw):
    """``(points, target)`` on Z^1 to Z^3 with duplicate points; the target
    sits at a point, on a face of the hull, outside it, at the origin of a
    diagonal that forces ratio-test ties, or anywhere."""
    d = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-3, 3)] * d)
    points = draw(st.lists(coords, min_size=1, max_size=7))
    kind = draw(st.sampled_from(["point", "face", "outside", "ties", "anywhere"]))
    if kind == "point":
        target = draw(st.sampled_from(points))
    elif kind == "face":
        # p and p + 2v both lie on the facet of largest first coordinate
        p = max(points)
        v = (0,) + draw(st.tuples(*[st.integers(-2, 2)] * (d - 1)))
        points.append(tuple(a + 2 * b for a, b in zip(p, v)))
        target = tuple(a + b for a, b in zip(p, v))
    elif kind == "outside":
        target = (max(p[0] for p in points) + draw(st.integers(1, 2)),) + draw(
            st.tuples(*[st.integers(-4, 4)] * (d - 1))
        )
    elif kind == "ties":
        # rows of zero right-hand side tie at ratio zero whenever the
        # entering point has several positive coordinates
        k = draw(st.integers(1, 3))
        points += [(k,) * d, (-k,) * d]
        target = (0,) * d
    else:
        target = draw(coords)
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    return draw(st.permutations(points)), target


@EXAMPLES
@given(barycentric_cases())
def test_barycentric_vertex_equals_fraction_reference(case):
    points, target = case
    try:
        expected = reference_barycentric(points, target)
    except Infeasible:
        with pytest.raises(Infeasible):
            barycentric_vertex(points, target)
        return
    assert list(barycentric_vertex(points, target).items()) == list(expected.items())


@EXAMPLES
@given(barycentric_cases(), st.data())
def test_rounds_give_a_vertex_of_the_live_points_after_every_kill(case, data):
    points, target = case
    unique = sorted(set(points))
    live = set(range(len(unique)))
    engine = barycentric_rounds(unique, target)
    killed = None
    while live:
        try:
            den, vertex = engine.send(killed)
        except Infeasible:
            with pytest.raises(Infeasible):
                reference_barycentric([unique[j] for j in sorted(live)], target)
            return
        assert type(den) is int and den > 0
        assert list(vertex) == sorted(vertex) and set(vertex) <= live
        assert all(type(n) is int and n > 0 for n in vertex.values())
        assert sum(vertex.values()) == den
        support = [unique[j] for j in vertex]
        combination = [sum(n * p[i] for p, n in zip(support, vertex.values())) for i in range(len(target))]
        assert combination == [den * c for c in target]
        diffs = [[a - b for a, b in zip(p, support[0])] for p in support[1:]]
        assert not diffs or exact_rank(diffs) == len(diffs)
        # kill one or two live points, on the vertex or off it
        killed = data.draw(st.lists(st.sampled_from(sorted(live)), min_size=1, max_size=2, unique=True))
        live -= set(killed)


@st.composite
def boundary_cases(draw):
    """``(points, target)``: distinct sorted points on Z^1 to Z^3 whose
    coordinates come from three values, so that prices and ratios tie, and
    a target on the boundary of their hull: the greatest point, which is a
    vertex of the hull, any point, or a point of the facet of largest first
    coordinate."""
    d = draw(st.integers(1, 3))
    values = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3, unique=True))
    coords = st.tuples(*[st.sampled_from(values)] * d)
    points = draw(st.lists(coords, min_size=2, max_size=8, unique=True))
    kind = draw(st.sampled_from(["vertex", "point", "facet"]))
    if kind == "vertex":
        target = max(points)
    elif kind == "point":
        target = draw(st.sampled_from(points))
    else:
        # p and p + 2v both lie on the facet of largest first coordinate
        p = max(points)
        v = (0,) + draw(st.tuples(*[st.integers(-2, 2)] * (d - 1)))
        points.append(tuple(a + 2 * b for a, b in zip(p, v)))
        target = tuple(a + b for a, b in zip(p, v))
    return sorted(set(points)), target


@EXAMPLES
@given(boundary_cases(), st.data())
def test_rounds_equal_fraction_reference_after_every_kill(case, data):
    points, target = case
    engine = barycentric_rounds(points, target)
    reference = reference_rounds(points, target)
    live = set(range(len(points)))
    killed = None
    while live:
        try:
            expected = reference.send(killed)
        except Infeasible:
            with pytest.raises(Infeasible):
                engine.send(killed)
            return
        den, vertex = engine.send(killed)
        assert den > 0 and all(type(n) is int and n > 0 for n in vertex.values())
        assert sum(vertex.values()) == den
        assert [(j, Rat(n, den)) for j, n in vertex.items()] == list(expected.items())
        # kill one or two live points, on the vertex or off it
        killed = data.draw(st.lists(st.sampled_from(sorted(live)), min_size=1, max_size=2, unique=True))
        live -= set(killed)


def test_degenerate_pivot_falls_back_to_least_index():
    # point 3 enters first and leaves a coordinate row at level zero, so the
    # second pivot takes point 0, the least index with a positive price,
    # over point 1, the largest; that pivot is not degenerate, and the
    # third takes the largest price again, point 2 over point 1.  Entering
    # point 1 at either of the two ends at {0: 3/10, 1: 1/10, 3: 3/5}.
    points = [(-3, -2), (-3, 0), (-2, 1), (2, 1)]
    fallbacks = []
    expected = reference_barycentric(points, (0, 0), fallbacks=fallbacks)
    assert fallbacks == [(0, 1)]
    assert expected == {0: Rat(1, 3), 2: Rat(1, 12), 3: Rat(7, 12)}
    assert list(barycentric_vertex(points, (0, 0)).items()) == list(expected.items())


def test_bland_tie_break_equals_fraction_reference():
    # point 2 ties rows 0 and 1 at ratio zero; leaving the larger basic
    # index there ends at {0: 5/12, 2: 11/24, 3: 1/8}
    points = [(-2, -3), (0, -1), (1, 3), (3, -1)]
    ties = []
    expected = reference_barycentric(points, (0, 0), ties)
    assert ties
    assert list(barycentric_vertex(points, (0, 0)).items()) == list(expected.items())


class TestSolveExactLinear:
    def test_identity(self):
        assert solve_exact_linear([[1, 0], [0, 1]], [Rat(1, 2), Rat(1, 3)]) == [
            Rat(1, 2),
            Rat(1, 3),
        ]

    def test_cramer_three_by_three(self):
        rows = [[2, -1, -1], [-1, 2, -1], [1, 1, 1]]
        assert solve_exact_linear(rows, [0, 0, 1]) == [Rat(1, 3)] * 3

    def test_inconsistent(self):
        with pytest.raises(NoSolution):
            solve_exact_linear([[1, 1], [2, 2]], [1, 3])

    def test_ragged_rows_are_rejected(self):
        # the short row would otherwise read its right-hand side as a coefficient
        with pytest.raises(ValueError, match="rows of mixed width"):
            solve_exact_linear([[1, 2], [3]], [1, 2])

    def test_underdetermined_consistent(self):
        x = solve_exact_linear([[1, 1, 0]], [Rat(5, 2)])
        assert sum(x[:2], ZERO) == Rat(5, 2)

    def test_random_round_trip_bit_exact(self, rng):
        for _ in range(40):
            n = rng.randrange(1, 6)
            a = [[rand_rat(rng) for _ in range(n)] for _ in range(n)]
            x = [rand_rat(rng) for _ in range(n)]
            b = mat_vec(a, x)
            try:
                y = solve_exact_linear(a, b)
            except NoSolution:
                pytest.fail("consistent system reported unsolvable")
            assert mat_vec(a, y) == b


class TestBarycentricVertex:
    def test_symmetric_pair(self):
        assert barycentric_vertex([(1, 0), (-1, 0)], (0, 0)) == {0: Rat(1, 2), 1: Rat(1, 2)}

    def test_fig1_quadrant_infeasible(self):
        points = [(2, -1), (-1, 2), (4, -2), (-2, 4)]
        with pytest.raises(Infeasible):
            barycentric_vertex(points, (0, 0))

    def test_three_vector_thirds(self):
        sol = barycentric_vertex([(2, -1), (-1, 2), (-1, -1)], (0, 0))
        assert sol == {0: Rat(1, 3), 1: Rat(1, 3), 2: Rat(1, 3)}

    def test_target_equals_point(self):
        assert barycentric_vertex([(3, 1), (5, 5)], (5, 5)) == {1: ONE}

    def test_duplicates_collapse_to_first_occurrence(self):
        assert list(barycentric_vertex([(1, 0), (1, 0), (-1, 0)], (0, 0))) == [0, 2]

    def _assert_vertex_contract(self, points, target, sol):
        assert list(sol) == sorted(sol)
        assert sum(sol.values(), ZERO) == ONE
        assert all(type(c) is Rat and c > 0 for c in sol.values())
        d = len(target)
        for i in range(d):
            total = sum((c * points[j][i] for j, c in sol.items()), ZERO)
            assert total == target[i]
        support = [points[j] for j in sol]
        diffs = [
            [p[i] - support[0][i] for i in range(d)] for p in support[1:]
        ]
        if diffs:
            assert reference_exact_rank(diffs) == len(diffs)

    def test_vertex_contract_on_random_instances(self, rng):
        for _ in range(60):
            d = rng.randrange(1, 4)
            points = [
                tuple(rng.randrange(-5, 6) for _ in range(d))
                for _ in range(rng.randrange(1, 8))
            ]
            target = tuple(rng.randrange(-3, 4) for _ in range(d))
            rows = [[Rat(p[i]) for p in points] for i in range(d)]
            rows.append([ONE] * len(points))
            feasible, _ = reference_lp_feasible(
                a_eq=rows, b_eq=[Rat(c) for c in target] + [ONE]
            )
            try:
                sol = barycentric_vertex(points, target)
            except Infeasible:
                assert not feasible
                continue
            assert feasible
            self._assert_vertex_contract(points, target, sol)

    @EXAMPLES
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(
                st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=8),
                st.tuples(*[st.integers(-3, 3)] * d),
            )
        )
    )
    def test_vertex_contract_on_generated_point_sets(self, case):
        points, target = case
        try:
            sol = barycentric_vertex(points, target)
        except Infeasible:
            assert target not in points
            return
        self._assert_vertex_contract(points, target, sol)


class TestLpFeasible:
    """The contract of the reference tableau that the other tests lean on."""

    def test_empty_constraints(self):
        feasible, witness = reference_lp_feasible(n_vars=2)
        assert feasible and witness == [ZERO, ZERO]

    def test_simplex_equation(self):
        feasible, witness = reference_lp_feasible(a_eq=[[1, 1]], b_eq=[1])
        assert feasible
        assert sum(witness, ZERO) == ONE

    def test_negative_fixed_value_infeasible(self):
        feasible, witness = reference_lp_feasible(a_eq=[[1, 0]], b_eq=[-1])
        assert not feasible and witness is None

    def test_upper_bounds(self):
        feasible, witness = reference_lp_feasible(
            a_ub=[[1, 1]], b_ub=[Rat(1, 2)], a_eq=[[1, -1]], b_eq=[ZERO]
        )
        assert feasible
        x, y = witness
        assert x == y and x + y <= Rat(1, 2) and x >= 0

    def test_conflicting_bounds(self):
        feasible, _ = reference_lp_feasible(a_ub=[[1]], b_ub=[1], a_eq=[[1]], b_eq=[2])
        assert not feasible

    def test_witness_satisfies_random_systems(self, rng):
        for _ in range(40):
            n = rng.randrange(1, 5)
            m_ub = rng.randrange(0, 3)
            m_eq = rng.randrange(0, 3)
            a_ub = [[rand_rat(rng, -3, 3, 4) for _ in range(n)] for _ in range(m_ub)]
            a_eq = [[rand_rat(rng, -3, 3, 4) for _ in range(n)] for _ in range(m_eq)]
            b_ub = [rand_rat(rng, -3, 3, 4) for _ in range(m_ub)]
            b_eq = [rand_rat(rng, -3, 3, 4) for _ in range(m_eq)]
            feasible, witness = reference_lp_feasible(a_ub, b_ub, a_eq, b_eq, n_vars=n)
            if feasible:
                assert all(x >= 0 for x in witness)
                for row, b in zip(a_ub, b_ub):
                    assert sum((c * x for c, x in zip(row, witness)), ZERO) <= b
                for row, b in zip(a_eq, b_eq):
                    assert sum((c * x for c, x in zip(row, witness)), ZERO) == b


def test_exact_rank_rejects_ragged_rows():
    with pytest.raises(ValueError, match="rows of mixed width"):
        exact_rank([[1, 2], [3]])


def test_exact_rank():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert exact_rank([[Rat(1, 2), Rat(1, 3)], [Rat(1, 4), Rat(1, 5)]]) == 2


@pytest.mark.parametrize("points, target, message", [
    ([], (0,), "points must be nonempty"),
    ([(1, 0), (1,)], (0, 0), "points of mixed dimension"),
    ([(1, 0), (-1, 0)], (0,), "target dimension mismatch"),
])
def test_barycentric_vertex_argument_checks(points, target, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        barycentric_vertex(points, target)
