from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cycledec.errors import Infeasible, NoSolution
from cycledec.exact_lp import (
    BarycentricSolution,
    _int_rows,
    _row_reduce,
    barycentric_rounds,
    barycentric_vertex,
    exact_rank,
    solve_exact_linear,
)
from cycledec.ratio import ONE, ZERO, Rat, to_rat

from conftest import rand_rat
from oracles import fraction_phase1_vertex, reference_lp_feasible

# fixed example sequence and no example database, so every run is the same
EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def mat_vec(matrix, vector):
    return [sum((a * x for a, x in zip(row, vector)), ZERO) for row in matrix]


def dense_solve(matrix, rhs):
    """Reference: dense Gauss-Jordan, pivoting column by column."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [[to_rat(v) for v in row] + [to_rat(b)] for row, b in zip(matrix, rhs)]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * p for a, p in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    if any(aug[i][n] != 0 for i in range(r, m)):
        raise NoSolution("inconsistent linear system")
    x = [ZERO] * n
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][n]
    return x


def dense_rank(matrix):
    """Reference: dense forward elimination."""
    rows = [[to_rat(v) for v in row] for row in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(r + 1, m):
            if rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * p for a, p in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return r


def reference_barycentric(points, target, ties=None):
    """Reference: ``barycentric_vertex`` on the ``Rat`` tableau."""
    pts = [tuple(int(c) for c in p) for p in points]
    tgt = tuple(int(c) for c in target)
    first_index = {}
    for i, p in enumerate(pts):
        first_index.setdefault(p, i)
    if tgt in first_index:
        return BarycentricSolution((first_index[tgt],), (ONE,))
    unique = sorted(first_index)
    rows = [{j: Rat(p[c]) for j, p in enumerate(unique) if p[c]} for c in range(len(tgt))]
    rows.append({j: ONE for j in range(len(unique))})
    rhs = [Rat(c) for c in tgt] + [ONE]
    values = fraction_phase1_vertex(rows, rhs, len(unique), ties)
    if values is None:
        raise Infeasible("target is outside the convex hull of the points")
    support = sorted(
        (first_index[unique[j]], values[j]) for j in range(len(unique)) if values[j] > 0
    )
    return BarycentricSolution(tuple(i for i, _ in support), tuple(c for _, c in support))


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
def test_sparse_kernel_matches_dense_reference(system):
    kind, matrix, rhs = system
    assert exact_rank(matrix) == dense_rank(matrix)
    if kind == "inconsistent":
        with pytest.raises(NoSolution):
            dense_solve(matrix, rhs)
        with pytest.raises(NoSolution):
            solve_exact_linear(matrix, rhs)
        return
    x = solve_exact_linear(matrix, rhs)
    assert x == dense_solve(matrix, rhs)
    assert mat_vec(matrix, x) == rhs


@EXAMPLES
@given(linear_systems())
def test_kernel_rows_stay_reduced_integers_over_positive_denominators(system):
    _, matrix, rhs = system
    rows, dens = _int_rows([*row, b] for row, b in zip(matrix, rhs))
    pivots = _row_reduce(rows, dens, len(matrix[0]))
    for row, den in zip(rows, dens):
        assert all(type(v) is int and v for v in row.values())
        assert den > 0 and gcd(den, *row.values()) == 1
    for row, den, c in zip(rows, dens, pivots):
        assert row[c] == den


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
    assert barycentric_vertex(points, target) == expected


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
            vertex = engine.send(killed)
        except Infeasible:
            with pytest.raises(Infeasible):
                reference_barycentric([unique[j] for j in sorted(live)], target)
            return
        assert list(vertex) == sorted(vertex) and set(vertex) <= live
        assert all(type(c) is Rat and c > 0 for c in vertex.values())
        assert sum(vertex.values()) == ONE
        support = [unique[j] for j in vertex]
        combination = [sum(c * p[i] for p, c in zip(support, vertex.values())) for i in range(len(target))]
        assert combination == list(target)
        diffs = [[a - b for a, b in zip(p, support[0])] for p in support[1:]]
        assert not diffs or exact_rank(diffs) == len(diffs)
        # kill one or two live points, on the vertex or off it
        killed = data.draw(st.lists(st.sampled_from(sorted(live)), min_size=1, max_size=2, unique=True))
        live -= set(killed)


def test_bland_tie_break_equals_fraction_reference():
    # the other choice at the tie ends at the vertex on points 1, 2, 3
    points = [(-1, -3), (1, -1), (-3, -1), (3, 3)]
    ties = []
    expected = reference_barycentric(points, (0, 0), ties)
    assert ties
    assert barycentric_vertex(points, (0, 0)) == expected


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
        sol = barycentric_vertex([(1, 0), (-1, 0)], (0, 0))
        assert sol.support_indices == (0, 1)
        assert sol.coefficients == (Rat(1, 2), Rat(1, 2))

    def test_fig1_quadrant_infeasible(self):
        points = [(2, -1), (-1, 2), (4, -2), (-2, 4)]
        with pytest.raises(Infeasible):
            barycentric_vertex(points, (0, 0))

    def test_three_vector_thirds(self):
        sol = barycentric_vertex([(2, -1), (-1, 2), (-1, -1)], (0, 0))
        assert sol.coefficients == (Rat(1, 3), Rat(1, 3), Rat(1, 3))

    def test_target_equals_point(self):
        sol = barycentric_vertex([(3, 1), (5, 5)], (5, 5))
        assert sol.support_indices == (1,)
        assert sol.coefficients == (ONE,)

    def test_duplicates_collapse_to_first_occurrence(self):
        sol = barycentric_vertex([(1, 0), (1, 0), (-1, 0)], (0, 0))
        assert sol.support_indices == (0, 2)

    def _assert_vertex_contract(self, points, target, sol):
        assert sum(sol.coefficients, ZERO) == ONE
        assert all(c > 0 for c in sol.coefficients)
        d = len(target)
        for i in range(d):
            total = sum(
                (c * points[j][i] for j, c in zip(sol.support_indices, sol.coefficients)),
                ZERO,
            )
            assert total == target[i]
        support = [points[j] for j in sol.support_indices]
        diffs = [
            [p[i] - support[0][i] for i in range(d)] for p in support[1:]
        ]
        if diffs:
            assert dense_rank(diffs) == len(diffs)

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
