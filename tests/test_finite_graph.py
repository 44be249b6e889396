import sys
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from cycledec import io as fio
from cycledec.errors import NotBalanced, NotBistochastic
from cycledec.finite_graph import (
    GraphCycle,
    GraphDecomposition,
    WeightedDigraph,
    _augment,
    _peel,
    birkhoff_decompose,
    cycle_edges,
    cycle_sum,
    decompose_graph,
    is_balanced_graph,
    is_bistochastic,
)
from cycledec.ratio import ONE, ZERO, Rat

from conftest import rand_pos_rat
from oracles import permutation_to_cycles, reference_augment, reference_birkhoff_decompose

# fixed example sequence and no example database, so every run is the same
EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- references: the rebuild-every-round kernels on rationals ------------------


def reference_flux_violators(g):
    """Vertices whose in-weight and out-weight differ, one scan per vertex."""
    return [
        x for x in g.vertices
        if sum((w for (_, b), w in g.weights.items() if b == x), ZERO)
        != sum((w for (a, _), w in g.weights.items() if a == x), ZERO)
    ]


def reference_greedy_cycle(weights):
    """One greedy round: rebuild the adjacency and rescan every weight."""
    m_star = min(weights.values())
    seed = min(e for e, w in weights.items() if w == m_star)
    out = {}
    for (u, v), w in weights.items():
        out.setdefault(u, []).append((v, w))
    walk = [seed[0], seed[1]]
    seen = {seed[0]: 0, seed[1]: 1}
    while True:
        here = walk[-1]
        candidates = sorted(v for v, w in out.get(here, ()) if w >= m_star)
        if not candidates:
            raise NotBalanced(f"greedy walk stalled at {here}", violators=[here])
        nxt = candidates[0]
        if nxt in seen:
            cycle = GraphCycle(tuple(walk[seen[nxt]:]))
            break
        seen[nxt] = len(walk)
        walk.append(nxt)
    return cycle, min(weights[e] for e in cycle_edges(cycle))


def reference_peel(weights):
    residual = dict(weights)
    while residual:
        cycle, m = reference_greedy_cycle(residual)
        for e in cycle_edges(cycle):
            residual[e] -= m
            if residual[e] == 0:
                del residual[e]
        yield cycle, m


def reference_hopcroft_karp(rows, cols, adjacency):
    """Hopcroft-Karp with the recursive augmenting-path search."""
    INF = float("inf")
    match_row = {r: None for r in rows}
    match_col = {c: None for c in cols}
    dist = {}

    def bfs():
        queue = deque()
        for r in rows:
            if match_row[r] is None:
                dist[r] = 0
                queue.append(r)
            else:
                dist[r] = INF
        found = False
        while queue:
            r = queue.popleft()
            for c in adjacency[r]:
                nxt = match_col[c]
                if nxt is None:
                    found = True
                elif dist[nxt] == INF:
                    dist[nxt] = dist[r] + 1
                    queue.append(nxt)
        return found

    def dfs(r):
        for c in adjacency[r]:
            nxt = match_col[c]
            if nxt is None or (dist[nxt] == dist[r] + 1 and dfs(nxt)):
                match_row[r] = c
                match_col[c] = r
                return True
        dist[r] = INF
        return False

    while bfs():
        for r in rows:
            if match_row[r] is None:
                dfs(r)
    return {r: c for r, c in match_row.items() if c is not None}


def reference_birkhoff(g):
    """Re-sort the rational residual into an adjacency every round."""
    residual = dict(g.weights)
    terms = []
    while residual:
        adjacency = {r: [] for r in g.vertices}
        for u, v in sorted(residual):
            adjacency[u].append(v)
        matching = reference_hopcroft_karp(g.vertices, g.vertices, adjacency)
        assert len(matching) == len(g.vertices)
        m = min(residual[e] for e in matching.items())
        terms.append((matching, m))
        for e in matching.items():
            residual[e] -= m
            if residual[e] == 0:
                del residual[e]
    return terms


def reference_reconstruct(records):
    """One rational addition per traversed edge."""
    acc = {}
    for record in records:
        if record[0] != "term":
            continue
        _, weight, kind, payload = record
        if kind == "cycle":
            edges = cycle_edges(GraphCycle(tuple(payload)))
        else:
            edges = [tuple(token.split(">", 1)) for token in payload]
        for e in edges:
            acc[e] = acc.get(e, ZERO) + weight
    return {e: w for e, w in acc.items() if w != 0}


def birkhoff_graph_decomposition(g):
    """Birkhoff terms refined into disjoint cycles, merged per class.

    Fixed points become single-vertex cycles (self-loops), so the
    reconstruction reproduces the full bistochastic matrix.
    """
    acc = {}
    for pi, weight in birkhoff_decompose(g):
        cycles, fixed = permutation_to_cycles(pi)
        for cycle in cycles + [GraphCycle((x,)) for x in fixed]:
            acc[cycle] = acc.get(cycle, ZERO) + weight
    return GraphDecomposition(sorted(acc.items(), key=lambda t: t[0].vertices))


def exact_terms(terms):
    """Terms as plain data, so equal values of another type do not pass."""
    return [(c.vertices, type(m), str(m)) for c, m in terms]


# vertex labels of three types; among the strings "v10" < "v2"
LABELS = [
    list(range(13)),
    [f"v{i}" for i in range(12)],
    [(i, j) for i in range(-1, 3) for j in range(-1, 3)],
]


def peel_outcome(rounds):
    """Exact terms of ``rounds()`` up to a stall, and the stall's violators."""
    terms = []
    try:
        for term in rounds():
            terms.append(term)
    except NotBalanced as exc:
        return exact_terms(terms), exc.violators
    return exact_terms(terms), None


@st.composite
def balanced_graphs(draw):
    """Sums of random cycles (self-loops included) with mixed denominators,
    on int, string or tuple labels.

    Every weight is at least ``base`` and cycles drawn at exactly ``base``
    leave ties at the global minimum.
    """
    pool = draw(st.sampled_from(LABELS))
    vertices = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8, unique=True))
    n = len(vertices)
    dens = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    base = Rat(draw(st.integers(1, 4)), draw(st.sampled_from(dens)))
    loops = draw(st.booleans())
    weights = {}
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.integers(1 if loops else 2, n))
        cycle = draw(st.permutations(vertices))[:size]
        w = base
        if draw(st.booleans()):
            w += Rat(draw(st.integers(1, 30)), draw(st.sampled_from(dens)))
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            weights[(u, v)] = weights.get((u, v), ZERO) + w
    return WeightedDigraph(tuple(vertices), weights, allow_self_loops=loops)


def graph(edges, **kw):
    return WeightedDigraph.from_edges(edges, **kw)


def triangle(w=2):
    return graph([("a", "b", w), ("b", "c", w), ("c", "a", w)])


def two_way_triangle():
    return graph(
        [("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
         ("b", "a", 2), ("c", "b", 2), ("a", "c", 2)]
    )


class TestGraphCycle:
    def test_canonical_rotation(self):
        assert GraphCycle(("b", "c", "a")) == GraphCycle(("a", "b", "c"))
        assert GraphCycle(("c", "a", "b")).vertices == ("a", "b", "c")

    def test_distinct_required(self):
        with pytest.raises(ValueError):
            GraphCycle(("a", "b", "a"))

    def test_self_loop_edges(self):
        assert cycle_edges(GraphCycle(("a",))) == [("a", "a")]


class TestBalance:
    def test_triangle(self):
        assert is_balanced_graph(triangle()) == (True, [])

    def test_single_edge(self):
        ok, violators = is_balanced_graph(graph([("a", "b", 1)]))
        assert not ok and violators == ["a", "b"]

    def test_two_way_triangle(self):
        assert is_balanced_graph(two_way_triangle())[0]


class TestExtractMinCycle:
    def test_triangle(self):
        cycle, m = next(_peel(triangle().weights))
        assert cycle.vertices == ("a", "b", "c") and m == 2

    def test_disjoint_triangles_seeded_at_global_min(self):
        g = graph(
            [("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
             ("x", "y", 3), ("y", "z", 3), ("z", "x", 3)]
        )
        cycle, m = next(_peel(g.weights))
        assert m == 1 and set(cycle.vertices) == {"a", "b", "c"}

    def test_postcondition_on_two_way_triangle(self):
        # tie-breaking walks to the least target, so the cycle is the
        # back-and-forth on (a, b); every edge still weighs at least the
        # global minimum
        g = two_way_triangle()
        cycle, m = next(_peel(g.weights))
        m_star = min(g.weights.values())
        assert m == min(g.weights.get(e, ZERO) for e in cycle_edges(cycle))
        assert all(g.weights.get(e, ZERO) >= m_star for e in cycle_edges(cycle))

    def test_unbalanced_names_the_stalled_vertex(self):
        g = graph([("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
        with pytest.raises(NotBalanced, match="greedy walk stalled at c") as info:
            next(_peel(g.weights))
        assert info.value.violators == ["c"]


class TestDecomposeGraph:
    def test_pure_cycle(self):
        dec = decompose_graph(triangle(1))
        assert len(dec.terms) == 1
        assert dec.terms[0] == (GraphCycle(("a", "b", "c")), ONE)

    def test_two_cycle(self):
        g = graph([("a", "b", Rat(5, 2)), ("b", "a", Rat(5, 2))])
        dec = decompose_graph(g)
        assert dec.terms == [(GraphCycle(("a", "b")), Rat(5, 2))]

    def test_two_way_triangle_reconstructs(self):
        g = two_way_triangle()
        dec = decompose_graph(g)
        assert dec.matches(g)
        assert len(dec.terms) <= len(g.weights)

    def test_unbalanced_rejected_with_violators(self):
        g = graph([("a", "b", 1), ("b", "c", 1)])
        with pytest.raises(NotBalanced) as info:
            decompose_graph(g)
        assert info.value.violators == ["a", "c"]

    def test_residuals_stay_balanced(self):
        g = two_way_triangle()
        residual = dict(g.weights)
        while residual:
            h = WeightedDigraph(g.vertices, dict(residual))
            assert is_balanced_graph(h)[0]
            cycle, m = next(_peel(h.weights))
            removed = 0
            for e in cycle_edges(cycle):
                residual[e] -= m
                if residual[e] == 0:
                    del residual[e]
                    removed += 1
            assert removed >= 1


def random_balanced(rng, max_vertices=10, max_den=100):
    n = rng.randrange(2, max_vertices + 1)
    vertices = [f"v{i}" for i in range(n)]
    weights = {}
    for _ in range(rng.randrange(1, 6)):
        size = rng.randrange(2, n + 1)
        cycle = rng.sample(vertices, size)
        w = Rat(rng.randrange(1, 50), rng.randrange(1, max_den + 1))
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            weights[(u, v)] = weights.get((u, v), ZERO) + w
    return WeightedDigraph(tuple(vertices), weights)


class TestEquivalence:
    def test_balanced_iff_decomposable(self, rng):
        for _ in range(40):
            g = random_balanced(rng)
            assert is_balanced_graph(g)[0]
            assert decompose_graph(g).matches(g)
            u, v = rng.sample(g.vertices, 2)
            weights = dict(g.weights)
            weights[(u, v)] = weights.get((u, v), ZERO) + rand_pos_rat(rng)
            bad = WeightedDigraph(g.vertices, weights)
            assert not is_balanced_graph(bad)[0]
            with pytest.raises(NotBalanced):
                decompose_graph(bad)


@EXAMPLES
@given(balanced_graphs())
def test_peeled_cycles_are_the_canonical_cycles_of_their_vertices(g):
    """The peel wraps each cycle unchecked; every one is already distinct
    and rotated to its least label, as ``GraphCycle`` would make it."""
    for cycle, _ in _peel(g.weights):
        canonical = GraphCycle(cycle.vertices)
        assert type(cycle) is GraphCycle and type(cycle.vertices) is tuple
        assert cycle == canonical and cycle.vertices == canonical.vertices


@EXAMPLES
@given(balanced_graphs(), st.data())
def test_peel_matches_rebuild_every_round_reference(g, data):
    assert is_balanced_graph(g) == (True, [])
    dec = decompose_graph(g)
    assert exact_terms(dec.terms) == exact_terms(reference_peel(g.weights))
    assert dec.matches(g)
    assert len(dec.terms) <= len(g.weights)
    assert exact_terms([next(_peel(g.weights))]) == exact_terms(dec.terms[:1])

    u, v = data.draw(st.sampled_from(sorted(g.weights)))
    weights = dict(g.weights)
    weights[(u, v)] += Rat(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 7)))
    bad = WeightedDigraph(g.vertices, weights, allow_self_loops=g.allow_self_loops)
    violators = reference_flux_violators(bad)
    assert is_balanced_graph(bad) == (not violators, violators)
    if violators:  # a heavier self-loop keeps the graph balanced
        with pytest.raises(NotBalanced) as info:
            decompose_graph(bad)
        assert info.value.violators == violators
    # the peel itself stalls where the reference walk stalls
    assert peel_outcome(lambda: _peel(bad.weights)) == peel_outcome(
        lambda: reference_peel(bad.weights)
    )
    assert peel_outcome(lambda: [next(_peel(bad.weights))]) == peel_outcome(
        lambda: [reference_greedy_cycle(bad.weights)]
    )


class TestBistochastic:
    def test_identity(self):
        g = graph([("a", "a", 1), ("b", "b", 1)], allow_self_loops=True)
        assert is_bistochastic(g)

    def test_empty_matrix_is_not_bistochastic(self):
        # no row sums to one, and no split could have weights that do
        g = WeightedDigraph((), {})
        assert not is_bistochastic(g)
        with pytest.raises(NotBistochastic):
            birkhoff_decompose(g)

    def test_uniform_two(self):
        g = graph(
            [("a", "a", Rat(1, 2)), ("a", "b", Rat(1, 2)),
             ("b", "a", Rat(1, 2)), ("b", "b", Rat(1, 2))],
            allow_self_loops=True,
        )
        assert is_bistochastic(g)

    def test_column_deficient(self):
        g = graph([("a", "a", 1), ("b", "a", 1)], allow_self_loops=True)
        assert not is_bistochastic(g)


class TestBirkhoff:
    def test_permutation_matrix(self):
        g = graph([("a", "b", 1), ("b", "a", 1), ("c", "c", 1)], allow_self_loops=True)
        terms = birkhoff_decompose(g)
        assert terms == [({"a": "b", "b": "a", "c": "c"}, ONE)]

    def test_two_by_two_uniform(self):
        g = graph(
            [("a", "a", Rat(1, 2)), ("a", "b", Rat(1, 2)),
             ("b", "a", Rat(1, 2)), ("b", "b", Rat(1, 2))],
            allow_self_loops=True,
        )
        terms = birkhoff_decompose(g)
        assert sorted(w for _, w in terms) == [Rat(1, 2), Rat(1, 2)]
        perms = [tuple(sorted(pi.items())) for pi, _ in terms]
        assert (("a", "a"), ("b", "b")) in perms
        assert (("a", "b"), ("b", "a")) in perms

    def test_three_by_three_uniform(self):
        g = graph(
            [(u, v, Rat(1, 3)) for u in "abc" for v in "abc"], allow_self_loops=True
        )
        terms = birkhoff_decompose(g)
        assert len(terms) == 3
        assert sum((w for _, w in terms), ZERO) == ONE
        assert birkhoff_graph_decomposition(g).matches(g)

    def test_not_bistochastic_rejected(self):
        with pytest.raises(NotBistochastic):
            birkhoff_decompose(graph([("a", "b", 1), ("b", "a", Rat(1, 2))]))

    def test_sparse_split_takes_space_linear_in_the_entries(self):
        # a cyclic shift on 5000 vertices has 5000 entries; a table of all
        # n * n cells would take about 200 MB, the split takes about 2 MB
        n = 5000
        shift = {(i, (i + 1) % n): ONE for i in range(n)}
        g = WeightedDigraph(tuple(range(n)), shift)
        spoiled = WeightedDigraph(tuple(range(n)), {**shift, (0, 1): Rat(1, 2)})
        tracemalloc.start()
        try:
            terms = birkhoff_decompose(g)
            with pytest.raises(NotBistochastic):
                birkhoff_decompose(spoiled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert terms == [({u: v for u, v in shift}, ONE)]
        assert peak < 20_000_000

    def test_random_convex_combinations(self, rng):
        for _ in range(20):
            n = rng.randrange(2, 8)
            vertices = [f"v{i}" for i in range(n)]
            k = rng.randrange(1, 9)
            raw = [rand_pos_rat(rng, 9, 9) for _ in range(k)]
            total = sum(raw, ZERO)
            weights = {}
            for coeff in raw:
                pi = rng.sample(vertices, n)
                for u, v in zip(vertices, pi):
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


@st.composite
def permutation_mixtures(draw):
    """Bistochastic matrices as convex mixtures of random permutations."""
    n = draw(st.integers(1, 7))
    vertices = [f"v{i}" for i in range(n)]
    raw = draw(st.lists(st.builds(Rat, st.integers(1, 6), st.integers(1, 6)),
                        min_size=1, max_size=8))
    total = sum(raw, ZERO)
    weights = {}
    for coeff in raw:
        pi = draw(st.permutations(vertices))
        for u, v in zip(vertices, pi):
            weights[(u, v)] = weights.get((u, v), ZERO) + coeff / total
    return WeightedDigraph(tuple(vertices), weights, allow_self_loops=True)


@EXAMPLES
@given(permutation_mixtures())
def test_birkhoff_matches_resorting_reference(g):
    # the kept matching emits other (valid) permutations than the rebuilt
    # one, so the terms are checked by exact reconstruction, not one by one
    assert is_bistochastic(g)
    terms = birkhoff_decompose(g)
    rebuilt = {}
    for pi, w in terms:
        assert type(w) is Rat and w > 0
        assert sorted(pi) == sorted(pi.values()) == list(g.vertices)
        for e in pi.items():
            rebuilt[e] = rebuilt.get(e, ZERO) + w
    assert rebuilt == g.weights
    assert sum((w for _, w in terms), ZERO) == ONE
    bound = (len(g.vertices) - 1) ** 2 + 1
    assert len(terms) <= bound
    assert len(reference_birkhoff(g)) <= bound


def mixture(vertices, perms, coeffs, spoil=ZERO):
    """The mixture of the permutations ``perms`` of ``vertices`` with the
    weights ``coeffs`` over their total, plus ``spoil`` on the first
    entry of the first permutation."""
    total = sum(coeffs, ZERO)
    weights = {(vertices[0], perms[0][0]): spoil}
    for pi, coeff in zip(perms, coeffs):
        for u, v in zip(vertices, pi):
            weights[(u, v)] = weights.get((u, v), ZERO) + coeff / total
    return WeightedDigraph(tuple(vertices), weights, allow_self_loops=True)


@st.composite
def labelled_permutation_mixtures(draw):
    """Permutation mixtures on int labels or on strings whose sorted order
    is not numeric ("v10" < "v2"), n = 1 to 12.  Fixed points are
    self-loops, permutations drawn from a small pool repeat and tie their
    entries, and one case in five is spoiled, so a row sums to more than
    one."""
    n = draw(st.integers(1, 12))
    vertices = draw(st.sampled_from([list(range(n)), [f"v{i}" for i in range(n)]]))
    pool = draw(st.lists(st.permutations(vertices), min_size=1, max_size=4))
    perms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    coeffs = [Rat(draw(st.integers(1, 6)), draw(st.integers(1, 6))) for _ in perms]
    spoil = Rat(1, 7) if draw(st.integers(0, 4)) == 0 else ZERO
    return mixture(vertices, perms, coeffs, spoil)


def split_outcome(split, g):
    """The terms as plain data, dict key order included, or the error."""
    try:
        terms = split(g)
    except NotBistochastic as exc:
        return NotBistochastic, str(exc)
    return [(list(pi.items()), type(w), str(w)) for pi, w in terms]


STRINGS = [f"v{i}" for i in range(12)]


@EXAMPLES
@given(labelled_permutation_mixtures())
@example(mixture([0], [[0]], [ONE]))
@example(mixture(["v0"], [["v0"]], [ONE], spoil=ONE))
@example(WeightedDigraph(("a", "b"), {("a", "a"): ONE, ("b", "a"): ONE}, allow_self_loops=True))
@example(mixture(STRINGS, [STRINGS[::-1], STRINGS, STRINGS[1:] + STRINGS[:1]], [ONE] * 3))
@example(mixture(list(range(12)), [list(range(11, -1, -1)), list(range(12))] * 2, [ONE, 2, ONE, 2]))
def test_birkhoff_on_ids_matches_the_label_reference(g):
    assert split_outcome(birkhoff_decompose, g) == split_outcome(reference_birkhoff_decompose, g)


def drawn_mixture(rng, n, k, pool=0):
    """``k`` permutations of ``b0..b{n-1}`` with integer coefficients from
    1 to 12, over their total, as the benchmark's Birkhoff inputs are
    drawn; with ``pool``, each permutation is one of ``pool`` drawn first."""
    labels = [f"b{i}" for i in range(n)]
    images = []
    for _ in range(pool or k):
        image = list(range(n))
        rng.shuffle(image)
        images.append(image)
    if pool:
        images = [rng.choice(images) for _ in range(k)]
    perms = [[labels[j] for j in image] for image in images]
    return mixture(labels, perms, [Rat(rng.randint(1, 12)) for _ in range(k)])


def round_shapes(g, terms):
    """``(most, moved)``: the most rows one round frees and the number of
    still matched rows that augmenting paths move, over every round but
    the last, read off the terms."""
    residual = dict(g.weights)
    most = moved = 0
    for (pi, w), (following, _) in zip(terms, terms[1:]):
        freed = set()
        for e in pi.items():
            residual[e] -= w
            if not residual[e]:
                freed.add(e[0])
        changed = {u for u in pi if pi[u] != following[u]}
        assert freed <= changed
        most = max(most, len(freed))
        moved += len(changed - freed)
    return most, moved


def test_birkhoff_at_the_benchmark_size_matches_the_label_reference(rng):
    for _ in range(12):
        g = drawn_mixture(rng, 48, 24)
        assert split_outcome(birkhoff_decompose, g) == split_outcome(reference_birkhoff_decompose, g)


def test_birkhoff_on_repeated_permutations_matches_the_label_reference(rng):
    # a pool of few permutations ties many entries: several rows reach zero
    # in one round, and paths move rows that were already matched
    for pool in (2, 3, 4, 6, 8) * 2:
        g = drawn_mixture(rng, 48, 24, pool)
        assert split_outcome(birkhoff_decompose, g) == split_outcome(reference_birkhoff_decompose, g)
        most, moved = round_shapes(g, birkhoff_decompose(g))
        if pool > 2:
            assert most >= 2 and moved > 0


def augmented_matching(rows, adjacency, n_cols):
    """Grow a matching from empty, one augmenting-path search per row.

    ``rows`` orders the row ids ``0..len(rows)-1`` and ``adjacency[r]``
    lists the column ids of row ``r``.
    """
    match_row, match_col = [-1] * len(rows), [-1] * n_cols
    seen = [-1] * len(rows)
    for stamp, r in enumerate(rows):
        before = list(match_row)
        if not _augment(r, adjacency, match_row, match_col, seen, stamp):
            assert match_row == before
    inverse = [-1] * n_cols
    for r, c in enumerate(match_row):
        if c >= 0:
            inverse[c] = r
    assert match_col == inverse
    return {r: c for r, c in enumerate(match_row) if c >= 0}


@EXAMPLES
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_augmenting_paths_match_the_hopcroft_karp_reference(n_rows, n_cols, data):
    rows = data.draw(st.permutations(range(n_rows)))
    cols = range(n_cols)
    drawn = {
        r: data.draw(st.lists(st.sampled_from(cols), unique=True, max_size=n_cols))
        for r in rows
    }
    adjacency = [drawn[r] for r in range(n_rows)]
    matching = augmented_matching(rows, adjacency, n_cols)
    assert all(c in adjacency[r] for r, c in matching.items())
    assert len(set(matching.values())) == len(matching)
    assert len(matching) == len(reference_hopcroft_karp(rows, cols, adjacency))
    # and the very matching of the same search on labels
    match_row, match_col = {}, {}
    for r in rows:
        reference_augment(r, adjacency, match_row, match_col)
    assert matching == match_row


def test_augmenting_path_deeper_than_recursion_limit():
    # r0 -> c0 and r_i -> c_{i-1}, c_i, rows in reverse order: r_i takes
    # c_{i-1} until r0 finds c0 taken, leaving one augmenting path through
    # every row
    n = sys.getrecursionlimit() + 4000
    rows = list(range(n - 1, -1, -1))
    adjacency = [[r - 1, r] if r else [0] for r in range(n)]
    assert augmented_matching(rows, adjacency, n) == {r: r for r in rows}


def cancelled(draw, records, term):
    """``term`` appended to ``records``, and one time in three its negation:
    the same record, or for a ``perm`` term its cycles and fixed points, so
    a token and an edge of one entry cancel each other."""
    records.append(term)
    _, weight, kind, payload = term
    if draw(st.integers(0, 2)):
        return
    if kind == "perm" and draw(st.booleans()):
        pi = dict(token.split(">", 1) for token in payload)
        cycles, fixed = permutation_to_cycles(pi)
        records.extend(("term", -weight, "cycle", list(c)) for c in cycles + [(x,) for x in fixed])
    else:
        records.append(("term", -weight, kind, payload))


@st.composite
def graph_records(draw):
    """Parsed ``term`` records of either kind with signed mixed weights."""
    labels = ["a", "b", "c", "d", "e"]
    records = [("parameter", Rat(1, 2))]
    for _ in range(draw(st.integers(0, 8))):
        weight = Rat(draw(st.integers(-6, 6)), draw(st.integers(1, 12)))
        if draw(st.booleans()):
            cycle = draw(st.permutations(labels))[:draw(st.integers(1, 5))]
            cancelled(draw, records, ("term", weight, "cycle", cycle))
        else:
            pi = draw(st.permutations(labels))
            cancelled(draw, records, ("term", weight, "perm", [f"{u}>{v}" for u, v in zip(labels, pi)]))
    return records


@st.composite
def perm_records(draw):
    """Parsed ``perm`` records only, on 1 to 16 labels, with permutations
    from a small pool, so that entries repeat, and negated terms."""
    labels = [f"v{i}" for i in range(draw(st.integers(1, 16)))]
    pool = draw(st.lists(st.permutations(labels), min_size=1, max_size=4))
    records = [("parameter", Rat(1, 2))]
    for _ in range(draw(st.integers(0, 12))):
        weight = Rat(draw(st.integers(-6, 6)), draw(st.integers(1, 12)))
        pi = draw(st.sampled_from(pool))
        records.append(("term", weight, "perm", [f"{u}>{v}" for u, v in zip(labels, pi)]))
        if not draw(st.integers(0, 2)):
            records.append(("term", -weight, "perm", records[-1][3]))
    return records


def assert_rebuilds_the_rational_sum(records):
    expected = list(reference_reconstruct(records).items())
    for mode in ("graph", "birkhoff"):
        rebuilt = fio.reconstruct_decomposition(mode, records)
        assert list(rebuilt.items()) == expected
        assert all(type(w) is Rat for w in rebuilt.values())


@EXAMPLES
@given(graph_records())
@example([("parameter", ONE), ("term", ONE, "perm", ["a>b", "b>a"]),
          ("term", -ONE, "cycle", ["a", "b"])])
@example([("parameter", ONE), ("term", ONE, "cycle", ["b", "a"]),
          ("term", Rat(1, 2), "perm", ["a>a", "b>b"]), ("term", -ONE, "perm", ["a>b", "b>a"])])
def test_integer_reconstruction_matches_rational_sum(records):
    assert_rebuilds_the_rational_sum(records)
    cycles = [(payload, weight) for _, weight, kind, payload in records[1:] if kind == "cycle"]
    summed = cycle_sum(cycles)
    assert summed == reference_reconstruct([("term", w, "cycle", c) for c, w in cycles])
    assert all(type(w) is Rat for w in summed.values())


@EXAMPLES
@given(perm_records())
def test_token_keyed_reconstruction_matches_rational_sum(records):
    assert_rebuilds_the_rational_sum(records)


class TestPermutationCycles:
    def test_identity(self):
        cycles, fixed = permutation_to_cycles({"a": "a", "b": "b", "c": "c"})
        assert cycles == [] and fixed == ["a", "b", "c"]

    def test_transposition(self):
        cycles, fixed = permutation_to_cycles({"a": "b", "b": "a", "c": "c"})
        assert cycles == [GraphCycle(("a", "b"))] and fixed == ["c"]

    def test_three_cycle(self):
        cycles, fixed = permutation_to_cycles({"a": "b", "b": "c", "c": "a"})
        assert cycles == [GraphCycle(("a", "b", "c"))] and fixed == []

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            permutation_to_cycles({"a": "b", "b": "b"})

    def test_birkhoff_cycles_row_sums(self, rng):
        g = WeightedDigraph(
            tuple("abcd"),
            {("a", "b"): ONE, ("b", "a"): ONE, ("c", "d"): ONE, ("d", "c"): ONE},
        )
        dec = birkhoff_graph_decomposition(g)
        assert dec.matches(g)
        rebuilt = dec.reconstruct()
        for x in g.vertices:
            assert sum((w for (u, _), w in rebuilt.items() if u == x), ZERO) == ONE


@pytest.mark.parametrize("build, message", [
    (lambda: WeightedDigraph(("a", "b"), {("a", "c"): ONE}), r"edge \(a, c\) uses unknown vertex"),
    (lambda: WeightedDigraph(("a", "b"), {("a", "b"): Rat(-1, 2)}), r"negative weight on \(a, b\)"),
    (lambda: WeightedDigraph.from_edges([("a", "b", ONE), ("a", "b", ONE)]),
     r"duplicate edge \(a, b\)"),
], ids=["unknown vertex", "negative weight", "duplicate edge"])
def test_weighted_digraph_checks(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
