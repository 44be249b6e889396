"""Cyclic decomposition of balanced weighted digraphs and Birkhoff splitting.

A weighted digraph decomposes into cycles exactly when in-weight equals
out-weight at every vertex.  The construction is greedy: seed a walk at a
globally minimal edge, extend (every vertex entered has positive out-weight
by balance), cut at the first repeated vertex and subtract the cycle's
minimal weight.  Each round deletes at least one edge, so the number of
terms never exceeds the edge count.

The peel runs on integer ids: the weights are scaled once by the lcm of
their denominators, the edges are numbered in sorted ``(u, v)`` order and
the vertices in sorted label order, so the least id is the least label.
Residuals live in a list by edge id, a heap of one-int keys
``weight * |E| + edge`` yields the least edge at the global minimum, and
each vertex keeps its outgoing edge ids sorted once and skips dead edges
as the walk meets them.  Labels come back only in the yielded cycles.
Balance and bistochasticity are one pass over the edges on the same
integers.

Bistochastic weight matrices additionally split into permutation matrices:
keep one perfect matching of the positive support, subtract its minimal
entry and re-match only the rows whose entry reached zero.  The split
runs on integer ids as well: rows and columns numbered in sorted label
order, the scaled residual in a dict of the support under int keys, the
matching in two lists, and each matched row's residual as a level above
the weight split off so far, so a round reads only the rows it changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import lcm

from .errors import NoPerfectMatching, NotBalanced, NotBistochastic
from .ratio import Rat, scaled, to_rat


@dataclass(frozen=True)
class GraphCycle:
    """Closed sequence of distinct vertices, canonically rotated.

    The rotation placing the least vertex first makes equality independent
    of the starting point.  A single-vertex cycle stands for a self-loop
    and only appears in bistochastic contexts.
    """

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", canonical_cycle(self.vertices))

    @classmethod
    def _exact(cls, vertices: tuple):
        """Wrap a tuple of distinct vertices that already starts at its
        least one, uncopied and unchecked."""
        self = cls.__new__(cls)
        object.__setattr__(self, "vertices", vertices)
        return self

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)


def canonical_cycle(vertices) -> tuple:
    """``vertices`` as a tuple rotated to start at its least vertex.

    Raises :class:`ValueError` when they are empty or repeat a vertex.
    """
    vs = tuple(vertices)
    if not vs:
        raise ValueError("cycle must be nonempty")
    if len(set(vs)) != len(vs):
        raise ValueError("cycle vertices must be distinct")
    pivot = vs.index(min(vs))
    return vs[pivot:] + vs[:pivot]


def cycle_edges(vertices) -> list:
    """Oriented edges of the closed walk through ``vertices``, in order."""
    vertices = tuple(vertices)
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def edge_sum(terms, scale: int) -> dict:
    """Nonzero oriented-edge weights of a sum of ``(edges, weight)`` terms.

    ``scale`` is a common multiple of the weight denominators: the weights
    add as integer numerators over it, and each total is divided back
    once per distinct total.  ``terms`` may be a generator, so no edge
    list outlives its term.
    """
    acc: dict = {}
    for edges, weight in terms:
        n = weight.numerator * (scale // weight.denominator)
        for e in edges:
            acc[e] = acc.get(e, 0) + n
    totals: dict = {}  # many edges share a total; each Rat is built once
    out = {}
    for e, n in acc.items():
        if n:
            total = totals.get(n)
            if total is None:
                total = totals[n] = Rat(n, scale)
            out[e] = total
    return out


def cycle_sum(terms) -> dict:
    """Nonzero oriented-edge weights of a list of ``(vertex cycle, weight)`` terms."""
    scale = lcm(*(weight.denominator for _, weight in terms))
    return edge_sum(((cycle_edges(cycle), weight) for cycle, weight in terms), scale)


@dataclass
class WeightedDigraph:
    """Vertex set plus a positive rational weight per oriented edge."""

    vertices: tuple
    weights: dict
    allow_self_loops: bool = False

    def __post_init__(self):
        self.vertices = tuple(sorted(set(self.vertices)))
        vset = set(self.vertices)
        cleaned = {}
        for (u, v), w in self.weights.items():
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertex")
            if u == v and not self.allow_self_loops:
                raise ValueError(f"self-loop at {u} not allowed")
            w = to_rat(w)
            if w.numerator < 0:
                raise ValueError(f"negative weight on ({u}, {v})")
            if w.numerator:
                cleaned[(u, v)] = w
        self.weights = cleaned

    @classmethod
    def from_edges(cls, edge_weights, allow_self_loops=False):
        weights = {}
        vs = set()
        for u, v, w in edge_weights:
            if (u, v) in weights:
                raise ValueError(f"duplicate edge ({u}, {v})")
            weights[(u, v)] = w
            vs.add(u)
            vs.add(v)
        return cls(tuple(vs), weights, allow_self_loops)


@dataclass
class GraphDecomposition:
    """Cycle terms whose indicator weights sum back to the input exactly."""

    terms: list = field(default_factory=list)

    def reconstruct(self) -> dict:
        return cycle_sum(self.terms)

    def matches(self, g: WeightedDigraph) -> bool:
        return self.reconstruct() == g.weights


def _flux(g: WeightedDigraph):
    """``(L, numerators, inflow, outflow)``: the weights and per-vertex
    weight sums times ``L``, one pass."""
    scale, numerators = scaled(g.weights)
    inflow = dict.fromkeys(g.vertices, 0)
    outflow = dict.fromkeys(g.vertices, 0)
    for (u, v), n in numerators.items():
        outflow[u] += n
        inflow[v] += n
    return scale, numerators, inflow, outflow


def is_balanced_graph(g: WeightedDigraph):
    """Exact in-weight vs out-weight comparison per vertex.

    Returns ``(verdict, violators)`` with the offending vertices sorted.
    """
    _, _, inflow, outflow = _flux(g)
    violators = [x for x in g.vertices if inflow[x] != outflow[x]]
    return not violators, violators


def _peel(weights):
    """Yield the greedy rounds ``(cycle, m)`` that peel ``weights`` to zero.

    Each round seeds at the least edge of globally minimal residual weight
    and always steps to the least target still carrying weight: every
    residual edge weighs at least the round's minimum, so that target is
    admissible.  Raises :class:`NotBalanced` when the walk reaches a vertex
    without outgoing weight, which a balanced graph never does.

    Edge ids follow sorted ``(u, v)`` order and vertex ids sorted labels,
    so comparing ids compares labels.  A heap key ``n * |E| + eid`` orders
    by weight and then by edge, and a residual of 0 marks a dead edge.
    Each cycle is rotated to its least id on the ids and wrapped without
    :func:`canonical_cycle`'s copy and checks.
    """
    scale, numerators = scaled(weights)
    keys = sorted(numerators)
    n_edges = len(keys)
    labels = sorted({x for e in keys for x in e})
    vid = {x: i for i, x in enumerate(labels)}
    tail = [vid[u] for u, _ in keys]
    head = [vid[v] for _, v in keys]
    residual = [numerators[e] for e in keys]
    heap = [n * n_edges + eid for eid, n in enumerate(residual)]
    heapify(heap)
    # outgoing edge ids in descending order, so the least live one is at the end
    succ = [[] for _ in labels]
    for eid in reversed(range(n_edges)):
        succ[tail[eid]].append(eid)
    pos = [-1] * len(labels)  # a vertex's index in this round's walk
    live = n_edges
    while live:
        # residuals only fall, so an entry is stale iff its weight differs
        n, seed = divmod(heap[0], n_edges)
        while residual[seed] != n:
            heappop(heap)
            n, seed = divmod(heap[0], n_edges)
        walk = [tail[seed], head[seed]]
        pos[walk[0]] = 0
        pos[walk[1]] = 1
        steps = [seed]  # steps[i] leads from walk[i] on
        while True:
            here = walk[-1]
            targets = succ[here]
            while targets and not residual[targets[-1]]:
                targets.pop()
            if not targets:
                raise NotBalanced(
                    f"greedy walk stalled at {labels[here]}; graph is not balanced",
                    violators=[labels[here]],
                )
            eid = targets[-1]
            steps.append(eid)
            nxt = head[eid]
            start = pos[nxt]
            if start >= 0:
                break
            pos[nxt] = len(walk)
            walk.append(nxt)
        for x in walk:
            pos[x] = -1
        edges = steps[start:]
        m = min(map(residual.__getitem__, edges))
        cycle = walk[start:]
        least = cycle.index(min(cycle))
        # a tuple of a list is allocated at its final size; a tuple of an
        # iterator is resized as it grows, which raised the peak resident set
        yield GraphCycle._exact(tuple([labels[x] for x in cycle[least:] + cycle[:least]])), Rat(m, scale)
        for e in edges:
            n = residual[e] - m
            residual[e] = n
            if n:
                heappush(heap, n * n_edges + e)
            else:
                live -= 1


def decompose_graph(g: WeightedDigraph) -> GraphDecomposition:
    """Peel greedy cycles until no edge remains.

    Raises :class:`NotBalanced` (with the violating vertices) when no
    decomposition exists.  Successful output reconstructs the weights
    exactly with at most ``|E|`` terms.
    """
    ok, violators = is_balanced_graph(g)
    if not ok:
        raise NotBalanced("in-weight differs from out-weight", violators=violators)
    return GraphDecomposition(list(_peel(g.weights)))


def _bistochastic_scaled(g: WeightedDigraph):
    """``(L, numerators)`` of ``g`` as :func:`scaled` gives them when every
    row and column of a nonempty weight matrix sums to exactly one, else
    None."""
    scale, numerators, inflow, outflow = _flux(g)
    if g.vertices and all(inflow[x] == scale == outflow[x] for x in g.vertices):
        return scale, numerators
    return None


def is_bistochastic(g: WeightedDigraph) -> bool:
    """Every row and column of a nonempty weight matrix sums to exactly one."""
    return _bistochastic_scaled(g) is not None


def _augment(root, adjacency, match_row, match_col, seen, stamp) -> bool:
    """Match the free row ``root`` along one augmenting path (Kuhn 1955).

    Rows and columns are ids; ``adjacency[r]`` lists the columns of row
    ``r`` and ``match_row`` / ``match_col`` hold -1 where unmatched.
    Depth-first search that enters every row at most once, marking it
    with ``seen[r] = stamp`` (a value no earlier call used), and first
    looks among the row's columns for a free one (Duff 1981), with an
    explicit stack: paths can be longer than the recursion limit.
    ``via[i]`` is the column that leads from ``path[i]`` on.  Returns
    False, leaving the matching as it was, when no path exists.
    """
    path, via, scans = [root], [], [None]
    seen[root] = stamp
    while path:
        r = path[-1]
        scan = scans[-1]
        if scan is None:
            for c in adjacency[r]:
                if match_col[c] < 0:
                    via.append(c)
                    for u, col in zip(path, via):
                        match_row[u] = col
                        match_col[col] = u
                    return True
            scan = scans[-1] = iter(adjacency[r])
        for c in scan:
            nxt = match_col[c]
            if seen[nxt] != stamp:
                seen[nxt] = stamp
                via.append(c)
                path.append(nxt)
                scans.append(None)
                break
        else:
            path.pop()
            scans.pop()
            if via:
                via.pop()
    return False


def birkhoff_decompose(g: WeightedDigraph):
    """Split a bistochastic weight matrix into weighted permutations.

    Keeps one perfect matching of the positive support and subtracts its
    minimal entry; the rows whose matched entry reaches zero are matched
    again, each by one augmenting path.  The weights sum to one and the
    number of terms is at most ``(n - 1)^2 + 1``.

    Rows and columns are numbered in sorted label order, so every choice
    on ids is the one on labels.  The scaled residual of entry ``(r, c)``
    sits under the int key ``r * n + c`` of a dict of the support, so
    space stays linear in the entries.  A matched row's residual is kept
    as ``level[r] - shift``, where ``shift`` is the weight split off so
    far: a round's weight is ``min(level) - shift``, the rows at that
    minimum are the ones it frees, and only the rows whose match an
    augmenting path changed are read again, so no round touches all n
    matched cells.
    """
    checked = _bistochastic_scaled(g)
    if checked is None:
        raise NotBistochastic("row or column sums differ from 1")
    scale, numerators = checked
    labels = g.vertices
    n = len(labels)
    vid = {x: i for i, x in enumerate(labels)}
    residual = {}
    adjacency = [[] for _ in labels]
    for (u, v), w in numerators.items():
        r, c = vid[u], vid[v]
        residual[r * n + c] = w
        adjacency[r].append(c)
    for cols in adjacency:
        cols.sort()
    match_row = [-1] * n
    match_col = [-1] * n
    seen = [-1] * n
    level = [0] * n  # a matched row's residual is level[r] - shift
    shift = 0  # the scaled weight split off so far
    stamp = 0
    free = range(n)
    live = len(numerators)
    terms = []
    while live:
        held = match_row[:]
        for r in free:
            if not _augment(r, adjacency, match_row, match_col, seen, stamp):
                raise NoPerfectMatching(
                    "no perfect matching on a bistochastic support; arithmetic bug"
                )
            stamp += 1
        # only the rows whose match the paths changed are read again; an
        # old cell takes its residual back from the level
        for r in [r for r in range(n) if match_row[r] != held[r]]:
            c = held[r]
            if c >= 0:
                residual[r * n + c] = level[r] - shift
            level[r] = residual[r * n + match_row[r]] + shift
        floor = min(level)
        terms.append((dict(zip(labels, [labels[c] for c in match_row])), Rat(floor - shift, scale)))
        shift = floor
        # the rows at the least level are the ones whose entry reached zero
        free = []
        r = -1
        for _ in range(level.count(floor)):
            r = level.index(floor, r + 1)
            c = match_row[r]
            adjacency[r].remove(c)
            match_row[r] = match_col[c] = -1
            free.append(r)
        live -= len(free)
    return terms
