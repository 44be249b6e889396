"""Seeded input generation for the three benchmark workloads.

Every case is built from ``random.Random(f"{workload}/{seed}/{index}")``, so
the same seed gives the same text byte for byte.  The program under test
only ever receives ``Case.text`` (and ``Case.extra``); ``Case.expect``
holds the answer known by construction and never reaches the program.

The size ladder, the mix of op kinds and the parameters that set an
input's cost (denominators, potentials) are fixed per position; the seed
changes the numbers inside each input.  Each workload has over a hundred
distinct inputs, and the rung counts put the median and the 90th
percentile of op latency inside a populous rung, not on the gap between
two rungs, so that neither jumps with the seed.  The two or four largest
inputs of each ladder sit above the 90th percentile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from cycledec import discretize as dz
from cycledec import io as fio
from cycledec.complexes import (
    TwoChain,
    TwoComplex,
    ZeroForm,
    boundary2,
    coboundary0,
    harmonic_basis,
)
from cycledec.lattice import LatticeMeasure


@dataclass(frozen=True)
class Case:
    """One input file (plus an optional companion file) and its known answer.

    ``extra`` is the torus shape (``"16x16"``) for torus rates or the
    surface file text for Klein-bottle rates.  ``expect`` is a tuple whose
    first entry is the verdict: ``"yes"`` for a decomposable input, or
    ``"no"`` followed by what the negative verdict must name.
    """

    name: str
    kind: str
    text: str
    extra: str = ""
    expect: tuple = ("yes",)
    size: str = ""


def _interleave(rungs):
    """Spread ``[(count, item), ...]`` evenly: big rungs are not bunched."""
    slots = []
    for r, (count, item) in enumerate(rungs):
        for k in range(count):
            slots.append(((k + 0.5) / count, r, item))
    slots.sort(key=lambda s: (s[0], s[1]))
    return [item for _, _, item in slots]


# Edge weights are summed as integers over a common scale and written as
# reduced fractions once per entry: exact, and several times faster to set
# up than summing fractions.


def _add(rates, u, v, w):
    if w:
        rates[(u, v)] = rates.get((u, v), 0) + w


def _rates_text(name, rates, scale, label=str):
    """The graph file of ``rates / scale``, as ``io.format_graph`` writes it."""
    lines = []
    for (u, v), w in rates.items():
        g = gcd(w, scale)
        lines.append(f"{label(u)} {label(v)} {w // g}/{scale // g}")
    return "\n".join([f"digraph {name}"] + sorted(lines)) + "\n"


# -- graph-peel -----------------------------------------------------------


GRAPH_SCALE = 27720  # lcm(1, ..., 12), so every cycle mass m/d with d <= 12 fits


def _cycle_sum_graph(rng, n_edges):
    """Balanced digraph: a sum of random weighted cycles of length 3 to 12."""
    labels = [f"v{i}" for i in range(max(12, n_edges // 3))]
    weights = {}
    while len(weights) < n_edges:
        cycle = rng.sample(labels, rng.randint(3, 12))
        mass = rng.randint(1, 30) * (GRAPH_SCALE // rng.randint(1, 12))
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            _add(weights, u, v, mass)
    return weights


def _bistochastic(rng, n, k):
    """Convex mixture of ``k`` random permutation matrices, over their total."""
    labels = [f"b{i}" for i in range(n)]
    raw = [rng.randint(1, 12) for _ in range(k)]
    weights = {}
    for a in raw:
        image = list(range(n))
        rng.shuffle(image)
        for i, j in enumerate(image):
            _add(weights, labels[i], labels[j], a)
    return weights, sum(raw)


def _graph_case(rng, index, spec, memo):
    kind, size = spec
    if kind == "birkhoff":
        n, k = size
        weights, total = _bistochastic(rng, n, k)
        return Case(f"graph-peel#{index}:birkhoff-n{n}", "birkhoff",
                    _rates_text(f"b{index}", weights, total), expect=("yes", n),
                    size=f"n={n}")
    weights = _cycle_sum_graph(rng, size)
    expect = ("yes",)
    label = f"E{size}"
    if kind == "unbalanced":
        u, v = rng.choice(sorted(weights))
        weights[(u, v)] += GRAPH_SCALE // rng.randint(2, 9)
        expect = ("no", tuple(sorted((u, v))))
        label += "-unbalanced"
    return Case(f"graph-peel#{index}:{label}", "graph",
                _rates_text(f"g{index}", weights, GRAPH_SCALE), expect=expect,
                size=f"E={len(weights)}")


GRAPH_MIX = [
    (110, ("graph", 200)),
    (24, ("graph", 300)),
    (24, ("graph", 450)),
    (4, ("graph", 650)),
    (4, ("graph", 1000)),
    (10, ("unbalanced", 200)),
    (10, ("unbalanced", 650)),
    (16, ("birkhoff", (48, 24))),
]


# -- lattice-caratheodory -----------------------------------------------


def _mean_zero_measure(rng, dim, support, den, reach=6):
    """Sum of empirical measures of random closed walks, masses over ``den``."""
    atoms = {}
    while len(atoms) < support:
        while True:
            steps = [
                tuple(rng.randint(-reach, reach) for _ in range(dim))
                for _ in range(rng.randint(1, 3))
            ]
            closing = tuple(-sum(s[i] for s in steps) for i in range(dim))
            walk = steps + [closing]
            if all(any(s) for s in walk) and max(map(abs, closing)) <= reach:
                break
        mass = Fraction(rng.randint(1, 2 * den), den)
        for point in walk:
            atoms[point] = atoms.get(point, 0) + mass
    return atoms


def _lattice_case(rng, index, spec, memo):
    kind, dim, support = spec
    den = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20)[index % 10]
    atoms = _mean_zero_measure(rng, dim, support, den)
    expect = ("yes",)
    label = f"Z{dim}-S{support}"
    if kind == "unbalanced":
        point = rng.choice(sorted(atoms))
        bump = Fraction(1, den)
        atoms[point] += bump
        expect = ("no", tuple(bump * c for c in point))
        label += "-nonzero-mean"
    text = fio.format_measure(LatticeMeasure(dim, atoms))
    return Case(f"lattice-caratheodory#{index}:{label}", "lattice", text,
                expect=expect, size=f"d={dim},S={len(atoms)}")


LATTICE_MIX = [
    (30, ("measure", 2, 30)),
    (26, ("measure", 3, 30)),
    (16, ("measure", 2, 45)),
    (12, ("measure", 2, 60)),
    (12, ("measure", 3, 45)),
    (2, ("measure", 2, 90)),
    (2, ("measure", 2, 120)),
    (2, ("measure", 3, 60)),
    (12, ("unbalanced", 2, 60)),
]


# -- surface-fields -------------------------------------------------------


def _from_elementary(complex, face_weights, edge_weights):
    """Rates of a nonnegative elementary decomposition, summed by hand."""
    rates = {}
    for fid, (forward, backward) in enumerate(face_weights):
        for eid, sign in complex.face_edges[fid]:
            u, v = complex.edges[eid]
            if sign == -1:
                u, v = v, u
            _add(rates, u, v, forward)
            _add(rates, v, u, backward)
    for (u, v), w in zip(complex.edges, edge_weights):
        _add(rates, u, v, w)
        _add(rates, v, u, w)
    return rates


def _from_chain(complex, chain, symmetric):
    """Rates whose field is the boundary of ``chain``, with given symmetric parts."""
    rates = {}
    for (u, v), incidences, s in zip(complex.edges, complex.edge_faces, symmetric):
        value = sum(sign * chain[fid] for fid, sign in incidences)
        _add(rates, u, v, s + max(value, 0))
        _add(rates, v, u, s + max(-value, 0))
    return rates


def _torus(n, memo):
    if ("torus", n) not in memo:
        memo[("torus", n)] = TwoComplex.torus2(n)
    return memo[("torus", n)]


def _sine_chain(index, complex, memo):
    """Snapped sine potential at the face centers, one of three per mesh size."""
    amplitude, denominator = ((1.0, 60), (1.5, 120), (2.0, 360))[index % 3]
    key = (amplitude, denominator, complex.torus_shape)
    if key not in memo:
        sampler = dz.sine_potential(amplitude)
        sampler.denominator = denominator
        memo[key] = dz.discretize_potential(sampler, complex.torus_shape[0])[1].values
    return memo[key]


def _torus_case(rng, index, kind, n, memo):
    complex = _torus(n, memo)
    scale = 720
    chain = [int(v * scale) for v in _sine_chain(index, complex, memo)]
    if kind == "violated":
        # Two edges whose face pairs sit near the chain's minimum and maximum
        # get no symmetric mass: their intervals are disjoint, so the pairwise
        # polyhedron inequality fails for that pair.
        lo, hi = min(chain) // 2, max(chain) // 2

        def edge_between(test):
            return next(
                eid
                for eid, inc in enumerate(complex.edge_faces)
                if all(test(chain[fid]) for fid, _ in inc)
            )

        starved = {edge_between(lambda x: x <= lo), edge_between(lambda x: x >= hi)}
        symmetric = [
            0 if eid in starved else 45 * rng.randint(0, 8)
            for eid in range(complex.n_edges)
        ]
        rates = _from_chain(complex, chain, symmetric)
        expect = ("no", "PolyhedronViolated")
    else:
        shift = 90 * rng.randint(-4, 4)
        faces = [(max(v + shift, 0), max(-v - shift, 0)) for v in chain]
        edges = [18 * rng.randint(0, 20) for _ in complex.edges]
        rates = _from_elementary(complex, faces, edges)
        expect = ("yes",)
        if kind == "harmonic":
            row = rng.randrange(n)
            bump = rng.randint(1, 180)
            for i in range(n):
                _add(rates, (i, row), ((i + 1) % n, row), bump)
            expect = ("no", "NotHomologous")
    text = _rates_text(f"t{index}", rates, scale, fio.coords_label)
    return Case(f"surface-fields#{index}:torus{n}-{kind}", "torus-elementary", text,
                extra=f"{n}x{n}", expect=expect, size=f"torus {n}x{n}")


def _klein_case(rng, index, kind, n, memo):
    if ("klein", n) not in memo:
        complex = TwoComplex.klein_grid(n, n)
        memo[("klein", n)] = complex, fio.format_surface(complex)
    complex, surface = memo[("klein", n)]
    if kind == "violated":
        # A strictly positive chain puts every opposite-sign edge interval at
        # distance >= 1 from zero; one such edge gets no symmetric mass.
        scale = 4
        chain = [rng.randint(4, 20) for _ in range(complex.n_faces)]
        starved = next(
            eid for eid, ((_, s1), (_, s2)) in enumerate(complex.edge_faces) if s1 != s2
        )
        symmetric = [
            0 if eid == starved else rng.randint(20, 28) for eid in range(complex.n_edges)
        ]
        rates = _from_chain(complex, chain, symmetric)
        expect = ("no", "PolyhedronViolated", complex.edges[starved])
    else:
        scale = 280
        faces = [
            (40 * rng.randint(0, 9), 40 * rng.randint(0, 9)) for _ in range(complex.n_faces)
        ]
        edges = [7 * rng.randint(0, 20) for _ in complex.edges]
        rates = _from_elementary(complex, faces, edges)
        expect = ("yes",)
        if kind == "harmonic":
            # The orientation-reversing loop is free in H1 of the Klein bottle
            # (the other generator is 2-torsion, so a real boundary).
            row = rng.randrange(n)
            bump = rng.randint(1, 140)

            def ident(i, j):
                return f"0,{(-j) % n}" if i == n else f"{i},{j % n}"

            for i in range(n):
                _add(rates, ident(i, row), ident(i + 1, row), bump)
            expect = ("no", "NotHomologous")
    text = _rates_text(f"k{index}", rates, scale)
    return Case(f"surface-fields#{index}:klein{n}-{kind}", "klein-elementary", text,
                extra=surface, expect=expect, size=f"klein {n}x{n}")


def _hodge_case(rng, index, n, memo):
    complex = _torus(n, memo)
    potential = ZeroForm(
        complex,
        [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in complex.vertices],
    )
    gradient = coboundary0(potential)
    homologous = boundary2(TwoChain(complex, _sine_chain(index, complex, memo)))
    coefficients = (Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 5))
    h0, h1 = harmonic_basis(complex)
    harmonic = h0.scale(coefficients[0]) + h1.scale(coefficients[1])
    field = gradient + homologous + harmonic
    expect = ("yes", gradient.values, homologous.values, coefficients)
    return Case(f"surface-fields#{index}:hodge{n}", "hodge", fio.format_field(field),
                expect=expect, size=f"torus {n}x{n}")


def _surface_case(rng, index, spec, memo):
    kind, variant, n = spec
    if kind == "torus":
        return _torus_case(rng, index, variant, n, memo)
    if kind == "klein":
        return _klein_case(rng, index, variant, n, memo)
    return _hodge_case(rng, index, n, memo)


SURFACE_MIX = [
    (24, ("torus", "yes", 16)),
    (16, ("torus", "yes", 20)),
    (8, ("torus", "yes", 24)),
    (2, ("torus", "yes", 32)),
    (8, ("torus", "harmonic", 24)),
    (4, ("torus", "violated", 16)),
    (12, ("klein", "yes", 6)),
    (8, ("klein", "yes", 7)),
    (2, ("klein", "yes", 8)),
    (4, ("klein", "harmonic", 7)),
    (4, ("klein", "violated", 6)),
    (12, ("hodge", None, 5)),
    (8, ("hodge", None, 6)),
    (2, ("hodge", None, 7)),
]

_BUILDERS = {
    "graph-peel": (GRAPH_MIX, _graph_case),
    "lattice-caratheodory": (LATTICE_MIX, _lattice_case),
    "surface-fields": (SURFACE_MIX, _surface_case),
}
WORKLOADS = tuple(_BUILDERS)


def generate(workload: str, seed: int) -> list:
    """All cases of one workload, in the fixed order the run cycles through."""
    mix, build = _BUILDERS[workload]
    memo = {}  # complexes and snapped chains shared by this call's cases only
    return [
        build(random.Random(f"{workload}/{seed}/{index}"), index, spec, memo)
        for index, spec in enumerate(_interleave(mix))
    ]
