"""Size ladders for the exact kernels, with an output digest per rung.

Usage, from the root of a checkout::

    python3 benchmarks/bench.py --label change --out BENCH_25.json
    python3 benchmarks/bench.py --src ../parent/src --label parent --out BENCH_25.json --budget 10

Wall times drift by tens of percent between runs minutes apart, so a
comparison of two checkouts alternates them, one whole ladder each, under
the labels ``parent``, ``change``, ``parent-2``, ``change-2``, and so on.

Seven ladders, each on inputs generated from a fixed seed:

* ``hodge``: :func:`hodge_decompose` on a random n x n torus field with
  small rational values, n = 6, 10, 14, 20, 28, 40.  The Laplace system
  goes through the p-adic solver ``exact_lp._dixon_solve``, so this is the
  sparse exact-solve ladder.
* ``lattice``: :func:`decompose_lattice` on a balanced Z^2 measure that
  sums the empirical measures of random closed walks (steps within the
  rung's ``REACH``), support about 40, 80, 160, 320, 640, 1280, checked
  to reconstruct the measure in at most ``|support|`` terms.  The
  Caratheodory rounds run on one warm-started revised simplex,
  ``exact_lp.barycentric_rounds``, per measure.
* ``elementary``: :func:`in_Re` and then :func:`elementary_decompose` on
  decomposable n x n torus rates, n = 16, 24, 32: the minimal rates of the
  boundary of a random chain (values over denominators up to 12) plus
  enough symmetric noise on every edge.  This is the interval pass on the
  recovered chain.
* ``klein``: the same :func:`in_Re` and :func:`elementary_decompose` on
  decomposable rates of the same construction on the n x n grid of the
  Klein bottle, n = 6, 10, 14, 18.  This is the chain recovery on a
  non-orientable surface, where the face-tree integration solves for the
  one constant of face 0.
* ``peel``: :func:`decompose_graph` and then
  :func:`format_graph_decomposition` on a balanced digraph that sums
  random 2- to 8-cycles on |E|/4 vertices, |E| about 400, 800, 1600, 3200,
  6400, checked to reconstruct the weights in at most ``|E|`` terms.  This
  is the greedy cycle peel.
* ``birkhoff``: :func:`birkhoff_decompose` on an n x n bistochastic
  matrix, a mixture of n/2 random permutations with weights 1..12 over
  their total, n = 24, 48, 96.  This is the matching kept across rounds.
* ``io``: the file layer on the rates of the ``elementary`` ladder, n = 16,
  32, 64: :func:`parse_graph` and :func:`labels_to_coords` on the rates
  file, :func:`format_elementary_decomposition` of their decomposition
  (computed before the timing), then :func:`parse_decomposition` and
  :func:`reconstruct_on_complex` of that text, checked against the rates.

Each rung runs ``REPEATS`` times in this process and records the best wall
time, all wall times and the sha256 of its output text (the three Hodge
parts and the harmonic coefficients; the ``.dec`` text; the witness
constant and the ``.dec`` text, twice; the ``.dec`` text, three times),
which must be the same on every repeat.
The record also carries the commit and a digest of the sources of the
measured ``cycledec``, the Python version and the rational backend the
ladders ran on.  ``--src`` measures another checkout's ``src``; ``--out``
merges the record into a JSON file under ``--label`` and otherwise it
goes to stdout.  ``--budget S`` ends a ladder after its first rung whose
best time is above ``S`` seconds, so that an older checkout whose curve
is much steeper still finishes; the record then lacks the larger rungs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
# walk steps per lattice rung: (2 * reach + 1)^2 lattice points leave room
# for the support (625 for 320, 1681 for 640, 3249 for 1280)
REACH = {40: 12, 80: 12, 160: 12, 320: 12, 640: 20, 1280: 28}
LADDERS = {
    "hodge": (6, 10, 14, 20, 28, 40),
    "lattice": (40, 80, 160, 320, 640, 1280),
    "elementary": (16, 24, 32),
    "klein": (6, 10, 14, 18),
    "peel": (400, 800, 1600, 3200, 6400),
    "birkhoff": (24, 48, 96),
    "io": (16, 32, 64),
}


def balanced_measure(support: int, seed: int = 7) -> dict:
    """Atoms of a mean-zero Z^2 measure with at least ``support`` points:
    a sum of empirical measures of closed walks with steps within
    ``REACH[support]``, masses over 6."""
    reach = REACH[support]
    rng = random.Random(f"lattice/{support}/{seed}")
    atoms = {}
    while len(atoms) < support:
        steps = [(rng.randint(-reach, reach), rng.randint(-reach, reach)) for _ in range(rng.randint(1, 3))]
        closing = (-sum(s[0] for s in steps), -sum(s[1] for s in steps))
        walk = steps + [closing]
        if not all(any(s) for s in walk) or max(map(abs, closing)) > reach:
            continue
        mass = Fraction(rng.randint(1, 12), 6)
        for point in walk:
            atoms[point] = atoms.get(point, 0) + mass
    return atoms


def surface_rates(cx, rng) -> dict:
    """Decomposable rates on the complex ``cx``, keyed by vertex pairs: the
    boundary of a random chain with values in [-9, 9] over denominators up
    to 12, as minimal rates, plus symmetric noise of at least 9 on every
    edge, which covers half the chain's range."""
    from cycledec.complexes import TwoChain, boundary2, field_to_rates

    chain = TwoChain(cx, [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(cx.n_faces)])
    rates = field_to_rates(boundary2(chain))
    for u, v in cx.edges:
        noise = 9 + Fraction(rng.randint(0, 4), rng.randint(1, 12))
        for e in ((u, v), (v, u)):
            rates[e] = rates.get(e, 0) + noise
    return rates


def torus_rates(n: int, seed: int = 7):
    """The n x n torus and :func:`surface_rates` on it, keyed
    ``((i, j), (k, l))``."""
    from cycledec.complexes import TwoComplex

    cx = TwoComplex.torus2(n)
    return cx, surface_rates(cx, random.Random(f"elementary/{n}/{seed}"))


def cycle_sum_graph(n_edges: int, seed: int = 7) -> dict:
    """A balanced digraph keyed ``(u, v)`` with at least ``n_edges`` edges:
    random simple 2- to 8-cycles on ``n_edges // 4`` int vertices, each
    with weight 1..12 over 1..6."""
    rng = random.Random(f"peel/{n_edges}/{seed}")
    vertices = range(n_edges // 4)
    weights = {}
    while len(weights) < n_edges:
        cycle = rng.sample(vertices, rng.randint(2, 8))
        w = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        for e in zip(cycle, cycle[1:] + cycle[:1]):
            weights[e] = weights.get(e, 0) + w
    return weights


def permutation_mixture(n: int, seed: int = 7) -> dict:
    """A bistochastic n x n matrix keyed ``(row, column)``: n/2 random
    permutations with weights 1..12, over their total."""
    rng = random.Random(f"birkhoff/{n}/{seed}")
    raw = [rng.randint(1, 12) for _ in range(n // 2)]
    total = sum(raw)
    weights = {}
    for a in raw:
        image = list(range(n))
        rng.shuffle(image)
        for i, j in enumerate(image):
            weights[(i, j)] = weights.get((i, j), 0) + Fraction(a, total)
    return weights


def rung_case(kernel: str, size: int):
    """The input of one rung, its description and a function mapping it to
    output text."""
    # imported here, after main() has put --src first on the path
    from cycledec import io as fio
    from cycledec.complexes import TwoComplex, VectorField, hodge_decompose
    from cycledec.elementary import elementary_decompose, in_Re
    from cycledec.finite_graph import WeightedDigraph, birkhoff_decompose, decompose_graph
    from cycledec.lattice import LatticeMeasure, decompose_lattice
    from cycledec.ratio import Rat, rat_str

    if kernel == "hodge":
        cx = TwoComplex.torus2(size)
        rng = random.Random(f"hodge/{size}")
        field = VectorField(
            cx, [Rat(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(cx.n_edges)]
        )

        def run(phi):
            parts = hodge_decompose(phi)
            text = [" ".join(rat_str(c) for c in parts.harmonic_coefficients)]
            for part in (parts.gradient, parts.homologous, parts.harmonic):
                text.append(fio.format_field(part))
            return "\n".join(text)

        return field, f"{cx.n_edges} edges", run
    if kernel == "lattice":
        measure = LatticeMeasure(2, balanced_measure(size))

        def run(p):
            dec = decompose_lattice(p)
            if dec.reconstruct().atoms != p.atoms or len(dec.terms) > len(p.atoms):
                raise RuntimeError(f"lattice {size}: the decomposition does not rebuild the measure")
            return fio.format_lattice_decomposition(dec, "bench")

        return measure, f"support {len(measure.atoms)}", run
    if kernel in ("elementary", "klein"):
        if kernel == "elementary":
            cx, rates = torus_rates(size)
        else:
            cx = TwoComplex.klein_grid(size, size)
            rates = surface_rates(cx, random.Random(f"klein/{size}"))

        def run(r):
            verdict = in_Re(r, cx)
            dec = elementary_decompose(r, cx)
            return rat_str(verdict.witness_c) + "\n" + fio.format_elementary_decomposition(dec, cx, "bench")

        return rates, f"{cx.n_edges} edges", run
    if kernel == "peel":
        weights = cycle_sum_graph(size)
        graph = WeightedDigraph(tuple(range(size // 4)), weights)

        def run(g):
            dec = decompose_graph(g)
            if not dec.matches(g) or len(dec.terms) > len(g.weights):
                raise RuntimeError(f"peel {size}: the decomposition does not rebuild the weights")
            return fio.format_graph_decomposition(dec, "bench")

        return graph, f"{len(graph.weights)} edges", run
    if kernel == "birkhoff":
        weights = permutation_mixture(size)
        graph = WeightedDigraph(tuple(range(size)), weights, allow_self_loops=True)

        def run(g):
            return fio.format_birkhoff_decomposition(birkhoff_decompose(g), "bench")

        return graph, f"{len(graph.weights)} entries", run
    if kernel == "io":
        cx, rates = torus_rates(size)
        dec = elementary_decompose(rates, cx)
        labelled = {(fio.coords_label(u), fio.coords_label(v)): w for (u, v), w in rates.items()}
        text = fio.format_graph("bench", labelled)

        def run(graph_text):
            _, weights = fio.parse_graph(graph_text)
            parsed = fio.labels_to_coords(weights)
            dec_text = fio.format_elementary_decomposition(dec, cx, "bench")
            mode, _, records = fio.parse_decomposition(dec_text)
            if parsed != rates or fio.reconstruct_on_complex(mode, records, cx) != rates:
                raise RuntimeError(f"io {size}: the rates do not survive a write and a read")
            return dec_text

        return text, f"{len(text)} bytes of rates", run
    raise ValueError(f"unknown kernel {kernel!r}")


def run_rung(kernel: str, size: int, repeats: int = REPEATS) -> dict:
    data, described, run = rung_case(kernel, size)
    times, digests = [], set()
    for _ in range(repeats):
        started = time.perf_counter()
        text = run(data)
        times.append(time.perf_counter() - started)
        digests.add(hashlib.sha256(text.encode()).hexdigest())
    if len(digests) != 1:
        raise RuntimeError(f"{kernel} {size}: output differs between repeats")
    return {
        "kernel": kernel,
        "size": size,
        "input": described,
        "wall_s": min(times),
        "wall_s_all": times,
        "digest": digests.pop(),
    }


def _commit(src: Path) -> str:
    """HEAD of the checkout holding ``src``, marked when ``src`` has edits."""
    try:
        head = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(src), "status", "--porcelain", "--", "."],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"
    return head + ("+edits" if dirty else "")


def provenance(src: Path) -> dict:
    import cycledec

    digest = hashlib.sha256()
    for path in sorted((src / "cycledec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(src),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "backend": cycledec.BACKEND,
        "machine": platform.machine(),
        "repeats": REPEATS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding cycledec")
    parser.add_argument("--label", default="run", help="key of the record in --out")
    parser.add_argument("--out", help="JSON file to merge the record into")
    parser.add_argument("--budget", type=float, help="seconds after which a ladder stops")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))

    rungs = []
    for kernel, sizes in LADDERS.items():
        for size in sizes:
            rung = run_rung(kernel, size)
            print(f"{kernel:10s} {size:4d}  {rung['wall_s']:8.3f} s  {rung['digest'][:16]}", file=sys.stderr)
            rungs.append(rung)
            if args.budget is not None and rung["wall_s"] > args.budget:
                break
    record = {"provenance": provenance(src), "rungs": rungs}
    if not args.out:
        print(json.dumps(record, indent=1))
        return 0
    out = Path(args.out)
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged[args.label] = record
    out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
