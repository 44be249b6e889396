"""Compare the rational-scalar backends on the package's hot kernels.

The compiled core is gmpy2's ``mpq``; the pure-Python fallback is
``fractions.Fraction``.  The backend is pinned per process via
``CYCLEDEC_RATIONAL_BACKEND``, so each run happens in a subprocess.

When gmpy2 cannot be imported its leg is reported as skipped.

Usage: python benchmarks/bench_scalars.py
"""

from __future__ import annotations

import os
import subprocess
import sys

WORKLOAD = r"""
import random
import time

from cycledec.complexes import TwoChain, TwoComplex, VectorField, boundary2, field_to_rates, hodge_decompose
from cycledec.elementary import brute_force_Re_oracle, in_Re
from cycledec.lattice import LatticeMeasure, decompose_lattice
from cycledec.ratio import BACKEND, Rat, ZERO

rng = random.Random(42)


def bench(label, fn, repeat):
    started = time.perf_counter()
    for _ in range(repeat):
        fn()
    elapsed = time.perf_counter() - started
    print(f"  {label:34s} {elapsed:8.3f}s  ({repeat} runs)")
    return elapsed


cx3 = TwoComplex.torus2(3)
cx5 = TwoComplex.torus2(5)

def random_rates():
    psi = TwoChain(cx3, [Rat(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(9)])
    rates = dict(field_to_rates(boundary2(psi)))
    for u, v in cx3.edges:
        bump = Rat(rng.randrange(0, 3), 2)
        if bump:
            rates[(u, v)] = rates.get((u, v), ZERO) + bump
            rates[(v, u)] = rates.get((v, u), ZERO) + bump
    return rates

instances = [random_rates() for _ in range(20)]
fields = [
    VectorField(cx5, [Rat(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(cx5.n_edges)])
    for _ in range(5)
]
def random_measure():
    atoms = {}
    for _ in range(6):
        vs = [tuple(rng.randrange(-4, 5) for _ in range(2)) for _ in range(3)]
        vs.append(tuple(-sum(v[i] for v in vs) for i in range(2)))
        m = Rat(rng.randrange(1, 9), rng.randrange(1, 20))
        for v in vs:
            atoms[v] = atoms.get(v, ZERO) + m
    return LatticeMeasure(2, atoms)
measures = [random_measure() for _ in range(20)]

print(f"backend: {BACKEND}")
total = 0.0
total += bench("exact LP oracle, 20 instances", lambda: [brute_force_Re_oracle(r, cx3) for r in instances], 3)
total += bench("interval membership, 20 instances", lambda: [in_Re(r, cx3) for r in instances], 10)
total += bench("hodge split on the 5x5 torus", lambda: [hodge_decompose(f) for f in fields], 3)
total += bench("lattice decomposition, 20 measures", lambda: [decompose_lattice(p) for p in measures], 3)
print(f"  total {total:.3f}s")
"""


def run(backend: str) -> None:
    env = dict(os.environ, CYCLEDEC_RATIONAL_BACKEND=backend)
    print(f"--- {backend} ---", flush=True)
    if backend == "gmpy2":
        try:
            import gmpy2  # noqa: F401
        except ImportError:
            print("  skipped: gmpy2 is not importable")
            return
    subprocess.run([sys.executable, "-c", WORKLOAD], env=env, check=True)


if __name__ == "__main__":
    run("fractions")
    run("gmpy2")
