"""Discretization of smooth divergence-free fields and random environments.

Smooth potentials enter as ordinary Python callables, get sampled at face
centers and snapped to exact rationals with a fixed denominator; everything
downstream is exact on the snapped values, so the discretized field is a
face boundary by telescoping, not approximately.

The random environment construction draws a grid shift for the potential
and one symmetric noise value per unoriented edge, forms the minimal rates
of the shifted discretized field plus noise, and normalizes rows exactly.
Noise at least half the potential's oscillation certifies an elementary
cyclic decomposition; the certificate carries both that sufficient flag and
the exact membership verdict.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .complexes import TwoChain, TwoComplex, boundary2, field_to_rates
from .elementary import ReVerdict, in_Re
from .ratio import ZERO, Rat, rat_decimal, rat_str, to_rat

DEFAULT_DENOMINATOR = 10**6


def snap(value: float, denominator: int = DEFAULT_DENOMINATOR) -> Rat:
    """Nearest rational with the given denominator; ``ValueError`` when
    ``value`` is not finite or its scaled value overflows a float."""
    try:
        return Rat(round(value * denominator), denominator)
    except (ValueError, OverflowError):
        raise ValueError(f"cannot snap {value!r} to a multiple of 1/{denominator}") from None


@dataclass
class PotentialSampler:
    """Snapped sampler of a periodic potential.

    ``fn`` takes float coordinates; arguments are reduced modulo the
    periods (the unit square when ``periods`` is None) before evaluation,
    so periodicity holds exactly on the snapped grid.
    """

    fn: object
    denominator: int = DEFAULT_DENOMINATOR
    periods: tuple | None = None

    def sample(self, u1, u2) -> Rat:
        p1, p2 = self.periods if self.periods else (1, 1)
        u1, u2 = to_rat(u1) % p1, to_rat(u2) % p2
        return snap(float(self.fn(float(u1), float(u2))), self.denominator)


def constant_potential(value: float = 0.0) -> PotentialSampler:
    return PotentialSampler(lambda u1, u2: value)


def band_potential(lo: float = 0.3, hi: float = 0.7) -> PotentialSampler:
    """Indicator of a vertical strip; discretizes to a two-column field."""
    return PotentialSampler(lambda u1, u2: 1.0 if lo <= u1 < hi else 0.0)


def sine_potential(amplitude: float = 1.0) -> PotentialSampler:
    return PotentialSampler(
        lambda u1, u2: amplitude
        * math.sin(2 * math.pi * u1)
        * math.sin(2 * math.pi * u2)
    )


def _face_center_chain(potential, complex, shift=(ZERO, ZERO)) -> TwoChain:
    n1, n2 = complex.torus_shape
    mesh = potential.periods is None
    values = []
    for i in range(n1):
        for j in range(n2):
            if mesh:
                u1 = Rat(2 * i + 1, 2 * n1) + shift[0]
                u2 = Rat(2 * j + 1, 2 * n2) + shift[1]
            else:
                u1 = Rat(2 * i + 1, 2) + shift[0]
                u2 = Rat(2 * j + 1, 2) + shift[1]
            values.append(potential.sample(u1, u2))
    return TwoChain(complex, values)


def discretize_potential(potential: PotentialSampler, n: int):
    """Field of exact face-center differences, plus its preimage chain.

    The chain holds the snapped potential at each face center; the field
    is its boundary, so membership in the boundary image is automatic and
    exact.  Returns ``(field, chain)`` on the ``n`` by ``n`` torus.
    """
    n = int(n)
    if n < 3:
        raise ValueError("mesh must be at least 3")
    complex = TwoComplex.torus2(n)
    chain = _face_center_chain(potential, complex)
    return boundary2(chain), chain


def oscillation(chain: TwoChain) -> Rat:
    """Max minus min of the chain values."""
    return max(chain.values) - min(chain.values)


@dataclass
class EnvironmentSpec:
    """Inputs for one random environment draw; it holds its own copy of the sampler."""

    potential: PotentialSampler
    noise_lo: Rat
    noise_hi: Rat
    seed: int
    dims: tuple

    def __post_init__(self):
        self.noise_lo = to_rat(self.noise_lo)
        self.noise_hi = to_rat(self.noise_hi)
        self.dims = (int(self.dims[0]), int(self.dims[1]))
        if not 0 < self.noise_lo <= self.noise_hi:
            raise ValueError("noise bounds must satisfy 0 < lo <= hi")
        if self.potential.periods is None:
            self.potential = replace(self.potential, periods=self.dims)
        elif tuple(self.potential.periods) != self.dims:
            raise ValueError("potential periods must match the torus dims")


@dataclass
class Environment:
    """One realization: exact transition probabilities plus certificate."""

    complex: TwoComplex
    weights: dict
    probabilities: dict
    certificate: ReVerdict
    noise_certified: bool
    oscillation: Rat
    shift: tuple
    spec: EnvironmentSpec

    def serialize(self, decimals: int | None = None) -> str:
        n1, n2 = self.spec.dims
        lines = [
            f"environment {n1}x{n2} seed={self.spec.seed} "
            f"denominator={self.spec.potential.denominator}",
            f"# noise [{rat_str(self.spec.noise_lo)}, {rat_str(self.spec.noise_hi)}]",
            f"# shift {rat_str(self.shift[0])} {rat_str(self.shift[1])}",
        ]
        for i in range(n1):
            for j in range(n2):
                x = (i, j)
                row = []
                for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                    y = ((i + dx) % n1, (j + dy) % n2)
                    value = rat_str(self.probabilities[(x, y)])
                    if decimals is not None:
                        value += "~" + rat_decimal(self.probabilities[(x, y)], decimals)
                    row.append(value)
                lines.append(f"{i} {j} : " + " ".join(row))
        lines.append(
            f"# certificate: elementary={'yes' if self.certificate.ok else 'no'}"
            + (
                f" witness_c={rat_str(self.certificate.witness_c)}"
                if self.certificate.witness_c is not None
                else f" reason={self.certificate.reason}"
            )
        )
        lines.append(
            f"# certificate: noise_ge_half_oscillation="
            f"{'yes' if self.noise_certified else 'no'} "
            f"oscillation={rat_str(self.oscillation)}"
        )
        return "\n".join(lines) + "\n"


def random_environment(spec: EnvironmentSpec) -> Environment:
    """Draw one periodic environment, deterministically from the seed.

    The potential shift and the per-edge noise live on the ``1/D`` grid of
    the sampler's denominator; noise is drawn once per unoriented edge in
    a fixed edge order, so identical seeds give identical files.
    """
    n1, n2 = spec.dims
    complex = TwoComplex.torus2(n1, n2)
    rng = random.Random(spec.seed)
    d = spec.potential.denominator
    shift = (Rat(rng.randrange(n1 * d), d), Rat(rng.randrange(n2 * d), d))

    chain = _face_center_chain(spec.potential, complex, shift)
    field = boundary2(chain)
    osc = oscillation(chain)
    minimal = field_to_rates(field)

    span = spec.noise_hi - spec.noise_lo
    weights = {}
    for u, v in complex.edges:
        noise = spec.noise_lo + span * Rat(rng.randrange(d + 1), d)
        weights[(u, v)] = minimal.get((u, v), ZERO) + noise
        weights[(v, u)] = minimal.get((v, u), ZERO) + noise

    totals = dict.fromkeys(complex.vertices, ZERO)
    for (x, _), w in weights.items():
        totals[x] += w
    probabilities = {(x, y): w / totals[x] for (x, y), w in weights.items()}

    certificate = in_Re(weights, complex)
    certified = spec.noise_lo >= osc / 2
    return Environment(
        complex,
        weights,
        probabilities,
        certificate,
        certified,
        osc,
        shift,
        spec,
    )
