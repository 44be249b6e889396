"""Discretization of smooth divergence-free fields and random environments.

Smooth potentials enter as ordinary Python callables, get sampled at face
centers and snapped to exact rationals with a fixed denominator; everything
downstream is exact on the snapped values, so the discretized field is a
face boundary by telescoping, not approximately.  Every potential is read
on the unit square: each axis's face-center coordinates are reduced modulo
1 on int numerators and turned into floats once; the snapped values, the
field and the environment's weights and row totals stay int numerators
over one denominator, and ``Rat`` appears only in what is returned.

The random environment construction draws a shift of the face centers, in
face widths, and one symmetric noise value per unoriented edge, forms the
minimal rates of the shifted discretized field plus noise, and normalizes
rows exactly.  Noise at least half the potential's oscillation certifies
an elementary cyclic decomposition; the certificate carries both that
sufficient flag and the exact membership verdict.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .complexes import TwoChain, TwoComplex, VectorField, boundary2, boundary_sums
from .elementary import ReVerdict, chain_verdict, recover_chain
from .ratio import ZERO, Rat, rat_str, rats_over, scaled_list, to_rat

DEFAULT_DENOMINATOR = 10**6


def _snap_numerator(value, denominator: int) -> int:
    """``value`` times ``denominator``, rounded to an int; ``ValueError`` when
    ``value`` is not finite or its scaled value overflows a float."""
    try:
        return round(value * denominator)
    except (ValueError, OverflowError):
        raise ValueError(f"cannot snap {value!r} to a multiple of 1/{denominator}") from None


@dataclass
class PotentialSampler:
    """Snapped sampler of a 1-periodic potential.

    ``fn`` takes float coordinates on the unit square; arguments are
    reduced modulo 1, exactly, before evaluation, so periodicity holds
    exactly on the snapped grid.
    """

    fn: object
    denominator: int = DEFAULT_DENOMINATOR


def constant_potential(value: float = 0.0) -> PotentialSampler:
    return PotentialSampler(lambda u1, u2: value)


def band_potential(lo: float = 0.3, hi: float = 0.7) -> PotentialSampler:
    """Indicator of the vertical strip ``lo <= u1 < hi``; discretizes to a
    two-column field.  ``ValueError`` when the strip is empty."""
    if not lo < hi:
        raise ValueError(f"empty band: lo={lo!r} is not below hi={hi!r}")
    return PotentialSampler(lambda u1, u2: 1.0 if lo <= u1 < hi else 0.0)


def sine_potential(amplitude: float = 1.0) -> PotentialSampler:
    return PotentialSampler(
        lambda u1, u2: amplitude
        * math.sin(2 * math.pi * u1)
        * math.sin(2 * math.pi * u2)
    )


def _face_coordinates(n: int, shift) -> list:
    """Float coordinates ``(i + 1/2 + shift) / n`` for ``i < n``, reduced
    modulo 1.

    The reduction runs on int numerators over one denominator ``D``, and
    each float is one int true division by ``D``: that division is
    correctly rounded, so it equals ``float`` of the reduced ``Rat``.
    """
    shift = to_rat(shift)
    common = math.lcm(2, shift.denominator)  # of i + 1/2 + shift
    start = common // 2 + shift.numerator * (common // shift.denominator)
    return [(i * common + start) % (n * common) / (n * common) for i in range(n)]


def _face_center_numerators(potential, complex, shift) -> list:
    """The snapped potential at each face center, moved by ``shift`` face
    widths, as int numerators over ``potential.denominator``, in face
    order."""
    (n1, n2), (s1, s2) = complex.torus_shape, shift
    xs, ys = _face_coordinates(n1, s1), _face_coordinates(n2, s2)
    fn, d = potential.fn, potential.denominator
    return [_snap_numerator(float(fn(x, y)), d) for x in xs for y in ys]


def _face_center_chain(potential, complex, shift=(ZERO, ZERO)) -> TwoChain:
    """The snapped potential at the face centers of the 2-torus ``complex``
    of ``N1`` by ``N2`` faces, moved by ``shift`` face widths: face
    ``(i, j)`` is read at ``((i + 1/2 + s1) / N1, (j + 1/2 + s2) / N2)``
    on the unit square."""
    numerators = _face_center_numerators(potential, complex, shift)
    return TwoChain._exact(complex, rats_over(numerators, potential.denominator))


def discretize_potential(potential: PotentialSampler, n: int):
    """Field of exact face-center differences, plus its preimage chain.

    The chain holds the snapped potential at each face center, one ``Rat``
    per distinct snapped numerator; the field is its boundary, summed on
    those numerators, so membership in the boundary image is automatic and
    exact.  Returns ``(field, chain)`` on the ``n`` by ``n`` torus.
    """
    n = int(n)
    if n < 3:
        raise ValueError("mesh must be at least 3")
    complex = TwoComplex.torus2(n)
    chain = _face_center_chain(potential, complex)
    return boundary2(chain), chain


def oscillation(chain: TwoChain) -> Rat:
    """Max minus min of the chain values, taken on their int numerators
    over one scale."""
    scale, numerators = scaled_list(chain.values)
    return Rat(max(numerators) - min(numerators), scale)


@dataclass
class EnvironmentSpec:
    """Inputs for one random environment draw."""

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
                    row.append(rat_str(self.probabilities[(x, y)], decimals))
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

    The potential is read on the unit square, as :func:`discretize_potential`
    reads it, with the face centers moved by a shift drawn in face widths.
    The shift and the per-edge noise live on the ``1/D`` grid of the
    sampler's denominator; noise is drawn once per unoriented edge in
    a fixed edge order, so identical seeds give identical files.  The
    weights and row totals add as ints over one scale, and each
    probability is one ``Rat`` of a weight over its row total.  The
    certificate reads the field numerators and noises as the rates pass.
    """
    n1, n2 = spec.dims
    complex = TwoComplex.torus2(n1, n2)
    rng = random.Random(spec.seed)
    d = spec.potential.denominator
    shift = (Rat(rng.randrange(n1 * d), d), Rat(rng.randrange(n2 * d), d))

    chain = _face_center_numerators(spec.potential, complex, shift)
    osc = Rat(max(chain) - min(chain), d)

    # the noise lo + step * k and the field's numerators over d (each one
    # a multiple of 1/d) as ints over one scale
    scale, (lo, step, per) = scaled_list(
        [spec.noise_lo, (spec.noise_hi - spec.noise_lo) / d, Rat(1, d)]
    )
    index = complex.vertex_index
    field = [value * per for value in boundary_sums(complex, chain)]
    pairs, numerators, tails, noises = [], [], [], []
    totals = [0] * complex.n_vertices
    for (u, v), value in zip(complex.edges, field):
        noise = lo + step * rng.randrange(d + 1)
        forward, backward = (noise + value, noise) if value > 0 else (noise, noise - value)
        iu, iv = index[u], index[v]
        totals[iu] += forward
        totals[iv] += backward
        pairs += ((u, v), (v, u))
        numerators += (forward, backward)
        tails += (iu, iv)
        noises.append(noise)
    weights = dict(zip(pairs, rats_over(numerators, scale)))
    probabilities = dict(zip(pairs, map(Rat, numerators, [totals[t] for t in tails])))

    rates_pass = (scale, VectorField._exact(complex, field), noises)
    certificate = chain_verdict(recover_chain(rates_pass, complex), complex)
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
