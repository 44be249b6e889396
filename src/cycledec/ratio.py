"""Exact rational scalars.

Every quantity this package computes with (weights, measures, potentials,
barycentric coefficients) is an exact rational; there is no floating point
in any decision path.  The scalar type ``Rat`` is ``fractions.Fraction``:
values in lowest terms with a positive denominator that interoperate with
Python ints.  The kernels clear denominators and run on plain ints, so
``Rat`` appears only at their inputs and outputs.  ``BACKEND`` names the
scalar type for the benchmark records.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Rat = Fraction
BACKEND = "fractions"

ZERO = Rat(0)
ONE = Rat(1)


def to_rat(value) -> Rat:
    """Coerce ints, strings like ``-3/4`` and other exact rationals.

    A value that already is a ``Rat`` comes back unchanged, without a copy.

    Floats are rejected on purpose: the only sanctioned float entry point is
    the explicit grid snapping in :mod:`cycledec.discretize`.
    """
    if type(value) is Rat:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; snap them explicitly first")
    if isinstance(value, str):
        return parse_rat(value)
    return Rat(value)


def parse_rat(text: str) -> Rat:
    parts = text.strip().split("/")
    if len(parts) == 1:
        return Rat(int(parts[0]))
    if len(parts) == 2:
        num, den = int(parts[0]), int(parts[1])
        if den <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return Rat(num, den)
    raise ValueError(f"not a rational: {text!r}")


def rat_str(q) -> str:
    """Canonical ``num/den`` form, denominator always present."""
    q = to_rat(q)
    return f"{q.numerator}/{q.denominator}"


def rat_decimal(q, digits: int) -> str:
    """Rounded decimal rendering for human readers; never used internally."""
    q = to_rat(q)
    digits = max(int(digits), 0)
    scaled = q * 10**digits
    n = int(scaled.numerator)
    d = int(scaled.denominator)
    rounded = (2 * n + d) // (2 * d) if n >= 0 else -((2 * -n + d) // (2 * d))
    if digits == 0:
        return str(rounded)
    sign = "-" if rounded < 0 else ""
    magnitude = abs(rounded)
    return f"{sign}{magnitude // 10**digits}.{magnitude % 10**digits:0{digits}d}"


def rat_floor(q) -> int:
    q = to_rat(q)
    return q.numerator // q.denominator


def denominator_lcm(values) -> int:
    result = 1
    for v in values:
        result = lcm(result, int(to_rat(v).denominator))
    return result


def scaled(values: dict):
    """Clear denominators: ``(L, {key: value * L})`` with ``L`` the lcm of
    the denominators of the rational values.

    Scaling by a positive integer preserves every comparison and every
    zero, so integer values make the same choices as rational ones;
    ``Rat(n, L)`` maps a scaled value back.
    """
    scale = lcm(*(v.denominator for v in values.values()))
    return scale, {k: v.numerator * (scale // v.denominator) for k, v in values.items()}
