"""Balanced-measure testing and cyclic decomposition on the integer lattice.

A finite-support nonnegative measure is balanced exactly when its first
moment vanishes (finite support makes it integrable, where balancedness and
mean zero coincide).  Balanced measures split into a nonnegative
superposition of empirical measures of cycle classes; the splitting is
constructive and exact: each round extracts a vertex of the barycentric
polytope over the current support, takes its integer multiplicities (the
coefficients cleared over their lcm), and peels off as much mass as
nonnegativity allows.  Every round kills at least one non-origin atom, so
at most ``|support|`` rounds run.  The vertices come from one warm-started
simplex, :func:`~cycledec.exact_lp.barycentric_rounds`, started once per
decomposition; it is told the killed atoms and pivots from the last
vertex to the next.  It yields each vertex as integer numerators over one
determinant, and the masses are integer numerators over one scale, so a
round stays on ints from the engine to the emitted class; rationals
appear only in the emitted weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd, lcm
from itertools import product
from operator import mul

from .errors import (
    Infeasible,
    NotBalanced,
    NotGeneralPosition,
    OracleExhausted,
    TooLarge,
    ZeroNotInterior,
)
from .exact_lp import barycentric_rounds, barycentric_vertex, exact_rank
from .ratio import ONE, ZERO, Rat, scaled, to_rat

IRREDUCIBILITY_BOUND = 24
# the largest support decompose_lattice takes: on a 2-core x86_64 container
# a Z^2 or Z^3 measure at the limit decomposes in about 2.3 or 2.9 s, and
# one of twice the support in about 9 or 10 s, the budget for one call
SUPPORT_LIMIT = 4096


def _point(p) -> tuple:
    return tuple(map(int, p))


def _class_error(entries: dict):
    """Why ``{int tuple: int}`` entries form no cycle class, or None when
    they form one; the checks run in the order :class:`LatticeCycleClass`
    makes them."""
    if any(mult <= 0 for mult in entries.values()):
        return "multiplicities must be positive"
    if not entries:
        return "cycle class must be nonempty"
    d = len(next(iter(entries)))
    if any(len(vec) != d for vec in entries):
        return "displacements of mixed dimension"
    total = [0] * d
    for vec, mult in entries.items():
        for i, c in enumerate(vec):
            total[i] += mult * c
    if any(total):
        return "weighted displacements must sum to zero"
    zero = (0,) * d
    if zero in entries and (len(entries) > 1 or entries[zero] != 1):
        return "zero displacement only allowed as the trivial class"
    return None


@dataclass(frozen=True)
class LatticeMeasure:
    """Finite-support nonnegative rational measure on Z^d.

    Zero atoms are dropped on construction, so ``atoms`` only ever holds
    strictly positive masses.
    """

    dimension: int
    atoms: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for point, mass in self.atoms.items():
            point = _point(point)
            if len(point) != self.dimension:
                raise ValueError(f"point {point} is not {self.dimension}-dimensional")
            mass = to_rat(mass)
            if mass.numerator < 0:
                raise ValueError(f"negative mass at {point}")
            if mass.numerator:
                if point in cleaned:
                    raise ValueError(f"duplicate atom at {point}")
                cleaned[point] = mass
        object.__setattr__(self, "atoms", cleaned)

    def mass(self, point) -> Rat:
        return self.atoms.get(_point(point), ZERO)

    def support(self):
        return sorted(self.atoms)

    def items(self):
        return sorted(self.atoms.items())

    def origin(self) -> tuple:
        return (0,) * self.dimension


@dataclass(frozen=True)
class LatticeCycleClass:
    """Multiset of displacement vectors with multiplicities summing to zero.

    The zero vector is only legal as the sole entry with multiplicity one
    (the cardinality-1 cycle); longer cycles visit distinct points and so
    never produce a zero displacement.
    """

    entries: dict

    def __post_init__(self):
        cleaned = {}
        for vec, mult in self.entries.items():
            vec = _point(vec)
            mult = int(mult)
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if vec in cleaned:
                raise ValueError(f"duplicate displacement {vec}")
            cleaned[vec] = mult
        error = _class_error(cleaned)
        if error is not None:
            raise ValueError(error)
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def _exact(cls, entries: dict):
        """Wrap entries already known to form a class, uncoerced and unchecked."""
        self = cls.__new__(cls)
        object.__setattr__(self, "entries", entries)
        return self

    @property
    def dimension(self) -> int:
        return len(next(iter(self.entries)))

    def total_multiplicity(self) -> int:
        return sum(self.entries.values())

    def items(self):
        return sorted(self.entries.items())

    def __hash__(self):
        return hash(tuple(self.items()))

    def __eq__(self, other):
        return isinstance(other, LatticeCycleClass) and self.entries == other.entries


@dataclass
class LatticeDecomposition:
    """Terms ``(class, weight)`` plus the mass carried by the trivial class,
    on ``Z^dimension``; ``dimension`` is None only when neither names it."""

    terms: list
    trivial_mass: Rat
    dimension: int | None

    def classes(self) -> list:
        """The terms, then the trivial mass as the one-point class at the origin."""
        if self.trivial_mass == 0:
            return list(self.terms)
        return self.terms + [(LatticeCycleClass({(0,) * self.dimension: 1}), self.trivial_mass)]

    def reconstruct(self) -> LatticeMeasure:
        return LatticeMeasure(self.dimension, class_sum(self.classes()))


def class_sum(terms) -> dict:
    """Nonzero atoms of the sum of weight times empirical measure over the terms.

    Each term's weight over its class's total multiplicity adds as integer
    numerators over the lcm of those denominators, and each atom is divided
    back once.
    """
    dens = [weight.denominator * cls.total_multiplicity() for cls, weight in terms]
    scale = lcm(*dens)
    acc: dict = {}
    for (cls, weight), den in zip(terms, dens):
        n = weight.numerator * (scale // den)
        for vec, mult in cls.entries.items():
            acc[vec] = acc.get(vec, 0) + n * mult
    return {x: Rat(m, scale) for x, m in acc.items() if m}


def empirical_measure(cls: LatticeCycleClass) -> LatticeMeasure:
    """Probability measure putting mass ``n_i / sum(n)`` on each displacement."""
    return LatticeMeasure(cls.dimension, class_sum([(cls, ONE)]))


def _moment(p: LatticeMeasure):
    """``(L, first moment times L)``, on the masses cleared to integers over
    their lcm ``L``."""
    scale, atoms = scaled(p.atoms)
    result = [0] * p.dimension
    for point, mass in atoms.items():
        for i, c in enumerate(point):
            result[i] += mass * c
    return scale, result


def mean(p: LatticeMeasure):
    """Exact first moment as a vector of rationals."""
    scale, moment = _moment(p)
    return tuple(Rat(c, scale) for c in moment)


def is_balanced(p: LatticeMeasure) -> bool:
    """Finite support means integrable, where balanced reduces to mean zero."""
    return not any(_moment(p)[1])


def irreducible_class(points) -> LatticeCycleClass:
    """The unique irreducible class spanned by points in general position.

    Over affinely independent points the barycentric vertex of the origin
    is its only barycentric representation; its coefficients are cleared
    to integer multiplicities with their lcm: ``n_i = lcm * mu_i``.
    Raises :class:`NotGeneralPosition` when the difference vectors are
    dependent and :class:`ZeroNotInterior` when the vertex does not exist
    or leaves a point out (origin outside the open simplex).
    """
    pts = [_point(p) for p in points]
    if not pts:
        raise ValueError("points must be nonempty")
    if len(set(pts)) != len(pts):
        raise NotGeneralPosition("duplicate points")
    d = len(pts[0])
    diffs = [[p[i] - pts[0][i] for i in range(d)] for p in pts[1:]]
    if diffs and exact_rank(diffs) != len(diffs):
        raise NotGeneralPosition("difference vectors are linearly dependent")
    try:
        vertex = barycentric_vertex(pts, (0,) * d)
    except Infeasible:
        raise ZeroNotInterior("origin not in the convex hull of the points")
    if len(vertex) < len(pts):
        raise ZeroNotInterior("origin not in the relative interior of the hull")
    return LatticeCycleClass(scaled({pts[j]: c for j, c in vertex.items()})[1])


def is_irreducible(cls: LatticeCycleClass) -> bool:
    """No proper nonempty sub-multiset of the displacements sums to zero.

    The empty and the full multiset always sum to zero, so the class is
    irreducible exactly when they are the only two zero-sum sub-multisets.
    Exhaustive count, meet-in-the-middle over the two halves of the
    distinct-vector list.  Refuses classes with total multiplicity above
    :data:`IRREDUCIBILITY_BOUND` via :class:`TooLarge`.
    """
    if cls.total_multiplicity() > IRREDUCIBILITY_BOUND:
        raise TooLarge(
            f"total multiplicity {cls.total_multiplicity()} exceeds {IRREDUCIBILITY_BOUND}"
        )
    items = cls.items()
    d = cls.dimension
    half = len(items) // 2

    def sums(group):
        for counts in product(*(range(n + 1) for _, n in group)):
            s = [0] * d
            for (vec, _), c in zip(group, counts):
                for i, x in enumerate(vec):
                    s[i] += c * x
            yield tuple(s)

    right = Counter(sums(items[half:]))
    zero_sums = sum(right[tuple(-c for c in s)] for s in sums(items[:half]))
    return zero_sums == 2


def _rounds(scale: int, residual: dict, origin: tuple):
    """Yield the Caratheodory rounds ``(class, weight)`` that drain ``residual``.

    ``residual`` maps the non-origin points of a balanced measure to their
    positive masses times ``scale``, as ints, and is drained in place.  One
    :func:`barycentric_rounds` engine over the sorted support gives each
    round's vertex ``mu`` as numerators ``a(w)`` over ``D``.  Its class is
    ``n(w) = a(w) / gcd(a)``, the coefficients cleared over their lcm: the
    ``a(w)`` sum to ``D``, so ``gcd(a)`` divides ``D``.  The class is
    checked on its ints (positive multiplicities, zero weighted sum), and
    a failure is an engine fault, raised as ``AssertionError``.  The round
    weighs the class by ``min residual(w) / mu(w)``, found by
    cross-multiplying ``residual(w)`` and ``n(w)``, and subtracts it, and
    the atoms it empties are deleted and reported to the engine as killed.
    When the subtraction is not a whole multiple of ``1 / scale``, every
    mass and the scale are first multiplied by the missing factor.  The
    residual stays nonnegative and balanced.
    """
    points = sorted(residual)
    index = {x: j for j, x in enumerate(points)}
    engine = barycentric_rounds(points, origin)
    killed = None
    while residual:
        try:
            den, mu = engine.send(killed)
        except Infeasible as exc:  # impossible for a balanced residual
            raise AssertionError("balanced measure with origin outside hull") from exc
        g = gcd(*mu.values()) or 1  # 0 only on a faulty all-zero vertex
        mults = {points[j]: a // g for j, a in mu.items()}
        ns = mults.values()
        if not mults or min(ns) <= 0 or any(sum(map(mul, ns, axis)) for axis in zip(*mults)):
            raise AssertionError(f"engine vertex {mu} over {den} is not a cycle class")
        cls = LatticeCycleClass._exact(mults)
        # the class weight is (least residual(w) / n(w)) / scale * sum(n);
        # the search starts from 1 / 0, above every ratio
        low, n_low = 1, 0
        for w, n in mults.items():
            if residual[w] * n_low < low * n:
                low, n_low = residual[w], n
        weight = Rat(low * cls.total_multiplicity(), scale * n_low)
        # residual(w) loses low * n(w) / n_low; make that an integer
        g = gcd(low, n_low)
        step, factor = low // g, n_low // g
        if factor != 1:
            scale *= factor
            for x in residual:
                residual[x] *= factor
        killed = []
        for w, n in mults.items():
            left = residual[w] - step * n
            if left:
                residual[w] = left
            else:
                del residual[w]
                killed.append(index[w])
        yield cls, weight


def decompose_lattice(p: LatticeMeasure) -> LatticeDecomposition:
    """Full cyclic decomposition of a balanced finite-support measure.

    Raises :class:`NotBalanced` when the mean is nonzero (equivalently, no
    cyclic decomposition exists) and then :class:`TooLarge` when the
    support has more than ``SUPPORT_LIMIT`` points.  The result reproduces
    ``p`` atom by atom exactly, using at most ``|support|`` terms.
    """
    if not is_balanced(p):
        raise NotBalanced("measure has nonzero mean", violators=[mean(p)])
    if len(p.atoms) > SUPPORT_LIMIT:
        raise TooLarge(
            f"support of {len(p.atoms)} points exceeds lattice.SUPPORT_LIMIT = {SUPPORT_LIMIT}"
        )
    scale, atoms = scaled(p.atoms)
    residual = {x: m for x, m in atoms.items() if any(x)}
    return LatticeDecomposition(
        list(_rounds(scale, residual, p.origin())), p.mass(p.origin()), p.dimension
    )


class HeavyTailOracle1D:
    """Query access to a 1-d measure with infinite first moment on each side.

    The caller asserts the two-sided heavy-tail property; it cannot be
    verified from finitely many queries.  Queries are memoized, and scans
    for the innermost positive atom give up past ``search_limit`` with
    :class:`OracleExhausted`.
    """

    def __init__(self, mass_at, search_limit: int = 10**6):
        self._mass_at = mass_at
        self._cache: dict = {}
        self.search_limit = int(search_limit)

    def mass(self, x: int) -> Rat:
        if x not in self._cache:
            value = to_rat(self._mass_at(x))
            if value < 0:
                raise ValueError(f"oracle returned negative mass at {x}")
            self._cache[x] = value
        return self._cache[x]


def decompose_1d_heavy_tail(oracle: HeavyTailOracle1D, steps: int):
    """Run the two-sided peeling scheme for ``steps`` rounds.

    Each round pairs the innermost positive atoms ``x+ >= 1`` and
    ``x- <= -1`` into the two-vector class ``{(x+, n+), (x-, n-)}`` with
    ``n+/n-`` the reduced fraction equal to ``-x-/x+``, and removes the
    largest multiple of its empirical measure that one of the two atoms
    allows (the side with the smaller directed mass empties first; ties
    empty both).  Returns the emitted ``(class, weight)`` list and a map of
    residual masses at every touched point; the residual equals the oracle
    off that map.
    """
    residual: dict = {}

    def current(x: int) -> Rat:
        return residual.get(x, oracle.mass(x))

    def scan(start: int, step: int) -> int:
        x = start
        while abs(x) <= oracle.search_limit:
            if current(x) > 0:
                return x
            x += step
        side = "positive" if step > 0 else "negative"
        raise OracleExhausted(
            f"no positive mass on the {side} side within {oracle.search_limit}"
        )

    terms = []
    x_pos, x_neg = 1, -1
    for _ in range(int(steps)):
        x_pos = scan(x_pos, 1)
        x_neg = scan(x_neg, -1)
        mp, mn = current(x_pos), current(x_neg)
        g = gcd(x_pos, -x_neg)
        n_pos, n_neg = (-x_neg) // g, x_pos // g
        if mp * x_pos + mn * x_neg >= 0:
            weight = mn * (n_pos + n_neg) / n_neg
        else:
            weight = mp * (n_pos + n_neg) / n_pos
        cls = LatticeCycleClass({(x_pos,): n_pos, (x_neg,): n_neg})
        residual[x_pos] = mp - weight * Rat(n_pos, n_pos + n_neg)
        residual[x_neg] = mn - weight * Rat(n_neg, n_pos + n_neg)
        if residual[x_pos] < 0 or residual[x_neg] < 0:
            raise AssertionError("peeling produced a negative residual")
        terms.append((cls, weight))
    return terms, residual
