import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from cycledec import complexes, elementary
from cycledec.complexes import TwoChain, TwoComplex, boundary2, recover_psi
from cycledec.discretize import (
    EnvironmentSpec,
    PotentialSampler,
    _face_center_chain,
    band_potential,
    constant_potential,
    discretize_potential,
    oscillation,
    random_environment,
    sine_potential,
)
from cycledec.elementary import in_Re
from cycledec.ratio import ONE, ZERO, Rat, rat_str

from oracles import (
    in_d_lambda2,
    reference_environment_weights,
    reference_face_center_chain,
    reference_periodic_reduction,
    reference_row_probabilities,
    sample,
    snap,
)
from test_complexes import fig2_field


# fixed example sequence and no example database, so every run is the same
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

periods = st.none() | st.tuples(st.integers(1, 10**6), st.integers(1, 10**6))
coordinates = st.one_of(
    st.integers(-10**30, 10**30),
    st.builds(Rat, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
)


class TestSnap:
    def test_exact_on_grid(self):
        assert snap(0.5, 10) == Rat(1, 2)
        assert snap(1 / 3, 3) == Rat(1, 3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e308])
    def test_values_that_do_not_scale_raise_value_error_naming_them(self, value):
        with pytest.raises(ValueError, match=re.escape(f"cannot snap {value!r} to a multiple of 1/1000000")):
            snap(value)

    def test_periodic_reduction(self):
        sampler = PotentialSampler(lambda u1, u2: u1, denominator=100)
        assert sample(sampler, Rat(1, 4), ZERO) == sample(sampler, Rat(5, 4), ZERO)

    def test_integer_periods(self):
        sampler = PotentialSampler(lambda u1, u2: u1 + u2, denominator=10, periods=(3, 2))
        assert sample(sampler, Rat(7, 2), ONE) == sample(sampler, Rat(1, 2), ONE)

    @EXAMPLES
    @given(coordinates, coordinates, periods)
    def test_reduction_equals_floor_formula(self, u1, u2, periods):
        # the unit square when periods is None, the integer periods otherwise
        seen = []
        sampler = PotentialSampler(lambda a, b: seen.append((a, b)) or 0.0, periods=periods)
        sample(sampler, u1, u2)
        p1, p2 = periods or (1, 1)
        reduced = reference_periodic_reduction(u1, p1), reference_periodic_reduction(u2, p2)
        assert 0 <= reduced[0] < p1 and 0 <= reduced[1] < p2
        assert seen == [tuple(map(float, reduced))]


def logged_chain(build, fn, denominator, periods, cx, shift):
    """``(values or error text, sampler arguments)`` of ``build`` on a
    sampler that logs its arguments and returns ``fn(call number, u1, u2)``."""
    seen = []

    def logged(u1, u2):
        seen.append((u1, u2))
        return fn(len(seen) - 1, u1, u2)

    try:
        values = build(PotentialSampler(logged, denominator, periods), cx, shift).values
    except ValueError as exc:
        return str(exc), seen
    assert {type(v) for v in values} == {Rat}
    return values, seen


shifts = st.one_of(
    st.integers(-3, 3),
    st.builds(Rat, st.integers(-10**7, 10**7), st.integers(1, 10**6)),
)
# integer and Rat periods
exact_periods = st.none() | st.tuples(*[st.integers(1, 7) | st.builds(Rat, st.integers(1, 40), st.integers(1, 9))] * 2)


class TestFaceCenterChain:
    @EXAMPLES
    @given(st.integers(3, 6), st.integers(3, 6), exact_periods, st.tuples(shifts, shifts),
           st.integers(1, 10**6), st.floats(-3, 3))
    def test_equals_the_fraction_reference(self, n1, n2, periods, shift, denominator, scale):
        # the same sampler arguments, floats included, and the same values
        cx = TwoComplex.torus2(n1, n2)

        def fn(k, u1, u2):
            return scale * math.sin(7 * u1 + 1) * math.cos(3 * u2) + u1 / 3

        got = logged_chain(_face_center_chain, fn, denominator, periods, cx, shift)
        assert got == logged_chain(reference_face_center_chain, fn, denominator, periods, cx, shift)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1e308])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 11), exact_periods, st.integers(2, 10**6))
    def test_a_value_that_does_not_snap_raises_the_reference_error(self, bad, at, periods, denominator):
        cx = TwoComplex.torus2(3, 4)

        def fn(k, u1, u2):
            return bad if k == at else u1 + u2

        got = logged_chain(_face_center_chain, fn, denominator, periods, cx, (ZERO, Rat(1, 3)))
        expected = logged_chain(reference_face_center_chain, fn, denominator, periods, cx, (ZERO, Rat(1, 3)))
        assert got[0] == expected[0] == f"cannot snap {bad!r} to a multiple of 1/{denominator}"
        assert got == expected


class TestDiscretizePotential:
    def test_constant_gives_zero_field(self):
        field, chain = discretize_potential(constant_potential(3.7), 4)
        assert field.is_zero()
        assert len(set(chain.values)) == 1

    def test_sine_membership_and_round_trip(self):
        field, chain = discretize_potential(sine_potential(), 8)
        assert in_d_lambda2(field)
        assert boundary2(chain) == field
        recovered = recover_psi(field)
        deltas = {a - b for a, b in zip(recovered.values, chain.values)}
        assert len(deltas) == 1

    def test_band_matches_two_column_field(self):
        field, _ = discretize_potential(band_potential(0.3, 0.7), 10)
        cx_ref, reference = fig2_field(10)
        assert sorted(map(abs, field.values)) == sorted(map(abs, reference.values))
        nonzero = {
            field.complex.edges[eid][0][0]
            for eid, v in enumerate(field.values)
            if v != 0
        }
        assert nonzero == {3, 7}

    def test_small_mesh_rejected(self):
        with pytest.raises(ValueError):
            discretize_potential(constant_potential(), 2)

    @pytest.mark.parametrize("lo, hi", [(0.9, 0.1), (0.5, 0.5)])
    def test_empty_band_refused_naming_both_ends(self, lo, hi):
        with pytest.raises(ValueError, match=re.escape(f"empty band: lo={lo!r} is not below hi={hi!r}")):
            band_potential(lo, hi)


def grid_oscillation(sampler, n):
    """Max minus min of the snapped potential over the face centers of the
    ``n`` by ``n`` torus."""
    return oscillation(discretize_potential(sampler, n)[1])


class TestOscillation:
    def test_constant(self):
        assert grid_oscillation(constant_potential(5.0), 4) == ZERO

    def test_band(self):
        assert grid_oscillation(band_potential(), 10) == ONE

    def test_sine_scan(self):
        _, chain = discretize_potential(sine_potential(), 8)
        assert oscillation(chain) == max(chain.values) - min(chain.values)

    @EXAMPLES
    @given(st.data(), st.integers(3, 5), st.integers(3, 5))
    def test_equals_rat_max_minus_min_on_drawn_chains(self, data, n1, n2):
        # int and Rat values, as an uncoerced chain may hold them
        cx = TwoComplex.torus2(n1, n2)
        value = st.integers(-10**20, 10**20) | st.builds(Rat, st.integers(-10**20, 10**20), st.integers(1, 10**9))
        chain = TwoChain._exact(cx, data.draw(st.lists(value, min_size=cx.n_faces, max_size=cx.n_faces)))
        expected = max(chain.values) - min(chain.values)
        got = oscillation(chain)
        assert type(got) is Rat
        assert (got, rat_str(got)) == (expected, rat_str(expected))


class TestSufficientCheck:
    # symmetric noise of at least half the oscillation certifies membership
    def test_half_oscillation_passes(self):
        assert Rat(1, 2) >= grid_oscillation(band_potential(), 10) / 2

    def test_below_half_fails(self):
        assert not Rat(1, 4) >= grid_oscillation(band_potential(), 10) / 2

    def test_zero_oscillation_any_noise(self):
        assert ZERO >= grid_oscillation(constant_potential(), 4) / 2

    def test_sufficient_implies_membership(self):
        sampler = band_potential()
        n = 10
        half = grid_oscillation(sampler, n) / 2
        field, _ = discretize_potential(sampler, n)
        from cycledec.complexes import field_to_rates

        rates = field_to_rates(field)
        for u, v in field.complex.edges:
            rates[(u, v)] = rates.get((u, v), ZERO) + half
            rates[(v, u)] = rates.get((v, u), ZERO) + half
        assert in_Re(rates, field.complex).ok


def band_spec(seed, lo=Rat(1, 2), hi=None):
    sampler = PotentialSampler(
        lambda u1, u2: 1.0 if 1 <= u1 < 3 else 0.0, periods=(4, 4)
    )
    return EnvironmentSpec(sampler, lo, hi if hi is not None else lo, seed, (4, 4))


class TestRandomEnvironment:
    def test_zero_potential_uniform_walk(self):
        spec = EnvironmentSpec(constant_potential(), ONE, ONE, 7, (4, 4))
        env = random_environment(spec)
        assert set(env.probabilities.values()) == {Rat(1, 4)}
        assert env.certificate.ok and env.noise_certified

    def test_rows_sum_to_one_exactly(self):
        env = random_environment(band_spec(3))
        n1, n2 = env.spec.dims
        for i in range(n1):
            for j in range(n2):
                x = (i, j)
                total = sum(
                    (
                        env.probabilities[(x, y)]
                        for y in (
                            ((i + 1) % n1, j),
                            (i, (j + 1) % n2),
                            ((i - 1) % n1, j),
                            (i, (j - 1) % n2),
                        )
                    ),
                    ZERO,
                )
                assert total == ONE

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([constant_potential(0.25), band_potential(), sine_potential(0.5)]),
        st.tuples(st.integers(3, 5), st.integers(3, 5)),
        st.integers(0, 10**6),
        st.builds(Rat, st.integers(1, 6), st.integers(1, 6)),
    )
    def test_rows_equal_the_four_neighbour_normalisation(self, sampler, dims, seed, lo):
        env = random_environment(EnvironmentSpec(sampler, lo, 2 * lo, seed, dims))
        assert env.probabilities == reference_row_probabilities(env.weights, dims)

    @pytest.mark.parametrize("kind", ["constant", "band", "sine", "rat periods"])
    def test_weights_equal_the_fraction_reference(self, kind, monkeypatch):
        # the certificate is decided on the environment's own numerators:
        # no rates pass runs while it is drawn, and the whole verdict equals
        # that of in_Re on the returned weights
        passes = []
        for module in (complexes, elementary):
            real = module._field_and_symmetric
            monkeypatch.setattr(module, "_field_and_symmetric",
                                lambda *args, real=real: passes.append(1) or real(*args))
        seen = set()

        @settings(max_examples=12, deadline=None, derandomize=True, database=None)
        @given(
            dims=st.tuples(st.integers(3, 5), st.integers(3, 5)),
            denominator=st.sampled_from([10**6, 1, 7, 360]),
            seed=st.integers(0, 10**6),
            lo=st.builds(Rat, st.integers(1, 9), st.integers(1, 12)),
            span=st.builds(Rat, st.integers(0, 9), st.integers(1, 12)),
        )
        def agree(dims, denominator, seed, lo, span):
            sampler = {
                "constant": constant_potential(0.25),
                "band": band_potential(1, 2.5),
                "sine": sine_potential(0.5),
                "rat periods": PotentialSampler(lambda u1, u2: math.cos(u1 * u2) - u2 / 5,
                                                periods=tuple(map(Rat, dims))),
            }[kind]
            sampler.denominator = denominator
            spec = EnvironmentSpec(sampler, lo, lo + span, seed, dims)
            passes.clear()
            env = random_environment(spec)
            assert passes == []
            shift, osc, weights, probabilities = reference_environment_weights(spec)
            assert (env.shift, env.oscillation) == (shift, osc)
            assert list(env.weights.items()) == list(weights.items())
            assert list(env.probabilities.items()) == list(probabilities.items())
            values = [env.oscillation, *env.weights.values(), *env.probabilities.values()]
            assert {type(v) for v in values} == {Rat}
            assert env.certificate == in_Re(env.weights, env.complex)
            assert passes == [1]
            seen.add(env.certificate.ok)

        agree()
        # the constant potential, and the sine one (its waves repeat at every
        # lattice step), have the zero field, which any noise certifies
        assert seen == ({True} if kind in ("constant", "sine") else {True, False})

    def test_sufficient_noise_certified(self):
        for seed in range(5):
            env = random_environment(band_spec(seed))
            assert env.noise_certified
            assert env.certificate.ok

    def test_weak_noise_gets_exact_verdict(self):
        env = random_environment(band_spec(11, lo=Rat(1, 100)))
        assert not env.noise_certified
        assert env.certificate.ok == in_Re(env.weights, env.complex).ok

    def test_bit_identical_repeats(self):
        first = random_environment(band_spec(21)).serialize()
        second = random_environment(band_spec(21)).serialize()
        assert first == second

    def test_different_seeds_differ(self):
        assert random_environment(band_spec(1)).serialize() != random_environment(
            band_spec(2)
        ).serialize()

    @pytest.mark.parametrize(
        "value, digits, text", [(Rat(5, 2), 0, "5/2~3"), (Rat(1, 8), 2, "1/8~0.13")]
    )
    def test_decimal_copies_round_exactly(self, value, digits, text):
        # a float rendering rounds both halves to even: ~2 and ~0.12
        env = random_environment(band_spec(3))
        env.probabilities = dict.fromkeys(env.probabilities, value)
        row = env.serialize(digits).splitlines()[3]
        assert row == "0 0 : " + " ".join([text] * 4)

    def test_noise_bounds_validated(self):
        with pytest.raises(ValueError):
            band_spec(1, lo=ZERO)

    def test_spec_leaves_the_callers_sampler_alone(self):
        sampler = sine_potential(1.0)
        field_before, _ = discretize_potential(sampler, 4)
        spec = EnvironmentSpec(sampler, ONE, ONE, 3, (4, 4))
        assert sampler.periods is None and spec.potential.periods == (4, 4)
        assert discretize_potential(sampler, 4)[0].values == field_before.values
        other = EnvironmentSpec(sampler, ONE, ONE, 3, (3, 5))
        assert other.potential.periods == (3, 5)
        assert random_environment(spec).serialize() == random_environment(
            EnvironmentSpec(sine_potential(1.0), ONE, ONE, 3, (4, 4))
        ).serialize()


def test_environment_periods_must_match_the_dims():
    sampler = PotentialSampler(lambda u1, u2: 0.0, periods=(4, 5))
    with pytest.raises(ValueError, match="^potential periods must match the torus dims$"):
        EnvironmentSpec(sampler, ONE, ONE, 1, (4, 4))
