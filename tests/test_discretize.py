import pytest

from cycledec.complexes import boundary2, recover_psi
from cycledec.discretize import (
    EnvironmentSpec,
    PotentialSampler,
    band_potential,
    check_re_sufficient,
    constant_potential,
    discretize_potential,
    oscillation_bound,
    random_environment,
    sine_potential,
    snap,
)
from cycledec.elementary import in_Re
from cycledec.ratio import ONE, ZERO, Rat

from oracles import in_d_lambda2
from test_complexes import fig2_field


class TestSnap:
    def test_exact_on_grid(self):
        assert snap(0.5, 10) == Rat(1, 2)
        assert snap(1 / 3, 3) == Rat(1, 3)

    def test_periodic_reduction(self):
        sampler = PotentialSampler(lambda u1, u2: u1, denominator=100)
        assert sampler.sample(Rat(1, 4), ZERO) == sampler.sample(Rat(5, 4), ZERO)

    def test_integer_periods(self):
        sampler = PotentialSampler(lambda u1, u2: u1 + u2, denominator=10, periods=(3, 2))
        assert sampler.sample(Rat(7, 2), ONE) == sampler.sample(Rat(1, 2), ONE)


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


class TestOscillation:
    def test_constant(self):
        assert oscillation_bound(constant_potential(5.0), 4) == ZERO

    def test_band(self):
        assert oscillation_bound(band_potential(), 10) == ONE

    def test_sine_scan(self):
        sampler = sine_potential()
        _, chain = discretize_potential(sampler, 8)
        assert oscillation_bound(sampler, 8) == max(chain.values) - min(chain.values)


class TestSufficientCheck:
    def test_half_oscillation_passes(self):
        assert check_re_sufficient(band_potential(), 10, Rat(1, 2))

    def test_below_half_fails(self):
        assert not check_re_sufficient(band_potential(), 10, Rat(1, 4))

    def test_zero_oscillation_any_noise(self):
        assert check_re_sufficient(constant_potential(), 4, ZERO)

    def test_sufficient_implies_membership(self):
        sampler = band_potential()
        n = 10
        half = oscillation_bound(sampler, n) / 2
        assert check_re_sufficient(sampler, n, half)
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
