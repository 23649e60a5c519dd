"""Front-end tests: steering vectors, aliasing structure, noise statistics."""
import math

import numpy as np
import pytest
from scipy import stats

from ffast.frontend import BinBank, bin_index, steering_vector, subsample_and_transform
from ffast.planner import FrontendPlan
from ffast.spectral import (
    Constellation,
    SparseSpectrum,
    TimeSignal,
    add_noise,
    random_spectrum,
    synthesize,
)


@pytest.fixture(scope="module")
def textbook_plan():
    """n=20 geometry with the three shifts 0, 2, 9."""
    return FrontendPlan(n=20, bin_counts=(4, 5), clusters=1, per_cluster=3,
                        base=3, shifts=(0, 2, 9))


class TestSteeringVector:
    def test_dc_is_all_ones(self, textbook_plan):
        np.testing.assert_allclose(steering_vector(0, textbook_plan), np.ones(3))

    def test_textbook_entries(self, textbook_plan):
        s = steering_vector(10, textbook_plan)
        expected = np.array([1.0,
                             np.exp(2j * np.pi * 20 / 20),
                             np.exp(2j * np.pi * 90 / 20)])
        np.testing.assert_allclose(s, expected, atol=1e-12)
        np.testing.assert_allclose(s, [1.0, 1.0, -1.0], atol=1e-12)

    def test_unit_norm_squared(self, plan504):
        for ell in (0, 1, 17, 503):
            s = steering_vector(ell, plan504)
            assert np.vdot(s, s).real == pytest.approx(plan504.chain_count)

    def test_large_index_phase_accuracy(self, plan_big):
        # phase products reduced in integer arithmetic before any float math
        ell = plan_big.n - 1
        s = steering_vector(ell, plan_big)
        for t, r in enumerate(plan_big.shifts):
            exact = np.exp(2j * np.pi * ((ell * r) % plan_big.n) / plan_big.n)
            assert abs(s[t] - exact) < 1e-12


class TestBinIndex:
    def test_textbook_bins(self, textbook_plan):
        assert bin_index(10, 0, textbook_plan) == 2
        assert bin_index(10, 1, textbook_plan) == 0

    def test_dc(self, textbook_plan):
        assert bin_index(0, 0, textbook_plan) == 0
        assert bin_index(0, 1, textbook_plan) == 0


class TestSubsample:
    def test_zero_signal_gives_zero_bank(self, textbook_plan):
        zero = TimeSignal(20, np.zeros(20, dtype=np.complex128))
        bank = subsample_and_transform(zero, textbook_plan)
        for stage in range(2):
            assert np.all(bank.stages[stage] == 0)

    def test_textbook_singleton_bin(self, textbook_plan):
        values = {1: 1.0 + 1j, 3: -2.0, 5: 0.5j, 10: 1.5 - 0.5j, 15: -1j}
        spectrum = SparseSpectrum.from_pairs(20, values)
        bank = subsample_and_transform(synthesize(spectrum), textbook_plan)
        # support 10 sits alone in bin 2 of stage 0
        expected = math.sqrt(4) * values[10] * steering_vector(10, textbook_plan)
        np.testing.assert_allclose(bank.stages[0][2], expected, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_aliasing_identity(self, plan504, seed):
        spectrum = random_spectrum(504, 7, Constellation(2.0), seed=seed)
        bank = subsample_and_transform(synthesize(spectrum), plan504)
        dense = spectrum.to_dense()
        for stage, f in enumerate(plan504.bin_counts):
            for j in range(f):
                direct = np.zeros(plan504.chain_count, dtype=np.complex128)
                for ell in range(j, 504, f):
                    if dense[ell] != 0:
                        direct += dense[ell] * steering_vector(ell, plan504)
                direct *= math.sqrt(f)
                np.testing.assert_allclose(bank.stages[stage][j], direct, atol=1e-9)

    def test_linearity(self, plan504):
        a = random_spectrum(504, 5, Constellation(1.0), seed=3)
        b = random_spectrum(504, 5, Constellation(1.0), seed=4)
        bank_a = subsample_and_transform(synthesize(a), plan504)
        bank_b = subsample_and_transform(synthesize(b), plan504)
        summed = TimeSignal(504, synthesize(a).samples + synthesize(b).samples)
        bank_sum = subsample_and_transform(summed, plan504)
        for stage in range(plan504.d):
            np.testing.assert_allclose(
                bank_sum.stages[stage],
                bank_a.stages[stage] + bank_b.stages[stage],
                atol=1e-9,
            )

    def test_length_mismatch_rejected(self, plan504):
        with pytest.raises(ValueError):
            subsample_and_transform(TimeSignal(20, np.zeros(20, complex)), plan504)

    def test_sample_count_accounting(self, plan_big):
        assert plan_big.sample_count == plan_big.chain_count * sum(plan_big.bin_counts)


class TestNoiseStatistics:
    def test_bin_noise_energy_is_chi_square(self):
        """Unit input noise must exit the front end as unit-variance bin noise.

        ||y||^2 for a noise-only bin follows half a chi-square with 2D
        degrees of freedom; goodness of fit checked at the 1% level.
        Chains only read disjoint time samples when the shifts are
        distinct modulo every stage period, so the plan here uses
        consecutive shifts (16 < every period).
        """
        plan = FrontendPlan(n=504, bin_counts=(7, 8, 9), clusters=8,
                            per_cluster=2, base=5, shifts=tuple(range(16)))
        d = plan.chain_count
        zero = TimeSignal(504, np.zeros(504, dtype=np.complex128))
        draws = np.empty(10_000)
        for t in range(10_000):
            noisy = add_noise(zero, 1.0, seed=50_000 + t)
            bank = subsample_and_transform(noisy, plan)
            draws[t] = bank.energies(0)[0]
        edges = stats.chi2.ppf(np.linspace(0, 1, 21), df=2 * d) / 2.0
        observed, _ = np.histogram(draws, bins=edges)
        _, p_value = stats.chisquare(observed)
        assert p_value > 0.01


class TestBinBank:
    def test_energies_match_manual_norms(self, plan20):
        spectrum = random_spectrum(20, 4, Constellation(2.0), seed=8)
        bank = subsample_and_transform(synthesize(spectrum), plan20)
        for stage in range(plan20.d):
            manual = np.array([
                float(np.vdot(row, row).real) for row in bank.stages[stage]
            ])
            np.testing.assert_allclose(bank.energies(stage), manual, atol=1e-9)

    def test_copy_is_independent(self, plan20):
        spectrum = random_spectrum(20, 3, Constellation(1.0), seed=2)
        bank = subsample_and_transform(synthesize(spectrum), plan20)
        dup = bank.copy()
        dup.stages[0][0] += 1.0
        assert not np.array_equal(dup.stages[0], bank.stages[0])

    def test_shape_validation(self, plan20):
        bad = [np.zeros((4, plan20.chain_count), complex),
               np.zeros((4, plan20.chain_count), complex)]
        with pytest.raises(ValueError):
            BinBank(plan20, bad)

    def test_observation_fields(self, plan20):
        spectrum = random_spectrum(20, 3, Constellation(1.0), seed=2)
        bank = subsample_and_transform(synthesize(spectrum), plan20)
        obs = bank.observation(1, 3)
        assert obs.stage == 1 and obs.bin == 3
        np.testing.assert_array_equal(obs.y, bank.stages[1][3])

    def test_iter_observations_visits_every_bin(self, plan20):
        spectrum = SparseSpectrum.empty(20)
        bank = subsample_and_transform(synthesize(spectrum), plan20)
        visited = [(obs.stage, obs.bin) for obs in bank.iter_observations()]
        assert visited == [(0, j) for j in range(4)] + [(1, j) for j in range(5)]
