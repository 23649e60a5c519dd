"""Front-end tests: steering vectors, aliasing structure, noise statistics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ffast.bench import ExperimentConfig, plan_for_config
from ffast.frontend import (
    BinBank,
    factored_is_cheaper,
    row_energies,
    steering_vector,
    subsample_and_transform,
)
from ffast.planner import PRESETS, FrontendPlan, build_plan
from ffast.spectral import (
    Constellation,
    SparseSpectrum,
    add_noise,
    random_phase_spectrum,
    random_spectrum,
    synthesize,
)

from conftest import bank_from_samples, dense_samples, spectrum

SMALL_PRESETS = sorted(name for name, p in PRESETS.items() if p.n <= 4845)


@pytest.fixture(scope="module")
def textbook_plan():
    """n=20 geometry with one cluster at head 0: the three shifts 0, 1, 2."""
    return FrontendPlan(n=20, bin_counts=(4, 5), per_cluster=3, heads=(0,))


class TestSteeringVector:
    def test_dc_is_all_ones(self, textbook_plan):
        np.testing.assert_allclose(steering_vector(0, textbook_plan), np.ones(3))

    def test_textbook_entries(self, textbook_plan):
        s = steering_vector(10, textbook_plan)
        expected = np.array([1.0,
                             np.exp(2j * np.pi * 10 / 20),
                             np.exp(2j * np.pi * 20 / 20)])
        np.testing.assert_allclose(s, expected, atol=1e-12)
        np.testing.assert_allclose(s, [1.0, -1.0, 1.0], atol=1e-12)

    def test_unit_norm_squared(self, plan504):
        for ell in (0, 1, 17, 503):
            s = steering_vector(ell, plan504)
            assert np.vdot(s, s).real == pytest.approx(plan504.chain_count)

    def test_large_index_phase_accuracy(self, plan_big):
        # phase products reduced in integer arithmetic before any float math
        ell = plan_big.n - 1
        s = steering_vector(ell, plan_big)
        for t, r in enumerate(plan_big.shift_array.tolist()):
            exact = np.exp(2j * np.pi * ((ell * r) % plan_big.n) / plan_big.n)
            assert abs(s[t] - exact) < 1e-12


class TestSubsample:
    def test_zero_signal_gives_zero_bank(self, textbook_plan):
        zero = synthesize(spectrum(20, []))
        bank = subsample_and_transform(zero, textbook_plan)
        for stage in range(2):
            assert np.all(bank.stages[stage] == 0)

    def test_textbook_singleton_bin(self, textbook_plan):
        values = {1: 1.0 + 1j, 3: -2.0, 5: 0.5j, 10: 1.5 - 0.5j, 15: -1j}
        bank = subsample_and_transform(synthesize(spectrum(20, values)), textbook_plan)
        # support 10 sits alone in bin 2 of stage 0
        expected = math.sqrt(4) * values[10] * steering_vector(10, textbook_plan)
        np.testing.assert_allclose(bank.stages[0][2], expected, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_aliasing_identity(self, plan504, seed):
        spectrum = random_spectrum(504, 7, Constellation(2.0), seed=seed)
        bank = subsample_and_transform(synthesize(spectrum), plan504)
        dense = spectrum.values_at(np.arange(504))
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
        both = a.support_union(b)
        summed = SparseSpectrum(504, both, a.values_at(both) + b.values_at(both))
        bank_sum = subsample_and_transform(synthesize(summed), plan504)
        for stage in range(plan504.d):
            np.testing.assert_allclose(
                bank_sum.stages[stage],
                bank_a.stages[stage] + bank_b.stages[stage],
                atol=1e-9,
            )

    def test_length_mismatch_rejected(self, plan504):
        with pytest.raises(ValueError):
            subsample_and_transform(synthesize(spectrum(20, [])), plan504)

    def test_sample_count_accounting(self, plan_big):
        assert plan_big.sample_count == plan_big.chain_count * sum(plan_big.bin_counts)


@st.composite
def source_cases(draw):
    """A small preset's plan and a spectrum, in both sparsity regimes.

    Very sparse plans read fewer samples than the factored form's break
    even and less sparse ones more, so both sides of factored_is_cheaper
    are drawn.
    """
    preset = PRESETS[draw(st.sampled_from(SMALL_PRESETS))]
    n = preset.n
    if len(preset.factors) == 2 or draw(st.booleans()):
        k = draw(st.integers(0, max(1, int(n ** (1.0 / 3.0)))))
    else:
        k = draw(st.integers(math.ceil(n**0.61), int(n**0.7)))
    plan = build_plan(preset.name, k, seed=draw(st.integers(0, 2**16)))
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        spectrum = random_spectrum(n, k, Constellation(4.0), seed)
    else:
        spectrum = random_phase_spectrum(n, k, draw(st.floats(0.1, 10.0)), seed)
    noise = draw(st.sampled_from([None, 0.5, 1.0]))
    return plan, spectrum, noise, seed


class TestSampleSource:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=source_cases())
    def test_bank_equals_the_bank_of_the_dense_samples(self, case):
        plan, spectrum, noise, seed = case
        signal = synthesize(spectrum)
        if noise is not None:
            signal = add_noise(signal, noise, seed)
        bank = subsample_and_transform(signal, plan)
        reference = bank_from_samples(dense_samples(signal), plan)
        factored = factored_is_cheaper(plan.n, spectrum.k, plan.sample_count)
        tol = 1e-9 * max(float(np.abs(spectrum.values).sum()), 1.0)
        for ours, theirs in zip(bank.stages, reference.stages):
            if factored:
                assert np.max(np.abs(ours - theirs)) <= tol
            else:
                np.testing.assert_array_equal(ours, theirs)

    @pytest.mark.parametrize(
        "preset,k,factored",
        [("n504", 7, True), ("n504", 50, False), ("paper-20", 5, False),
         ("paper-124950", 40, True), ("n4845", 170, False)],
    )
    def test_path_selection(self, preset, k, factored):
        plan = plan_for_config(ExperimentConfig(preset=preset, k=k, seed=3))
        assert factored_is_cheaper(plan.n, k, plan.sample_count) is factored

    def test_dense_noiseless_reads_the_samples_it_always_did(self):
        """On the gather side the bank is bit-identical to gathering
        the synthesized samples stage by stage and transforming them."""
        plan = plan_for_config(ExperimentConfig(preset="n4845", k=170, snr_db=None, seed=3))
        truth = random_spectrum(plan.n, 170, Constellation(4.0), seed=11)
        samples = np.fft.ifft(truth.values_at(np.arange(plan.n))) * plan.n
        bank = subsample_and_transform(synthesize(truth), plan)
        for f, stage in zip(plan.bin_counts, bank.stages):
            rows = (np.arange(f)[:, None] * (plan.n // f) + plan.shift_array) % plan.n
            np.testing.assert_array_equal(stage, np.fft.fft(samples[rows], axis=0) / math.sqrt(f))

    def test_spectrum_backed_signal_keeps_its_samples_unevaluated(self, plan_big):
        truth = random_spectrum(plan_big.n, 40, Constellation(4.0), seed=2)
        signal = add_noise(synthesize(truth), 1.0, seed=2)
        subsample_and_transform(signal, plan_big)
        assert "clean" not in vars(signal)


class TestNoiseStatistics:
    def test_bin_noise_energy_is_chi_square(self):
        """Unit input noise must exit the front end as unit-variance bin noise.

        ||y||^2 for a noise-only bin follows half a chi-square with 2D
        degrees of freedom; goodness of fit checked at the 1% level.
        Chains only read disjoint time samples when the shifts are
        distinct modulo every stage period, so the heads here are chosen
        to make the 16 shifts distinct modulo 72, 63 and 56.
        """
        plan = FrontendPlan(n=504, bin_counts=(7, 8, 9), per_cluster=2,
                            heads=(0, 7, 14, 21, 28, 35, 42, 49))
        for period in plan.periods:
            assert len({r % period for r in plan.shift_array}) == 16
        d = plan.chain_count
        zero = synthesize(spectrum(504, []))
        draws = np.empty(10_000)
        for t in range(10_000):
            noisy = add_noise(zero, 1.0, seed=50_000 + t)
            bank = subsample_and_transform(noisy, plan)
            draws[t] = row_energies(bank.stages[0])[0]
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
            np.testing.assert_allclose(row_energies(bank.stages[stage]), manual, atol=1e-9)

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
