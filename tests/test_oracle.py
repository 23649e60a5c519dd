"""Reference-oracle tests: the slow recomputations the fast paths are judged by."""
import numpy as np
import pytest

from ffast.frontend import subsample_and_transform
from ffast.oracle import (
    _MATRIX_BUDGET_BYTES,
    ORACLE_MAX_N,
    OracleSizeError,
    brute_singleton,
    compare_spectra,
    dense_dft,
    noiseless_check,
)
from ffast.planner import FrontendPlan, cluster_shifts
from ffast.singleton import singleton_residual_threshold
from ffast.spectral import Constellation, SparseSpectrum, TimeSignal, random_spectrum, synthesize

from conftest import make_singleton_obs


class TestDenseDft:
    def test_constant_signal_is_a_dc_impulse(self):
        signal = TimeSignal(12, np.full(12, 2.5 - 1.0j))
        spectrum = dense_dft(signal)
        assert spectrum.k == 1
        assert spectrum.indices[0] == 0
        assert abs(spectrum.values[0] - (2.5 - 1.0j)) < 1e-12

    def test_time_impulse_spreads_flat(self):
        samples = np.zeros(10, dtype=np.complex128)
        samples[0] = 1.0
        spectrum = dense_dft(TimeSignal(10, samples), drop_tolerance=0.0)
        assert spectrum.k == 10
        assert np.max(np.abs(spectrum.values - 0.1)) < 1e-12

    def test_single_tone_round_trip(self):
        truth = SparseSpectrum.from_pairs(20, [(7, 1.5 - 0.5j)])
        recovered = dense_dft(synthesize(truth))
        assert compare_spectra(recovered, truth, 1e-9).matched

    @pytest.mark.parametrize("n,k", [(20, 2), (504, 7), (990, 9), (2730, 12)])
    def test_inverts_synthesis(self, n, k):
        con = Constellation(4.0)
        for seed in range(12):
            truth = random_spectrum(n, k, con, seed=700 + seed)
            report = compare_spectra(dense_dft(synthesize(truth)), truth, 1e-9)
            assert report.matched, report.detail

    def test_linear_in_the_signal(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        b = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        far = dense_dft(TimeSignal(60, a + 2j * b), drop_tolerance=0.0)
        xa = dense_dft(TimeSignal(60, a), drop_tolerance=0.0).to_dense()
        xb = dense_dft(TimeSignal(60, b), drop_tolerance=0.0).to_dense()
        assert np.max(np.abs(far.to_dense() - (xa + 2j * xb))) < 1e-9

    def test_size_guard(self):
        assert ORACLE_MAX_N**2 * 16 <= _MATRIX_BUDGET_BYTES
        n = ORACLE_MAX_N + 1
        with pytest.raises(OracleSizeError):
            dense_dft(TimeSignal(n, np.zeros(n, dtype=np.complex128)))

    def test_drop_tolerance_hides_small_coefficients(self):
        truth = SparseSpectrum.from_pairs(36, [(3, 1.0 + 0j), (9, 1e-6 + 0j)])
        spectrum = dense_dft(synthesize(truth), drop_tolerance=1e-3)
        assert list(spectrum.indices) == [3]


class TestBruteSingleton:
    def test_recovers_a_clean_singleton_exactly(self, plan20):
        value = 1.5 * np.exp(0.3j)
        obs = make_singleton_obs(plan20, 13, value)
        ell, fitted, residual = brute_singleton(obs, plan20)
        assert ell == 13
        assert abs(fitted - value) < 1e-12
        assert residual < 1e-18

    def test_candidates_stay_in_the_residue_class(self, plan504):
        obs = make_singleton_obs(plan504, 100, 2.0 + 0j, stage=1)
        ell, _, _ = brute_singleton(obs, plan504)
        f = plan504.bin_counts[1]
        assert ell % f == 100 % f

    def test_two_tone_bin_keeps_a_large_residual(self, plan504):
        """No single frequency explains two genuine tones: even the best
        candidate's residual must stay above the singleton acceptance cap."""
        f = plan504.bin_counts[0]
        spectrum = SparseSpectrum.from_pairs(
            504, [(3, 2.0 + 0j), (3 + f, -2.0j)]
        )
        bank = subsample_and_transform(synthesize(spectrum), plan504)
        obs = bank.observation(0, 3)
        _, _, residual = brute_singleton(obs, plan504)
        cap = singleton_residual_threshold(
            plan504.chain_count, plan504.gamma
        )
        assert residual > cap

    def test_noisy_singleton_still_wins_the_scan(self, plan504):
        rng = np.random.default_rng(8)
        hits = 0
        for trial in range(50):
            ell_true = int(rng.integers(0, 504))
            obs = make_singleton_obs(plan504, ell_true, 3.0 + 0j, rng=rng)
            ell, _, _ = brute_singleton(obs, plan504)
            hits += ell == ell_true
        assert hits == 50


class TestNoiselessCheck:
    def test_empty_spectrum_is_trivially_recoverable(self, plan20):
        assert noiseless_check(SparseSpectrum.empty(20), plan20)

    def test_textbook_instance_is_recoverable(self, plan20):
        spectrum = SparseSpectrum.from_pairs(
            20, [(1, 1.0), (3, 1.0), (5, 1.0), (10, 1.0), (15, 1.0)]
        )
        assert noiseless_check(spectrum, plan20)

    def test_four_cycle_is_a_stopping_set(self):
        heads = (0, 11, 37, 71, 113, 167, 229, 301)
        shifts = tuple(int(s) for s in cluster_shifts(heads, 2, 5, 504))
        plan = FrontendPlan(n=504, bin_counts=(7, 8), clusters=8, per_cluster=2,
                            base=5, shifts=shifts)
        cycle = SparseSpectrum.from_pairs(
            504, [(0, 1.0), (49, 1.0), (8, 1.0), (57, 1.0)]
        )
        assert not noiseless_check(cycle, plan)
        # breaking the cycle anywhere makes the rest peelable
        opened = SparseSpectrum.from_pairs(504, [(0, 1.0), (49, 1.0), (8, 1.0)])
        assert noiseless_check(opened, plan)

    def test_length_mismatch_rejected(self, plan20):
        with pytest.raises(ValueError):
            noiseless_check(SparseSpectrum.empty(21), plan20)


class TestCompareSpectra:
    def test_exact_match(self):
        s = SparseSpectrum.from_pairs(20, [(1, 1.0 + 1j), (5, -2.0j)])
        report = compare_spectra(s, s, 1e-12)
        assert report.matched
        assert report.max_abs_error == 0.0

    def test_value_error_within_tolerance(self):
        ref = SparseSpectrum.from_pairs(20, [(1, 1.0 + 0j)])
        est = SparseSpectrum.from_pairs(20, [(1, 1.0 + 1e-11j)])
        assert compare_spectra(est, ref, 1e-9).matched
        assert not compare_spectra(est, ref, 1e-13).matched

    def test_support_mismatch_reported(self):
        ref = SparseSpectrum.from_pairs(20, [(1, 1.0 + 0j), (3, -2.0j)])
        est = SparseSpectrum.from_pairs(20, [(1, 1.0 + 0j), (4, 1.0j)])
        report = compare_spectra(est, ref, 1e-9)
        assert not report.matched
        assert report.detail == "support mismatch"
        assert report.max_abs_error == pytest.approx(2.0)

    def test_length_mismatch_is_infinite_error(self):
        a = SparseSpectrum.empty(20)
        b = SparseSpectrum.empty(24)
        report = compare_spectra(a, b, 1e-9)
        assert not report.matched
        assert report.max_abs_error == float("inf")
