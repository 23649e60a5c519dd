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
from ffast.planner import FrontendPlan
from ffast.singleton import singleton_residual_threshold
from ffast.spectral import Constellation, random_spectrum, synthesize

from conftest import make_singleton_obs, spectrum


class TestDenseDft:
    def test_constant_signal_is_a_dc_impulse(self):
        got = dense_dft(np.full(12, 2.5 - 1.0j))
        assert got.k == 1
        assert got.indices[0] == 0
        assert abs(got.values[0] - (2.5 - 1.0j)) < 1e-12

    def test_time_impulse_spreads_flat(self):
        samples = np.zeros(10, dtype=np.complex128)
        samples[0] = 1.0
        got = dense_dft(samples, drop_tolerance=0.0)
        assert got.k == 10
        assert np.max(np.abs(got.values - 0.1)) < 1e-12

    def test_single_tone_round_trip(self):
        truth = spectrum(20, [(7, 1.5 - 0.5j)])
        recovered = dense_dft(synthesize(truth).clean)
        assert compare_spectra(recovered, truth, 1e-9).matched

    @pytest.mark.parametrize("n,k", [(20, 2), (504, 7), (990, 9), (2730, 12)])
    def test_inverts_synthesis(self, n, k):
        con = Constellation(4.0)
        for seed in range(12):
            truth = random_spectrum(n, k, con, seed=700 + seed)
            report = compare_spectra(dense_dft(synthesize(truth).clean), truth, 1e-9)
            assert report.matched, report.detail

    def test_linear_in_the_signal(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        b = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        far = dense_dft(a + 2j * b, drop_tolerance=0.0)
        every = np.arange(60)
        xa = dense_dft(a, drop_tolerance=0.0).values_at(every)
        xb = dense_dft(b, drop_tolerance=0.0).values_at(every)
        assert np.max(np.abs(far.values_at(every) - (xa + 2j * xb))) < 1e-9

    def test_size_guard(self):
        assert ORACLE_MAX_N**2 * 16 <= _MATRIX_BUDGET_BYTES
        n = ORACLE_MAX_N + 1
        with pytest.raises(OracleSizeError):
            dense_dft(np.zeros(n, dtype=np.complex128))

    def test_only_a_one_dimensional_array_is_taken(self):
        with pytest.raises(ValueError, match="1-d array"):
            dense_dft(np.zeros((4, 5), dtype=np.complex128))

    def test_drop_tolerance_hides_small_coefficients(self):
        truth = spectrum(36, [(3, 1.0 + 0j), (9, 1e-6 + 0j)])
        got = dense_dft(synthesize(truth).clean, drop_tolerance=1e-3)
        assert list(got.indices) == [3]


class TestBruteSingleton:
    def test_recovers_a_clean_singleton_exactly(self, plan20):
        value = 1.5 * np.exp(0.3j)
        obs = make_singleton_obs(plan20, 13, value)
        ell, fitted, residual = brute_singleton(*obs, plan20)
        assert ell == 13
        assert abs(fitted - value) < 1e-12
        assert residual < 1e-18

    def test_candidates_stay_in_the_residue_class(self, plan504):
        obs = make_singleton_obs(plan504, 100, 2.0 + 0j, stage=1)
        ell, _, _ = brute_singleton(*obs, plan504)
        f = plan504.bin_counts[1]
        assert ell % f == 100 % f

    def test_two_tone_bin_keeps_a_large_residual(self, plan504):
        """No single frequency explains two genuine tones: even the best
        candidate's residual must stay above the singleton acceptance cap."""
        f = plan504.bin_counts[0]
        two_tones = spectrum(504, [(3, 2.0 + 0j), (3 + f, -2.0j)])
        bank = subsample_and_transform(synthesize(two_tones), plan504)
        _, _, residual = brute_singleton(bank.stages[0][3], 0, 3, plan504)
        cap = singleton_residual_threshold(plan504.chain_count)
        assert residual > cap

    def test_noisy_singleton_still_wins_the_scan(self, plan504):
        rng = np.random.default_rng(8)
        hits = 0
        for trial in range(50):
            ell_true = int(rng.integers(0, 504))
            obs = make_singleton_obs(plan504, ell_true, 3.0 + 0j, rng=rng)
            ell, _, _ = brute_singleton(*obs, plan504)
            hits += ell == ell_true
        assert hits == 50


class TestNoiselessCheck:
    def test_empty_spectrum_is_trivially_recoverable(self, plan20):
        assert noiseless_check(spectrum(20, []), plan20)

    def test_textbook_instance_is_recoverable(self, plan20):
        textbook = spectrum(20, [(1, 1.0), (3, 1.0), (5, 1.0), (10, 1.0), (15, 1.0)])
        assert noiseless_check(textbook, plan20)

    def test_four_cycle_is_a_stopping_set(self):
        plan = FrontendPlan(n=504, bin_counts=(7, 8), per_cluster=2,
                            heads=(0, 11, 37, 71, 113, 167, 229, 301))
        cycle = spectrum(504, [(0, 1.0), (49, 1.0), (8, 1.0), (57, 1.0)])
        assert not noiseless_check(cycle, plan)
        # breaking the cycle anywhere makes the rest peelable
        opened = spectrum(504, [(0, 1.0), (49, 1.0), (8, 1.0)])
        assert noiseless_check(opened, plan)

    def test_length_mismatch_rejected(self, plan20):
        with pytest.raises(ValueError):
            noiseless_check(spectrum(21, []), plan20)


class TestCompareSpectra:
    def test_exact_match(self):
        s = spectrum(20, [(1, 1.0 + 1j), (5, -2.0j)])
        report = compare_spectra(s, s, 1e-12)
        assert report.matched
        assert report.max_abs_error == 0.0

    def test_value_error_within_tolerance(self):
        ref = spectrum(20, [(1, 1.0 + 0j)])
        est = spectrum(20, [(1, 1.0 + 1e-11j)])
        assert compare_spectra(est, ref, 1e-9).matched
        assert not compare_spectra(est, ref, 1e-13).matched

    def test_support_mismatch_reported(self):
        ref = spectrum(20, [(1, 1.0 + 0j), (3, -2.0j)])
        est = spectrum(20, [(1, 1.0 + 0j), (4, 1.0j)])
        report = compare_spectra(est, ref, 1e-9)
        assert not report.matched
        assert report.detail == "support mismatch"
        assert report.max_abs_error == pytest.approx(2.0)

    def test_max_abs_error_spans_both_supports(self):
        """A coefficient in one support only counts in full against the other's 0."""
        a = spectrum(10, [(1, 1.0), (2, 1.0)])
        b = spectrum(10, [(1, 1.0), (3, 0.5)])
        assert compare_spectra(a, b, 1e-9).max_abs_error == pytest.approx(1.0)
        assert compare_spectra(b, a, 1e-9).max_abs_error == pytest.approx(1.0)

    def test_disjoint_supports(self):
        a = spectrum(10, [(1, 2.0), (4, -0.5j)])
        b = spectrum(10, [(2, 1.0j), (7, -3.0)])
        report = compare_spectra(a, b, 1e-9)
        assert report.detail == "support mismatch"
        assert report.max_abs_error == 3.0

    def test_both_empty_is_a_zero_error_match(self):
        report = compare_spectra(spectrum(10, []), spectrum(10, []), 0.0)
        assert report.matched
        assert report.max_abs_error == 0.0

    def test_length_mismatch_is_infinite_error(self):
        a = spectrum(20, [])
        b = spectrum(24, [])
        report = compare_spectra(a, b, 1e-9)
        assert not report.matched
        assert report.max_abs_error == float("inf")
