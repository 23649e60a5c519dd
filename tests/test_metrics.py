"""Scoring and bound-calculator tests.

Every closed-form bound is checked against a second, independent
evaluation (scipy special functions or a literal transcription of the
formula) and against hand-frozen values.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from ffast.metrics import (
    energy_tail_bound,
    kay_variance,
    multiton_bound,
    prop1_bound,
    q_function,
    support_recovery,
    value_error_bound,
    zeroton_bound,
)
from ffast.oracle import compare_spectra

from conftest import spectrum


def _union_values(est, truth):
    """(est[l], truth[l]) over the union of supports, one coefficient at a time."""
    a, b = dict(zip(est.indices.tolist(), est.values)), dict(zip(truth.indices.tolist(), truth.values))
    return [(a.get(i, 0j), b.get(i, 0j)) for i in sorted(set(a) | set(b))]


def _loop_support_recovery(est, truth):
    """The per-coefficient loop support_recovery replaced, as the reference."""
    success = set(est.indices.tolist()) == set(truth.indices.tolist())
    denom = float(sum(abs(v) for v in truth.values))
    numer = float(sum(abs(e - t) for e, t in _union_values(est, truth)))
    if denom == 0.0:
        return success, 0.0 if numer == 0.0 else math.inf
    return success, numer / denom


@st.composite
def spectrum_pairs(draw):
    """Two spectra on a shared length whose supports overlap in part."""
    n = draw(st.integers(1, 60))
    values = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    truth = draw(st.dictionaries(st.integers(0, n - 1), values, max_size=12))
    est = {i: v for i, v in truth.items() if draw(st.booleans())}
    est.update(draw(st.dictionaries(st.integers(0, n - 1), values, max_size=4)))
    return spectrum(n, est), spectrum(n, truth)


class TestSupportRecovery:
    def test_exact_recovery(self):
        s = spectrum(20, [(1, 1.0 + 0j), (3, -2.0j)])
        assert support_recovery(s, s) == (True, 0.0)

    def test_wrong_support_still_scores_l1(self):
        truth = spectrum(20, [(1, 1.0 + 0j), (3, -2.0j)])
        est = spectrum(20, [(1, 1.0 + 0j), (4, 1.0j)])
        success, l1 = support_recovery(est, truth)
        assert not success
        # misses |X[3]| = 2 and adds |1j| = 1, against truth l1 norm 3
        assert l1 == pytest.approx(1.0)

    def test_same_support_wrong_values(self):
        truth = spectrum(10, [(2, 2.0 + 0j)])
        est = spectrum(10, [(2, 1.0 + 0j)])
        success, l1 = support_recovery(est, truth)
        assert success
        assert l1 == pytest.approx(0.5)

    def test_both_empty(self):
        empty = spectrum(10, [])
        assert support_recovery(empty, empty) == (True, 0.0)

    def test_phantom_estimate_of_empty_truth(self):
        est = spectrum(10, [(2, 1.0 + 0j)])
        success, l1 = support_recovery(est, spectrum(10, []))
        assert not success
        assert math.isinf(l1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            support_recovery(spectrum(10, []), spectrum(12, []))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(pair=spectrum_pairs())
    def test_matches_the_per_coefficient_loop(self, pair):
        est, truth = pair
        success, l1 = support_recovery(est, truth)
        ref_success, ref_l1 = _loop_support_recovery(est, truth)
        assert success == ref_success
        # summation order differs, so l1 may move in the last ulps
        assert l1 == pytest.approx(ref_l1, rel=64 * np.finfo(float).eps, abs=0.0)
        pairs = np.array(_union_values(est, truth), dtype=complex).reshape(-1, 2)
        ref_max = float(np.max(np.abs(pairs[:, 0] - pairs[:, 1]), initial=0.0))
        assert compare_spectra(est, truth, 0.0).max_abs_error == ref_max



class TestZerotonBound:
    def test_gamma_zero_is_two(self):
        assert zeroton_bound(64, 0.0) == 2.0

    def test_frozen_value(self):
        assert zeroton_bound(36, 0.3) == pytest.approx(2.0 * math.exp(-0.36), rel=1e-12)

    def test_monotone_in_chain_count(self):
        values = [zeroton_bound(d, 1.0 / 3.0) for d in (16, 32, 64, 128)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            zeroton_bound(16, 0.34)
        with pytest.raises(ValueError):
            zeroton_bound(16, -0.01)


class TestEnergyTailBound:
    def test_frozen_value(self):
        u, d, gamma = 3.162, 36, 1.0 / 3.0
        expected = math.exp(-d * (u - gamma) ** 2 / (2.0 + 4.0 * u))
        assert energy_tail_bound(u, d, gamma) == pytest.approx(expected, rel=1e-12)

    def test_approaches_one_as_gamma_nears_signal(self):
        assert energy_tail_bound(1.0, 36, 0.999) > 0.999

    def test_domain(self):
        with pytest.raises(ValueError):
            energy_tail_bound(1.0, 36, 1.0)  # gamma must stay below u
        with pytest.raises(ValueError):
            energy_tail_bound(1.0, 36, 0.0)

    def test_tightens_with_chain_count(self):
        assert energy_tail_bound(2.0, 64, 0.2) < energy_tail_bound(2.0, 16, 0.2)


class TestKayVariance:
    def test_frozen_value(self):
        assert kay_variance(10.0, 3) == pytest.approx(0.025, rel=1e-12)

    def test_matches_formula(self):
        for rho_b, nn in [(5.0, 2), (10.0, 3), (80.0, 8)]:
            assert kay_variance(rho_b, nn) == pytest.approx(
                6.0 / (rho_b * nn * (nn * nn - 1.0)), rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            kay_variance(0.0, 3)
        with pytest.raises(ValueError):
            kay_variance(1.0, 1)


class TestQFunction:
    @pytest.mark.parametrize("x", [-3.0, -0.5, 0.0, 0.5, 1.0, 2.5, 6.0])
    def test_matches_normal_survival(self, x):
        assert q_function(x) == pytest.approx(norm.sf(x), rel=1e-12)


class TestProp1Bound:
    def test_matches_hand_formula(self):
        rho_b, nn, c1, n = 50.0, 5, 8.0, 504
        sigma = math.sqrt(6.0 / (rho_b * nn * (nn * nn - 1.0)))
        expected = 2.0 * norm.sf((math.pi / c1) / sigma)
        value, ok = prop1_bound(rho_b, nn, c1, n)
        assert value == pytest.approx(expected, rel=1e-9)
        assert ok == (value < 1.0 / n**3)

    def test_budget_flag_flips_with_snr(self):
        _, ok_high = prop1_bound(200.0, 5, 8.0, 504)
        _, ok_low = prop1_bound(0.05, 2, 8.0, 504)
        assert ok_high and not ok_low

    def test_domain(self):
        with pytest.raises(ValueError):
            prop1_bound(-1.0, 5, 8.0, 504)
        with pytest.raises(ValueError):
            prop1_bound(1.0, 1, 8.0, 504)


class TestValueErrorBound:
    def test_binary_phase_case(self):
        # m2 = 2: sin(pi/2) = 1, so the bound is exp(-D rho_b)
        assert value_error_bound(3.0, 16, 2) == pytest.approx(
            math.exp(-48.0), rel=1e-12
        )

    def test_matches_hand_formula(self):
        s = math.sin(math.pi / 8)
        assert value_error_bound(20.0, 30, 8) == pytest.approx(
            math.exp(-30 * 20.0 * s * s), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            value_error_bound(0.0, 16, 8)
        with pytest.raises(ValueError):
            value_error_bound(1.0, 16, 1)


class TestMultitonBound:
    def test_vacuous_when_incoherence_cannot_hold(self):
        # D = 16 chains cannot support the 2L sqrt(ln(5n)/D) deficit at L = 2
        assert multiton_bound(5.0, 16, 0.2, 124950, 2) == 1.0

    def test_nonvacuous_at_large_chain_count(self):
        rho_b, d, gamma, n, ell = 0.2, 4096, 0.2, 504, 2
        deficit = 1.0 - 2.0 * ell * math.sqrt(math.log(5.0 * n) / d)
        floor = ell * rho_b * deficit
        assert floor > gamma
        expected = energy_tail_bound(floor, d, gamma)
        value = multiton_bound(rho_b, d, gamma, n, ell)
        assert value == pytest.approx(expected, rel=1e-12)
        assert 0.0 < value < 1e-6

    def test_monotone_in_component_count_once_active(self):
        kw = dict(rho_b=0.2, d_chains=4096, gamma=0.2, n=504)
        low, high = multiton_bound(sparsity_l=3, **kw), multiton_bound(sparsity_l=2, **kw)
        assert 0.0 < low < high

    def test_domain(self):
        with pytest.raises(ValueError):
            multiton_bound(5.0, 16, 0.2, 504, 1)
        with pytest.raises(ValueError):
            multiton_bound(-1.0, 16, 0.2, 504, 2)
