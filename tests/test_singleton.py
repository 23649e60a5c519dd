"""Singleton estimator tests: weights, cluster estimates, refinement, verdicts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammainccinv

from conftest import classify_one, make_singleton_obs, spectrum
from ffast import oracle
from ffast.frontend import row_energies, steering_vector, subsample_and_transform
from ffast.planner import build_plan
from ffast.singleton import (
    BinStatistics,
    VerdictKind,
    VerdictReason,
    _consistent_with_bin,
    bin_statistics,
    classify_bin,
    cluster_estimate,
    kay_weights,
    refine,
    singleton_residual_threshold,
    zero_ton_threshold,
)
from ffast.spectral import Constellation, add_noise, random_spectrum, synthesize


class TestKayWeights:
    def test_two_samples(self):
        np.testing.assert_allclose(kay_weights(2), [1.0])

    def test_three_samples(self):
        np.testing.assert_allclose(kay_weights(3), [0.5, 0.5])

    @pytest.mark.parametrize("n", range(2, 65))
    def test_weights_sum_to_one(self, n):
        beta = kay_weights(n)
        assert beta.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(beta >= 0)

    def test_parabolic_symmetry(self):
        beta = kay_weights(9)
        np.testing.assert_allclose(beta, beta[::-1])

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            kay_weights(1)

    def test_cached_and_read_only(self):
        beta = kay_weights(4)
        assert kay_weights(4) is beta
        with pytest.raises(ValueError):
            beta[0] = 0.0


class TestClusterEstimate:
    def test_noiseless_exact_unit_spacing(self):
        omega = 2 * np.pi * 7 / 20
        shifts = np.array([3, 4, 5])  # head 3, spacing 1
        samples = np.exp(1j * omega * shifts)
        est = cluster_estimate(samples, 1)
        assert est == pytest.approx(omega % (2 * np.pi), abs=1e-12)

    def test_noiseless_exact_spacing_two(self):
        omega = 2 * np.pi * 7 / 20
        shifts = np.array([3, 5, 7])
        samples = np.exp(1j * omega * shifts)
        est = cluster_estimate(samples, 2)
        assert est == pytest.approx(omega % np.pi, abs=1e-12)

    def test_products_summing_to_zero_keep_a_zero_reference(self):
        """Products 1 and -1 sum to 0, whose angle is taken as 0, so the
        deviations are the raw angles 0 and pi, weighted 1/2 each."""
        assert cluster_estimate(np.array([1.0, 1.0, -1.0]), 1) == np.pi / 2

    def test_cluster_array_matches_row_by_row(self, plan990):
        """A (C, N) noiseless tone gives, in one call, the row-by-row
        estimates, and row c is omega mod 2*pi/base**c.  The weighted sum
        over a row may run in another order in the two forms, so they
        agree to a few ulp rather than bit for bit."""
        ell = 377
        omega = 2 * np.pi * ell / plan990.n
        C, N = plan990.clusters, plan990.per_cluster
        rows = steering_vector(ell, plan990).reshape(C, N)
        spacing = plan990.base ** np.arange(C)
        together = cluster_estimate(rows, spacing)
        assert together.shape == (C,)
        for c in range(C):
            alone = cluster_estimate(rows[c], int(spacing[c]))
            assert together[c] == pytest.approx(alone, rel=0, abs=16 * np.finfo(float).eps)
            period = 2 * np.pi / spacing[c]
            assert together[c] == pytest.approx(omega % period, abs=1e-9)

    def test_variance_tracks_closed_form(self):
        """Monte-Carlo variance within 20% of 6/(rho_b N(N^2-1)) at rho_b=10."""
        rho_b, n_samp = 10.0, 3
        amp = math.sqrt(rho_b)
        omega = 1.0
        rng = np.random.default_rng(99)
        errors = np.empty(10_000)
        for t in range(10_000):
            phase = rng.uniform(0, 2 * np.pi)
            clean = amp * np.exp(1j * (omega * np.arange(n_samp) + phase))
            noise = (rng.standard_normal(n_samp) + 1j * rng.standard_normal(n_samp))
            y = clean + noise / math.sqrt(2)
            est = cluster_estimate(y, 1)
            diff = (est - omega + np.pi) % (2 * np.pi) - np.pi
            errors[t] = diff
        predicted = 6.0 / (rho_b * n_samp * (n_samp**2 - 1))
        assert float(np.mean(errors**2)) == pytest.approx(predicted, rel=0.2)

    def test_unbiased_within_three_standard_errors(self):
        rho_b, n_samp = 10.0, 5
        amp = math.sqrt(rho_b)
        omega = 0.7
        rng = np.random.default_rng(31)
        trials = 10_000
        ests = np.empty(trials)
        for t in range(trials):
            phase = rng.uniform(0, 2 * np.pi)
            clean = amp * np.exp(1j * (omega * np.arange(n_samp) + phase))
            noise = (rng.standard_normal(n_samp) + 1j * rng.standard_normal(n_samp))
            y = clean + noise / math.sqrt(2)
            ests[t] = cluster_estimate(y, 1)
        variance = 6.0 / (rho_b * n_samp * (n_samp**2 - 1))
        standard_error = math.sqrt(variance / trials)
        assert abs(float(np.mean(ests)) - omega) < 3 * standard_error


def _refine_by_lifts(estimates, base):
    """refine as C - 1 successive lifts, each onto its grid at the lift
    nearest the running estimate: the reference for its closed form."""
    est = np.asarray(estimates, dtype=np.float64)
    prev = est[..., 0] % (2.0 * np.pi)
    for i in range(1, est.shape[-1]):
        grid = 2.0 * np.pi / base**i
        prev = est[..., i] + np.rint((prev - est[..., i]) / grid) * grid
    return prev % (2.0 * np.pi)


# Allowed circular distance between refine and the lift loop, in radians.
REFINE_TOLERANCE = 1e-12


class TestRefine:
    @pytest.mark.parametrize("base", [2, 3, 5, 7, 11])
    def test_matches_the_lift_loop(self, base):
        """Estimates within the lock-in error of one omega, and arbitrary
        ones, at every depth up to 12 clusters, as one batch per depth."""
        rng = np.random.default_rng(base)
        for depth in range(1, 13):
            scale = base ** np.arange(depth)
            omega = rng.uniform(0, 2 * np.pi, size=(300, 1))
            err = rng.uniform(-1, 1, size=(300, depth)) * np.pi / (8.0 * scale)
            locked = (omega + err) % (2 * np.pi / scale)
            arbitrary = rng.uniform(-20, 20, size=(300, depth))
            for ests in (locked, arbitrary):
                out = refine(ests, base)
                assert ((out >= 0) & (out < 2 * np.pi)).all()
                diff = np.abs(out - _refine_by_lifts(ests, base))
                assert np.minimum(diff, 2 * np.pi - diff).max() <= REFINE_TOLERANCE

    def test_single_estimate_identity(self):
        assert refine([1.234], 2) == pytest.approx(1.234)

    def test_noiseless_chain_exact(self):
        omega = 2 * np.pi * 13 / 20
        ests = [omega % (2 * np.pi / 2**i) for i in range(3)]
        assert refine(ests, 2) == pytest.approx(omega, abs=1e-12)

    def test_error_interval_contract(self):
        """Per-cluster error under pi/(c1 b^i) keeps the fused estimate
        within 2*pi/(b^(C-1) c1) of the truth."""
        rng = np.random.default_rng(5)
        c1 = 8.0
        for _ in range(1000):
            base = int(rng.choice([2, 3, 5]))
            depth = int(rng.integers(2, 6))
            omega = rng.uniform(0, 2 * np.pi)
            ests = []
            for i in range(depth):
                period = 2 * np.pi / base**i
                err = rng.uniform(-1, 1) * np.pi / (c1 * base**i)
                ests.append((omega + err) % period)
            out = refine(ests, base)
            diff = abs(out - omega) % (2 * np.pi)
            diff = min(diff, 2 * np.pi - diff)
            assert diff <= 2 * np.pi / (base ** (depth - 1) * c1)

    def test_array_input_matches_list(self):
        omega = 2 * np.pi * 13 / 20
        ests = [omega % (2 * np.pi / 2**i) for i in range(3)]
        assert refine(np.array(ests), 2) == refine(ests, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            refine([], 2)
        with pytest.raises(ValueError):
            refine(np.empty(0), 2)


class TestThresholds:
    def test_zero_ton_gate(self, plan20):
        assert zero_ton_threshold(plan20) == pytest.approx(1.2 * plan20.chain_count)

    def test_residual_cap_is_tail_quantile(self):
        cap = singleton_residual_threshold(16)
        assert cap > (1.2) * 16  # quantile branch wins at D=16
        # independent check: the survival function at the cap equals alpha
        assert float(gammaincc(15, cap)) == pytest.approx(1e-4, rel=1e-6)

    def test_residual_cap_matches_scipy_quantile(self):
        for d_chains in range(2, 97):
            expected = max(1.2 * d_chains, float(gammainccinv(d_chains - 1, 1e-4)))
            cap = singleton_residual_threshold(d_chains)
            assert cap == pytest.approx(expected, rel=1e-13), d_chains

    def test_residual_cap_floor(self):
        # with one chain there is no residual dof; the gate is the floor
        assert singleton_residual_threshold(1) == pytest.approx(1.2)

    def test_residual_cap_floor_binds_from_378_chains(self):
        """The cap is max((1 + GAMMA) * D, Gamma(D-1) quantile).  The
        quantile wins below D = 378 (61.4 against 43.2 at D = 36) and the
        floor from there on: 480 at D = 400, where the quantile is 477.6."""
        assert singleton_residual_threshold(36) == pytest.approx(
            float(gammainccinv(35, 1e-4)), rel=1e-13)
        assert singleton_residual_threshold(400) == pytest.approx(480.0, rel=1e-15)
        for d_chains in range(300, 421):
            cap = singleton_residual_threshold(d_chains)
            quantile = float(gammainccinv(d_chains - 1, 1e-4))
            if d_chains >= 378:
                assert cap == 1.2 * d_chains > quantile, d_chains
            else:
                assert cap == pytest.approx(quantile, rel=1e-13) and cap > 1.2 * d_chains, d_chains


class TestConsistentWithBin:
    def test_half_an_index_is_the_width(self):
        """An estimate within 0.5 of its projected index rounds to it,
        one further away does not, on either side and across the wrap
        at n, where index 0 sits 0.49 above n - 0.49."""
        n = 504
        q = np.array([100, 100, 100, 100, 0, 0, 0, 0])
        target = np.array([100.49, 99.51, 100.51, 99.49, n - 0.49, 0.49, n - 0.51, 0.51])
        assert _consistent_with_bin(target, q, n).tolist() == [True, True, False, False] * 2


class TestClassifyBin:
    def test_zero_observation_is_zero_ton(self, plan20):
        reason, support, value, residual = classify_one(
            np.zeros(plan20.chain_count, complex), 0, 0, plan20
        )
        assert reason.kind is VerdictKind.ZERO_TON
        assert residual == 0.0
        assert support == 0 and value == 0

    def test_noiseless_singleton_exact(self, plan20):
        value = 1.5 * np.exp(1j * np.pi / 4 * 7)
        obs = make_singleton_obs(plan20, 10, value)
        reason, support, fitted, residual = classify_one(*obs, plan20)
        assert reason.kind is VerdictKind.SINGLETON
        assert support == 10
        assert abs(fitted - value) < 1e-12
        assert residual < 1e-18

    def test_snapped_value_is_exact_grid_point(self, plan20):
        con = Constellation(16.0)  # magnitudes 2 and 6
        value = complex(con.points[9])
        rng = np.random.default_rng(4)
        obs = make_singleton_obs(plan20, 13, value, rng=rng)
        reason, _, snapped, _ = classify_one(*obs, plan20, con)
        assert reason.kind is VerdictKind.SINGLETON
        assert snapped == value  # snapping returns the grid point bit-exactly
        _, _, unsnapped, _ = classify_one(*obs, plan20)
        assert unsnapped != value  # noise keeps the raw fit off-grid

    def test_zero_chain_sample_is_multi_ton(self, plan20):
        """A bin that clears the energy gate but holds one exactly-zero
        chain sample has an undefined phase difference: multi-ton.  At
        support 0 every cluster's phase is 0 anyway, and the least-squares
        fit leaves a residual under the cap, so only the zero-sample check
        keeps this bin from being a singleton."""
        y, stage, j = make_singleton_obs(plan20, 0, 1.5)
        y[1] = 0
        assert np.vdot(y, y).real >= zero_ton_threshold(plan20)
        reason, support, value, _ = classify_one(y, stage, j, plan20)
        assert reason.kind is VerdictKind.MULTI_TON
        assert support == 0 and value == 0

    def test_two_tone_bin_is_multi_ton(self, plan20):
        # supports 1 and 5 share bin 1 of stage 0
        values = {1: 1.5 + 0j, 5: 1.5j}
        bank = subsample_and_transform(synthesize(spectrum(20, values)), plan20)
        reason, _, _, _ = classify_one(bank.stages[0][1], 0, 1, plan20)
        assert reason.kind is VerdictKind.MULTI_TON

    def test_zero_noise_exactness_over_random_supports(self):
        plan = build_plan("n4845", 10, seed=17)
        rng = np.random.default_rng(1234)
        con = Constellation(4.0)
        pts = con.points
        for _ in range(1000):
            ell = int(rng.integers(plan.n))
            value = complex(pts[rng.integers(pts.size)])
            stage = int(rng.integers(plan.d))
            obs = make_singleton_obs(plan, ell, value, stage=stage)
            reason, support, fitted, _ = classify_one(*obs, plan)
            assert reason.kind is VerdictKind.SINGLETON
            assert support == ell
            assert abs(fitted - value) < 1e-12

    def test_agreement_with_exhaustive_matcher(self, plan504):
        """When both declare a singleton they agree on the support
        in at least 99.9% of noisy draws."""
        rng = np.random.default_rng(77)
        rho_b = 10.0
        agree = 0
        both = 0
        for _ in range(10_000):
            stage = int(rng.integers(plan504.d))
            f = plan504.bin_counts[stage]
            ell = int(rng.integers(plan504.n))
            value = math.sqrt(rho_b / f) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            obs = make_singleton_obs(plan504, ell, value, rng=rng, stage=stage)
            reason, support, _, _ = classify_one(*obs, plan504)
            if reason.kind is not VerdictKind.SINGLETON:
                continue
            brute_ell, _, _ = oracle.brute_singleton(*obs, plan504)
            both += 1
            agree += brute_ell == support
        assert both > 5000
        assert agree / both >= 0.999

    def test_misclassification_rate_at_five_db(self, plan_big):
        """Support identification errors stay under 1e-3 at the default
        cluster geometry and 5 dB per-coefficient SNR."""
        rho = 10 ** 0.5
        amp = math.sqrt(rho)
        rng = np.random.default_rng(7)
        trials = 10_000
        bad = 0
        for _ in range(trials):
            stage = int(rng.integers(plan_big.d))
            ell = int(rng.integers(plan_big.n))
            value = amp * np.exp(1j * rng.uniform(0, 2 * np.pi))
            obs = make_singleton_obs(plan_big, ell, value, rng=rng, stage=stage)
            reason, support, _, _ = classify_one(*obs, plan_big)
            if reason.kind is not VerdictKind.SINGLETON or support != ell:
                bad += 1
        assert bad / trials <= 1e-3


def _mixed_rows(plan, seed, count):
    """count bin rows of every kind: empty, noise, lone tones, two-tone
    mixtures, rows with a zero sample or a NaN sample; with the bank row,
    (stage, bin), each stands for."""
    rng = np.random.default_rng(seed)
    d = plan.chain_count
    rows, row_ids = [], []
    for _ in range(count):
        stage = int(rng.integers(plan.d))
        f = plan.bin_counts[stage]
        ell = int(rng.integers(plan.n))
        y = math.sqrt(f) * rng.uniform(0.5, 3.0) * np.exp(2j * np.pi * rng.uniform()) \
            * steering_vector(ell, plan)
        kind = int(rng.integers(6))
        if kind == 2:
            y = y + math.sqrt(f) * 1.5j * steering_vector(ell + f, plan)
        y = y + (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * rng.uniform(0, 1)
        if kind == 0:
            y = np.zeros(d, complex)
        elif kind == 3:
            y[int(rng.integers(d))] = 0
        elif kind == 5:
            y[int(rng.integers(d))] = complex(np.nan, 0)
        rows.append(y)
        row_ids.append(plan.row_offsets[stage] + ell % f)
    return np.array(rows), np.array(row_ids)


class TestBinStatistics:
    def test_each_reason_is_reached(self, plan20):
        """One constructed row per reason.  A tone whose chain samples are
        scaled by positive reals keeps its exact phase differences, so
        its estimate is the tone's own support, while the scaling sets
        the fit's residual: one dominant sample leaves about 5/6 of the
        energy unexplained, under the residual cap at energy 10 and over
        it at energy 100."""
        d = plan20.chain_count
        cap = singleton_residual_threshold(d)
        assert zero_ton_threshold(plan20) < 10.0 < cap < 100.0 * (1 - 1 / d)
        tone = steering_vector(13, plan20)
        spiky = np.full(d, 1e-3)
        spiky[0] = 1.0
        zero_sample = 2.0 * tone
        zero_sample[2] = 0
        rows = np.array([
            np.zeros(d, complex),  # energy gate
            zero_sample,  # zero sample
            2.0 * tone,  # support 13 seen in bin 14 % 4 = 2: off its class
            10.0 * tone * spiky,  # residual over the cap
            math.sqrt(10.0) * tone * spiky,  # residual under the cap, poor fit
            2.0 * tone,  # a lone tone
        ])
        # bins 0, 1, 2, 1, 1, 1 of stage 0, whose bins are the bank's first rows
        stats = bin_statistics(rows, [0, 1, 2, 1, 1, 1], plan20)
        reasons = list(map(classify_bin, stats.reason.tolist()))
        assert reasons == list(VerdictReason)
        assert [reason.kind for reason in reasons] == (
            [VerdictKind.ZERO_TON] + [VerdictKind.MULTI_TON] * 4 + [VerdictKind.SINGLETON]
        )
        assert stats.support.tolist() == [0] * 5 + [13]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_energy_is_row_energies_bit_for_bit(self, plan504, seed):
        """stats.energy is row_energies of the same rows, byte for byte,
        whether the stack is the whole bank or one row, and so is the
        residual of every row that was not fitted."""
        con = Constellation(4.0)
        signal = add_noise(synthesize(random_spectrum(plan504.n, 7, con, seed)), 1.0, seed)
        rows = subsample_and_transform(signal, plan504).rows
        mixed, mixed_ids = _mixed_rows(plan504, seed, 24)
        for stack, row_ids in ((rows, np.arange(len(rows))), (mixed, mixed_ids)):
            expected = row_energies(stack)
            stats = bin_statistics(stack, row_ids, plan504, con)
            assert stats.energy.tobytes() == expected.tobytes()
            unfitted = stats.reason < VerdictReason.RESIDUAL_CAP
            assert stats.residual[unfitted].tobytes() == expected[unfitted].tobytes()
            for i in range(len(stack)):
                alone = bin_statistics(stack[i : i + 1], row_ids[i : i + 1], plan504, con)
                assert alone.energy.tobytes() == expected[i : i + 1].tobytes()

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 24), snap=st.booleans())
    def test_stack_matches_one_row_calls(self, plan504, seed, count, snap):
        """Each row of a stacked call gets the reason and support of a
        call on that row alone, in arrays of a numeric dtype, never object;
        sums may run in another order in the two forms, so values and
        residuals agree to a few ulp, and a NaN row's residual is NaN in both."""
        con = Constellation(4.0) if snap else None
        rows, row_ids = _mixed_rows(plan504, seed, count)
        stacked = bin_statistics(rows, row_ids, plan504, con)
        alone = BinStatistics._make(map(np.concatenate, zip(*(
            bin_statistics(rows[i : i + 1], row_ids[i : i + 1], plan504, con)
            for i in range(count)
        ))))
        assert [field.dtype.name for field in stacked] == [
            "int8", "int64", "complex128", "float64", "float64"
        ]
        np.testing.assert_array_equal(stacked.reason, alone.reason)
        np.testing.assert_array_equal(stacked.support, alone.support)
        ulp = np.finfo(float).eps
        np.testing.assert_allclose(stacked.value, alone.value, rtol=64 * ulp, atol=0)
        scale = np.fmax(1.0, row_energies(rows))
        np.testing.assert_allclose(
            stacked.residual / scale, alone.residual / scale, rtol=0, atol=64 * ulp
        )
