"""Planner tests: stage factorizations, cluster geometry, incoherence screening."""
import math
import tracemalloc

import numpy as np
import pytest

from ffast.oracle import coherence_profile
from ffast.planner import (
    C1,
    MAX_SHIFT_DRAWS,
    PRESETS,
    FrontendPlan,
    PlanningError,
    build_plan,
    choose_cluster_params,
    cluster_shifts,
    plan_delays,
    plan_stages,
    preset_by_name,
    smallest_coprime_base,
    sparsity_index,
    verify_incoherence,
)
from ffast.spectral import _BLOCK_ROWS, exp_sum_blocks, exp_sums

# The plan seed of the benchmark workloads and acceptance 3.
BENCH_PLAN_SEED = 20260817


def _bench_plan(preset):
    return build_plan(preset, 40, clusters=12, per_cluster=3, seed=BENCH_PLAN_SEED)


class TestPlanStages:
    def test_forced_two_stage_fixture(self):
        assert plan_stages(PRESETS["paper-20"], 5) == (4, 5)

    def test_three_coprime_stages(self):
        bins = plan_stages(PRESETS["paper-124950"], 40)
        assert bins == (49, 50, 51)
        assert tuple(124950 // f for f in bins) == (2550, 2499, 2450)

    def test_less_sparse_regime_products(self):
        # sparsity index ~2/3 pushes into the product-factor regime
        assert sparsity_index(1430, 127) == pytest.approx(2 / 3, abs=1e-3)
        assert plan_stages(PRESETS["paper-1430"], 127) == (110, 143, 130)

    def test_pairwise_coprime_in_very_sparse_regime(self):
        bins = plan_stages(PRESETS["n2730"], 13)
        for i in range(len(bins)):
            for j in range(i + 1, len(bins)):
                assert math.gcd(bins[i], bins[j]) == 1

    def test_crt_uniqueness_of_residues(self):
        bins = plan_stages(PRESETS["n504"], 7)
        seen = set()
        for ell in range(504):
            key = tuple(ell % f for f in bins)
            assert key not in seen
            seen.add(key)


class TestClusterParams:
    @pytest.mark.parametrize(
        "n,base",
        [(124950, 11), (20, 3), (504, 5), (1430, 3), (990, 7), (2730, 11), (21, 2)],
    )
    def test_smallest_coprime_base(self, n, base):
        assert smallest_coprime_base(n) == base
        assert n % base != 0

    @pytest.mark.parametrize(
        "n,clusters,per_cluster,base",
        [(124950, 6, 5, 11), (504, 4, 4, 5), (20, 2, 3, 3), (1430, 6, 4, 3)],
    )
    def test_frozen_choices(self, n, clusters, per_cluster, base):
        params = choose_cluster_params(n)
        assert params.clusters == clusters
        assert params.per_cluster == per_cluster
        assert params.base == base

    def test_cluster_count_covers_the_grid(self):
        # the last refinement interval must fit inside one frequency cell
        for n in (20, 504, 1430, 124950):
            params = choose_cluster_params(n)
            c, b = params.clusters, params.base
            assert b ** (c - 1) * C1 > n
            assert c == 1 or b ** (c - 2) * C1 <= n


class TestShifts:
    def test_cluster_shift_expansion(self):
        shifts = cluster_shifts(np.array([5, 100]), 2, 3, 1430)
        assert list(shifts) == [5, 6, 100, 103]

    def test_single_cluster_consecutive(self):
        shifts = cluster_shifts(np.array([0]), 3, 2, 64)
        assert list(shifts) == [0, 1, 2]

    def test_plan_delays_shape_and_determinism(self):
        a = plan_delays(1430, 4, 3, 3, seed=9)
        b = plan_delays(1430, 4, 3, 3, seed=9)
        assert a.shape == (12,)
        np.testing.assert_array_equal(a, b)
        assert np.all((a >= 0) & (a < 1430))

    def test_plan_delays_validation(self):
        with pytest.raises(PlanningError):
            plan_delays(100, 2, 1, 3, seed=0)
        with pytest.raises(PlanningError):
            plan_delays(100, 0, 3, 3, seed=0)


class TestFrontendPlan:
    def test_properties(self, plan20):
        assert plan20.d == 2
        assert plan20.chain_count == plan20.clusters * plan20.per_cluster
        assert plan20.periods == (5, 4)
        assert plan20.sample_count == plan20.chain_count * sum(plan20.bin_counts)
        assert plan20.clustered

    def test_rejects_bin_count_not_dividing_n(self):
        with pytest.raises(ValueError):
            FrontendPlan(n=20, bin_counts=(3, 5), clusters=1, per_cluster=2,
                         base=3, shifts=(0, 1))

    def test_rejects_base_dividing_n(self):
        with pytest.raises(ValueError):
            FrontendPlan(n=20, bin_counts=(4, 5), clusters=1, per_cluster=2,
                         base=2, shifts=(0, 1))

    def test_rejects_shift_count_mismatch(self):
        with pytest.raises(ValueError):
            FrontendPlan(n=20, bin_counts=(4, 5), clusters=2, per_cluster=2,
                         base=3, shifts=(0, 1, 2))

    def test_scrambled_shifts_are_not_clustered(self):
        plan = FrontendPlan(n=20, bin_counts=(4, 5), clusters=2, per_cluster=2,
                            base=3, shifts=(0, 5, 11, 2))
        assert not plan.clustered


def _rfft_mu_max(shifts, n):
    """max_l mu(l) as one rfft of the translated shift histogram."""
    shifts = np.asarray(shifts, dtype=np.int64)
    hist = np.bincount((shifts - shifts[0]) % n, minlength=n).astype(np.float64)
    return float(np.abs(np.fft.rfft(hist))[1:].max() / shifts.size)


class TestIncoherence:
    def test_all_equal_shifts_gives_mu_one(self):
        plan = FrontendPlan(n=20, bin_counts=(4, 5), clusters=2, per_cluster=2,
                            base=3, shifts=(7, 7, 7, 7))
        rep = verify_incoherence(plan)
        assert rep.mu_max == 1.0

    def test_full_shift_set_is_orthogonal(self):
        plan = FrontendPlan(n=20, bin_counts=(4, 5), clusters=10, per_cluster=2,
                            base=3, shifts=tuple(range(20)))
        rep = verify_incoherence(plan)
        assert rep.mu_max < 1e-9

    def test_fft_scan_matches_direct_profile(self, plan504):
        ells = np.arange(1, plan504.n)
        direct = coherence_profile(plan504, ells)
        rep = verify_incoherence(plan504)
        assert rep.mu_max == pytest.approx(float(direct.max()), abs=1e-12)

    @pytest.mark.parametrize("preset,k,seed", [
        ("paper-20", 2, 3), ("n504", 7, 17), ("n990", 90, 5), ("paper-1430", 2, 0),
        ("n2730", 170, 1), ("n4845", 170, 2), ("paper-124950", 40, 1),
    ])
    def test_mu_max_matches_the_histogram_rfft(self, preset, k, seed):
        plan = build_plan(preset, k, seed=seed)
        rep = verify_incoherence(plan)
        assert rep.mu_max == pytest.approx(_rfft_mu_max(plan.shifts, plan.n), abs=1e-12)

    def test_bound_formula(self):
        plan = FrontendPlan(n=1430, bin_counts=(10, 11, 13), clusters=6,
                            per_cluster=2, base=3, shifts=tuple(range(12)))
        rep = verify_incoherence(plan)
        assert rep.bound == pytest.approx(2 * math.sqrt(math.log(5 * 1430) / 12))
        assert rep.passed == (rep.mu_max < rep.bound)

    def test_ensemble_pass_fraction(self):
        passing = 0
        for seed in range(200):
            shifts = plan_delays(1430, 6, 2, 3, seed)
            plan = FrontendPlan(n=1430, bin_counts=(10, 11, 13), clusters=6,
                                per_cluster=2, base=3,
                                shifts=tuple(int(s) for s in shifts))
            passing += verify_incoherence(plan).passed
        assert passing / 200 >= 0.2


class TestBlockedScan:
    """verify_incoherence on a plan large enough for the blocked product,
    whose n/2 cut falls mid-row and whose row count is not a multiple of
    the block height: paper-124950 has 177 rows of 354 sums."""

    @pytest.fixture(scope="class")
    def plan(self):
        return _bench_plan("paper-124950")

    @staticmethod
    def _runs(plan):
        shifts = plan.shift_array
        ones = np.ones(plan.chain_count)
        return exp_sum_blocks(plan.n, shifts - shifts[0], ones, stop=plan.n // 2 + 1)

    def test_the_plan_has_a_short_last_block_and_a_mid_row_cut(self, plan):
        stop = plan.n // 2 + 1
        width = math.isqrt(plan.n - 1) + 1
        rows = -(-stop // width)
        assert 9 * plan.chain_count**2 <= plan.n  # the blocked product, not the FFT
        assert (rows, width) == (177, 354)
        assert rows % _BLOCK_ROWS and stop % width
        sizes = [run.size for run in self._runs(plan)]
        assert sizes == [_BLOCK_ROWS * width, stop - _BLOCK_ROWS * width]

    def test_scan_matches_the_direct_profile_at_every_l(self, plan):
        d_chains = plan.chain_count
        half = np.concatenate([np.abs(run) for run in self._runs(plan)]) / d_chains
        # mu(n - l) = mu(l): the half scanned gives every l in 0..n-1
        scanned = np.concatenate([half, half[1 : plan.n - half.size + 1][::-1]])
        direct = np.concatenate([
            coherence_profile(plan, np.arange(first, min(first + 8192, plan.n)))
            for first in range(0, plan.n, 8192)
        ])
        np.testing.assert_allclose(scanned, direct, rtol=0, atol=1e-12)
        mu_max = verify_incoherence(plan).mu_max
        assert mu_max == pytest.approx(float(direct[1:].max()), abs=1e-12)

    @pytest.mark.parametrize("preset", ["paper-124950", "paper-124950x12"])
    def test_mu_max_is_the_dense_scan_bit_for_bit(self, preset):
        """The sparse-5db and stretch-x12 benchmark plans."""
        plan = _bench_plan(preset)
        shifts = plan.shift_array
        d_chains = plan.chain_count
        sums = exp_sums(plan.n, shifts - shifts[0], np.ones(d_chains))[: plan.n // 2 + 1]
        assert verify_incoherence(plan).mu_max == np.abs(sums[1:]).max() / d_chains


class TestPlanMemory:
    """The memory counterpart of acceptance 4: screening holds O(D*sqrt(n))
    values, so a plan for 12x the length needs far less than 12x the
    memory to build.  Traced allocations time nothing, so this holds on a
    busy machine too."""

    @staticmethod
    def _traced_build_peak(preset):
        tracemalloc.start()
        try:
            _bench_plan(preset)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_peak_grows_far_slower_than_n(self):
        base = self._traced_build_peak("paper-124950")
        stretched = self._traced_build_peak("paper-124950x12")
        assert stretched <= 4.5 * base, (base, stretched)
        assert stretched < 6e6, stretched


class TestBuildPlan:
    def test_emitted_plan_is_screened_and_clustered(self):
        plan = build_plan("n990", 9, seed=5)
        assert plan.clustered
        assert verify_incoherence(plan).passed

    def test_deterministic(self):
        a = build_plan("n504", 7, seed=21)
        b = build_plan("n504", 7, seed=21)
        assert a == b

    def test_cluster_overrides(self):
        plan = build_plan("paper-124950", 40, clusters=12, per_cluster=3, seed=1)
        assert plan.clusters == 12
        assert plan.per_cluster == 3
        assert plan.chain_count == 36

    def test_unknown_preset(self):
        with pytest.raises(PlanningError):
            preset_by_name("no-such-preset")
        with pytest.raises(PlanningError):
            build_plan("no-such-preset", 4, seed=0)

    def test_sweep_presets_scale_n(self):
        for scale in (2, 7, 12):
            preset = PRESETS[f"paper-124950x{scale}"]
            assert preset.n == scale * 124950

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_shifts_match_rfft_screening(self, name):
        """build_plan keeps the first draw that an rfft scan passes."""
        n = PRESETS[name].n
        params = choose_cluster_params(n)
        d_chains = params.clusters * params.per_cluster
        bound = 2.0 * math.sqrt(math.log(5.0 * n) / d_chains)
        seed = 20260817
        for draw in range(MAX_SHIFT_DRAWS):
            shifts = plan_delays(n, params.clusters, params.per_cluster, params.base, seed + draw)
            if _rfft_mu_max(shifts, n) < bound:
                break
        assert build_plan(name, 2, seed=seed).shifts == tuple(int(r) for r in shifts)

    def test_retry_cap_constant(self):
        assert MAX_SHIFT_DRAWS == 200
