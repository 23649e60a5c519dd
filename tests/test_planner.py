"""Planner tests: stage factorizations, cluster geometry, incoherence screening."""
import dataclasses
import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffast import planner
from ffast.oracle import coherence_profile
from ffast.planner import (
    C1,
    MAX_SHIFT_DRAWS,
    MU_CEILING,
    PRESETS,
    FrontendPlan,
    PlanningError,
    build_plan,
    choose_cluster_params,
    draw_heads,
    incoherence_bound,
    plan_stages,
    preset_by_name,
    smallest_coprime_base,
    sparsity_index,
    verify_incoherence,
)

# The plan seed of the benchmark workloads and acceptance 3.
BENCH_PLAN_SEED = 20260817


def _bench_plan(preset):
    return build_plan(preset, 40, clusters=12, per_cluster=3, seed=BENCH_PLAN_SEED)


class TestPlanStages:
    def test_forced_two_stage_fixture(self):
        assert plan_stages(PRESETS["paper-20"], 5) == (4, 5)
        assert plan_stages(PRESETS["paper-20"], 20) == (4, 5)

    def test_three_coprime_stages(self):
        bins = plan_stages(PRESETS["paper-124950"], 40)
        assert bins == (49, 50, 51)
        assert tuple(124950 // f for f in bins) == (2550, 2499, 2450)

    def test_less_sparse_regime_products(self):
        # sparsity index ~2/3 pushes into the product-factor regime
        assert sparsity_index(1430, 127) == pytest.approx(2 / 3, abs=1e-3)
        assert plan_stages(PRESETS["paper-1430"], 127) == (110, 143, 130)

    @pytest.mark.parametrize("preset", ["n504", "paper-124950"])
    def test_k_equal_to_n_is_a_planning_error(self, preset):
        """delta = 1 at k = n, where d = 1/(1 - delta) diverges."""
        entry = PRESETS[preset]
        with pytest.raises(PlanningError, match="unboundedly many stages"):
            plan_stages(entry, entry.n)

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
        assert smallest_coprime_base(n) == base

    def test_cluster_count_covers_the_grid(self):
        # the last refinement interval must fit inside one frequency cell
        for n in (20, 504, 1430, 124950):
            c, b = choose_cluster_params(n).clusters, smallest_coprime_base(n)
            assert b ** (c - 1) * C1 > n
            assert c == 1 or b ** (c - 2) * C1 <= n


class TestShifts:
    def test_cluster_shift_expansion(self):
        plan = FrontendPlan(n=1430, bin_counts=(10, 11, 13), per_cluster=2, heads=(5, 100))
        assert plan.base == 3
        assert plan.shifts == (5, 6, 100, 103)

    def test_single_cluster_consecutive(self):
        plan = FrontendPlan(n=20, bin_counts=(4, 5), per_cluster=3, heads=(0,))
        assert plan.shifts == (0, 1, 2)

    def test_draw_heads_shape_and_determinism(self):
        a = draw_heads(1430, 4, seed=9)
        assert a == draw_heads(1430, 4, seed=9)
        assert len(a) == 4
        assert all(0 <= h < 1430 for h in a)

    def test_draw_heads_validation(self):
        for clusters in (0, -3):
            with pytest.raises(PlanningError):
                draw_heads(100, clusters, seed=0)

    @pytest.mark.parametrize("clusters", [1, 12, 25, 30, 40])
    def test_shifts_are_exact_at_large_cluster_counts(self, clusters):
        """At n = 1,499,400 (base 11) 11**(C-1) overflows int64 from C = 20
        on; the shifts must still be the exact Python-int formula."""
        n = PRESETS["paper-124950x12"].n
        heads = draw_heads(n, clusters, seed=BENCH_PLAN_SEED)
        plan = FrontendPlan(n=n, bin_counts=(49, 50, 51), per_cluster=3, heads=heads)
        assert plan.base == 11
        expected = [(h + j * 11**c) % n for c, h in enumerate(heads) for j in range(3)]
        assert plan.shift_array.dtype == np.int64
        assert plan.shift_array.tolist() == expected
        assert plan.shifts == tuple(expected)


class TestFrontendPlan:
    def test_properties(self, plan20):
        assert plan20.d == 2
        assert plan20.base == 3
        assert plan20.clusters == len(plan20.heads)
        assert plan20.chain_count == plan20.clusters * plan20.per_cluster == len(plan20.shifts)
        assert plan20.periods == (5, 4)
        assert plan20.sample_count == plan20.chain_count * sum(plan20.bin_counts)
        assert plan20.shifts == tuple(plan20.shift_array.tolist())
        assert not plan20.shift_array.flags.writeable

    def test_fields_are_the_whole_plan(self):
        assert [f.name for f in dataclasses.fields(FrontendPlan)] == [
            "n", "bin_counts", "per_cluster", "heads"]

    def test_rejects_bin_count_not_dividing_n(self):
        with pytest.raises(ValueError):
            FrontendPlan(n=20, bin_counts=(3, 5), per_cluster=2, heads=(0,))

    @pytest.mark.parametrize("per_cluster", [1, 0])
    def test_rejects_fewer_than_two_chains_per_cluster(self, per_cluster):
        with pytest.raises(ValueError, match="per_cluster"):
            FrontendPlan(n=20, bin_counts=(4, 5), per_cluster=per_cluster, heads=(0,))

    def test_rejects_empty_heads(self):
        with pytest.raises(ValueError, match="head"):
            FrontendPlan(n=20, bin_counts=(4, 5), per_cluster=2, heads=())


def _rfft_mu_max(shifts, n):
    """max_l mu(l) as one rfft of the translated shift histogram."""
    shifts = np.asarray(shifts, dtype=np.int64)
    hist = np.bincount((shifts - shifts[0]) % n, minlength=n).astype(np.float64)
    return float(np.abs(np.fft.rfft(hist))[1:].max() / shifts.size)


@st.composite
def _small_shift_sets(draw):
    """A plan-shaped (n, shifts) at a small preset length, with D on both
    sides of the 9*D**2 > n switch to the rfft and shifts that may repeat."""
    n = draw(st.sampled_from(sorted({p.n for p in PRESETS.values() if p.n <= 4845})))
    d_switch = math.isqrt(n // 9)  # the largest D on the blocked side
    if draw(st.booleans()):
        d_chains = draw(st.integers(1, d_switch))
    else:
        d_chains = draw(st.integers(d_switch + 1, 2 * d_switch + 2))
    shifts = draw(st.lists(st.integers(0, n - 1), min_size=d_chains, max_size=d_chains))
    if d_chains > 1 and draw(st.booleans()):
        shifts[-1] = shifts[0]
    return SimpleNamespace(n=n, shift_array=np.array(shifts, dtype=np.int64), chain_count=d_chains)


class TestIncoherence:
    def test_full_shift_set_is_orthogonal(self):
        """These ten heads put the 20 shifts (h, h + 3**c) on all of Z_20."""
        plan = FrontendPlan(n=20, bin_counts=(4, 5), per_cluster=2,
                            heads=(0, 2, 3, 4, 7, 10, 6, 9, 18, 14))
        assert sorted(plan.shifts) == list(range(20))
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

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_small_shift_sets())
    def test_mu_max_is_the_direct_profile_max(self, plan):
        direct = coherence_profile(plan, np.arange(1, plan.n))
        assert verify_incoherence(plan).mu_max == pytest.approx(float(direct.max()), abs=1e-12)

    def test_bound_formula(self):
        plan = FrontendPlan(n=1430, bin_counts=(10, 11, 13), per_cluster=2,
                            heads=(0, 2, 4, 6, 8, 10))
        rep = verify_incoherence(plan)
        assert rep.bound == pytest.approx(2 * math.sqrt(math.log(5 * 1430) / 12))
        assert rep.bound == incoherence_bound(1430, 12)
        assert rep.passed == (rep.mu_max < rep.bound)

    def test_ensemble_pass_fraction(self):
        passing = 0
        for seed in range(200):
            plan = FrontendPlan(n=1430, bin_counts=(10, 11, 13), per_cluster=2,
                                heads=draw_heads(1430, 6, seed))
            passing += verify_incoherence(plan).passed
        assert passing / 200 >= 0.2


@st.composite
def _shift_sets_under_a_vacuous_bound(draw):
    """A plan-shaped (n, shifts) whose bound exceeds MU_CEILING.

    The shifts lie in one coset r + step*Z_n of a subgroup of Z_n.  With
    step > 1, mu(n / step) = 1 exactly, which only a shift set outside
    the clustered layout can reach; step = 1 gives an arbitrary set."""
    n = draw(st.integers(2, 20000))
    d_max = max(d for d in range(2, 65) if incoherence_bound(n, d) > MU_CEILING)
    d_chains = draw(st.integers(2, d_max))
    step = draw(st.sampled_from([q for q in range(1, n) if n % q == 0]))
    offset = draw(st.integers(0, n - 1))
    cosets = draw(st.lists(st.integers(0, n // step - 1), min_size=d_chains, max_size=d_chains))
    shifts = (offset + step * np.array(cosets, dtype=np.int64)) % n
    return SimpleNamespace(n=n, shift_array=shifts, chain_count=d_chains), step


class TestVacuousBound:
    """Where incoherence_bound exceeds MU_CEILING, build_plan keeps the
    first draw without the scan: no draw can fail it there."""

    @pytest.mark.parametrize("preset,k,overrides,scans", [
        ("paper-124950", 40, dict(clusters=12, per_cluster=3), False),
        ("paper-124950x12", 40, dict(clusters=12, per_cluster=3), False),
        ("n504", 4, {}, False),
        ("n4845", 170, {}, True),
    ])
    def test_build_plan_scans_only_under_a_bound_below_one(
            self, preset, k, overrides, scans, monkeypatch):
        def scan(plan):
            raise AssertionError("verify_incoherence called")

        monkeypatch.setattr(planner, "verify_incoherence", scan)
        if scans:
            with pytest.raises(AssertionError, match="verify_incoherence called"):
                build_plan(preset, k, seed=BENCH_PLAN_SEED, **overrides)
        else:
            plan = build_plan(preset, k, seed=BENCH_PLAN_SEED, **overrides)
            assert plan.heads == draw_heads(plan.n, plan.clusters, BENCH_PLAN_SEED)

    @settings(max_examples=300, deadline=None)
    @given(_shift_sets_under_a_vacuous_bound())
    def test_the_full_scan_passes_every_shift_set(self, case):
        plan, step = case
        rep = verify_incoherence(plan)
        assert rep.mu_max <= 1.0 + 1e-12
        assert rep.passed
        if step > 1:
            assert rep.mu_max == pytest.approx(1.0, abs=1e-12)


class TestBlockedScan:
    """verify_incoherence on a plan large enough for the blocked product,
    whose n/2 cut falls mid-row and whose row count is not a multiple of
    the block height: paper-124950 has 177 rows of 354 sums."""

    def test_the_plan_has_a_short_last_block_and_a_mid_row_cut(self):
        plan = _bench_plan("paper-124950")
        stop = plan.n // 2 + 1
        width = math.isqrt(plan.n - 1) + 1
        rows = -(-stop // width)
        assert 9 * plan.chain_count**2 <= plan.n  # the blocked product, not the FFT
        assert (rows, width) == (177, 354)
        assert rows % planner._BLOCK_ROWS and stop % width
        direct = max(
            float(coherence_profile(plan, np.arange(first, min(first + 8192, plan.n))).max())
            for first in range(1, plan.n, 8192)
        )
        assert verify_incoherence(plan).mu_max == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("preset,k,overrides", [
        ("paper-124950", 40, dict(clusters=12, per_cluster=3)),  # sparse-5db
        ("paper-124950x12", 40, dict(clusters=12, per_cluster=3)),  # stretch-x12
        ("n4845", 170, {}),  # dense-noiseless, the one the rfft screens
    ])
    def test_the_benchmark_plans_pass_the_screen(self, preset, k, overrides):
        plan = build_plan(preset, k, seed=BENCH_PLAN_SEED, **overrides)
        assert verify_incoherence(plan).passed


class TestPlanMemory:
    """The memory counterpart of acceptance 4: screening holds O(D*sqrt(n))
    values, so screening a plan for 12x the length needs far less than
    12x the memory.  build_plan skips the scan on both plans (their
    bounds exceed 1), so the scan is measured on its own.  Traced
    allocations time nothing, so this holds on a busy machine too."""

    @staticmethod
    def _traced_scan_peak(preset):
        plan = _bench_plan(preset)
        tracemalloc.start()
        try:
            verify_incoherence(plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_scan_peak_grows_far_slower_than_n(self):
        base = self._traced_scan_peak("paper-124950")
        stretched = self._traced_scan_peak("paper-124950x12")
        assert stretched <= 4.5 * base, (base, stretched)
        assert stretched < 6e6, stretched


class TestBuildPlan:
    def test_emitted_plan_is_screened_and_clustered(self):
        plan = build_plan("n990", 9, seed=5)
        N, b = plan.per_cluster, plan.base
        assert plan.shifts == tuple((h + j * b**c) % plan.n
                                    for c, h in enumerate(plan.heads) for j in range(N))
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
        bound = incoherence_bound(n, params.clusters * params.per_cluster)
        seed = 20260817
        base = smallest_coprime_base(n)
        for draw in range(MAX_SHIFT_DRAWS):
            heads = draw_heads(n, params.clusters, seed + draw)
            shifts = [(h + j * base**c) % n
                      for c, h in enumerate(heads) for j in range(params.per_cluster)]
            if _rfft_mu_max(shifts, n) < bound:
                break
        plan = build_plan(name, 2, seed=seed)
        assert plan.heads == heads
        assert plan.shifts == tuple(shifts)

    def test_retry_cap_constant(self):
        assert MAX_SHIFT_DRAWS == 200


# The benchmark workloads' plan settings (perfbench builds them at BENCH_PLAN_SEED).
WORKLOAD_PLANS = {
    "sparse-5db": dict(preset="paper-124950", k=40, clusters=12, per_cluster=3),
    "stretch-x12": dict(preset="paper-124950x12", k=40, clusters=12, per_cluster=3),
    "dense-noiseless": dict(preset="n4845", k=170),
}


def _plan_digest(named_plans):
    """SHA-256 over each plan's (name, seed, bin_counts, clusters, per_cluster, base, shifts)."""
    digest = hashlib.sha256()
    for name, seed, plan in named_plans:
        record = (name, seed, plan.bin_counts, plan.clusters, plan.per_cluster, plan.base,
                  plan.shifts)
        digest.update(repr(record).encode())
    return digest.hexdigest()


class TestFrozenPlans:
    """Every plan build_plan draws, pinned bit for bit: a change to the
    planner that moves one shift, base or cluster count fails here."""

    def test_preset_plans(self):
        plans = [(name, seed, build_plan(name, 2, seed=seed))
                 for name in sorted(PRESETS) for seed in (0, BENCH_PLAN_SEED)]
        assert len(plans) == 36
        assert _plan_digest(plans) == (
            "79b37bf80d017db80d2daf0ca020fb97269e4ae58a041a08b262e3238c669235")

    def test_workload_plans(self):
        plans = [(name, BENCH_PLAN_SEED, build_plan(**kw, seed=BENCH_PLAN_SEED))
                 for name, kw in WORKLOAD_PLANS.items()]
        assert _plan_digest(plans) == (
            "39c0f8a35e391467804450048863c674ffe3d4260b86eb25217fe6bfe84f8374")
