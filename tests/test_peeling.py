"""Peeling decoder tests: peel arithmetic, convergence, graph decodability."""
import numpy as np
import pytest

from ffast import oracle
from ffast.bench import ExperimentConfig, plan_for_config
from ffast.frontend import subsample_and_transform
from ffast.peeling import decode, peel
from ffast.planner import FrontendPlan, build_plan, cluster_shifts
from ffast.singleton import zero_ton_threshold
from ffast.spectral import (
    Constellation,
    SparseSpectrum,
    add_noise,
    random_spectrum,
    synthesize,
)

# (pass, stage, bin, support, index into Constellation.points()) of every
# peel event of three sparse-5db decodes (paper-124950, k=40, 5 dB, C=12,
# N=3, plan seed 20260817), keyed by trial seed.  A refactor of the
# classifier or the decoder must leave these unchanged.
FROZEN_SPARSE_5DB_EVENTS = {
    1: [
        (1, 0, 0, 30233, 13), (1, 0, 46, 68597, 0), (1, 0, 45, 48212, 10),
        (1, 2, 0, 99603, 1), (1, 0, 43, 52375, 15), (1, 0, 48, 80604, 4),
        (1, 2, 13, 16078, 9), (1, 2, 29, 41900, 7), (1, 1, 13, 36863, 4),
        (1, 1, 19, 3119, 1), (1, 0, 34, 10275, 8), (1, 2, 18, 39594, 1),
        (1, 2, 15, 106452, 2), (1, 1, 15, 1465, 5), (1, 1, 38, 28138, 1),
        (1, 2, 50, 107252, 5), (1, 1, 18, 72518, 10), (1, 2, 38, 752, 0),
        (1, 0, 8, 77281, 14), (1, 0, 23, 88027, 5), (1, 1, 17, 46467, 10),
        (1, 2, 3, 83031, 5), (1, 2, 33, 107439, 10), (1, 1, 45, 12795, 10),
        (1, 2, 19, 33577, 9), (1, 0, 22, 50002, 13), (1, 0, 9, 114620, 10),
        (1, 0, 3, 118583, 10), (1, 2, 35, 83522, 6), (1, 1, 11, 103911, 1),
        (1, 2, 4, 74974, 8), (1, 2, 48, 83841, 6), (1, 1, 40, 69790, 14),
        (1, 1, 46, 85696, 12), (2, 2, 41, 56600, 3), (2, 2, 47, 121172, 8),
        (2, 0, 12, 82920, 14), (2, 0, 14, 60970, 5), (2, 0, 26, 95772, 11),
        (2, 0, 4, 120691, 12),
    ],
    2: [
        (1, 1, 29, 96779, 13), (1, 0, 38, 27135, 0), (1, 1, 6, 51956, 5),
        (1, 0, 28, 35259, 0), (1, 1, 44, 91444, 10), (1, 1, 5, 53955, 14),
        (1, 2, 0, 11169, 11), (1, 0, 44, 67468, 13), (1, 0, 23, 115320, 15),
        (1, 2, 30, 121563, 3), (1, 2, 39, 99489, 15), (1, 1, 31, 48381, 6),
        (1, 2, 37, 48589, 11), (1, 0, 42, 28511, 0), (1, 1, 28, 119228, 7),
        (1, 0, 15, 3543, 4), (1, 2, 23, 112223, 2), (1, 1, 1, 11451, 2),
        (1, 0, 47, 48557, 9), (1, 2, 45, 34776, 0), (1, 2, 50, 61403, 8),
        (1, 1, 22, 92872, 11), (1, 2, 40, 96889, 14), (1, 0, 33, 76620, 11),
        (1, 0, 0, 33859, 13), (1, 1, 0, 58050, 13), (1, 2, 25, 43375, 1),
        (1, 1, 10, 73360, 9), (1, 2, 47, 67775, 3), (1, 1, 4, 101204, 3),
        (1, 1, 14, 105064, 12), (1, 2, 16, 44743, 14), (1, 0, 48, 47823, 3),
        (1, 0, 29, 56085, 5), (1, 1, 15, 24615, 1), (1, 0, 22, 20063, 12),
        (1, 0, 40, 72119, 0), (2, 0, 34, 20075, 13), (2, 0, 30, 18209, 2),
        (2, 1, 26, 119826, 4),
    ],
    3: [
        (1, 1, 26, 44426, 10), (1, 1, 35, 33935, 14), (1, 1, 29, 13429, 11),
        (1, 1, 39, 70889, 2), (1, 2, 26, 118040, 11), (1, 1, 44, 91094, 2),
        (1, 2, 11, 69014, 15), (1, 2, 15, 57033, 11), (1, 2, 24, 43374, 9),
        (1, 2, 1, 60895, 15), (1, 0, 44, 31208, 1), (1, 2, 49, 4741, 9),
        (1, 0, 47, 14502, 4), (1, 0, 7, 124810, 1), (1, 2, 39, 64758, 5),
        (1, 0, 13, 55187, 11), (1, 0, 28, 64610, 8), (1, 1, 36, 90386, 11),
        (1, 1, 5, 36605, 2), (1, 2, 22, 87538, 4), (1, 0, 31, 82743, 14),
        (1, 2, 35, 82910, 7), (1, 2, 7, 31627, 9), (1, 2, 30, 32364, 1),
        (1, 2, 45, 84807, 11), (1, 0, 33, 35999, 3), (1, 0, 42, 119259, 11),
        (1, 2, 37, 49099, 12), (1, 2, 48, 51966, 6), (1, 2, 46, 3259, 12),
        (1, 1, 12, 162, 12), (2, 2, 18, 86208, 13), (2, 0, 15, 92233, 3),
        (2, 0, 25, 100916, 4), (2, 2, 8, 10616, 11), (2, 0, 3, 55961, 12),
        (2, 1, 27, 13327, 3), (2, 0, 26, 47752, 0), (2, 0, 1, 11908, 14),
        (2, 2, 9, 5211, 8),
    ],
}


def _bank_for(spectrum, plan):
    return subsample_and_transform(synthesize(spectrum), plan)


class TestPeel:
    def test_peeling_a_lone_tone_empties_its_bins(self, plan20):
        value = 1.5 - 0.5j
        spectrum = SparseSpectrum.from_pairs(20, [(10, value)])
        bank = _bank_for(spectrum, plan20).copy()
        peel(bank, 10, value)
        for stage in range(plan20.d):
            assert np.all(bank.energies(stage) < 1e-18)

    def test_peel_and_unpeel_restore_the_bank(self, plan504):
        spectrum = random_spectrum(504, 7, Constellation(2.0), seed=6)
        bank = _bank_for(spectrum, plan504)
        work = bank.copy()
        peel(work, 123, 0.7 - 0.2j)
        peel(work, 123, -(0.7 - 0.2j))
        for stage in range(plan504.d):
            assert np.max(np.abs(work.stages[stage] - bank.stages[stage])) < 1e-12

    def test_peel_matches_aliasing_recomputation(self, plan20):
        values = {1: 1.5 + 0j, 3: 1.5j, 5: -1.5 + 0j, 10: 1.5 - 0.5j, 15: -1.5j}
        full = SparseSpectrum.from_pairs(20, values)
        bank = _bank_for(full, plan20).copy()
        peel(bank, 10, values[10])
        remaining = SparseSpectrum.from_pairs(
            20, {l: v for l, v in values.items() if l != 10}
        )
        expected = _bank_for(remaining, plan20)
        for stage in range(plan20.d):
            assert np.max(np.abs(bank.stages[stage] - expected.stages[stage])) < 1e-9


class TestDecodeNoiseless:
    def test_all_zero_bank_converges_immediately(self, plan20):
        bank = _bank_for(SparseSpectrum.empty(20), plan20)
        result = decode(bank)
        assert result.converged
        assert result.spectrum.k == 0
        assert result.passes == 1

    def test_textbook_instance_recovers_exact_set(self, plan20):
        values = {1: 1.5 + 0j, 3: 1.5j, 5: -1.5 + 0j, 10: 1.5 - 0.5j, 15: -1.5j}
        spectrum = SparseSpectrum.from_pairs(20, values)
        result = decode(_bank_for(spectrum, plan20))
        assert result.converged
        assert set(result.spectrum.indices.tolist()) == set(values)
        assert result.spectrum.max_abs_difference(spectrum) < 1e-9
        # the lone stage-0 singleton is uncovered in the first pass
        first_pass = [ev.support for ev in result.events if ev.pass_index == 1]
        assert 10 in first_pass

    def test_events_match_spectrum_one_to_one(self, plan504):
        spectrum = random_spectrum(504, 7, Constellation(4.0), seed=14)
        result = decode(_bank_for(spectrum, plan504))
        supports = [ev.support for ev in result.events]
        assert len(supports) == len(set(supports))
        assert sorted(supports) == list(result.spectrum.indices)

    def test_monotone_progress_and_pass_budget(self, plan990):
        for seed in range(25):
            truth = random_spectrum(990, 9, Constellation(4.0), seed=400 + seed)
            if not oracle.noiseless_check(truth, plan990):
                continue
            result = decode(_bank_for(truth, plan990))
            assert result.converged
            assert result.passes <= 32
            # every committed support is genuine: no spurious coefficients
            truth_set = set(truth.indices.tolist())
            for ev in result.events:
                assert ev.support in truth_set

    def test_success_iff_graph_is_decodable(self):
        """Decode succeeds exactly when count-only peeling succeeds.

        Larger k drives some alias graphs into stopping sets, exercising
        both directions of the equivalence.
        """
        plans = {
            "n504": build_plan("n504", 7, seed=17),
            "n990": build_plan("n990", 9, seed=17),
        }
        con = Constellation(4.0)
        rng = np.random.default_rng(60_000)
        checked = 0
        undecodable_seen = 0
        for trial in range(1000):
            name = "n504" if trial % 2 == 0 else "n990"
            plan = plans[name]
            k = int(rng.integers(1, 13))
            truth = random_spectrum(plan.n, k, con, seed=61_000 + trial)
            decodable = oracle.noiseless_check(truth, plan)
            result = decode(_bank_for(truth, plan))
            recovered = (
                result.converged
                and result.spectrum.max_abs_difference(truth) < 1e-9
            )
            assert recovered == decodable, f"{name} trial {trial} k={k}"
            checked += 1
            undecodable_seen += not decodable
        assert checked == 1000
        assert undecodable_seen > 0  # both branches exercised

    def test_residual_consistency_after_convergence(self, plan504):
        truth = random_spectrum(504, 7, Constellation(4.0), seed=21)
        bank = _bank_for(truth, plan504)
        result = decode(bank)
        assert result.converged
        rebuilt = _bank_for(result.spectrum, plan504)
        gate = zero_ton_threshold(plan504)
        for stage in range(plan504.d):
            leftover = bank.stages[stage] - rebuilt.stages[stage]
            energies = np.einsum("ij,ij->i", leftover.conj(), leftover).real
            assert np.all(energies < gate)

    def test_decode_does_not_mutate_the_input_bank(self, plan504):
        truth = random_spectrum(504, 5, Constellation(4.0), seed=33)
        bank = _bank_for(truth, plan504)
        before = [s.copy() for s in bank.stages]
        decode(bank)
        for stage in range(plan504.d):
            np.testing.assert_array_equal(bank.stages[stage], before[stage])


class TestDecodeStructure:
    def test_undecodable_four_cycle_reports_failure(self):
        """Two stages, four coefficients in a closed alias cycle: no bin is
        ever a singleton, so decode must stop without converging."""
        heads = (0, 11, 37, 71, 113, 167, 229, 301)
        shifts = tuple(int(s) for s in cluster_shifts(heads, 2, 5, 504))
        plan = FrontendPlan(n=504, bin_counts=(7, 8), clusters=8, per_cluster=2,
                            base=5, shifts=shifts)
        cycle = SparseSpectrum.from_pairs(
            504, [(0, 2.0 + 0j), (49, 2.0j), (8, -2.0 + 0j), (57, -2.0j)]
        )
        assert not oracle.noiseless_check(cycle, plan)
        result = decode(_bank_for(cycle, plan))
        assert not result.converged
        assert result.spectrum.k == 0
        assert len(result.multi_ton_bins) > 0

    def test_max_passes_cap_respected(self, plan504):
        truth = random_spectrum(504, 7, Constellation(4.0), seed=2)
        result = decode(_bank_for(truth, plan504), max_passes=1)
        assert result.passes <= 1


class TestDecodeFrozen:
    def test_sparse_5db_events_are_frozen(self):
        """Fixed-seed noisy decodes peel the same (pass, stage, bin,
        support) sequence as before, and every value is bit-for-bit a
        constellation point."""
        kw = dict(preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3)
        plan = plan_for_config(ExperimentConfig(**kw, seed=20260817))
        con = Constellation(ExperimentConfig(**kw).rho)
        points = con.points()
        for seed, expected in FROZEN_SPARSE_5DB_EVENTS.items():
            truth = random_spectrum(plan.n, 40, con, seed)
            signal = add_noise(synthesize(truth), 1.0, seed)
            result = decode(subsample_and_transform(signal, plan), con)
            events = [(e.pass_index, e.stage, e.bin, e.support) for e in result.events]
            assert events == [event[:4] for event in expected]
            values = [e.value for e in result.events]
            assert values == [points[event[4]] for event in expected]
