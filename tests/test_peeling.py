"""Peeling decoder tests: peel arithmetic, convergence, graph decodability."""
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffast import oracle, peeling
from ffast.bench import ExperimentConfig, plan_for_config
from ffast.frontend import (
    BinBank,
    row_energies,
    steering_vector,
    subsample_and_transform,
    subtract_batch,
)
from ffast.peeling import EXACT_FIT_RESIDUAL, MAX_PASSES, decode
from ffast.planner import FrontendPlan, build_plan
from ffast.randomness import generator
from ffast.singleton import (
    VerdictReason,
    bin_statistics,
    singleton_residual_threshold,
    zero_ton_threshold,
)
from ffast.spectral import (
    Constellation,
    add_noise,
    random_phase_spectrum,
    random_spectrum,
    synthesize,
)

from conftest import bank_from_samples, spectrum

# (pass, stage, bin, support, index into Constellation.points) of every
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

# The same record for three dense-noiseless decodes (n4845, k=170,
# noiseless, plan seed 20260817), keyed by trial seed.
FROZEN_DENSE_NOISELESS_EVENTS = (
    Path(__file__).parent / "data" / "frozen_dense_noiseless_events.json"
)


def _bank_for(spectrum, plan):
    return subsample_and_transform(synthesize(spectrum), plan)


def _rows_of(support, plan):
    """The bank row, one per stage, that support aliases into."""
    return [o + support % f for o, f in zip(plan.row_offsets, plan.bin_counts)]


def _batch(peels):
    """The (support, value) pairs peels as subtract_batch's two arrays."""
    supports = np.array([support for support, _ in peels], dtype=np.int64)
    return supports, np.array([value for _, value in peels], dtype=np.complex128)


def _peeled(bank, peels):
    """A copy of bank with the (support, value) pairs peels subtracted in one batch."""
    bank = bank.copy()
    subtract_batch(bank, *_batch(peels))
    return bank


class TestPeel:
    def test_peeling_a_lone_tone_empties_its_bins(self, plan20):
        value = 1.5 - 0.5j
        bank = _peeled(_bank_for(spectrum(20, [(10, value)]), plan20), [(10, value)])
        for stage in range(plan20.d):
            assert np.all(row_energies(bank.stages[stage]) < 1e-18)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        support=st.integers(0, 503),
        value=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    )
    def test_peel_and_unpeel_restore_the_bank(self, plan504, support, value):
        """A peel changes one row per stage, the row the support aliases
        into, and peeling -value afterwards puts the bank back."""
        bank = _bank_for(random_spectrum(504, 7, Constellation(2.0), seed=6), plan504)
        work = _peeled(bank, [(support, value)])
        rows = _rows_of(support, plan504)
        untouched = np.setdiff1d(np.arange(len(bank.rows)), rows)
        np.testing.assert_array_equal(work.rows[untouched], bank.rows[untouched])
        work = _peeled(work, [(support, -value)])
        np.testing.assert_allclose(work.rows, bank.rows, rtol=0, atol=1e-12)

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(
        peels=st.lists(
            st.tuples(
                # multiples of 7 share stage 0's bin 0, so rows take several peels
                st.one_of(st.integers(0, 503), st.integers(0, 71).map(lambda j: 7 * j)),
                st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_a_batch_of_peels_is_eager_subtraction(self, plan504, peels):
        """One subtract_batch call over a list of peels leaves the bank
        bit for bit what subtracting each peel on its own, in order,
        gives."""
        bank = _bank_for(random_spectrum(504, 7, Constellation(2.0), seed=6), plan504)
        eager = bank.rows.copy()
        gains = np.sqrt(plan504.bin_counts)[:, None]
        for support, value in peels:
            eager[_rows_of(support, plan504)] -= gains * value * steering_vector(support, plan504)
        assert _peeled(bank, peels).rows.tobytes() == eager.tobytes()

    def test_a_bank_over_a_strided_array_applies_its_peels(self, plan504):
        """Peels are applied to the flattened bank, so a bank built from a
        non-contiguous array keeps a contiguous copy of it."""
        rows = _bank_for(random_spectrum(504, 7, Constellation(2.0), seed=6), plan504).rows
        bank = BinBank(plan504, np.asfortranarray(rows))
        value = 1.5 - 0.5j
        subtract_batch(bank, *_batch([(10, value)]))
        expected = rows.copy()
        expected[_rows_of(10, plan504)] -= (
            np.sqrt(plan504.bin_counts)[:, None] * value * steering_vector(10, plan504)
        )
        assert bank.rows.tobytes() == expected.tobytes()

    def test_peel_matches_aliasing_recomputation(self, plan20):
        values = {1: 1.5 + 0j, 3: 1.5j, 5: -1.5 + 0j, 10: 1.5 - 0.5j, 15: -1.5j}
        full = spectrum(20, values)
        bank = _peeled(_bank_for(full, plan20), [(10, values[10])])
        remaining = spectrum(20, {l: v for l, v in values.items() if l != 10})
        expected = _bank_for(remaining, plan20)
        for stage in range(plan20.d):
            assert np.max(np.abs(bank.stages[stage] - expected.stages[stage])) < 1e-9


class TestDecodeNoiseless:
    def test_all_zero_bank_converges_immediately(self, plan20):
        bank = _bank_for(spectrum(20, []), plan20)
        result = decode(bank)
        assert result.converged
        assert result.spectrum.k == 0
        assert result.passes == 1

    def test_textbook_instance_recovers_exact_set(self, plan20):
        values = {1: 1.5 + 0j, 3: 1.5j, 5: -1.5 + 0j, 10: 1.5 - 0.5j, 15: -1.5j}
        truth = spectrum(20, values)
        result = decode(_bank_for(truth, plan20))
        assert result.converged
        assert set(result.spectrum.indices.tolist()) == set(values)
        assert oracle.compare_spectra(result.spectrum, truth, 1e-9).matched
        # the lone stage-0 singleton is uncovered in the first pass
        first_pass = [ev.support for ev in result.events if ev.pass_index == 1]
        assert 10 in first_pass

    def test_events_match_spectrum_one_to_one(self, plan504):
        truth = random_spectrum(504, 7, Constellation(4.0), seed=14)
        result = decode(_bank_for(truth, plan504))
        supports = [ev.support for ev in result.events]
        assert len(supports) == len(set(supports))
        assert sorted(supports) == list(result.spectrum.indices)

    @pytest.mark.parametrize("preset,k", [("n4845", 170), ("n504", 7)])
    def test_last_bit_changes_leave_the_event_order(self, preset, k):
        """Exact fits commit in row order, so a noiseless bank scaled by
        1 + 2**-52, whose fit residuals differ only in rounding, peels
        the same events in the same order."""
        config = ExperimentConfig(preset=preset, k=k, snr_db=None, seed=20260817)
        plan = plan_for_config(config)
        con = Constellation(config.rho)
        for seed in range(20):
            bank = _bank_for(random_spectrum(plan.n, k, con, seed), plan)
            nudged = BinBank(plan, bank.rows * (1.0 + 2.0**-52))
            assert decode(nudged, con).events == decode(bank, con).events

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
                and oracle.compare_spectra(result.spectrum, truth, 1e-9).matched
            )
            assert recovered == decodable, f"{name} trial {trial} k={k}"
            checked += 1
            undecodable_seen += not decodable
        assert checked == 1000
        assert undecodable_seen > 0  # both branches exercised

    def test_more_values_than_a_byte_indexes_read_back(self):
        """An unsnapped decode of 260 random-phase coefficients commits
        260 distinct values, more than a one-byte value id can index;
        its spectrum and events still give back every coefficient."""
        plan = plan_for_config(ExperimentConfig(preset="n4845", k=260, snr_db=None, seed=1))
        truth = random_phase_spectrum(plan.n, 260, 2.0, 5)
        result = decode(_bank_for(truth, plan))
        assert result.converged and len(result.events) == 260
        assert oracle.compare_spectra(result.spectrum, truth, 1e-9).matched
        by_support = {e.support: e.value for e in result.events}
        assert [by_support[l] for l in result.spectrum.indices.tolist()] == (
            result.spectrum.values.tolist()
        )

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


class TestDecodeLog:
    @pytest.mark.parametrize(
        "preset,k,record_bytes", [("paper-20", 3, 2), ("n4845", 170, 4), ("paper-124950", 40, 4)]
    )
    def test_support_is_packed_as_narrow_as_n_allows(self, preset, k, record_bytes):
        """A snapped log packs each peel into one word as wide as its fields
        need: 2 bytes at n = 20 (a 5-bit support), 4 bytes at n = 4,845 and
        at n = 124,950 (13 or 17 bits), and reads back every peel."""
        config = ExperimentConfig(preset=preset, k=k, snr_db=None, seed=20260817)
        plan = plan_for_config(config)
        con = Constellation(config.rho)
        truth = random_spectrum(plan.n, k, con, 3)
        result = decode(_bank_for(truth, plan), con)
        assert result.converged
        word, _ = peeling._layout(plan.n, plan.d, result.passes, con.points.size)
        assert word.itemsize == record_bytes
        assert len(result.log) == record_bytes * len(result.events) == record_bytes * k
        assert sorted(e.support for e in result.events) == truth.indices.tolist()
        assert oracle.compare_spectra(result.spectrum, truth, 1e-9).matched

    def test_a_log_past_32_bits_a_peel_reads_back_from_8_byte_words(self, plan_big):
        """An unsnapped decode at n = 124,950 with 600 distinct values and 32
        passes needs 17 + 2 + 5 + 10 = 34 bits a peel: its words are 8
        bytes, and every field reads back, the top one included."""
        rng = np.random.default_rng(11)
        peels, passes, value_count = 600, MAX_PASSES, 600
        word, (stage_at, pass_at, value_at) = peeling._layout(
            plan_big.n, plan_big.d, passes, value_count
        )
        assert word.itemsize == 8 and value_at + (value_count - 1).bit_length() > 32
        support = rng.choice(plan_big.n, size=peels, replace=False)
        stage = rng.integers(0, plan_big.d, size=peels)
        pass_index = rng.integers(1, passes + 1, size=peels)
        value_id = rng.permutation(value_count)
        values = rng.normal(size=value_count) + 1j * rng.normal(size=value_count)
        log = np.array(
            [s | t << stage_at | (p - 1) << pass_at | v << value_at
             for s, t, p, v in zip(support.tolist(), stage.tolist(),
                                   pass_index.tolist(), value_id.tolist())],
            dtype=word,
        ).tobytes()
        result = peeling.DecodeResult(plan_big, True, passes, (), log, values.tobytes())
        counts = plan_big.bin_counts
        assert [(e.pass_index, e.stage, e.bin, e.support, e.value) for e in result.events] == [
            (p, t, s % counts[t], s, v)
            for s, t, p, v in zip(support.tolist(), stage.tolist(),
                                  pass_index.tolist(), values[value_id].tolist())
        ]
        spectrum = result.spectrum
        order = np.argsort(support)
        np.testing.assert_array_equal(spectrum.indices, support[order])
        np.testing.assert_array_equal(spectrum.values, values[value_id][order])

    def test_a_peel_past_64_bits_is_refused(self):
        """n = 2**40, 3 stages, 32 passes and 2**17 values need
        40 + 2 + 5 + 17 = 64 bits a peel, which fit; one more value bit is
        refused."""
        assert peeling._layout(1 << 40, 3, 32, 1 << 17)[0].itemsize == 8
        with pytest.raises(OverflowError):
            peeling._layout(1 << 40, 3, 32, 1 << 18)

    def test_snapped_decodes_share_the_grid_as_their_values(self):
        """A snapped value is a grid point, so every snapped decode with an
        equal constellation holds one shared bytes object of the grid's
        points, and its log indexes that."""
        config = ExperimentConfig(preset="n504", k=7, snr_db=5.0, seed=20260817)
        plan = plan_for_config(config)
        results = []
        for seed in (1, 2):
            con = Constellation(config.rho)
            truth = random_spectrum(plan.n, 7, con, seed)
            results.append(decode(_bank_for(truth, plan), con))
            assert oracle.compare_spectra(results[-1].spectrum, truth, 1e-9).matched
        assert results[0].values is results[1].values
        assert results[0].values == Constellation(config.rho).points.tobytes()


class TestDecodeStructure:
    def test_undecodable_four_cycle_reports_failure(self):
        """Two stages, four coefficients in a closed alias cycle: no bin is
        ever a singleton, so decode must stop without converging."""
        plan = FrontendPlan(n=504, bin_counts=(7, 8), per_cluster=2,
                            heads=(0, 11, 37, 71, 113, 167, 229, 301))
        cycle = spectrum(504, [(0, 2.0 + 0j), (49, 2.0j), (8, -2.0 + 0j), (57, -2.0j)])
        assert not oracle.noiseless_check(cycle, plan)
        result = decode(_bank_for(cycle, plan))
        assert not result.converged
        assert result.spectrum.k == 0
        assert len(result.multi_ton_bins) > 0

    def test_a_nan_bank_does_not_converge(self, plan504):
        """NaN rows fail every comparison, so no verdict commits; the
        leftover test must still list each of them rather than pass them."""
        rows = np.full((sum(plan504.bin_counts), plan504.chain_count), np.nan, complex)
        result = decode(BinBank(plan504, rows))
        assert result.converged is False
        assert result.spectrum.k == 0
        assert result.multi_ton_bins == tuple(
            (stage, b) for stage, f in enumerate(plan504.bin_counts) for b in range(f))

    def test_a_commit_makes_only_the_rows_it_touched_stale(self, plan20, monkeypatch):
        """Support 1 alone in bin 1 of stage 1 and support 5 alone in bin
        1 of stage 0 (slightly noisy, so it ranks second) are both
        singletons when the first pass begins, but 1 also aliases into bin
        1 of stage 0, so 5 waits.  Committing 1 makes its two rows stale,
        and the one batch after the pass recomputes just those.  Bin 1 of
        stage 0 now holds two tones' worth of leftover and is no
        singleton, so the second pass commits nothing and recomputes
        nothing."""
        rows = np.zeros((sum(plan20.bin_counts), plan20.chain_count), complex)
        ripple = 0.3 * np.exp(2j * np.pi * np.arange(plan20.chain_count) / 7)
        rows[plan20.row_offsets[0] + 1] = 2 * math.sqrt(4) * steering_vector(5, plan20) + ripple
        rows[plan20.row_offsets[1] + 1] = 2 * math.sqrt(5) * steering_vector(1, plan20)
        stacks = []

        def counted(stack, *args):
            stacks.append(len(stack))
            return bin_statistics(stack, *args)

        monkeypatch.setattr(peeling, "bin_statistics", counted)
        result = decode(BinBank(plan20, rows))
        assert [(e.pass_index, e.stage, e.bin, e.support) for e in result.events] == [(1, 1, 1, 1)]
        assert stacks == [len(rows), 2]
        assert result.multi_ton_bins == ((0, 1),) and not result.converged

    def test_noisy_sparse_5db_decodes_converge(self):
        """At 5 dB the bins left after a good decode hold noise alone,
        which the residual cap accepts: a decode that recovers the whole
        support reports convergence, and lists a bin only when it still
        holds an unrecovered coefficient."""
        kw = dict(preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3)
        plan = plan_for_config(ExperimentConfig(**kw, seed=20260817))
        con = Constellation(ExperimentConfig(**kw).rho)
        converged = 0
        for seed in range(1, 11):
            truth = random_spectrum(plan.n, 40, con, seed)
            signal = add_noise(synthesize(truth), 1.0, seed)
            result = decode(subsample_and_transform(signal, plan), con)
            assert result.converged == (not result.multi_ton_bins)
            if np.array_equal(result.spectrum.indices, truth.indices):
                assert result.converged
            converged += result.converged
        assert converged >= 9

    def test_decode_is_deterministic(self):
        kw = dict(preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3)
        plan = plan_for_config(ExperimentConfig(**kw, seed=20260817))
        con = Constellation(ExperimentConfig(**kw).rho)
        truth = random_spectrum(plan.n, 40, con, 4)
        bank = subsample_and_transform(add_noise(synthesize(truth), 1.0, 4), plan)
        first, second = decode(bank, con), decode(bank, con)
        assert first == second
        assert first.events == second.events and len(first.events) > 0

    def test_every_pass_reads_every_row_through_the_module_names(self, monkeypatch):
        """A rebound classify_bin sees exactly passes x rows calls and a
        rebound peel one call per event: the counts a tracer reads."""
        kw = dict(preset="n4845", k=170, snr_db=None)
        plan = plan_for_config(ExperimentConfig(**kw, seed=20260817))
        con = Constellation(ExperimentConfig(**kw).rho)
        calls = {"classify_bin": 0, "peel": 0}
        for name in calls:
            original = getattr(peeling, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(peeling, name, counted)
        result = decode(_bank_for(random_spectrum(plan.n, 170, con, 3), plan), con)
        assert result.passes > 2
        assert calls == {"classify_bin": result.passes * sum(plan.bin_counts),
                         "peel": len(result.events)}

    @pytest.mark.parametrize("max_passes", [1, MAX_PASSES])
    def test_leftovers_are_those_of_the_final_bank(self, plan504, monkeypatch, max_passes):
        """multi_ton_bins lists the rows of the bank left after every commit
        whose energy exceeds the cap, read from the decode's table of
        energies.  A decode stopped at MAX_PASSES = 1 while committing
        refreshes the rows its last pass touched before it stops, so it too
        reports what a recomputation from the final bank gives."""
        monkeypatch.setattr(peeling, "MAX_PASSES", max_passes)
        cap = singleton_residual_threshold(plan504.chain_count)
        stale_rows = 0
        for seed in range(2, 8):
            bank = _bank_for(random_spectrum(504, 7, Constellation(4.0), seed=seed), plan504)
            result = decode(bank)
            assert result.events
            final = _peeled(bank, [(e.support, e.value) for e in result.events])
            left = ~(row_energies(final.rows) <= cap)
            expected = tuple(zip(plan504.row_stage[left].tolist(), plan504.row_bin[left].tolist()))
            assert result.multi_ton_bins == expected
            before = ~(row_energies(bank.rows) <= cap)
            stale_rows += int((before & ~left).sum())
        # the commits emptied rows that were over the cap before them
        assert stale_rows > 0

    def test_max_passes_cap_respected(self, plan504, monkeypatch):
        monkeypatch.setattr(peeling, "MAX_PASSES", 1)
        truth = random_spectrum(504, 7, Constellation(4.0), seed=2)
        result = decode(_bank_for(truth, plan504))
        assert result.passes == 1
        assert result.events and all(e.pass_index == 1 for e in result.events)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3),
            dict(preset="n4845", k=170, snr_db=None),
        ],
        ids=["sparse-5db", "dense-noiseless"],
    )
    def test_one_statistics_batch_per_pass_over_the_rows_its_commits_touched(
        self, kw, monkeypatch
    ):
        """The first bin_statistics call covers the whole bank, then each
        pass that commits is followed by exactly one call, over exactly
        the rows its commits touched; the last pass commits nothing.  No
        commit's support aliases into the row another commit of the same
        pass was read from."""
        config = ExperimentConfig(**kw, seed=20260817)
        plan = plan_for_config(config)
        con = Constellation(config.rho)
        offsets, counts = plan.row_offsets, plan.bin_counts
        calls = []

        def counted(stack, row_ids, *args):
            calls.append(np.asarray(row_ids).tolist())
            return bin_statistics(stack, row_ids, *args)

        monkeypatch.setattr(peeling, "bin_statistics", counted)
        for seed in range(1, 6):
            signal = synthesize(random_spectrum(plan.n, config.k, con, seed))
            if config.snr_db is not None:
                signal = add_noise(signal, 1.0, seed)
            calls.clear()
            result = decode(subsample_and_transform(signal, plan), con)
            assert 1 < result.passes < MAX_PASSES
            assert len(calls) == result.passes
            assert calls[0] == list(range(sum(counts)))
            assert all(e.pass_index < result.passes for e in result.events)
            for pass_index, rows in enumerate(calls[1:], 1):
                commits = [e for e in result.events if e.pass_index == pass_index]
                touched = {o + e.support % f for e in commits for o, f in zip(offsets, counts)}
                assert commits and rows == sorted(touched)
                for e in commits:
                    assert all(
                        other.support % counts[e.stage] != e.bin for other in commits if other != e
                    )


class TestDecodeInvariants:
    """Properties every decode keeps, whatever the bank: random signals on
    n504 and n990, noiseless or noisy, snapped or not, with some entries
    replaced by NaN or an infinity."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        use990=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(0, 16),
        noise=st.sampled_from([0.0, 1.0, 4.0]),
        snap=st.booleans(),
        bad=st.integers(0, 6),
        bad_value=st.sampled_from(
            [complex(np.nan, 0), complex(np.inf, 0), complex(-np.inf, 1), complex(1, np.nan)]
        ),
    )
    def test_decode_invariants(self, plan504, plan990, use990, seed, k, noise, snap, bad, bad_value):
        plan = plan990 if use990 else plan504
        con = Constellation(4.0)
        signal = synthesize(random_spectrum(plan.n, k, con, seed))
        if noise:
            signal = add_noise(signal, noise, seed)
        bank = subsample_and_transform(signal, plan)
        flat = bank.rows.reshape(-1)
        flat[generator(seed, 0x7E57).choice(flat.size, size=bad, replace=False)] = bad_value
        before = bank.rows.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = decode(bank, con if snap else None)
            again = decode(bank, con if snap else None)
        assert bank.rows.tobytes() == before
        assert result == again and result.events == again.events
        assert 1 <= result.passes <= MAX_PASSES
        assert result.converged == (not result.multi_ton_bins)
        events = result.events
        supports = [e.support for e in events]
        assert len(set(supports)) == len(supports)
        assert all(0 <= s < plan.n for s in supports)
        assert [e.pass_index for e in events] == sorted(e.pass_index for e in events)
        assert all(1 <= e.pass_index <= result.passes for e in events)
        assert all(e.bin == e.support % plan.bin_counts[e.stage] for e in events)
        assert np.isfinite(result.spectrum.values).all()


def _decode_peak_bytes(preset, seed):
    """decode's tracemalloc peak on one sparse-5db-style trial of preset
    (k=40, 5 dB, C=12, N=3), after a first decode fills the caches."""
    kw = dict(preset=preset, k=40, snr_db=5.0, clusters=12, per_cluster=3)
    config = ExperimentConfig(**kw, seed=20260817)
    plan = plan_for_config(config)
    con = Constellation(config.rho)
    signal = add_noise(synthesize(random_spectrum(plan.n, 40, con, seed)), 1.0, seed)
    bank = subsample_and_transform(signal, plan)
    decode(bank, con)
    tracemalloc.start()
    try:
        decode(bank, con)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDecodeMemory:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_peak_does_not_grow_with_n(self, seed):
        """Twelve times the length, with the same bins, k, C and N, costs
        decode no more than 10% more memory at its peak: it holds nothing
        sized by n."""
        small = _decode_peak_bytes("paper-124950", seed)
        large = _decode_peak_bytes("paper-124950x12", seed)
        assert large <= 1.1 * small, (small, large)


def _reference_decode(bank, constellation):
    """Parallel peeling as specified, without the decoder's incremental bookkeeping.

    Each pass computes the statistics of the whole live bank and ranks
    the singletons whose support is not yet recovered in decode's order
    (residual, an exact fit counting as 0, then row).  A candidate
    commits when no better-ranked candidate's support aliases into its
    row, checked pair by pair, and the commits peel in rank order, each
    subtracted from the bank on its own.
    Returns the (pass, stage, bin, support, value) events and the pass
    count.
    """
    bank = bank.copy()
    plan = bank.plan
    stages, bins = plan.row_stage.tolist(), plan.row_bin.tolist()
    counts = plan.bin_counts
    recovered, events, passes = set(), [], 0
    while True:
        passes += 1
        stats = bin_statistics(bank.rows, np.arange(len(bank.rows)), plan, constellation)
        reasons, supports, values, residuals = (field.tolist() for field in stats[:4])
        singletons = []
        for row, reason in enumerate(reasons):
            if reason == VerdictReason.SINGLETON and supports[row] not in recovered:
                residual = residuals[row]
                rank_key = 0.0 if residual < EXACT_FIT_RESIDUAL else residual
                singletons.append((rank_key, row, supports[row], values[row]))
        singletons.sort()
        commits = [
            (row, support, value)
            for rank, (_, row, support, value) in enumerate(singletons)
            if not any(
                better % counts[stages[row]] == bins[row] for _, _, better, _ in singletons[:rank]
            )
        ]
        for row, support, value in commits:
            recovered.add(support)
            events.append((passes, stages[row], bins[row], support, value))
            bank.rows[_rows_of(support, plan)] -= (
                np.sqrt(counts)[:, None] * value * steering_vector(support, plan)
            )
        if not commits or passes == MAX_PASSES:
            return events, passes


class TestDecodeReference:
    @pytest.mark.parametrize("snr_db", [0.0, 5.0])
    def test_decode_matches_the_reference_decoder(self, snr_db):
        """Recomputing every row's statistics each pass, and choosing the
        commits by a pairwise alias check, gives the same events and pass
        count as the decoder's incremental statistics and per-row best
        ranks, value for value."""
        config = ExperimentConfig(preset="n504", k=7, snr_db=snr_db, seed=20260817)
        plan = plan_for_config(config)
        con = Constellation(config.rho)
        for seed in range(2000, 2100):
            truth = random_spectrum(plan.n, 7, con, seed)
            bank = subsample_and_transform(add_noise(synthesize(truth), 1.0, seed), plan)
            result = decode(bank, con)
            events = [(e.pass_index, e.stage, e.bin, e.support, e.value) for e in result.events]
            assert (events, result.passes) == _reference_decode(bank, con), seed


def _philox_noisy_samples(truth, seed):
    """The noisy samples the frozen events were recorded on.

    Unit-variance noise from two standard_normal(n) draws of the Philox
    generator keyed by (seed, 0xA3), real parts first, as add_noise drew
    it before noise became a per-index function.  Building the input
    here keeps the frozen events a check on the decoder alone.
    """
    rng = generator(seed, 0xA3)
    scale = math.sqrt(0.5)
    noise = scale * (rng.standard_normal(truth.n) + 1j * rng.standard_normal(truth.n))
    return synthesize(truth).clean + noise


class TestDecodeFrozen:
    def test_sparse_5db_events_are_frozen(self):
        """Fixed-seed noisy decodes peel the same (pass, stage, bin,
        support) sequence as before, and every value is bit-for-bit a
        constellation point."""
        kw = dict(preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3)
        plan = plan_for_config(ExperimentConfig(**kw, seed=20260817))
        con = Constellation(ExperimentConfig(**kw).rho)
        points = con.points
        for seed, expected in FROZEN_SPARSE_5DB_EVENTS.items():
            truth = random_spectrum(plan.n, 40, con, seed)
            samples = _philox_noisy_samples(truth, seed)
            result = decode(bank_from_samples(samples, plan), con)
            events = [(e.pass_index, e.stage, e.bin, e.support) for e in result.events]
            assert events == [event[:4] for event in expected]
            values = [e.value for e in result.events]
            assert values == [points[event[4]] for event in expected]


class TestDenseNoiselessFrozen:
    def test_dense_noiseless_events_are_frozen(self):
        """Composite-stage noiseless decodes peel the recorded (pass,
        stage, bin, support, grid point) sequence, value for value."""
        kw = dict(preset="n4845", k=170, snr_db=None)
        plan = plan_for_config(ExperimentConfig(**kw, seed=20260817))
        con = Constellation(ExperimentConfig(**kw).rho)
        points = con.points
        frozen = json.loads(FROZEN_DENSE_NOISELESS_EVENTS.read_text())
        for seed, expected in frozen.items():
            truth = random_spectrum(plan.n, 170, con, int(seed))
            result = decode(_bank_for(truth, plan), con)
            events = [[e.pass_index, e.stage, e.bin, e.support] for e in result.events]
            assert events == [event[:4] for event in expected]
            assert [e.value for e in result.events] == [points[event[4]] for event in expected]
