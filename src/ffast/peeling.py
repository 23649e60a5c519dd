"""Iterative decoding over the bank of bin observations.

Each pass reads every bin's verdict from one set of bin statistics
(singleton.bin_statistics), then commits the singleton verdicts in
ascending residual order, most confident first.  Fits below
EXACT_FIT_RESIDUAL are exact and commit in row order, so the order of
a noiseless decode does not hang on last-bit rounding.  A commit
subtracts the coefficient's steering contribution from the one bin it
aliases into in every stage, which can turn a multi-ton elsewhere into
a fresh singleton, so passes repeat until a pass commits nothing (at most
MAX_PASSES).  Decoding converges when no bin's leftover energy exceeds
the singleton residual cap: what is left is noise, not an unrecovered
coefficient.

The work follows the d bins each commit changes.  Every verdict is read
from one table of statistics, computed for the whole bank once.  A row
a commit touches is dirty until one refresh recomputes it, together with
every other dirty row that is still needed: the dirty candidates of the
pass when the walk reaches one of them, and the rest after the pass.
peel only records a subtraction on the bank, which applies every
recorded one in a single batch when it is next read.

A result keeps its peel events as one packed record each (support,
value, pass, stage; the bin is the support's residue in that stage),
with each distinct value stored once, and builds the spectrum and the
PeelEvent objects from them when read.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import BinBank, bin_index, row_energies, steering_vector
from .planner import FrontendPlan
from .singleton import (
    VerdictKind,
    bin_statistics,
    classify_bin,
    singleton_residual_threshold,
)
from .spectral import Constellation, SparseSpectrum

# A decode stops after this many passes even if the last one committed.
MAX_PASSES = 32

# A singleton fit whose residual energy is below this is exact: it sorts
# as residual 0, so exact fits commit in row order.  Float rounding in a
# noiseless decode leaves residuals of about 1e-25, while unit-variance
# noise leaves about D - 1, so the ordering of a noisy pass is unchanged
# and that of a noiseless one does not hang on last-bit differences.
EXACT_FIT_RESIDUAL = 1e-9

# One peel, packed.  "support" is as narrow as n allows: two bytes up to
# n = 65,536, else four, which covers every n the decoder handles, since
# steering_vector's int64 phase products already need n below 2**31.5.
# "value" indexes DecodeResult.values and is as narrow as the count of
# distinct values allows, so a snapped decode at n <= 65,536 takes 5
# bytes per peel.  A pass index fits a byte, since MAX_PASSES does.
_RECORDS = {
    (np.dtype(support), np.dtype(value)): np.dtype(
        [("support", support), ("value", value), ("pass", "u1"), ("stage", "u1")]
    )
    for support in ("<u2", "<u4")
    for value in ("u1", "<u2", "<u4")
}


def _record(n: int, value_count: int) -> np.dtype:
    """The packed peel record of a length-n log with value_count distinct values."""
    support = np.dtype("<u2" if n <= 1 << 16 else "<u4")
    return _RECORDS[support, np.min_scalar_type(max(value_count - 1, 0))]


@dataclass(frozen=True, slots=True)
class PeelEvent:
    """One singleton found and removed: which bin produced it, and when."""

    pass_index: int
    stage: int
    bin: int
    support: int
    value: complex


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """What a decode found.

    log holds one packed record per peel, in commit order, and values
    holds each distinct committed value once, as complex128 bytes (a
    snapped decode has at most the constellation's points); spectrum and
    events are built from them on every read.  multi_ton_bins lists the
    (stage, bin) pairs whose leftover energy exceeds the singleton
    residual cap; converged is true when there are none.
    """

    plan: FrontendPlan
    converged: bool
    passes: int
    multi_ton_bins: tuple[tuple[int, int], ...]
    log: bytes
    values: bytes

    def _records(self) -> tuple[np.ndarray, np.ndarray]:
        values = np.frombuffer(self.values, dtype=np.complex128)
        return np.frombuffer(self.log, dtype=_record(self.plan.n, values.size)), values

    @property
    def spectrum(self) -> SparseSpectrum:
        records, values = self._records()
        return SparseSpectrum(self.plan.n, records["support"], values[records["value"]])

    @property
    def events(self) -> tuple[PeelEvent, ...]:
        counts = self.plan.bin_counts
        records, values = self._records()
        values = values.tolist()
        return tuple(
            PeelEvent(pass_index, stage, support % counts[stage], support, values[value])
            for support, value, pass_index, stage in records.tolist()
        )


def peel(bank: BinBank, support: int, value: complex) -> list[int]:
    """Subtract coefficient `value` at `support` from every stage.

    The bank records the subtraction and applies it, with any others
    recorded since, on its next read.  Returns the bank rows it changes,
    one per stage.
    """
    plan = bank.plan
    bank.record_peel(support, value)
    return [o + bin_index(support, stage, plan) for stage, o in enumerate(plan.row_offsets)]


def decode(bank: BinBank, constellation: Constellation | None = None) -> DecodeResult:
    """Run classify-and-peel passes until a pass commits nothing, or MAX_PASSES.

    Every verdict is read from one table of bin statistics, and a row a
    commit has touched is dirty until its statistics are recomputed from
    the live bank.  Within a pass, candidate singletons are ordered by
    residual energy, a residual under EXACT_FIT_RESIDUAL counting as 0
    (then stage, then bin).  When the walk reaches a dirty candidate,
    every dirty candidate of the pass is refreshed at once and read
    again from the table when reached, so a stale verdict (its
    coefficients now removed, or its apparent support shifted) is
    dropped instead of poisoning the output.  A clean row holds what it
    held when the pass began, so its verdict stands.  A support reported
    twice keeps only its first sighting in this order.  After the pass,
    the rows still dirty are refreshed, so the next pass reads a table
    that matches the bank.
    """
    bank = bank.copy()
    plan = bank.plan
    row_stage, row_bin = plan.row_stage, plan.row_bin
    stage_of = row_stage.tolist()
    stats = bin_statistics(bank.rows, row_stage, row_bin, plan, constellation)
    # rows a commit has touched since their statistics were computed
    dirty: set[int] = set()

    def refresh(rows: list[int]) -> None:
        fresh = bin_statistics(bank.rows[rows], row_stage[rows], row_bin[rows], plan, constellation)
        for name in ("reason", "support", "value", "residual"):
            column, update = getattr(stats, name), getattr(fresh, name)
            for i, row in enumerate(rows):
                column[row] = update[i]
        dirty.difference_update(rows)

    recovered: set[int] = set()
    records = []
    # equal values share an entry, so a 0.0 and a -0.0 part are not told apart
    value_ids: dict[complex, int] = {}
    passes = 0

    while True:
        passes += 1
        committed = len(records)
        scan = []
        for row in range(len(stage_of)):
            verdict = classify_bin(stats, row)
            if verdict.kind is VerdictKind.SINGLETON:
                residual = verdict.residual_energy
                if residual < EXACT_FIT_RESIDUAL:
                    residual = 0.0
                scan.append((residual, row, verdict))
        # rows are stage-major, so row order is (stage, bin) order; rows
        # are distinct, so the sort never compares two verdicts
        scan.sort()
        # a refreshed candidate's verdict is None: it is read from stats
        candidates = {row: verdict for _, row, verdict in scan}
        for row in candidates:
            if row in dirty:
                rows = sorted(dirty.intersection(candidates))
                refresh(rows)
                candidates.update(dict.fromkeys(rows))
            verdict = candidates[row]
            if verdict is None:
                verdict = classify_bin(stats, row)
                if verdict.kind is not VerdictKind.SINGLETON:
                    continue
            if verdict.support in recovered:
                continue
            recovered.add(verdict.support)
            value_id = value_ids.setdefault(verdict.value, len(value_ids))
            records.append((verdict.support, value_id, passes, stage_of[row]))
            dirty.update(peel(bank, verdict.support, verdict.value))
        if len(records) == committed or passes == MAX_PASSES:
            break
        if dirty:
            refresh(sorted(dirty))

    cap = singleton_residual_threshold(plan.chain_count)
    left = row_energies(bank.rows) > cap
    leftover = tuple(zip(row_stage[left].tolist(), row_bin[left].tolist()))
    log = np.array(records, dtype=_record(plan.n, len(value_ids))).tobytes()
    values = np.array(list(value_ids), dtype=np.complex128).tobytes()
    return DecodeResult(plan, not leftover, passes, leftover, log, values)
