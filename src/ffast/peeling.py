"""Iterative decoding over the bank of bin observations.

Each pass reads every bin's verdict from one set of bin statistics
(singleton.bin_statistics) and peels its singletons in parallel, as
FFAST's decoder does.  The candidates rank by residual, most confident
first; fits below EXACT_FIT_RESIDUAL are exact and rank in row order, so
the order of a noiseless decode does not hang on last-bit rounding.  A
commit subtracts the coefficient's steering contribution from the one bin
it aliases into in every stage, so a candidate commits only when no
better-ranked one touches its own bin; the rest wait for the next pass.
A subtraction can turn a multi-ton elsewhere into a fresh singleton, so
passes repeat until a pass commits nothing (at most MAX_PASSES).
Decoding converges when no bin's leftover energy exceeds the singleton
residual cap: what is left is noise, not an unrecovered coefficient.

The work follows the d bins each commit changes.  The statistics, four
arrays over the rows, are computed for the whole bank once; after that,
one batch per pass subtracts that pass's commits and rewrites the rows
they touched.  A pass takes its candidates with one mask and ranks them
with one sort, with no Python object per row.  Its classify_bin map over
every row's code and its per-commit peel calls stay because the
benchmark's tracer rebinds and counts them.

A result keeps its peel events as one packed record each (support,
value, pass, stage; the bin is the support's residue in that stage),
with each distinct value stored once, and builds the spectrum and the
PeelEvent objects from them when read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frontend import BinBank, row_energies, subtract_batch
from .planner import FrontendPlan
from .singleton import (
    VerdictReason,
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
    snapped decode holds its constellation's grid, one bytes object
    shared by every such decode); spectrum and events are built from
    them on every read.  multi_ton_bins lists the (stage, bin) pairs
    whose leftover energy exceeds the singleton residual cap; converged
    is true when there are none.
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


@lru_cache(maxsize=64)
def _grid_values(constellation: Constellation) -> tuple[bytes, dict[complex, int]]:
    """The grid as a snapped decode's table of values, and each point's index."""
    points = constellation.points
    return points.tobytes(), {point: i for i, point in enumerate(points.tolist())}


def peel(batch: list[tuple[int, complex]], support: int, value: complex) -> None:
    """Append one commit to its pass's batch: the call the benchmark's tracer counts."""
    batch.append((support, value))


def decode(bank: BinBank, constellation: Constellation | None = None) -> DecodeResult:
    """Run classify-and-peel passes until a pass commits nothing, or MAX_PASSES.

    Each pass peels its singletons in parallel, as FFAST's decoder does.
    The candidates are the singleton rows whose support is not yet
    recovered, ranked by residual energy, a residual under
    EXACT_FIT_RESIDUAL counting as 0 (then stage, then bin).  A candidate
    touches the row its support aliases into in every stage, and commits
    unless a better-ranked candidate touches its own row: a row no other
    commit changes still holds what its verdict was read from.  The rest,
    a second sighting of a committed support among them, wait for the next
    pass.  After the commits, subtract_batch removes them from the bank in
    one batch, and one bin_statistics batch recomputes the rows they
    touched, so the next pass reads a table that matches the bank.

    Range: float64 rounding in a singleton's estimate and fit grows with
    |X|, so an |X| of about 1e16 gives no support; entries past about
    1e154 overflow a row's energy to inf, a zero-sample multi-ton.
    """
    bank = bank.copy()
    plan = bank.plan
    row_stage, row_bin = plan.row_stage, plan.row_bin
    bank_rows = len(row_stage)
    counts, offsets = np.asarray(plan.bin_counts), np.asarray(plan.row_offsets)
    stats = bin_statistics(bank.rows, row_stage, row_bin, plan, constellation)
    recovered = np.zeros(plan.n, dtype=bool)
    records = []
    # equal values share an entry, so a 0.0 and a -0.0 part are not told
    # apart; a snapped value is always a key of the grid's table already
    values, value_ids = (None, {}) if constellation is None else _grid_values(constellation)
    passes = 0

    while True:
        passes += 1
        # looked up each pass, so a rebound classify_bin sees every call
        list(map(classify_bin, stats.reason.tolist()))
        scan = (stats.reason == VerdictReason.SINGLETON).nonzero()[0]
        scan = scan[~recovered[stats.support[scan]]]
        residual = stats.residual[scan]
        # ties rank in row order; rows are stage-major, so that is (stage, bin) order
        scan = scan[np.lexsort((scan, np.where(residual < EXACT_FIT_RESIDUAL, 0.0, residual)))]
        rank = np.arange(scan.size)
        supports = stats.support[scan]
        touched = supports[:, None] % counts + offsets
        # each row's best-ranked toucher; a candidate commits when that is
        # itself, since then no commit before it changes its row
        best = np.full(bank_rows, scan.size)
        np.minimum.at(best, touched, rank[:, None])
        commits = (best[scan] == rank).nonzero()[0]
        committed = scan[commits]
        recovered[supports[commits]] = True
        batch: list[tuple[int, complex]] = []
        for support, value, stage in zip(
            supports[commits].tolist(),
            stats.value[committed].tolist(),
            row_stage[committed].tolist(),
        ):
            value_id = value_ids.setdefault(value, len(value_ids))
            records.append((support, value_id, passes, stage))
            peel(batch, support, value)
        subtract_batch(bank, batch)
        if not commits.size or passes == MAX_PASSES:
            break
        stale = np.zeros(bank_rows, dtype=bool)
        stale[touched[commits]] = True
        rows = stale.nonzero()[0]
        fresh = bin_statistics(bank.rows[rows], row_stage[rows], row_bin[rows], plan, constellation)
        for field, update in zip(stats, fresh):
            field[rows] = update

    cap = singleton_residual_threshold(plan.chain_count)
    # not <= rather than >, so a NaN row is left over too
    left = ~(row_energies(bank.rows) <= cap)
    leftover = tuple(zip(row_stage[left].tolist(), row_bin[left].tolist()))
    log = np.array(records, dtype=_record(plan.n, len(value_ids))).tobytes()
    if values is None:
        values = np.array(list(value_ids), dtype=np.complex128).tobytes()
    return DecodeResult(plan, not leftover, passes, leftover, log, values)
