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

The work follows the d bins each commit changes.  The statistics, five
arrays over the rows, are computed for the whole bank once; after that,
one batch per pass subtracts that pass's commits, given as a support
array and a value array, and rewrites the rows they touched, energies
included, so the leftover test reads the table rather than the bank.  A
pass takes its candidates with one mask and ranks them with one sort,
with no Python object per row.  Its classify_bin map over every row's
code and its per-commit peel calls, each appending one record to the
log, stay because the benchmark's tracer rebinds and counts them.

A result keeps its peel events as one packed word each (support, stage,
pass and value index as bit fields; the bin is the support's residue in
that stage), with each distinct value stored once, and builds the
spectrum and the PeelEvent objects from them when read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .frontend import BinBank, subtract_batch
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

# The SINGLETON code as a plain int: numpy probes an enum member for the
# array protocols each time one is compared with an array.
_SINGLETON = int(VerdictReason.SINGLETON)

# A singleton fit whose residual energy is below this is exact: it sorts
# as residual 0, so exact fits commit in row order.  Float rounding in a
# noiseless decode leaves residuals of about 1e-25, while unit-variance
# noise leaves about D - 1, so the ordering of a noisy pass is unchanged
# and that of a noiseless one does not hang on last-bit differences.
EXACT_FIT_RESIDUAL = 1e-9

# One peel, packed into one unsigned word: the support in the low bits,
# then the stage, the pass less one and the value's index in
# DecodeResult.values, each field as wide as the plan and the decode
# need, so a snapped decode at every benchmark size takes 4 bytes per
# peel.  A log that would need more than 64 bits a peel is refused.
def _layout(n: int, stages: int, passes: int, value_count: int) -> tuple[np.dtype, list[int]]:
    """The word type of a packed peel and the bits its stage, pass and value start at."""
    ends = list(accumulate((count - 1).bit_length() for count in (n, stages, passes, value_count)))
    if ends[-1] > 64:
        raise OverflowError(f"a packed peel needs {ends[-1]} bits")
    word = "<u2" if ends[-1] <= 16 else "<u4" if ends[-1] <= 32 else "<u8"
    return np.dtype(word), ends[:3]


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

    log holds one packed word per peel, in commit order, and values
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

    def _records(self) -> tuple[np.ndarray, ...]:
        """Each peel's support, stage, pass and value index, and the values."""
        values = np.frombuffer(self.values, dtype=np.complex128)
        word, starts = _layout(self.plan.n, self.plan.d, self.passes, values.size)
        packed = np.frombuffer(self.log, dtype=word).astype(np.uint64)
        bounds = [0, *starts, 64]
        support, stage, pass_less_one, value = (
            (packed >> low) & ((1 << (high - low)) - 1) for low, high in zip(bounds, bounds[1:])
        )
        return support, stage, pass_less_one + 1, value, values

    @property
    def spectrum(self) -> SparseSpectrum:
        support, _, _, value, values = self._records()
        return SparseSpectrum(self.plan.n, support, values[value])

    @property
    def events(self) -> tuple[PeelEvent, ...]:
        counts = self.plan.bin_counts
        *fields, values = self._records()
        values = values.tolist()
        return tuple(
            PeelEvent(pass_index, stage, support % counts[stage], support, values[value])
            for support, stage, pass_index, value in zip(*(field.tolist() for field in fields))
        )


@lru_cache(maxsize=64)
def _grid_values(constellation: Constellation) -> tuple[bytes, dict[complex, int]]:
    """The grid as a snapped decode's table of values, and each point's index."""
    points = constellation.points
    return points.tobytes(), {point: i for i, point in enumerate(points.tolist())}


def peel(records: list, support: int, value_id: int, pass_index: int, stage: int) -> None:
    """Append one commit to the decode's log: the call the benchmark's tracer counts."""
    records.append((support, value_id, pass_index, stage))


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
    touched, so the next pass, and the leftover test after the last one,
    read a table that matches the bank.

    Range: float64 rounding in a singleton's estimate and fit grows with
    |X|, so an |X| of about 1e16 gives no support; entries past about
    1e154 overflow a row's energy to inf, a zero-sample multi-ton.
    """
    bank = bank.copy()
    plan = bank.plan
    row_stage, row_bin = plan.row_stage, plan.row_bin
    bank_rows = len(row_stage)
    counts, offsets = np.asarray(plan.bin_counts), np.asarray(plan.row_offsets)
    stats = bin_statistics(bank.rows, np.arange(bank_rows), plan, constellation)
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
        scan = (stats.reason == _SINGLETON).nonzero()[0]
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
        peeled, peeled_values = supports[commits], stats.value[committed]
        recovered[peeled] = True
        for support, value, stage in zip(
            peeled.tolist(), peeled_values.tolist(), row_stage[committed].tolist()
        ):
            peel(records, support, value_ids.setdefault(value, len(value_ids)), passes, stage)
        subtract_batch(bank, peeled, peeled_values)
        if not commits.size:
            break
        stale = np.zeros(bank_rows, dtype=bool)
        stale[touched[commits]] = True
        rows = stale.nonzero()[0]
        fresh = bin_statistics(bank.rows[rows], rows, plan, constellation)
        for field, update in zip(stats, fresh):
            field[rows] = update
        if passes == MAX_PASSES:
            break

    cap = singleton_residual_threshold(plan.chain_count)
    # not <= rather than >, so a NaN row is left over too
    left = ~(stats.energy <= cap)
    leftover = tuple(zip(row_stage[left].tolist(), row_bin[left].tolist()))
    word, (stage_at, pass_at, value_at) = _layout(plan.n, plan.d, passes, len(value_ids))
    log = np.array(
        [support | stage << stage_at | (pass_index - 1) << pass_at | value_id << value_at
         for support, value_id, pass_index, stage in records],
        dtype=word,
    ).tobytes()
    if values is None:
        values = np.array(list(value_ids), dtype=np.complex128).tobytes()
    return DecodeResult(plan, not leftover, passes, leftover, log, values)
