"""Iterative decoding over the bank of bin observations.

Each pass computes the bin statistics of the whole bank in one batch
(singleton.bin_statistics), reads every bin's verdict from them, then
commits the singleton verdicts in ascending residual order, most
confident first.  A commit subtracts the coefficient's steering
contribution from the one bin it aliases into in every stage, which can
turn a multi-ton elsewhere into a fresh singleton, so passes repeat
until a pass commits nothing (at most MAX_PASSES).  Decoding converges
when no bin's leftover energy exceeds the singleton residual cap: what
is left is noise, not an unrecovered coefficient.

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

# One peel, packed into 11 bytes; "value" indexes DecodeResult.values.
# A uint32 support covers every n the decoder handles: steering_vector's
# int64 phase products already need n below 2**31.5.
_RECORD = np.dtype([("support", "<u4"), ("value", "<u4"), ("pass", "<u2"), ("stage", "u1")])

# A decode stops after this many passes even if the last one committed.
MAX_PASSES = 32


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

    @property
    def spectrum(self) -> SparseSpectrum:
        records = np.frombuffer(self.log, dtype=_RECORD)
        values = np.frombuffer(self.values, dtype=np.complex128)
        return SparseSpectrum(self.plan.n, records["support"], values[records["value"]])

    @property
    def events(self) -> tuple[PeelEvent, ...]:
        counts = self.plan.bin_counts
        values = np.frombuffer(self.values, dtype=np.complex128).tolist()
        return tuple(
            PeelEvent(pass_index, stage, support % counts[stage], support, values[value])
            for support, value, pass_index, stage in np.frombuffer(self.log, _RECORD).tolist()
        )


def peel(bank: BinBank, support: int, value: complex) -> list[int]:
    """Subtract coefficient `value` at `support` from every stage in place.

    Returns the bank rows it changed, one per stage.
    """
    plan = bank.plan
    rows = [o + bin_index(support, stage, plan) for stage, o in enumerate(plan.row_offsets)]
    gains = np.sqrt(plan.bin_counts)[:, None]
    bank.rows[rows] -= gains * value * steering_vector(support, plan)
    return rows


def decode(bank: BinBank, constellation: Constellation | None = None) -> DecodeResult:
    """Run classify-and-peel passes until a pass commits nothing, or MAX_PASSES.

    Within a pass, candidate singletons are ordered by residual energy
    (then stage, then bin) and checked against the live bank just before
    being committed: a candidate whose row an earlier commit of the pass
    has peeled into is re-read, so a stale verdict (its coefficients now
    removed, or its apparent support shifted) is dropped instead of
    poisoning the output.  An untouched row holds what it held when the
    pass began, so its verdict stands.  A support reported twice keeps
    only the lowest-residual sighting.
    """
    bank = bank.copy()
    plan = bank.plan
    row_stage, row_bin = plan.row_stage, plan.row_bin
    stage_of = row_stage.tolist()
    recovered: set[int] = set()
    records = []
    # equal values share an entry, so a 0.0 and a -0.0 part are not told apart
    value_ids: dict[complex, int] = {}
    passes = 0

    while passes < MAX_PASSES:
        passes += 1
        stats = bin_statistics(bank.rows, row_stage, row_bin, plan, constellation)
        candidates = []
        for row in range(len(stage_of)):
            verdict = classify_bin(stats, row)
            if verdict.kind is VerdictKind.SINGLETON:
                candidates.append((verdict.residual_energy, row, verdict))
        # rows are stage-major, so row order is (stage, bin) order
        candidates.sort(key=lambda c: c[:2])
        touched: set[int] = set()
        for _, row, verdict in candidates:
            if row in touched:
                one = slice(row, row + 1)
                reread = bin_statistics(
                    bank.rows[one], row_stage[one], row_bin[one], plan, constellation
                )
                verdict = classify_bin(reread, 0)
                if verdict.kind is not VerdictKind.SINGLETON:
                    continue
            if verdict.support in recovered:
                continue
            recovered.add(verdict.support)
            value_id = value_ids.setdefault(verdict.value, len(value_ids))
            records.append((verdict.support, value_id, passes, stage_of[row]))
            touched.update(peel(bank, verdict.support, verdict.value))
        if not touched:
            break

    cap = singleton_residual_threshold(plan.chain_count, plan.gamma)
    left = row_energies(bank.rows) > cap
    leftover = tuple(zip(row_stage[left].tolist(), row_bin[left].tolist()))
    log = np.array(records, dtype=_RECORD).tobytes()
    values = np.array(list(value_ids), dtype=np.complex128).tobytes()
    return DecodeResult(plan, not leftover, passes, leftover, log, values)
