"""Iterative decoding over the bank of bin observations.

Each pass classifies every live bin against a snapshot of the bank,
then commits the singleton verdicts in ascending residual order, most
confident first.  A commit subtracts the coefficient's steering
contribution from the one bin it aliases into in every stage, which can
turn a multi-ton elsewhere into a fresh singleton, so passes repeat
until nothing changes.  Decoding succeeds when every bin's leftover
energy is below the zero-ton gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .frontend import BinBank, bin_index, steering_vector
from .planner import FrontendPlan
from .singleton import VerdictKind, classify_bin, zero_ton_threshold
from .spectral import Constellation, SparseSpectrum


@dataclass(frozen=True, slots=True)
class PeelEvent:
    """One singleton found and removed: which bin produced it, and when."""

    pass_index: int
    stage: int
    bin: int
    support: int
    value: complex


@dataclass(slots=True)
class DecodeResult:
    spectrum: SparseSpectrum
    converged: bool
    passes: int
    events: list[PeelEvent] = field(default_factory=list)
    multi_ton_bins: list[tuple[int, int]] = field(default_factory=list)


@lru_cache(maxsize=16)
def _bin_keys(bin_counts: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every (stage, bin) pair of a geometry, made once.

    A noisy decode lists a dozen or more bins left above the gate; as
    shared tuples they cost a result that is kept no memory of its own.
    """
    return tuple(tuple((stage, j) for j in range(f)) for stage, f in enumerate(bin_counts))


def peel(bank: BinBank, support: int, value: complex) -> None:
    """Subtract coefficient `value` at `support` from every stage in place."""
    plan = bank.plan
    column_all = steering_vector(support, plan)
    for stage, f in enumerate(plan.bin_counts):
        j = bin_index(support, stage, plan)
        bank.stages[stage][j] -= math.sqrt(f) * value * column_all


def decode(
    bank: BinBank,
    constellation: Constellation | None = None,
    *,
    max_passes: int = 32,
) -> DecodeResult:
    """Run classify-and-peel passes until the bank is quiet or stalls.

    Within a pass, candidate singletons are ordered by residual energy
    and re-validated against the live bank just before being committed:
    a bin that an earlier commit has already peeled into is re-read, so
    a stale verdict (its coefficients now removed, or its apparent
    support shifted) is dropped instead of poisoning the output.  A
    support reported twice keeps only the lowest-residual sighting.
    """
    bank = bank.copy()
    plan = bank.plan
    recovered: dict[int, complex] = {}
    events: list[PeelEvent] = []
    gate = zero_ton_threshold(plan)
    passes = 0

    while passes < max_passes:
        passes += 1
        candidates = []
        for obs in bank.iter_observations():
            verdict = classify_bin(obs, plan, constellation)
            if verdict.kind is VerdictKind.SINGLETON:
                candidates.append((verdict, obs.stage, obs.bin))
        candidates.sort(key=lambda c: (c[0].residual_energy, c[1], c[2]))
        progressed = False
        for verdict, stage, j in candidates:
            if progressed:
                # an earlier commit may have peeled into this bin; re-read it
                verdict = classify_bin(bank.observation(stage, j), plan, constellation)
                if verdict.kind is not VerdictKind.SINGLETON:
                    continue
            if verdict.support in recovered:
                continue
            recovered[verdict.support] = verdict.value
            events.append(PeelEvent(passes, stage, j, verdict.support, verdict.value))
            peel(bank, verdict.support, verdict.value)
            progressed = True
        if not progressed:
            break

    keys = _bin_keys(plan.bin_counts)
    leftover = [
        keys[stage][j]
        for stage in range(plan.d)
        for j in np.flatnonzero(bank.energies(stage) >= gate)
    ]
    converged = not leftover
    spectrum = SparseSpectrum.from_pairs(plan.n, recovered.items())
    return DecodeResult(spectrum, converged, passes, events, leftover)
