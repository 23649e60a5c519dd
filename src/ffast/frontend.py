"""Subsampling front end: shifted decimation, short DFTs, bin bank.

Stage i keeps samples y[(m * n/f_i + r) mod n] for each shift r and
takes a 1/sqrt(f_i)-scaled f_i-point DFT.  Bin j of stage i then holds

    y_{i,j} = sqrt(f_i) * sum_{l = j mod f_i} X[l] * s_l  +  w,

with s_l[t] = exp(+2j*pi*l*r_t/n) the steering vector over the D shifts
and w unit-variance complex Gaussian per entry when the time-domain
noise has unit variance.  The sqrt(f_i) scaling keeps the noise at unit
variance in every stage, so a single energy threshold applies
everywhere and the effective per-bin SNR is f_i times the time-domain
SNR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .planner import FrontendPlan
from .spectral import TimeSignal


@dataclass(frozen=True)
class BinObservation:
    """One bin's D-vector of delay-chain DFT samples."""

    stage: int
    bin: int
    y: np.ndarray


class BinBank:
    """All bin observations for a plan, stage-major.

    stages[i] is an (f_i, D) complex array; row j is bin j.  The bank a
    decoder mutates should be a copy(); readers treat banks as frozen.
    """

    def __init__(self, plan: FrontendPlan, stages: list[np.ndarray]):
        if len(stages) != plan.d:
            raise ValueError("stage count mismatch")
        for f, arr in zip(plan.bin_counts, stages):
            if arr.shape != (f, plan.chain_count):
                raise ValueError(f"stage array shape {arr.shape} != ({f}, {plan.chain_count})")
        self.plan = plan
        self.stages = stages

    def observation(self, stage: int, bin_index: int) -> BinObservation:
        return BinObservation(stage, bin_index, self.stages[stage][bin_index])

    def energies(self, stage: int) -> np.ndarray:
        arr = self.stages[stage]
        return np.einsum("ij,ij->i", arr.conj(), arr).real

    def copy(self) -> "BinBank":
        return BinBank(self.plan, [arr.copy() for arr in self.stages])

    def iter_observations(self):
        for i in range(self.plan.d):
            for j in range(self.plan.bin_counts[i]):
                yield self.observation(i, j)


def bin_index(ell: int, stage: int, plan: FrontendPlan) -> int:
    """Bin that frequency ell aliases into at the given stage."""
    return int(ell % plan.bin_counts[stage])


def steering_vector(ell: int, plan: FrontendPlan) -> np.ndarray:
    """exp(+2j*pi*ell*r/n) over the plan's shifts; squared norm is D.

    The phase products are reduced mod n in exact integer arithmetic
    before the float conversion, so large ell stays accurate.
    """
    phases = (int(ell) * plan.shift_array) % plan.n
    return np.exp(2j * np.pi * phases / plan.n)


def subsample_and_transform(signal: TimeSignal, plan: FrontendPlan) -> BinBank:
    """Run the delay-chain subsampling front end over all stages."""
    if signal.n != plan.n:
        raise ValueError(f"signal length {signal.n} does not match plan n={plan.n}")
    shifts = plan.shift_array
    stages = []
    for f in plan.bin_counts:
        period = plan.n // f
        rows = (np.arange(f, dtype=np.int64)[:, None] * period + shifts[None, :]) % plan.n
        chains = signal.samples[rows]  # (f, D): column t is delay chain t
        stages.append(np.fft.fft(chains, axis=0) / math.sqrt(f))
    return BinBank(plan, stages)
