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

import numpy as np

from .planner import FrontendPlan
from .spectral import TimeSignal


class BinBank:
    """All bin observations for a plan, stage-major in one array.

    rows is a (sum f_i, D) complex array: row plan.row_offsets[i] + j is
    bin j of stage i, and stages[i] is the (f_i, D) view of stage i's
    rows.  The bank a decoder mutates should be a copy(); readers treat
    banks as frozen.
    """

    def __init__(self, plan: FrontendPlan, rows: np.ndarray):
        rows = np.asarray(rows)
        if rows.shape != (sum(plan.bin_counts), plan.chain_count):
            raise ValueError(
                f"bank shape {rows.shape} != ({sum(plan.bin_counts)}, {plan.chain_count})"
            )
        self.plan = plan
        self.rows = rows
        self.stages = [rows[o : o + f] for o, f in zip(plan.row_offsets, plan.bin_counts)]

    def energies(self, stage: int) -> np.ndarray:
        return row_energies(self.stages[stage])

    def copy(self) -> "BinBank":
        return BinBank(self.plan, self.rows.copy())


def row_energies(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a (B, D) array."""
    return np.einsum("ij,ij->i", rows.conj(), rows).real


def bin_index(ell: int, stage: int, plan: FrontendPlan) -> int:
    """Bin that frequency ell aliases into at the given stage."""
    return int(ell % plan.bin_counts[stage])


def steering_vector(ell, plan: FrontendPlan) -> np.ndarray:
    """exp(+2j*pi*ell*r/n) over the plan's shifts; squared norm is D.

    ell may be an integer array, which gives one vector per entry along
    a new last axis.  The phase products are reduced mod n in exact
    integer arithmetic before the float conversion, so large ell stays
    accurate.
    """
    phases = (np.asarray(ell, dtype=np.int64)[..., None] * plan.shift_array) % plan.n
    return np.exp(2j * np.pi * phases / plan.n)


def subsample_and_transform(signal: TimeSignal, plan: FrontendPlan) -> BinBank:
    """Run the delay-chain subsampling front end over all stages.

    Asks the signal for the plan.sample_count samples it reads
    (TimeSignal.chains); a spectrum-backed signal evaluates only those,
    unless gathering them from all n is the cheaper way.
    """
    if signal.n != plan.n:
        raise ValueError(f"signal length {signal.n} does not match plan n={plan.n}")
    # (f, D) per stage: column t is delay chain t; norm="ortho" scales by 1/sqrt(f)
    chains = signal.chains(plan.bin_counts, plan.shifts)
    return BinBank(plan, np.concatenate([np.fft.fft(c, axis=0, norm="ortho") for c in chains]))
