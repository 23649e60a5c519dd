"""Subsampling front end: shifted decimation, short DFTs, bin bank.

Stage i keeps samples y[(m * n/f_i + r) mod n] for each shift r and
takes a 1/sqrt(f_i)-scaled f_i-point DFT.  Bin j of stage i then holds

    y_{i,j} = sqrt(f_i) * sum_{l = j mod f_i} X[l] * s_l  +  w,

with s_l[t] = exp(+2j*pi*l*r_t/n) the steering vector over the D shifts
(read from spectral.unit_roots' table, not evaluated by exp) and w
unit-variance complex Gaussian per entry when the time-domain noise has
unit variance.  The sqrt(f_i) scaling keeps the noise at unit
variance in every stage, so a single energy threshold applies
everywhere and the effective per-bin SNR is f_i times the time-domain
SNR.

The front end owns this sampling pattern: it reads the signal at
plan.sample_index, laid out like the bank, and evaluates the signal's
spectrum there only.  Each stage's DFT is written over its rows in
place.  subtract_batch, the decoder's peel, takes a pass's commits as a
support array and a value array.
"""
from __future__ import annotations

import math

import numpy as np

from .planner import FrontendPlan
from .spectral import TimeSignal, unit_roots


class BinBank:
    """All bin observations for a plan, stage-major in one array.

    rows is a (sum f_i, D) complex array: row plan.row_offsets[i] + j is
    bin j of stage i, and stages[i] is the (f_i, D) view of stage i's
    rows.  Reading a bank never changes it; subtract_batch writes to
    rows in place, so the bank a decoder mutates should be a copy().
    """

    def __init__(self, plan: FrontendPlan, rows: np.ndarray):
        rows = np.ascontiguousarray(rows)
        if rows.shape != (sum(plan.bin_counts), plan.chain_count):
            raise ValueError(
                f"bank shape {rows.shape} != ({sum(plan.bin_counts)}, {plan.chain_count})"
            )
        self.plan = plan
        self.rows = rows
        self.stages = [rows[o : o + f] for o, f in zip(plan.row_offsets, plan.bin_counts)]

    def copy(self) -> "BinBank":
        return BinBank(self.plan, self.rows.copy())


def subtract_batch(bank: BinBank, supports: np.ndarray, values: np.ndarray) -> None:
    """Subtract value * sqrt(f_i) * s_support from bin support mod f_i of each stage.

    supports (int64) and values (complex128) are parallel arrays of
    peels.  One batch applies them in array order, bit for bit what
    subtracting one at a time gives; each steering vector is recomputed
    rather than carried from its fit.
    """
    if not supports.size:
        return
    plan = bank.plan
    counts = np.asarray(plan.bin_counts)
    d_chains = plan.chain_count
    targets = supports[:, None] % counts + np.asarray(plan.row_offsets)
    # the same products, in the same order, as one peel at a time:
    # (sqrt(f) * value) * steering vector
    scaled = np.sqrt(counts)[:, None] * values[:, None, None]
    deltas = scaled * steering_vector(supports, plan)[:, None, :]
    # subtract.at applies repeated entries one after another, in peel
    # order; on the flat bank each entry is one sample, not one row
    entries = targets[:, :, None] * d_chains + np.arange(d_chains)
    np.subtract.at(bank.rows.reshape(-1), entries.ravel(), deltas.ravel())


def row_energies(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a (B, D) complex array.

    Reads the rows through their float64 view, a (B, 2D) array that
    holds each sample's real and imaginary part side by side, and sums
    the 2D squares of a row in one einsum, with no conjugate copy.  A
    NaN in either part of a sample gives NaN, an infinity gives inf.
    Against the sum of the D complex products conj(y) * y this changes
    only the order of the additions: both round sums of the same 2D
    nonnegative terms, so they differ by at most about (4D + 2) ulp of
    the energy, and by at most 6 ulp in a check over random rows at
    D = 36 and 44.
    """
    flat = np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def steering_vector(ell, plan: FrontendPlan) -> np.ndarray:
    """exp(+2j*pi*ell*r/n) over the plan's shifts; squared norm is D.

    ell may be an integer array, which gives one vector per entry along
    a new last axis.  The phase products are reduced mod n in exact
    integer arithmetic and looked up in spectral.unit_roots' table of
    the n-th roots of unity, so large ell stays accurate and no complex
    exp is evaluated.  This serves the fit columns, the peel columns
    and the factored front end.
    """
    phases = np.asarray(ell, dtype=np.int64)[..., None] * plan.shift_array
    phases %= plan.n
    return unit_roots(phases, plan.n)


def factored_is_cheaper(n: int, k: int, m: int) -> bool:
    """Whether m samples of a k-sparse n-point signal are cheaper factored.

    The factored form costs about m*k multiply-adds, and the dense view
    about n*log2(n) for its inverse FFT, after which reading m of its
    samples is a gather.  The factored form is also held to m*k <= n*k,
    so it never evaluates more samples than the dense view holds.  A
    dense spectrum read at more than n samples, such as k=170 at n=4845
    with m=37,972, therefore stays on the gather.
    """
    return m * k <= n * min(k, math.log2(n))


def subsample_and_transform(signal: TimeSignal, plan: FrontendPlan) -> BinBank:
    """Run the delay-chain subsampling front end over all stages.

    Reads the plan.sample_count samples at plan.sample_index, then takes
    each stage's DFT over its rows in place: column t is delay chain t,
    and norm="ortho" scales by 1/sqrt(f).  The signal's spectrum is
    evaluated there in factored form when that is the cheaper way (see
    factored_is_cheaper):

        x[a*n/f + r] = sum_q e^{2j*pi*(a*l_q mod f)/f} * X_q s_{l_q}[r],

    a (sum f x k) table of n-th roots of unity read from unit_roots:
    e^{2j*pi*(a*l mod f)/f} is the root at (a*n/f)*l mod n, with a*n/f
    the row's plan.row_start, times the (k x D) table of steering
    vectors scaled by the values.
    Otherwise the samples are gathered from the noiseless view.  The
    noise is then added at the indices read.
    """
    if signal.n != plan.n:
        raise ValueError(f"signal length {signal.n} does not match plan n={plan.n}")
    index = plan.sample_index
    spec = signal.spectrum
    if not factored_is_cheaper(plan.n, spec.k, index.size):
        x = signal.clean[index]
    else:
        ells = spec.indices
        steer = spec.values[:, None] * steering_vector(ells, plan)
        x = unit_roots(plan.row_start[:, None] * ells % plan.n, plan.n) @ steer
    bank = BinBank(plan, signal.add_noise_at(x, index))
    for stage in bank.stages:
        np.fft.fft(stage, axis=0, norm="ortho", out=stage)
    return bank
