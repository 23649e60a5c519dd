"""Reference oracles: slow, independent recomputations used to check the
fast paths.  Nothing here shares code with the estimator or decoder.
"""
from __future__ import annotations

import math
from collections import OrderedDict, defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .planner import FrontendPlan
from .spectral import SparseSpectrum

_DROP_TOLERANCE = 1e-9

# Full n-by-n analysis matrices are memoized so repeated checks at the
# same length pay the O(n^2) construction once.  Budgeted in bytes, not
# entries: one n=10^4 matrix is 1.6 GB while dozens of small ones are free.
_MATRIX_BUDGET_BYTES = 800 * 1024 * 1024
# Largest n whose complex128 analysis matrix fits the budget (7240).
ORACLE_MAX_N = math.isqrt(_MATRIX_BUDGET_BYTES // 16)
_matrix_cache: OrderedDict[int, np.ndarray] = OrderedDict()


def _analysis_matrix(n: int) -> np.ndarray:
    """Rows exp(-2j*pi*l*p/n)/n for l, p in [0, n); memoized per n."""
    cached = _matrix_cache.get(n)
    if cached is not None:
        _matrix_cache.move_to_end(n)
        return cached
    twiddle = np.exp(-2j * np.pi * np.arange(n) / n) / n
    p = np.arange(n, dtype=np.int64)
    matrix = np.empty((n, n), dtype=np.complex128)
    block = max(1, (1 << 22) // n)
    for start in range(0, n, block):
        ells = np.arange(start, min(start + block, n), dtype=np.int64)
        matrix[start : start + ells.size] = twiddle[(ells[:, None] * p[None, :]) % n]
    while _matrix_cache and (
        sum(m.nbytes for m in _matrix_cache.values()) + matrix.nbytes > _MATRIX_BUDGET_BYTES
    ):
        _matrix_cache.popitem(last=False)
    if matrix.nbytes <= _MATRIX_BUDGET_BYTES:
        _matrix_cache[n] = matrix
    return matrix


class OracleSizeError(ValueError):
    """Raised when a request exceeds the oracle's documented size guard."""


@dataclass(frozen=True)
class OracleReport:
    matched: bool
    max_abs_error: float
    detail: str = ""


def dense_dft(samples: np.ndarray, drop_tolerance: float = _DROP_TOLERANCE) -> SparseSpectrum:
    """Full analysis DFT of the n samples x by direct O(n^2) summation.

    samples is a 1-d array of all n samples, such as a noiseless
    signal's clean view.  X[l] = (1/n) * sum_p x[p] * exp(-2j*pi*l*p/n);
    entries with |X[l]| < drop_tolerance are dropped.  Guarded at
    n <= ORACLE_MAX_N, so the n-by-n matrix fits the memory budget;
    clarity over speed, no fast transform involved.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"dense_dft takes a 1-d array of samples, got shape {x.shape}")
    n = x.size
    if n > ORACLE_MAX_N:
        raise OracleSizeError(f"dense_dft is guarded at n <= {ORACLE_MAX_N}, got {n}")
    out = _analysis_matrix(n) @ x
    keep = np.abs(out) >= drop_tolerance
    return SparseSpectrum(n, np.nonzero(keep)[0], out[keep])


def brute_singleton(
    y: np.ndarray, stage: int, bin: int, plan: FrontendPlan
) -> tuple[int, complex, float]:
    """Best single-frequency explanation of bin `bin` of `stage` by exhaustive scan.

    y is the bin's D-vector.  Scans every l in the bin's residue class,
    least-squares fits the value v = s_l^H y / (sqrt(f) * D), and
    returns the (l, v, residual) with the smallest residual energy.
    """
    f = plan.bin_counts[stage]
    d_chains = plan.chain_count
    candidates = np.arange(bin, plan.n, f, dtype=np.int64)
    phases = (candidates[:, None] * plan.shift_array[None, :]) % plan.n
    columns = np.exp(2j * np.pi * phases / plan.n)  # (n/f, D)
    projections = columns.conj() @ y  # s_l^H y per candidate
    energy = float(np.vdot(y, y).real)
    residuals = energy - (np.abs(projections) ** 2) / d_chains
    best = int(np.argmin(residuals))
    ell = int(candidates[best])
    value = complex(projections[best] / (math.sqrt(f) * d_chains))
    return ell, value, float(residuals[best])


def coherence_profile(plan: FrontendPlan, ells: np.ndarray) -> np.ndarray:
    """mu(l) for the requested frequencies by direct summation.

    Reference for planner.verify_incoherence, which takes the peak of the
    same sums over l = 1..n//2 from a blocked product or an rfft.
    """
    ells = np.asarray(ells, dtype=np.int64)
    phases = (ells[:, None] * plan.shift_array[None, :]) % plan.n
    terms = np.exp(2j * np.pi * phases / plan.n)
    return np.abs(terms.sum(axis=1)) / plan.chain_count


def noiseless_check(spectrum: SparseSpectrum, plan: FrontendPlan) -> bool:
    """Would ideal peeling (exact aliasing counts, no noise) recover all of it?

    Pure graph computation: repeatedly remove coefficients that sit
    alone in some stage bin.  True iff everything is removed.
    """
    if spectrum.n != plan.n:
        raise ValueError("spectrum length does not match plan")
    k = spectrum.k
    if k == 0:
        return True
    indices = spectrum.indices
    members: list[dict[int, set[int]]] = []
    degree_one: deque[tuple[int, int]] = deque()
    for stage, f in enumerate(plan.bin_counts):
        table: dict[int, set[int]] = defaultdict(set)
        for pos, ell in enumerate(indices):
            table[int(ell % f)].add(pos)
        members.append(table)
        for b, occupants in table.items():
            if len(occupants) == 1:
                degree_one.append((stage, b))
    removed = [False] * k
    removed_count = 0
    while degree_one:
        stage, b = degree_one.popleft()
        occupants = members[stage].get(b)
        if not occupants or len(occupants) != 1:
            continue
        (pos,) = occupants
        if removed[pos]:
            continue
        removed[pos] = True
        removed_count += 1
        ell = int(indices[pos])
        for s2, f2 in enumerate(plan.bin_counts):
            cell = members[s2][ell % f2]
            cell.discard(pos)
            if len(cell) == 1:
                degree_one.append((s2, ell % f2))
    return removed_count == k


def compare_spectra(
    estimate: SparseSpectrum, reference: SparseSpectrum, tolerance: float
) -> OracleReport:
    """Support equality plus per-coefficient value agreement.

    max_abs_error is the largest |estimate[l] - reference[l]| over the
    union of the supports, a missing coefficient counting as 0.
    """
    if estimate.n != reference.n:
        return OracleReport(False, math.inf, "length mismatch")
    est = dict(zip(estimate.indices.tolist(), estimate.values.tolist()))
    ref = dict(zip(reference.indices.tolist(), reference.values.tolist()))
    diffs = np.array([est.get(i, 0j) - ref.get(i, 0j) for i in est.keys() | ref.keys()])
    err = float(np.max(np.abs(diffs), initial=0.0))
    if est.keys() != ref.keys():
        return OracleReport(False, err, "support mismatch")
    return OracleReport(err <= tolerance, err, f"tolerance {tolerance:g}")
