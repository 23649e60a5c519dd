"""Bin classification: zero-ton / singleton / multi-ton.

A singleton bin y = sqrt(f) * X[l] * s_l + w is identified in three
steps.  First an energy gate: ||y||^2 < (1+GAMMA)*D means noise only.
Next the frequency: one array expression over the (B, C, N) view of a
stack of bins gives each shift cluster c's weighted phase-difference
estimate of (base**c * omega) mod 2*pi, omega = 2*pi*l/n (a zero sample
leaves it undefined, so such a bin is a multi-ton), and successive
refinement lifts these onto ever finer grids until omega is pinned to
better than half a grid cell of 2*pi/n.  Last the value: least squares
against the steering column of the rounded support, accepted as a
singleton only if the residual looks like pure noise and the column
explains most of the bin energy.  The steering column comes from
frontend.steering_vector, a lookup in spectral.unit_roots' table of
the n-th roots of unity, so classification evaluates no complex exp.

bin_statistics runs these steps for a whole stack of bins at once, each
step only on the rows that passed the one before, and returns the
verdicts and the row energies as five parallel arrays, with no Python
object per row.  Each row is named by its bank row index, which reads
what the plan fixes per row (bin, bin count, gain, period) from the
plan's cached arrays; the shift spacings, which are also refinement's
powers, come from one cached table.  So a call over a few rows pays for
those rows and not for re-deriving plan constants.  The rows above the
energy gate are gathered once, and a step no row reaches is skipped.
classify_bin turns one row's reason code into its VerdictReason, kept as
a call of its own because the benchmark's tracer counts it: a decoder
maps it over every row's code once per pass.
"""
from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .frontend import row_energies, steering_vector
from .planner import FrontendPlan
from .spectral import Constellation

# Energy-gate slack, a design constant of the analysis: a bin under
# (1 + GAMMA) * D holds noise only.  metrics.zeroton_bound needs GAMMA <= 1/3.
GAMMA = 0.2
RESIDUAL_ALPHA = 1e-4
MIN_EXPLAINED_FRACTION = 0.5


@lru_cache(maxsize=64)
def kay_weights(n_samples: int) -> np.ndarray:
    """beta(t) = 6(t+1)(N-1-t) / (N(N^2-1)) for t = 0..N-2; sums to 1.

    The returned array is cached and read-only.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples per cluster, got {n_samples}")
    t = np.arange(n_samples - 1, dtype=np.float64)
    beta = 6.0 * (t + 1.0) * (n_samples - 1.0 - t) / (n_samples * (n_samples**2 - 1.0))
    beta.flags.writeable = False
    return beta


@lru_cache(maxsize=64)
def _cluster_powers(base: int, clusters: int) -> np.ndarray:
    """base**c for c = 0..clusters-1, as float64 (cached, read-only).

    Cluster c's consecutive shifts differ by base**c, and refine lifts
    its estimate onto the grid of period 2*pi/base**c.  Exact while
    base**(clusters-1) < 2**53, as refine already requires.
    """
    powers = np.array([base**c for c in range(clusters)], dtype=np.float64)
    powers.flags.writeable = False
    return powers


def cluster_estimate(samples: np.ndarray, spacing: int | np.ndarray) -> np.ndarray:
    """Frequency estimate per cluster, modulo 2*pi/spacing.

    Each row samples[..., :] holds the N consecutive chain outputs of one
    cluster, whose shifts differ by `spacing` (broadcast over the leading
    axes); the angles of consecutive products advance by spacing*omega.
    Angles are measured relative to the energy-weighted mean direction
    so that a true phase near +/-pi does not wrap individual terms; the
    products are turned to it by conj(total)/|total| of their sum, not
    a complex exp.
    Returns the weighted estimate divided by spacing, reduced to
    [0, 2*pi/spacing).
    """
    samples = np.asarray(samples)
    products = samples[..., 1:] * samples[..., :-1].conj()
    total = products.sum(axis=-1)
    # np.angle is this arctan2, behind a Python wrapper
    reference = np.arctan2(total.imag, total.real)
    # rotate by -reference: conj(total) / |total|, or 1 where total = 0,
    # whose angle is taken as 0
    magnitude = np.abs(total)
    rotation = np.empty_like(total)
    rotation.fill(1)
    np.divide(total.conj(), magnitude, out=rotation, where=magnitude > 0)
    turned = products * rotation[..., None]
    deviations = np.arctan2(turned.imag, turned.real)
    theta = reference + deviations @ kay_weights(samples.shape[-1])
    return np.mod(theta / spacing, 2.0 * np.pi / spacing)


def refine(estimates, base: int):
    """Fuse per-cluster estimates into one frequency in [0, 2*pi).

    estimates[..., i] is omega modulo 2*pi/base**i; leading axes are
    independent bins, and the result has their shape.  Each cluster's
    estimate is lifted onto its grid of period 2*pi/base**i at the lift
    nearest the one before.  In turns, u_i = estimates_i * base**i / 2pi
    mod 1, so lift i adds the carry c_i = rint(base * u_(i-1) - u_i) to
    base times the running cell count, and the last lift lands in cell
    K = sum_i c_i * base**(C-1-i) of width 2*pi/base**(C-1): one dot
    product, exact in float64 while base**(C-1) < 2**53.  The final
    interval width is 2*pi/base**(C-1) times the last cluster's accuracy.
    """
    est = np.asarray(estimates, dtype=np.float64)
    if est.ndim == 0 or est.shape[-1] == 0:
        raise ValueError("need at least one cluster estimate")
    powers = _cluster_powers(base, est.shape[-1])
    turns = est * powers / (2.0 * np.pi)
    u = turns - np.floor(turns)  # mod 1; numpy's float % is several times slower
    carries = np.rint(base * u[..., :-1] - u[..., 1:])
    cells = (carries @ powers[-2::-1]) % powers[-1]
    return (2.0 * np.pi * (cells + u[..., -1]) / powers[-1]) % (2.0 * np.pi)


class VerdictKind(str, enum.Enum):
    ZERO_TON = "zero-ton"
    SINGLETON = "singleton"
    MULTI_TON = "multi-ton"


class VerdictReason(enum.IntEnum):
    """Why a bin got its verdict: the first test it failed, or SINGLETON.

    The tests run in this order.  ENERGY_GATE gives a zero-ton; the next
    four give a multi-ton.
    """

    ENERGY_GATE = 0  # energy under the zero-ton gate
    ZERO_SAMPLE = 1  # a chain sample is zero or not finite: a phase is undefined
    OFF_RESIDUE_CLASS = 2  # the estimate does not round into the bin's class
    RESIDUAL_CAP = 3  # the fit's residual reaches the noise-level cap
    EXPLAINED_FRACTION = 4  # the fit explains under MIN_EXPLAINED_FRACTION
    SINGLETON = 5

    @property
    def kind(self) -> VerdictKind:
        return _KINDS[self]


_REASONS = tuple(VerdictReason)
# The codes as plain ints for bin_statistics' array writes: numpy probes an
# enum member for the array protocols each time one is passed in.
_ZERO_SAMPLE = int(VerdictReason.ZERO_SAMPLE)
_OFF_RESIDUE_CLASS = int(VerdictReason.OFF_RESIDUE_CLASS)
_RESIDUAL_CAP = int(VerdictReason.RESIDUAL_CAP)
_EXPLAINED_FRACTION = int(VerdictReason.EXPLAINED_FRACTION)
_SINGLETON = int(VerdictReason.SINGLETON)
_KINDS = (VerdictKind.ZERO_TON,) + (VerdictKind.MULTI_TON,) * 4 + (VerdictKind.SINGLETON,)


class BinStatistics(NamedTuple):
    """Classification of a stack of bins: five parallel arrays, one entry per row.

    reason holds each row's VerdictReason code (int8).  support (int64)
    and value (complex128) hold the fitted support and value, a verdict
    only where reason is SINGLETON and 0 elsewhere.  residual (float64)
    is the fit's residual energy, or the row's energy where no fit was
    made, and energy (float64) is the row's energy, row_energies' value
    bit for bit.  A decoder overwrites the entries of the rows it
    recomputes, one field at a time.
    """

    reason: np.ndarray
    support: np.ndarray
    value: np.ndarray
    residual: np.ndarray
    energy: np.ndarray


def zero_ton_threshold(plan: FrontendPlan) -> float:
    return (1.0 + GAMMA) * plan.chain_count


def _gamma_upper_quantile(shape: int, alpha: float) -> float:
    """x with P(Gamma(shape, 1) > x) = alpha, for an integer shape >= 1.

    For an integer shape the survival function is the Poisson sum
    exp(-x) * sum_{k<shape} x**k / k!, strictly falling in x, so
    bisection halves the bracket until it stops shrinking.  Done here
    rather than with scipy.special, whose import alone adds about 25 MB
    to a process, so that the package needs only numpy.
    """

    def survival(x: float) -> float:
        log_x = math.log(x)
        return math.fsum(math.exp(k * log_x - x - math.lgamma(k + 1)) for k in range(shape))

    lo, hi = 0.0, float(shape)
    while survival(hi) > alpha:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if survival(mid) > alpha:
            lo = mid
        else:
            hi = mid


@lru_cache(maxsize=256)
def singleton_residual_threshold(chain_count: int) -> float:
    """Residual energy cap for accepting a singleton.

    After projecting out one steering column, a true singleton's
    residual is Gamma(D-1)-distributed (unit-variance complex noise in
    the D-1 orthogonal directions).  The cap is that law's upper
    RESIDUAL_ALPHA quantile, never below the zero-ton threshold, so the
    rejection rate of genuine singletons is about RESIDUAL_ALPHA
    regardless of D.
    """
    floor = (1.0 + GAMMA) * chain_count
    if chain_count < 2:
        return floor
    quantile = _gamma_upper_quantile(chain_count - 1, RESIDUAL_ALPHA)
    return max(floor, quantile)


def _project_to_residue_class(
    target: np.ndarray, bins: np.ndarray, f: np.ndarray, period: np.ndarray, n: int
) -> np.ndarray:
    """Nearest integer to each target that is congruent to its bin mod f (circularly).

    period is n // f, entry by entry.
    """
    step = np.rint((target - bins) / f).astype(np.int64) % period
    return (bins + f * step) % n


def _consistent_with_bin(target: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """Does each raw frequency estimate actually round to its projected index?

    A genuine singleton's refined estimate lands within a small fraction
    of one index of an integer in the bin's residue class, so projecting
    and plain rounding agree.  When the bin holds several components the
    estimate is an artifact and its nearest integer falls outside the
    class with high probability; treating that as a contradiction
    rejects most such bins before the residual test.
    """
    distance = np.abs(target - q) % n
    return np.minimum(distance, n - distance) < 0.5


def bin_statistics(
    rows: np.ndarray,
    row_ids: np.ndarray,
    plan: FrontendPlan,
    constellation: Constellation | None = None,
) -> BinStatistics:
    """Run the classification tests over a (B, D) stack of bin rows.

    Row r of the stack is bank row row_ids[r] of the plan, whose
    per-row constants (bin, bin count, gain, period) are read by that
    one index array.  Energy covers every row, the zero-sample test only
    the rows above the energy gate, the frequency estimate only those
    with no zero sample, and the fit only the rows whose estimate lands
    in the bin's residue class (a singleton in bin j of stage i must
    satisfy l = j mod f_i).  When a constellation is supplied the fitted
    value snaps to the nearest grid point before the residual test.  A
    singleton needs the residual to pass both the noise-level quantile
    cap and the explained-energy fraction.  The rows above the gate are
    gathered once, and gathered again only if some of them hold a zero
    sample.
    """
    rows = np.asarray(rows)
    n, d_chains = plan.n, plan.chain_count
    energy = row_energies(rows)
    reason = np.zeros(len(rows), dtype=np.int8)  # VerdictReason.ENERGY_GATE
    support = np.zeros(len(rows), dtype=np.int64)
    value = np.zeros(len(rows), dtype=np.complex128)
    residual = energy.copy()
    stats = BinStatistics(reason, support, value, residual, energy)
    est = (~(energy < zero_ton_threshold(plan))).nonzero()[0]
    if not est.size:
        return stats
    y = rows[est]
    # a zero or non-finite sample leaves a phase difference undefined
    zero = ~(np.isfinite(energy[est]) & y.all(axis=1))
    if zero.any():
        reason[est[zero]] = _ZERO_SAMPLE
        keep = ~zero
        est, y = est[keep], y[keep]
        if not est.size:
            return stats
    ids = np.asarray(row_ids)[est]
    f = plan.row_bin_count[ids]
    samples = y.reshape(-1, plan.clusters, plan.per_cluster)
    estimates = cluster_estimate(samples, _cluster_powers(plan.base, plan.clusters))
    target = refine(estimates, plan.base) * n / (2.0 * np.pi)
    q = _project_to_residue_class(target, plan.row_bin[ids], f, plan.row_period[ids], n)
    in_class = _consistent_with_bin(target, q, n)
    if not in_class.all():
        reason[est[~in_class]] = _OFF_RESIDUE_CLASS
        est, ids, y, q = est[in_class], ids[in_class], y[in_class], q[in_class]
        if not est.size:
            return stats
    columns = steering_vector(q, plan)
    gain = plan.row_gain[ids]
    fitted = np.einsum("ij,ij->i", columns.conj(), y) / (gain * d_chains)
    if constellation is not None:
        fitted = constellation.snap(fitted)
    left = row_energies(y - (gain * fitted)[:, None] * columns)
    cap = singleton_residual_threshold(d_chains)
    explained = left <= (1.0 - MIN_EXPLAINED_FRACTION) * energy[est]
    code = np.where(
        ~(left < cap),
        _RESIDUAL_CAP,
        np.where(explained, _SINGLETON, _EXPLAINED_FRACTION),
    )
    reason[est] = code
    single = code == _SINGLETON
    hit = est[single]
    support[hit] = q[single]
    value[hit] = fitted[single]
    residual[est] = left
    return stats


def classify_bin(code: int) -> VerdictReason:
    """The VerdictReason of a reason code: a call the benchmark's tracer counts."""
    return _REASONS[code]
