"""Bin classification: zero-ton / singleton / multi-ton.

A singleton bin y = sqrt(f) * X[l] * s_l + w is identified in three
steps.  First an energy gate: ||y||^2 < (1+gamma)*D means noise only.
Next the frequency: one array expression over the (C, N) view of the
chain outputs gives each shift cluster c's weighted phase-difference
estimate of (base**c * omega) mod 2*pi, omega = 2*pi*l/n (a zero sample
leaves it undefined, so such a bin is a multi-ton), and successive
refinement lifts these onto ever finer grids until omega is pinned to
better than half a grid cell of 2*pi/n.  Last the value: least squares
against the steering column of the rounded support, accepted as a
singleton only if the residual looks like pure noise and the column
explains most of the bin energy.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frontend import BinObservation, steering_vector
from .planner import FrontendPlan
from .spectral import Constellation

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


def cluster_estimate(samples: np.ndarray, spacing: int | np.ndarray) -> np.ndarray:
    """Frequency estimate per cluster, modulo 2*pi/spacing.

    Each row samples[..., :] holds the N consecutive chain outputs of one
    cluster, whose shifts differ by `spacing` (broadcast over the leading
    axes); the angles of consecutive products advance by spacing*omega.
    Angles are measured relative to the energy-weighted mean direction
    so that a true phase near +/-pi does not wrap individual terms.
    Returns the weighted estimate divided by spacing, reduced to
    [0, 2*pi/spacing).
    """
    samples = np.asarray(samples)
    products = samples[..., 1:] * np.conj(samples[..., :-1])
    reference = np.angle(products.sum(axis=-1))
    deviations = np.angle(products * np.exp(-1j * reference)[..., None])
    theta = reference + deviations @ kay_weights(samples.shape[-1])
    return np.mod(theta / spacing, 2.0 * np.pi / spacing)


def refine(estimates: list[float] | np.ndarray, base: int) -> float:
    """Fuse per-cluster estimates into one frequency in [0, 2*pi).

    estimates[i] is omega modulo 2*pi/base**i.  Each step lifts the next
    estimate onto its grid of period 2*pi/base**i at the lift nearest
    the running estimate (for base 2 this is the usual pick between the
    flooring and ceiling lifts; larger bases compare all lifts at once
    via rounding).  The final interval width is 2*pi/base**(C-1) times
    the last cluster's accuracy.
    """
    values = [float(e) for e in estimates]
    if not values:
        raise ValueError("need at least one cluster estimate")
    prev = values[0] % (2.0 * np.pi)
    for i, est in enumerate(values[1:], start=1):
        grid = 2.0 * np.pi / base**i
        prev = est + round((prev - est) / grid) * grid
    return prev % (2.0 * np.pi)


class VerdictKind(str, enum.Enum):
    ZERO_TON = "zero-ton"
    SINGLETON = "singleton"
    MULTI_TON = "multi-ton"


@dataclass(frozen=True)
class BinVerdict:
    kind: VerdictKind
    support: int | None
    value: complex | None
    residual_energy: float


def zero_ton_threshold(plan: FrontendPlan) -> float:
    return (1.0 + plan.gamma) * plan.chain_count


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
def singleton_residual_threshold(chain_count: int, gamma: float) -> float:
    """Residual energy cap for accepting a singleton.

    After projecting out one steering column, a true singleton's
    residual is Gamma(D-1)-distributed (unit-variance complex noise in
    the D-1 orthogonal directions).  The cap is that law's upper
    RESIDUAL_ALPHA quantile, never below the zero-ton threshold, so the
    rejection rate of genuine singletons is about RESIDUAL_ALPHA
    regardless of D.
    """
    floor = (1.0 + gamma) * chain_count
    if chain_count < 2:
        return floor
    quantile = _gamma_upper_quantile(chain_count - 1, RESIDUAL_ALPHA)
    return max(floor, quantile)


def _project_to_residue_class(target: float, bin_idx: int, f: int, n: int) -> int:
    """Nearest integer to target that is congruent to bin_idx mod f (circularly)."""
    step = round((target - bin_idx) / f) % (n // f)
    return int((bin_idx + f * step) % n)


def _consistent_with_bin(target: float, q: int, n: int) -> bool:
    """Does the raw frequency estimate actually round to the projected index?

    A genuine singleton's refined estimate lands within a small fraction
    of one index of an integer in the bin's residue class, so projecting
    and plain rounding agree.  When the bin holds several components the
    estimate is an artifact and its nearest integer falls outside the
    class with high probability; treating that as a contradiction
    rejects most such bins before the residual test.
    """
    distance = abs(target - q) % n
    return min(distance, n - distance) < 0.5


def classify_bin(
    obs: BinObservation,
    plan: FrontendPlan,
    constellation: Constellation | None = None,
) -> BinVerdict:
    """Classify one bin observation.

    The candidate support from refinement is projected onto the bin's
    residue class (a singleton in bin j of stage i must satisfy
    l = j mod f_i).  When a constellation is supplied the fitted value
    snaps to the nearest grid point before the residual test.  A
    singleton verdict requires the residual to pass both the noise-level
    quantile cap and the explained-energy fraction; everything else that
    clears the energy gate is a multi-ton.
    """
    y = obs.y
    d_chains = plan.chain_count
    f = plan.bin_counts[obs.stage]
    energy = float(np.vdot(y, y).real)
    gate = zero_ton_threshold(plan)
    if energy < gate:
        return BinVerdict(VerdictKind.ZERO_TON, None, None, energy)
    if not plan.clustered:
        raise ValueError("classification needs a clustered shift pattern")
    if not np.all(y):
        # a zero sample leaves a phase difference undefined
        return BinVerdict(VerdictKind.MULTI_TON, None, None, energy)
    spacing = plan.base ** np.arange(plan.clusters)
    estimates = cluster_estimate(y.reshape(plan.clusters, plan.per_cluster), spacing)
    omega = refine(estimates, plan.base)
    target = omega * plan.n / (2.0 * np.pi)
    support = _project_to_residue_class(target, obs.bin, f, plan.n)
    if not _consistent_with_bin(target, support, plan.n):
        return BinVerdict(VerdictKind.MULTI_TON, None, None, energy)
    column = steering_vector(support, plan)
    gain = math.sqrt(f)
    value = complex(np.vdot(column, y) / (gain * d_chains))
    if constellation is not None:
        value = constellation.snap(value)
    residual_vec = y - gain * value * column
    residual = float(np.vdot(residual_vec, residual_vec).real)
    cap = singleton_residual_threshold(d_chains, plan.gamma)
    explained_ok = residual <= (1.0 - MIN_EXPLAINED_FRACTION) * energy
    if residual < cap and explained_ok:
        return BinVerdict(VerdictKind.SINGLETON, support, value, residual)
    return BinVerdict(VerdictKind.MULTI_TON, None, None, residual)
