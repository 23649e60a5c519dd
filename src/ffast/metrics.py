"""Trial scoring and closed-form error-event bounds.

The bound calculators mirror the decoder's failure events: a noise bin
crossing the energy gate, a singleton falling under it, the weighted
phase estimator leaving its lock-in interval, a value snapping to the
wrong constellation point, and a multi-ton masquerading as a singleton.
All of them take the per-bin SNR rho_b = f_i * rho, since binning
concentrates the signal by the subsampling factor while the noise stays
at unit variance.
"""
from __future__ import annotations

import math

import numpy as np

from .spectral import SparseSpectrum


def support_recovery(est: SparseSpectrum, truth: SparseSpectrum) -> tuple[bool, float]:
    """Exact-support success flag and normalized l1 error.

    l1 is sum |est - truth| over the union of supports, divided by
    truth's l1 norm; both-empty counts as (True, 0.0), and a nonempty
    estimate of an empty truth scores inf.
    """
    if est.n != truth.n:
        raise ValueError(f"length mismatch: {est.n} vs {truth.n}")
    success = bool(np.array_equal(est.indices, truth.indices))
    union = est.support_union(truth)
    denom = float(np.abs(truth.values).sum())
    numer = float(np.abs(est.values_at(union) - truth.values_at(union)).sum())
    if denom == 0.0:
        return success, 0.0 if numer == 0.0 else math.inf
    return success, numer / denom


def energy_tail_bound(u_energy_per_dim: float, d_chains: int, gamma: float) -> float:
    """Pr(||u + w||^2 < (1+gamma)D) for fixed u with ||u||^2/D given.

    Lower-tail bound for the noncentral chi-square energy statistic;
    requires 0 < gamma < u_energy_per_dim, approaching 1 as gamma
    approaches the signal energy.
    """
    if not 0.0 < gamma < u_energy_per_dim:
        raise ValueError("need 0 < gamma < u_energy_per_dim")
    gap = u_energy_per_dim - gamma
    return math.exp(-d_chains * gap * gap / (2.0 + 4.0 * u_energy_per_dim))


def zeroton_bound(d_chains: int, gamma: float) -> float:
    """Pr(noise-only bin crosses the (1+gamma)D gate), via Lipschitz concentration."""
    if not 0.0 <= gamma <= 1.0 / 3.0:
        raise ValueError(f"gamma must lie in [0, 1/3], got {gamma}")
    return 2.0 * math.exp(-d_chains * gamma * gamma / 9.0)


def kay_variance(rho_b: float, n_samples: int) -> float:
    """Variance of the weighted phase-difference frequency estimate."""
    if rho_b <= 0:
        raise ValueError("per-bin SNR must be positive")
    if n_samples < 2:
        raise ValueError("need at least 2 samples per cluster")
    return 6.0 / (rho_b * n_samples * (n_samples**2 - 1.0))


def q_function(x: float) -> float:
    """Standard normal upper tail."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def prop1_bound(
    rho_b: float, n_samples: int, c1: float, n: int
) -> tuple[float, bool]:
    """Chance one cluster estimate misses its +/- pi/c1 lock-in interval.

    Returns the two-sided Gaussian tail 2Q(pi/c1 * sqrt(N(N^2-1)rho_b/6))
    and whether it is below the 1/n^3 budget that lets a union bound
    over all bins and clusters go through.
    """
    if rho_b <= 0 or n_samples < 2 or c1 <= 0 or n < 2:
        raise ValueError("invalid arguments")
    deviation = math.pi / c1
    sigma = math.sqrt(kay_variance(rho_b, n_samples))
    value = 2.0 * q_function(deviation / sigma)
    return value, value < 1.0 / n**3


def value_error_bound(rho_b: float, d_chains: int, m2: int) -> float:
    """Chance a singleton's fitted value snaps to a wrong phase cell."""
    if rho_b <= 0 or d_chains < 1 or m2 < 2:
        raise ValueError("invalid arguments")
    s = math.sin(math.pi / m2)
    return math.exp(-d_chains * rho_b * s * s)


def multiton_bound(
    rho_b: float, d_chains: int, gamma: float, n: int, sparsity_l: int
) -> float:
    """Chance an L-component bin passes the singleton residual test.

    The residual after subtracting any single steering column keeps at
    least L*rho_b*(1 - 2L*sqrt(ln(5n)/D))_+ energy per dimension, and
    the energy tail bound is applied to that floor.  When the
    incoherence deficit drives the floor below gamma the bound is
    vacuous and 1.0 is returned: the deficit is positive only for
    D > 4L^2*ln(5n).
    """
    if sparsity_l < 2:
        raise ValueError("a multi-ton has at least 2 components")
    if rho_b <= 0:
        raise ValueError("invalid arguments")
    deficit = 1.0 - 2.0 * sparsity_l * math.sqrt(math.log(5.0 * n) / d_chains)
    floor = sparsity_l * rho_b * max(deficit, 0.0)
    if floor <= gamma:
        return 1.0
    return energy_tail_bound(floor, d_chains, gamma)
