"""Signal model: sparse spectra, constellation values, synthesis, noise.

Conventions used throughout the package:

* synthesis:  x[p] = sum_q X[l_q] * exp(+2j*pi*l_q*p/n), no 1/n factor,
  evaluated by exp_sums: a blocked O(n*k) product for sparse spectra,
  n * ifft of the dense spectrum when k is large enough that the FFT
  is cheaper;
* analysis:   X[l] = (1/n) * sum_p x[p] * exp(-2j*pi*l*p/n);
* noise:      y = x + z with z circular complex Gaussian, so a noise
  variance of 1.0 means unit variance per complex sample (0.5 per
  real/imaginary part).

SNR is expressed as rho = (mean nonzero |X[l]|^2) / (||z||^2 / n); with
unit noise the signal amplitude alone sets the operating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .randomness import generator

_STREAM_SUPPORT = 0xA1
_STREAM_VALUES = 0xA2
_STREAM_NOISE = 0xA3
_STREAM_PHASES = 0xA4
# Noise samples drawn per generator call (512 KiB of float64).
_NOISE_CHUNK = 1 << 16


@dataclass(frozen=True)
class Constellation:
    """Finite amplitude/phase grid for nonzero DFT coefficients.

    Magnitudes are sqrt(rho)/2 + i*sqrt(rho)/m1 for i = 0..m1, giving
    m1+1 strictly increasing positive levels; phases are the m2 evenly
    spaced angles 2*pi*i/m2.  The grid holds (m1+1)*m2 points.

    rho is the linear-scale design SNR.  Note the mean point energy
    exceeds rho (the lowest magnitude is sqrt(rho)/2, the highest
    3*sqrt(rho)/2); rho anchors the grid rather than normalizing it.
    """

    rho: float
    m1: int = 1
    m2: int = 8

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.m1 < 1:
            raise ValueError(f"m1 must be a positive integer, got {self.m1}")
        if self.m2 < 1:
            raise ValueError(f"m2 must be a positive integer, got {self.m2}")

    def magnitudes(self) -> np.ndarray:
        a = math.sqrt(self.rho)
        return a / 2.0 + np.arange(self.m1 + 1) * (a / self.m1)

    def phases(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.m2) / self.m2

    def points(self) -> np.ndarray:
        mags = self.magnitudes()
        phasors = np.exp(1j * self.phases())
        return (mags[:, None] * phasors[None, :]).ravel()

    @cached_property
    def _grid(self) -> np.ndarray:
        return self.points()

    def snap(self, value: complex) -> complex:
        """Nearest grid point to value (Euclidean distance in C)."""
        pts = self._grid
        return complex(pts[np.argmin(np.abs(pts - value))])


@dataclass(frozen=True)
class SparseSpectrum:
    """k nonzero DFT coefficients of an n-point signal.

    Entries are stored sorted by index; indices are distinct and lie in
    [0, n).  Construction normalizes dtype and ordering.
    """

    n: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        idx = np.atleast_1d(np.asarray(self.indices, dtype=np.int64)).copy()
        val = np.atleast_1d(np.asarray(self.values, dtype=np.complex128)).copy()
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.n:
                raise ValueError("indices must lie in [0, n)")
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
            val = val[order]
            if np.any(np.diff(idx) == 0):
                raise ValueError("indices must be distinct")
        idx.flags.writeable = False
        val.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def empty(cls, n: int) -> "SparseSpectrum":
        return cls(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "SparseSpectrum":
        """Build from a mapping or an iterable of (index, value) pairs."""
        items = list(pairs.items() if isinstance(pairs, dict) else pairs)
        if not items:
            return cls.empty(n)
        idx = np.array([i for i, _ in items], dtype=np.int64)
        val = np.array([v for _, v in items], dtype=np.complex128)
        return cls(n, idx, val)

    @property
    def k(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.n, dtype=np.complex128)
        dense[self.indices] = self.values
        return dense

    def value_at(self, index: int) -> complex:
        pos = np.searchsorted(self.indices, index)
        if pos < self.k and self.indices[pos] == index:
            return complex(self.values[pos])
        return 0j

    def max_abs_difference(self, other: "SparseSpectrum") -> float:
        """Largest per-coefficient |difference| over the union of supports."""
        if self.n != other.n:
            raise ValueError("spectra have different lengths")
        union = np.union1d(self.indices, other.indices)
        if union.size == 0:
            return 0.0
        a = np.array([self.value_at(int(i)) for i in union])
        b = np.array([other.value_at(int(i)) for i in union])
        return float(np.max(np.abs(a - b)))


@dataclass(frozen=True)
class TimeSignal:
    """n complex time-domain samples."""

    n: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.ndim != 1 or s.size != self.n:
            raise ValueError(f"expected {self.n} samples, got shape {s.shape}")
        object.__setattr__(self, "samples", s)


def random_spectrum(n: int, k: int, constellation: Constellation, seed: int) -> SparseSpectrum:
    """Draw k distinct support points uniformly and values uniformly from the grid."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, n], got k={k}, n={n}")
    if k == 0:
        return SparseSpectrum.empty(n)
    rng = generator(seed, _STREAM_SUPPORT)
    support = np.sort(rng.choice(n, size=k, replace=False).astype(np.int64))
    vrng = generator(seed, _STREAM_VALUES)
    mags = constellation.magnitudes()[vrng.integers(0, constellation.m1 + 1, size=k)]
    phis = constellation.phases()[vrng.integers(0, constellation.m2, size=k)]
    return SparseSpectrum(n, support, mags * np.exp(1j * phis))


def random_phase_spectrum(n: int, k: int, amplitude: float, seed: int) -> SparseSpectrum:
    """Fixed-amplitude coefficients with phases uniform on [0, 2*pi).

    The support draw matches random_spectrum for the same seed, so the
    two value models are comparable instance by instance.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, n], got k={k}, n={n}")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    if k == 0:
        return SparseSpectrum.empty(n)
    rng = generator(seed, _STREAM_SUPPORT)
    support = np.sort(rng.choice(n, size=k, replace=False).astype(np.int64))
    prng = generator(seed, _STREAM_PHASES)
    values = amplitude * np.exp(1j * prng.uniform(0.0, 2.0 * np.pi, size=k))
    return SparseSpectrum(n, support, values)


def exp_sums(n: int, freqs, weights) -> np.ndarray:
    """x[p] = sum_q w_q * exp(+2j*pi*f_q*p/n) for p = 0..n-1.

    Frequencies are integers, taken mod n; repeats add.  With p = b*W + r
    and W = ceil(sqrt(n)), x is the row-major (rows x W) product of a
    (rows x k) table w_q * exp(2j*pi*f_q*W*b/n) and a (k x W) table
    exp(2j*pi*f_q*r/n): O(n*k) multiply-adds and O(k*sqrt(n)) exps.
    The phase products are reduced mod n in exact integer arithmetic, as
    steering_vector does.  When 9*k**2 > n the length-n FFT is cheaper,
    and x is n * ifft of the dense spectrum instead; for real weights,
    x = conj(fft(dense)) is assembled from the half-length rfft.
    """
    f = np.asarray(freqs, dtype=np.int64) % n
    w = np.asarray(weights)
    if 9 * f.size**2 > n:
        if np.iscomplexobj(w):
            dense = np.zeros(n, dtype=np.complex128)
            np.add.at(dense, f, w)
            return np.fft.ifft(dense) * n
        half = np.fft.rfft(np.bincount(f, weights=w, minlength=n))
        x = np.empty(n, dtype=np.complex128)
        np.conjugate(half, out=x[: half.size])
        x[half.size :] = half[n - half.size : 0 : -1]
        return x
    width = math.isqrt(n - 1) + 1
    rows = -(-n // width)
    outer = (np.arange(rows, dtype=np.int64)[:, None] * (f * width % n)) % n
    inner = (f[:, None] * np.arange(width, dtype=np.int64)) % n
    table_b = w * np.exp(2j * np.pi * outer / n)
    table_r = np.exp(2j * np.pi * inner / n)
    return (table_b @ table_r).reshape(-1)[:n]


def synthesize(spectrum: SparseSpectrum) -> TimeSignal:
    """Evaluate x[p] = sum_q X[l_q] exp(+2j*pi*l_q*p/n) for p = 0..n-1.

    Computed by exp_sums: the blocked product for sparse spectra, and
    n * ifft(dense spectrum), this sum exactly, for dense ones.
    """
    return TimeSignal(spectrum.n, exp_sums(spectrum.n, spectrum.indices, spectrum.values))


def add_noise(signal: TimeSignal, noise_variance: float, seed: int) -> TimeSignal:
    """Add circular complex Gaussian noise of the given per-sample variance."""
    if noise_variance < 0:
        raise ValueError(f"noise_variance must be nonnegative, got {noise_variance}")
    if noise_variance == 0:
        return TimeSignal(signal.n, signal.samples.copy())
    # The real parts take the first standard_normal(n) draw and the
    # imaginary parts the second, so the sum is bit-identical to
    # samples + scale * (z1 + 1j * z2) without its length-n temporaries.
    # The generator continues its stream across calls, so drawing in
    # cache-sized chunks gives the same values as one length-n draw.
    rng = generator(seed, _STREAM_NOISE)
    scale = math.sqrt(noise_variance / 2.0)
    x = signal.samples
    out = np.empty_like(x)
    buf = np.empty(min(signal.n, _NOISE_CHUNK))
    for src, dst in ((x.real, out.real), (x.imag, out.imag)):
        for start in range(0, signal.n, _NOISE_CHUNK):
            stop = min(start + _NOISE_CHUNK, signal.n)
            draw = buf[: stop - start]
            rng.standard_normal(out=draw)
            draw *= scale
            np.add(src[start:stop], draw, out=dst[start:stop])
    return TimeSignal(signal.n, out)
