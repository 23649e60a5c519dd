"""Signal model: sparse spectra, constellation values, synthesis, noise.

Conventions used throughout the package:

* synthesis:  x[p] = sum_q X[l_q] * exp(+2j*pi*l_q*p/n), no 1/n factor.
  A TimeSignal is a sparse spectrum plus noise seeds and holds no
  samples: the front end, which alone knows which samples it reads,
  evaluates only those.  Its noiseless part, all n samples, is
  n * ifft of the dense spectrum;
* analysis:   X[l] = (1/n) * sum_p x[p] * exp(-2j*pi*l*p/n);
* roots of unity: exp(2j*pi*m/n) on the fast path comes from
  unit_roots, two gathers from one cached two-level table per n and a
  multiply; complex exp is evaluated only to build that table and in
  the value model (grid points, random phases);
* noise:      y = x + z with z circular complex Gaussian, so a noise
  variance of 1.0 means unit variance per complex sample (0.5 per
  real/imaginary part).  z[p] is a function of (seed, p) alone
  (randomness.complex_normal), so it too is drawn only where read.

SNR is expressed as rho = (mean nonzero |X[l]|^2) / (||z||^2 / n); with
unit noise the signal amplitude alone sets the operating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .randomness import complex_normal, generator

_STREAM_SUPPORT = 0xA1
_STREAM_VALUES = 0xA2
_STREAM_NOISE = 0xA3
_STREAM_PHASES = 0xA4


# The value grid's design constants: M1 + 1 magnitude levels and M2 phases.
M1 = 1
M2 = 8


@dataclass(frozen=True)
class Constellation:
    """Finite amplitude/phase grid for nonzero DFT coefficients.

    Magnitudes are sqrt(rho)/2 + i*sqrt(rho)/M1 for i = 0..M1, giving
    M1+1 strictly increasing positive levels; phases are the M2 evenly
    spaced angles 2*pi*j/M2.  points holds the (M1+1)*M2 grid points
    magnitude-major: point i*M2 + j is magnitude i at phase j.

    rho is the linear-scale design SNR.  Note the mean point energy
    exceeds rho (the lowest magnitude is sqrt(rho)/2, the highest
    3*sqrt(rho)/2); rho anchors the grid rather than normalizing it.
    """

    rho: float

    def __post_init__(self) -> None:
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")

    @cached_property
    def points(self) -> np.ndarray:
        """The grid, magnitude-major (read-only)."""
        a = math.sqrt(self.rho)
        mags = a / 2.0 + np.arange(M1 + 1) * (a / M1)
        phasors = np.exp(1j * (2.0 * np.pi * np.arange(M2) / M2))
        pts = (mags[:, None] * phasors[None, :]).ravel()
        pts.flags.writeable = False
        return pts

    def snap(self, value):
        """Nearest grid point to value, entry by entry (Euclidean distance in C)."""
        pts = self.points
        return pts[np.abs(pts - np.asarray(value)[..., None]).argmin(axis=-1)]


@dataclass(frozen=True, slots=True)
class SparseSpectrum:
    """k nonzero DFT coefficients of an n-point signal.

    Entries are stored sorted by index; indices are distinct integers in
    [0, n).  Construction normalizes ordering and dtype: values are
    complex128, and indices the narrowest signed type holding n - 1 of
    int16, int32 and int64 (int16 up to n = 2**15), so a caller that
    multiplies them widens to int64 first.
    """

    n: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        idx = np.atleast_1d(np.asarray(self.indices))
        val = np.atleast_1d(np.asarray(self.values, dtype=np.complex128))
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if idx.dtype.kind == "f" and not np.all(np.isfinite(idx) & (np.floor(idx) == idx)):
            raise ValueError("indices must be integers")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("indices must lie in [0, n)")
        idx = idx.astype(np.int64, copy=False)
        # the reorder is a fancy-index copy, so the stored arrays are never the caller's
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        val = val[order]
        if np.any(np.diff(idx) == 0):
            raise ValueError("indices must be distinct")
        narrow = np.int16 if self.n <= 1 << 15 else np.int32 if self.n <= 1 << 31 else np.int64
        idx = idx.astype(narrow, copy=False)
        idx.flags.writeable = False
        val.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def k(self) -> int:
        return int(self.indices.size)

    def values_at(self, indices) -> np.ndarray:
        """X[l] at each requested index l: the stored value, or 0."""
        indices = np.asarray(indices, dtype=np.int64)
        out = np.zeros(indices.shape, dtype=np.complex128)
        if self.k:
            pos = np.minimum(np.searchsorted(self.indices, indices), self.k - 1)
            hit = self.indices[pos] == indices
            out[hit] = self.values[pos[hit]]
        return out

    def support_union(self, other: "SparseSpectrum") -> np.ndarray:
        """Sorted indices in either support.

        Both index arrays are sorted and repeat-free, so sorting the two
        together and dropping repeats is enough.  np.union1d would do the
        same through np.unique, whose first call imports numpy.ma.
        """
        both = np.sort(np.concatenate((self.indices, other.indices)))
        first = np.ones(both.size, dtype=bool)
        first[1:] = both[1:] != both[:-1]
        return both[first]


class TimeSignal:
    """An n-point complex time signal: a sparse spectrum plus noise terms.

    TimeSignal(spectrum, noise), as synthesize and add_noise build it,
    holds the k coefficients and a tuple of (variance, seed) noise terms,
    and n is the spectrum's.  It holds no samples: a front end evaluates
    the spectrum where it reads and adds the noise there with
    add_noise_at.  The noise at sample p is randomness.complex_normal at
    index p, so it is the same value however many samples are read and
    in what order.  clean, the noiseless part at all n samples, is
    computed on first use.
    """

    def __init__(self, spectrum: SparseSpectrum, noise: tuple[tuple[float, int], ...] = ()):
        self.n = spectrum.n
        self.spectrum = spectrum
        self.noise = tuple(noise)

    @cached_property
    def clean(self) -> np.ndarray:
        """The noiseless samples, all n of them: n * ifft of the dense spectrum."""
        dense = np.zeros(self.n, dtype=np.complex128)
        dense[self.spectrum.indices] = self.spectrum.values
        return np.fft.ifft(dense) * self.n

    def add_noise_at(self, x: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Add the noise at each sample index to x, in place, and return x."""
        for variance, seed in self.noise:
            x += complex_normal(seed, _STREAM_NOISE, index, variance)
        return x


def _random_support(n: int, k: int, seed: int) -> np.ndarray:
    """k distinct indices in [0, n), drawn uniformly and sorted.

    Every value model draws its support here, so one seed gives one
    support whatever the values.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, n], got k={k}, n={n}")
    rng = generator(seed, _STREAM_SUPPORT)
    return np.sort(rng.choice(n, size=k, replace=False).astype(np.int64))


def random_spectrum(n: int, k: int, constellation: Constellation, seed: int) -> SparseSpectrum:
    """Draw k distinct support points uniformly and values uniformly from constellation.points."""
    support = _random_support(n, k, seed)
    vrng = generator(seed, _STREAM_VALUES)
    magnitude = vrng.integers(0, M1 + 1, size=k)
    phase = vrng.integers(0, M2, size=k)
    return SparseSpectrum(n, support, constellation.points[magnitude * M2 + phase])


def random_phase_spectrum(n: int, k: int, amplitude: float, seed: int) -> SparseSpectrum:
    """Fixed-amplitude coefficients with phases uniform on [0, 2*pi).

    The support is random_spectrum's for the same seed, so the two value
    models are comparable instance by instance.
    """
    if not 0 < amplitude < math.inf:
        raise ValueError(f"amplitude must be positive and finite, got {amplitude}")
    support = _random_support(n, k, seed)
    prng = generator(seed, _STREAM_PHASES)
    values = amplitude * np.exp(1j * prng.uniform(0.0, 2.0 * np.pi, size=k))
    return SparseSpectrum(n, support, values)


@lru_cache(maxsize=32)
def root_table(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The n-th roots of unity as a two-level table: (bits, high, low).

    exp(2j*pi*m/n) = high[m >> bits] * low[m & (2**bits - 1)] for every
    integer m in [0, n), with bits = ceil(bit_length(n) / 2), so the two
    tables hold under 3*sqrt(n) + 1 entries (44 KB at n = 1,499,400).
    Each product differs from exp(2j*pi*m/n) by a few units in the last
    place.  The arrays are cached and read-only.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    bits = (n.bit_length() + 1) // 2
    low = np.exp(2j * np.pi * np.arange(1 << bits, dtype=np.int64) / n)
    high = np.exp(2j * np.pi * (np.arange(((n - 1) >> bits) + 1, dtype=np.int64) << bits) / n)
    low.flags.writeable = False
    high.flags.writeable = False
    return bits, high, low


def unit_roots(m, n: int) -> np.ndarray:
    """exp(2j*pi*m/n) for each integer m in [0, n), read from root_table(n).

    Two gathers and one multiply per entry, split by shift and mask:
    no complex exp.  m must already be reduced mod n.
    """
    bits, high, low = root_table(n)
    m = np.asarray(m)
    # m in [0, n) keeps both indices in range, so wrap never wraps; it
    # only skips take's bounds check: a gather of 5,400 entries takes
    # 4.9 us against 5.8 us with "raise" (2-vCPU Xeon, numpy 2.4)
    roots = high.take(m >> bits, mode="wrap")
    roots *= low.take(m & ((1 << bits) - 1), mode="wrap")
    return roots


def synthesize(spectrum: SparseSpectrum) -> TimeSignal:
    """The signal x[p] = sum_q X[l_q] exp(+2j*pi*l_q*p/n), p = 0..n-1.

    Keeps the spectrum and evaluates nothing: a front end computes only
    the samples it reads.
    """
    return TimeSignal(spectrum)


def add_noise(signal: TimeSignal, noise_variance: float, seed: int) -> TimeSignal:
    """Add circular complex Gaussian noise of the given per-sample variance.

    Appends the (variance, seed) term and draws nothing: the noise at
    sample p is randomness.complex_normal(seed, _STREAM_NOISE, p,
    variance), evaluated wherever p is read.
    """
    if not 0 <= noise_variance < math.inf:
        raise ValueError(f"noise_variance must be nonnegative and finite, got {noise_variance}")
    if noise_variance == 0:
        return signal
    return TimeSignal(signal.spectrum, signal.noise + ((float(noise_variance), seed),))
