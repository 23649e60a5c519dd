"""Deterministic counter-based random number generation.

Every randomized operation in the package draws from its own source
keyed by (seed, stream).  Both sources here are counter-based, so
results do not depend on how many values other operations consumed,
which keeps Monte Carlo runs reproducible across worker counts.

* generator(seed, stream) is a Philox generator, for draws made once
  per trial or plan (supports, values, shifts).
* complex_normal(seed, stream, index, variance) is a value per sample
  index: the splitmix64 sequence keyed by (seed, stream) gives index p
  its outputs 2p+1 and 2p+2, turned into one circular complex Gaussian
  by Box-Muller.  Any subset of indices can be drawn, in any order or
  shape, and an index gets the same value wherever it is read.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# splitmix64: the counter step (the 64-bit golden ratio) and the two
# multipliers of its output mix.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_GAMMA = np.uint64((2 * int(_GAMMA)) & _MASK64)
# A 53-bit integer u times this is a double in [0, 1) with every bit exact.
_TWO_TO_MINUS_53 = 2.0**-53
# complex_normal's phase: a table of 2**_PHASE_TABLE_BITS roots of unity.
_PHASE_TABLE_BITS = 10
_PHASE_TABLE = np.exp(2j * np.pi * np.arange(1 << _PHASE_TABLE_BITS) / (1 << _PHASE_TABLE_BITS))
# its real and imaginary parts as contiguous tables, for one gather each
_COS_TABLE = np.ascontiguousarray(_PHASE_TABLE.real)
_SIN_TABLE = np.ascontiguousarray(_PHASE_TABLE.imag)


def generator(seed: int, stream: int) -> np.random.Generator:
    """Return a Philox generator keyed by (seed, stream).

    seed is any Python integer (reduced to 64 bits); stream separates
    independent uses of the same seed, e.g. support draws vs. noise.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function, in place on a uint64 array."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _mix_int(x: int) -> int:
    """splitmix64's output function on one 64-bit Python int: _mix's arithmetic."""
    x ^= x >> 30
    x = (x * int(_MIX1)) & _MASK64
    x ^= x >> 27
    x = (x * int(_MIX2)) & _MASK64
    return x ^ (x >> 31)


def stream_key(seed: int, stream: int) -> int:
    """The splitmix64 state that (seed, stream) starts from."""
    return _mix_int(_mix_int(seed & _MASK64) ^ (stream & _MASK64))


def index_bits(seed: int, stream: int, index) -> np.ndarray:
    """Two 53-bit integers per index, as a (2,) + index.shape uint64 array.

    They are the top 53 bits of outputs 2p+1 and 2p+2 of the splitmix64
    sequence that starts from stream_key(seed, stream), for index p.
    """
    p = np.ravel(index).astype(np.uint64)
    state = np.empty((2, p.size), dtype=np.uint64)
    np.multiply(p, _TWO_GAMMA, out=state[0])
    state[0] += np.uint64(stream_key(seed, stream))
    np.add(state[0], _TWO_GAMMA, out=state[1])
    state[0] += _GAMMA
    _mix(state)
    state >>= np.uint64(11)
    return state.reshape((2,) + np.shape(index))


def _cos_sin_2pi(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(2*pi*u) and sin(2*pi*u) for u = bits * 2**-53, bits 53-bit integers.

    The top _PHASE_TABLE_BITS bits pick a tabled root of unity and the
    rest, an angle phi < 2*pi / 2**_PHASE_TABLE_BITS, rotates it by
    Taylor polynomials: the first omitted terms, phi**6/720 and
    phi**7/5040, are below 1e-16.  This agrees with np.cos and np.sin to
    a few ulp at a third of their cost.  Only real ufuncs are used, each
    rounded once per element, so a value does not depend on the length
    of the array or its place in it.  bits is overwritten.
    """
    low_bits = 53 - _PHASE_TABLE_BITS
    # the top bits are under 2**_PHASE_TABLE_BITS, so their uint64 bits read as int64
    top = (bits >> np.uint64(low_bits)).view(np.int64)
    bits &= np.uint64((1 << low_bits) - 1)
    phi = bits.astype(np.float64)
    phi *= 2.0 * np.pi * _TWO_TO_MINUS_53
    phi2 = phi * phi
    cos_phi = phi2 * (1.0 / 24.0)
    cos_phi -= 0.5
    cos_phi *= phi2
    cos_phi += 1.0
    sin_phi = phi2 * (1.0 / 120.0)
    sin_phi -= 1.0 / 6.0
    sin_phi *= phi2
    sin_phi += 1.0
    sin_phi *= phi
    cos_top, sin_top = _COS_TABLE.take(top), _SIN_TABLE.take(top)
    # cos = cos_phi*cos_top - sin_phi*sin_top, sin = sin_phi*cos_top + cos_phi*sin_top,
    # written over phi, phi2 and sin_phi once they are spent
    cos = np.multiply(cos_phi, cos_top, out=phi)
    term = np.multiply(sin_phi, sin_top, out=phi2)
    cos -= term
    sin = np.multiply(sin_phi, cos_top, out=sin_phi)
    sin += np.multiply(cos_phi, sin_top, out=term)
    return cos, sin


def complex_normal(seed: int, stream: int, index, variance: float) -> np.ndarray:
    """Circular complex Gaussian noise of the given variance at each index.

    With (b1, b2) = index_bits(seed, stream, index), u1 = (b1 + 1) * 2**-53
    in (0, 1] and u2 = b2 * 2**-53 in [0, 1),

        z = sqrt(-variance * ln u1) * exp(2j*pi*u2):

    |z|^2 is exponential with mean `variance` and the phase is uniform,
    so the real and imaginary parts are independent N(0, variance/2).
    """
    bits = index_bits(seed, stream, np.ravel(index))
    bits[0] += np.uint64(1)
    radius = bits[0].astype(np.float64)
    radius *= _TWO_TO_MINUS_53
    np.log(radius, out=radius)
    radius *= -variance
    np.sqrt(radius, out=radius)
    cos, sin = _cos_sin_2pi(bits[1])
    z = np.empty(radius.shape, dtype=np.complex128)
    np.multiply(radius, cos, out=z.real)
    np.multiply(radius, sin, out=z.imag)
    return z.reshape(np.shape(index))
