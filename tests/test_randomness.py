"""Per-index noise: its definition, its statistics, and where it is read."""
import math

import numpy as np
import pytest

from ffast.frontend import subsample_and_transform
from ffast.randomness import complex_normal, index_bits, stream_key
from ffast.spectral import _STREAM_NOISE, add_noise, synthesize

from conftest import dense_samples, spectrum

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> int:
    """One splitmix64 output from its state, in Python integers."""
    z = state & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _reference_uniforms(seed: int, stream: int, p: int) -> tuple[float, float]:
    key = _splitmix64(_splitmix64(seed) ^ stream)
    b1 = _splitmix64(key + (2 * p + 1) * GAMMA) >> 11
    b2 = _splitmix64(key + (2 * p + 2) * GAMMA) >> 11
    return (b1 + 1) * 2.0**-53, b2 * 2.0**-53


class TestDefinition:
    INDICES = [0, 1, 2, 17, 4845, 124_949, 1_499_399, 2**40 + 3]

    @pytest.mark.parametrize("seed,stream", [(0, 0), (9, _STREAM_NOISE), (2**64 - 1, 7)])
    def test_bits_are_the_splitmix64_outputs(self, seed, stream):
        key = _splitmix64(_splitmix64(seed) ^ stream)
        assert stream_key(seed, stream) == key
        bits = index_bits(seed, stream, self.INDICES)
        for col, p in enumerate(self.INDICES):
            assert int(bits[0, col]) == _splitmix64(key + (2 * p + 1) * GAMMA) >> 11
            assert int(bits[1, col]) == _splitmix64(key + (2 * p + 2) * GAMMA) >> 11

    @pytest.mark.parametrize("variance", [1.0, 2.5])
    def test_value_is_the_box_muller_formula(self, variance):
        z = complex_normal(9, _STREAM_NOISE, self.INDICES, variance)
        for value, p in zip(z, self.INDICES):
            u1, u2 = _reference_uniforms(9, _STREAM_NOISE, p)
            radius = math.sqrt(-variance * math.log(u1))
            expected = radius * complex(math.cos(2 * math.pi * u2), math.sin(2 * math.pi * u2))
            assert abs(value - expected) <= 2e-15 * max(radius, 1.0)

    def test_value_does_not_depend_on_how_indices_are_asked(self):
        everything = complex_normal(3, _STREAM_NOISE, np.arange(5000), 1.0)
        grid = np.arange(4999, -1, -7).reshape(-1, 5)
        np.testing.assert_array_equal(complex_normal(3, _STREAM_NOISE, grid, 1.0), everything[grid])
        assert complex_normal(3, _STREAM_NOISE, 17, 1.0) == everything[17]


class TestStatistics:
    """2e6 unit-variance draws; the tolerances are about five standard errors."""

    @pytest.fixture(scope="class")
    def z(self):
        return complex_normal(20260817, _STREAM_NOISE, np.arange(2_000_000), 1.0)

    def test_zero_mean(self, z):
        assert abs(z.real.mean()) < 2.5e-3 and abs(z.imag.mean()) < 2.5e-3

    def test_unit_variance_split_evenly(self, z):
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=4e-3)
        assert z.real.var() == pytest.approx(0.5, abs=3e-3)
        assert z.imag.var() == pytest.approx(0.5, abs=3e-3)

    def test_real_and_imaginary_parts_uncorrelated(self, z):
        assert abs(np.corrcoef(z.real, z.imag)[0, 1]) < 4e-3

    def test_neighbouring_indices_uncorrelated(self, z):
        for part in (z.real, z.imag):
            assert abs(np.corrcoef(part[:-1], part[1:])[0, 1]) < 4e-3

    def test_gaussian_tails(self, z):
        # Pr(|N(0, 1/2)| > 1.5) = erfc(1.5)
        assert np.mean(np.abs(z.real) > 1.5) == pytest.approx(math.erfc(1.5), rel=0.05)

    @pytest.mark.parametrize("other", [20260818, 0, 2**63])
    def test_independent_across_seeds(self, z, other):
        w = complex_normal(other, _STREAM_NOISE, np.arange(z.size), 1.0)
        assert abs(np.corrcoef(z.real, w.real)[0, 1]) < 4e-3
        assert abs(np.corrcoef(z.imag, w.imag)[0, 1]) < 4e-3


class TestReadWhereUsed:
    def test_a_sample_shared_by_stages_has_one_value(self, plan504):
        """Row a = 0 of every stage reads x[r_t]: the same noise each time,
        and the value the dense view holds there."""
        signal = add_noise(synthesize(spectrum(504, [])), 1.0, seed=5)
        index = plan504.sample_index
        read = signal.add_noise_at(np.zeros(index.shape, dtype=np.complex128), index)
        for first in plan504.row_offsets:
            np.testing.assert_array_equal(index[first], plan504.shift_array)
            np.testing.assert_array_equal(read[first], read[0])
        np.testing.assert_array_equal(read[0], dense_samples(signal)[plan504.shift_array])

    def test_front_end_reads_the_dense_view(self, plan504):
        signal = add_noise(synthesize(spectrum(504, [])), 2.0, seed=8)
        dense = dense_samples(signal)
        bank = subsample_and_transform(signal, plan504)
        for f, stage in zip(plan504.bin_counts, bank.stages):
            rows = (np.arange(f)[:, None] * (504 // f) + plan504.shift_array) % 504
            np.testing.assert_array_equal(stage, np.fft.fft(dense[rows], axis=0, norm="ortho"))
