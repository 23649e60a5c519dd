"""Signal model tests: constellation grid, sparse spectra, synthesis, noise."""
import math

import numpy as np
import pytest

from ffast.planner import PRESETS
from ffast.randomness import complex_normal
from ffast.spectral import (
    _STREAM_NOISE,
    M1,
    M2,
    Constellation,
    SparseSpectrum,
    add_noise,
    random_phase_spectrum,
    random_spectrum,
    root_table,
    synthesize,
    unit_roots,
)

from conftest import dense_samples, spectrum


class TestConstellation:
    def test_magnitude_levels(self):
        con = Constellation(4.0)
        np.testing.assert_allclose(np.abs(con.points[::M2]), [1.0, 3.0])

    def test_magnitudes_strictly_increasing(self):
        con = Constellation(2.5)
        # magnitude-major: each row of M2 points shares one magnitude
        mags = np.abs(con.points).reshape(M1 + 1, M2)
        np.testing.assert_allclose(mags, np.repeat(mags[:, :1], M2, axis=1), rtol=1e-15)
        assert mags[0, 0] == pytest.approx(math.sqrt(2.5) / 2)
        assert np.all(np.diff(mags[:, 0]) > 0)

    def test_phase_count_and_range(self):
        # row i holds magnitude i at the M2 = 8 phases 2*pi*j/M2, in order
        rows = Constellation(1.0).points.reshape(M1 + 1, M2)
        phasors = np.exp(2j * np.pi * np.arange(8) / 8)
        np.testing.assert_allclose(rows / np.abs(rows), np.tile(phasors, (M1 + 1, 1)), atol=1e-15)

    def test_grid_size(self):
        assert Constellation(1.0).points.size == (M1 + 1) * M2 == 16

    def test_points_are_cached_and_read_only(self):
        con = Constellation(2.0)
        assert con.points is con.points
        assert not con.points.flags.writeable
        with pytest.raises(ValueError):
            con.points[0] = 0

    def test_mean_energy(self):
        # magnitudes sqrt(rho)/2 and 3*sqrt(rho)/2: mean square is 1.25*rho
        con = Constellation(2.0)
        assert np.mean(np.abs(con.points) ** 2) == pytest.approx(2.5)

    def test_snap_is_identity_on_grid_points(self):
        con = Constellation(3.0)
        for pt in con.points:
            assert con.snap(complex(pt)) == complex(pt)

    def test_snap_returns_shared_grid_values(self):
        # equal constellations snap to the same grid value
        a = Constellation(4.0).snap(1.1 + 0.1j)
        assert a == 1.0 and a == Constellation(4.0).snap(0.9 - 0.05j)

    def test_snap_recovers_perturbed_point(self):
        con = Constellation(4.0)
        pt = con.points[5]
        assert con.snap(pt + 0.05 - 0.03j) == complex(pt)

    @pytest.mark.parametrize("rho", [4.0, 10 ** 0.5, 0.7])
    def test_snap_matches_nearest_point_formula(self, rho):
        con = Constellation(rho)
        reach = 2.0 * math.sqrt(rho)
        axis = np.linspace(-reach, reach, 41)
        pts = con.points
        for value in (axis[:, None] + 1j * axis[None, :]).ravel():
            assert con.snap(value) == complex(pts[np.argmin(np.abs(pts - value))])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rho_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            Constellation(bad)


class TestSparseSpectrum:
    def test_indices_sorted_and_k(self):
        s = SparseSpectrum(10, [8, 2], [1.0, 2.0])
        assert list(s.indices) == [2, 8]
        assert list(s.values) == [2.0, 1.0]
        assert s.k == 2

    def test_value_at(self):
        s = spectrum(10, [(4, 3.0), (7, -1j)])
        np.testing.assert_array_equal(s.values_at([4, 5, 7, 0, 9]), [3.0, 0, -1j, 0, 0])
        np.testing.assert_array_equal(spectrum(10, []).values_at([4, 5]), [0, 0])

    def test_empty(self):
        s = SparseSpectrum(7, [], [])
        assert s.k == 0 and s.n == 7
        assert s.indices.dtype == np.int16 and s.values.dtype == np.complex128

    @pytest.mark.parametrize(
        "indices",
        [[1.5], np.array([2.7]), [3.0, np.nan], [np.inf], np.array([-np.inf, 2.0])],
        ids=["list", "array", "nan", "inf", "-inf"],
    )
    def test_non_integral_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="integers"):
            SparseSpectrum(10, indices, np.ones(len(indices)))

    def test_integral_float_indices_construct(self):
        s = SparseSpectrum(10, [8.0, 2.0], [1.0, 2.0])
        assert s.indices.tolist() == [2, 8] and s.values.tolist() == [2.0, 1.0]

    @pytest.mark.parametrize(
        "n,dtype",
        [(7, np.int16), (2**15, np.int16), (2**15 + 1, np.int32), (1_499_400, np.int32),
         (2**31, np.int32), (2**31 + 1, np.int64), (2**40, np.int64)],
    )
    def test_indices_are_as_narrow_as_n_allows(self, n, dtype):
        """The narrowest of int16, int32 and int64 that holds n - 1."""
        s = SparseSpectrum(n, [n - 1, 0], [1.0, 2.0])
        assert s.indices.dtype == dtype
        assert s.indices.tolist() == [0, n - 1]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SparseSpectrum(10, [1, 1], [1.0, 2.0])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            SparseSpectrum(10, [10], [1.0])

    @pytest.mark.parametrize("indices", [[2, 5, 8], [8, 2, 5]], ids=["sorted", "unsorted"])
    def test_stored_arrays_are_not_the_callers(self, indices):
        """Arrays of the dtypes random_spectrum passes, which at n = 2**40
        are the stored dtypes too."""
        for n in (10, 2**40):
            idx = np.array(indices, dtype=np.int64)
            val = np.array([1.0, 2j, -1.0], dtype=np.complex128)
            s = SparseSpectrum(n, idx, val)
            expected = dict(zip(indices, val.tolist()))
            assert not np.shares_memory(s.indices, idx)
            assert not np.shares_memory(s.values, val)
            assert not s.indices.flags.writeable and not s.values.flags.writeable
            idx[:] = 0
            val[:] = 7.0
            assert dict(zip(s.indices.tolist(), s.values.tolist())) == expected


class TestRandomSpectrum:
    def test_zero_sparsity(self):
        s = random_spectrum(20, 0, Constellation(1.0), seed=1)
        assert s.k == 0

    def test_full_support(self):
        s = random_spectrum(20, 20, Constellation(1.0), seed=1)
        assert list(s.indices) == list(range(20))

    def test_values_live_on_the_grid(self):
        con = Constellation(10 ** 0.5)
        s = random_spectrum(124950, 40, con, seed=1)
        assert s.k == 40
        # bit for bit: each value is an entry of points, not recomputed
        grid = {pt.tobytes() for pt in con.points}
        assert all(v.tobytes() in grid for v in s.values)

    def test_deterministic(self):
        a = random_spectrum(504, 8, Constellation(2.0), seed=42)
        b = random_spectrum(504, 8, Constellation(2.0), seed=42)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            random_spectrum(10, 11, Constellation(1.0), seed=0)

    def test_random_phase_constant_magnitude(self):
        s = random_phase_spectrum(504, 12, 2.0, seed=9)
        assert s.k == 12
        np.testing.assert_allclose(np.abs(s.values), 2.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
    def test_random_phase_amplitude_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="amplitude"):
            random_phase_spectrum(504, 4, bad, seed=0)


class TestSynthesize:
    def test_empty_spectrum_gives_zero_signal(self):
        x = synthesize(spectrum(16, []))
        assert np.all(x.clean == 0)

    def test_dc_term(self):
        x = synthesize(spectrum(8, [(0, 2.0 - 1j)]))
        np.testing.assert_allclose(x.clean, np.full(8, 2.0 - 1j), atol=1e-12)

    def test_against_direct_double_loop(self):
        # independent evaluation of the synthesis sum at every sample
        supports = (1, 3, 5, 10, 15)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = synthesize(SparseSpectrum(20, supports, values))
        for p in range(20):
            direct = sum(
                v * np.exp(2j * np.pi * ell * p / 20) for ell, v in zip(supports, values)
            )
            assert abs(x.clean[p] - direct) < 1e-9

    def test_parseval_identity(self):
        s = random_spectrum(504, 10, Constellation(3.0), seed=11)
        x = synthesize(s)
        lhs = float(np.sum(np.abs(x.clean) ** 2))
        rhs = 504 * float(np.sum(np.abs(s.values) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestExpSums:
    def test_dense_spectrum_synthesis_is_the_fft_bit_for_bit(self):
        s = random_spectrum(4845, 170, Constellation(4.0), seed=3)
        np.testing.assert_array_equal(
            synthesize(s).clean, np.fft.ifft(s.values_at(np.arange(s.n))) * s.n
        )


class TestRootTable:
    @pytest.mark.parametrize("n", sorted({p.n for p in PRESETS.values()}))
    def test_matches_complex_exp(self, n):
        """Within 4e-15 of np.exp at the split's edges and at random m,
        at every preset n up to 1,499,400, and of modulus 1 to two ulps."""
        bits = root_table(n)[0]
        edges = [0, 1, (1 << bits) - 1, 1 << bits, n - 1]
        m = np.concatenate((np.array([e for e in edges if e < n], dtype=np.int64),
                            np.random.default_rng(n).integers(0, n, size=20_000)))
        z = unit_roots(m, n)
        assert np.max(np.abs(z - np.exp(2j * np.pi * m / n))) <= 4e-15
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 2 * np.finfo(np.float64).eps

    def test_holds_under_three_sqrt_n_entries(self):
        n = 1_499_400
        bits, high, low = root_table(n)
        assert (bits, low.size) == (11, 1 << 11)
        assert (high.size - 1) << bits < n <= high.size << bits
        assert high.size + low.size <= 3 * math.sqrt(n) + 1
        assert high.nbytes + low.nbytes < 45_000

    def test_shape(self):
        m = np.arange(12).reshape(3, 4)
        z = unit_roots(m, 12)
        assert z.shape == (3, 4)
        np.testing.assert_allclose(z, np.exp(2j * np.pi * m / 12), rtol=0, atol=4e-15)

    def test_cached_arrays_are_read_only(self):
        _, high, low = root_table(504)
        assert root_table(504)[1] is high
        for table in (high, low):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_rejects_a_nonpositive_length(self):
        with pytest.raises(ValueError, match="n must be positive"):
            root_table(0)


class TestAddNoise:
    @pytest.mark.parametrize("n,variance", [(4845, 1.0), (4845, 2.5), (150_001, 1.0)])
    def test_matches_the_two_draw_formula_bit_for_bit(self, n, variance):
        # sample p gets the Gaussian that complex_normal makes from the two
        # splitmix64 draws of index p (test_randomness pins that formula)
        x = synthesize(random_spectrum(n, 12, Constellation(3.0), seed=4))
        expected = x.clean + complex_normal(9, _STREAM_NOISE, np.arange(n), variance)
        np.testing.assert_array_equal(dense_samples(add_noise(x, variance, seed=9)), expected)

    def test_draws_nothing_until_read(self):
        truth = random_spectrum(1_499_400, 40, Constellation(3.0), seed=4)
        y = add_noise(add_noise(synthesize(truth), 1.0, seed=9), 0.5, seed=10)
        assert y.spectrum is truth
        assert y.noise == ((1.0, 9), (0.5, 10))
        assert "clean" not in vars(y)

    def test_noise_terms_add(self):
        zero = synthesize(spectrum(64, []))
        both = dense_samples(add_noise(add_noise(zero, 1.0, seed=1), 2.0, seed=2))
        parts = dense_samples(add_noise(zero, 1.0, seed=1)) + dense_samples(
            add_noise(zero, 2.0, seed=2)
        )
        np.testing.assert_array_equal(both, parts)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_variance_must_be_nonnegative_and_finite(self, bad):
        with pytest.raises(ValueError, match="noise_variance"):
            add_noise(synthesize(spectrum(16, [])), bad, seed=0)

    def test_zero_variance_is_identity(self):
        x = synthesize(random_spectrum(100, 3, Constellation(1.0), seed=0))
        y = add_noise(x, 0.0, seed=5)
        np.testing.assert_array_equal(dense_samples(x), dense_samples(y))

    def test_unit_variance_energy(self):
        zero = synthesize(spectrum(100_000, []))
        y = dense_samples(add_noise(zero, 1.0, seed=123))
        assert float(np.mean(np.abs(y) ** 2)) == pytest.approx(1.0, rel=0.02)

    def test_deterministic(self):
        x = synthesize(spectrum(64, []))
        a = add_noise(x, 1.0, seed=77)
        b = add_noise(x, 1.0, seed=77)
        np.testing.assert_array_equal(dense_samples(a), dense_samples(b))

    def test_negative_variance_rejected(self):
        x = synthesize(spectrum(4, []))
        with pytest.raises(ValueError):
            add_noise(x, -0.5, seed=0)


def test_empirical_snr_tracks_grid_mean_energy():
    """Synthesized spectra against unit noise realize the grid's mean energy.

    The magnitude grid's mean square is 1.25x its design rho (two rings at
    sqrt(rho)/2 and 3 sqrt(rho)/2), so the realized SNR is measured against
    the mean square of the grid points, not rho itself.
    """
    con = Constellation(10 ** 0.5)
    ratios = []
    for trial in range(100):
        s = random_spectrum(4845, 40, con, seed=5000 + trial)
        z = dense_samples(add_noise(synthesize(spectrum(4845, [])), 1.0, seed=trial))
        signal_energy = float(np.mean(np.abs(s.values) ** 2))
        noise_energy = float(np.sum(np.abs(z) ** 2) / 4845)
        ratios.append(signal_energy / noise_energy)
    grid_energy = float(np.mean(np.abs(con.points) ** 2))
    assert np.mean(ratios) == pytest.approx(grid_energy, rel=0.05)
