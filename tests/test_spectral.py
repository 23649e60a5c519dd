"""Signal model tests: constellation grid, sparse spectra, synthesis, noise."""
import math

import numpy as np
import pytest

from ffast.spectral import (
    Constellation,
    SparseSpectrum,
    TimeSignal,
    add_noise,
    random_phase_spectrum,
    random_spectrum,
    synthesize,
)


class TestConstellation:
    def test_magnitude_levels(self):
        con = Constellation(4.0)
        np.testing.assert_allclose(con.magnitudes(), [1.0, 3.0])

    def test_magnitudes_strictly_increasing(self):
        con = Constellation(2.5, m1=3)
        mags = con.magnitudes()
        assert mags[0] == pytest.approx(math.sqrt(2.5) / 2)
        assert np.all(np.diff(mags) > 0)

    def test_phase_count_and_range(self):
        con = Constellation(1.0, m2=8)
        phases = con.phases()
        assert len(phases) == 8
        assert np.all((phases >= 0) & (phases < 2 * np.pi))
        assert len(np.unique(phases)) == 8

    def test_grid_size(self):
        assert Constellation(1.0).size == 16
        assert Constellation(1.0, m1=3, m2=4).size == 16

    def test_mean_energy(self):
        # magnitudes sqrt(rho)/2 and 3*sqrt(rho)/2: mean square is 1.25*rho
        con = Constellation(2.0)
        assert np.mean(np.abs(con.points()) ** 2) == pytest.approx(2.5)

    def test_snap_is_identity_on_grid_points(self):
        con = Constellation(3.0)
        for pt in con.points():
            assert con.snap(complex(pt)) == complex(pt)

    def test_snap_recovers_perturbed_point(self):
        con = Constellation(4.0)
        pt = con.points()[5]
        assert con.snap(pt + 0.05 - 0.03j) == complex(pt)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rho_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            Constellation(bad)

    def test_m1_m2_validation(self):
        with pytest.raises(ValueError):
            Constellation(1.0, m1=0)
        with pytest.raises(ValueError):
            Constellation(1.0, m2=0)


class TestSparseSpectrum:
    def test_from_pairs_dict_and_list_agree(self):
        d = SparseSpectrum.from_pairs(20, {3: 1.0 + 2j, 7: -1j})
        lst = SparseSpectrum.from_pairs(20, [(7, -1j), (3, 1.0 + 2j)])
        assert d.max_abs_difference(lst) == 0.0

    def test_indices_sorted_and_k(self):
        s = SparseSpectrum.from_pairs(10, [(8, 1.0), (2, 2.0)])
        assert list(s.indices) == [2, 8]
        assert s.k == 2

    def test_to_dense_round_trip(self):
        s = SparseSpectrum.from_pairs(12, [(0, 1j), (11, -2.0)])
        dense = s.to_dense()
        assert dense.shape == (12,)
        assert dense[0] == 1j and dense[11] == -2.0
        assert np.count_nonzero(dense) == 2

    def test_value_at(self):
        s = SparseSpectrum.from_pairs(10, [(4, 3.0)])
        assert s.value_at(4) == 3.0
        assert s.value_at(5) == 0.0

    def test_empty(self):
        s = SparseSpectrum.empty(7)
        assert s.k == 0 and s.n == 7

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SparseSpectrum.from_pairs(10, [(1, 1.0), (1, 2.0)])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            SparseSpectrum.from_pairs(10, [(10, 1.0)])

    def test_max_abs_difference(self):
        a = SparseSpectrum.from_pairs(10, [(1, 1.0), (2, 1.0)])
        b = SparseSpectrum.from_pairs(10, [(1, 1.0), (3, 0.5)])
        assert a.max_abs_difference(b) == pytest.approx(1.0)


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
        pts = con.points()
        for v in s.values:
            assert np.min(np.abs(pts - v)) < 1e-12

    def test_deterministic(self):
        a = random_spectrum(504, 8, Constellation(2.0), seed=42)
        b = random_spectrum(504, 8, Constellation(2.0), seed=42)
        assert a.max_abs_difference(b) == 0.0

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            random_spectrum(10, 11, Constellation(1.0), seed=0)

    def test_random_phase_constant_magnitude(self):
        s = random_phase_spectrum(504, 12, 2.0, seed=9)
        assert s.k == 12
        np.testing.assert_allclose(np.abs(s.values), 2.0, atol=1e-12)


class TestSynthesize:
    def test_empty_spectrum_gives_zero_signal(self):
        x = synthesize(SparseSpectrum.empty(16))
        assert np.all(x.samples == 0)

    def test_dc_term(self):
        x = synthesize(SparseSpectrum.from_pairs(8, [(0, 2.0 - 1j)]))
        np.testing.assert_allclose(x.samples, np.full(8, 2.0 - 1j), atol=1e-12)

    def test_against_direct_double_loop(self):
        # independent evaluation of the synthesis sum at every sample
        supports = (1, 3, 5, 10, 15)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        s = SparseSpectrum.from_pairs(20, list(zip(supports, values)))
        x = synthesize(s)
        for p in range(20):
            direct = sum(
                v * np.exp(2j * np.pi * ell * p / 20) for ell, v in zip(supports, values)
            )
            assert abs(x.samples[p] - direct) < 1e-9

    def test_parseval_identity(self):
        s = random_spectrum(504, 10, Constellation(3.0), seed=11)
        x = synthesize(s)
        lhs = float(np.sum(np.abs(x.samples) ** 2))
        rhs = 504 * float(np.sum(np.abs(s.values) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestAddNoise:
    def test_zero_variance_is_identity(self):
        x = synthesize(random_spectrum(100, 3, Constellation(1.0), seed=0))
        y = add_noise(x, 0.0, seed=5)
        np.testing.assert_array_equal(x.samples, y.samples)

    def test_unit_variance_energy(self):
        zero = TimeSignal(100_000, np.zeros(100_000, dtype=np.complex128))
        y = add_noise(zero, 1.0, seed=123)
        assert float(np.mean(np.abs(y.samples) ** 2)) == pytest.approx(1.0, rel=0.02)

    def test_deterministic(self):
        x = TimeSignal(64, np.zeros(64, dtype=np.complex128))
        a = add_noise(x, 1.0, seed=77)
        b = add_noise(x, 1.0, seed=77)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_negative_variance_rejected(self):
        x = TimeSignal(4, np.zeros(4, dtype=np.complex128))
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
        z = add_noise(TimeSignal(4845, np.zeros(4845, dtype=np.complex128)), 1.0, seed=trial)
        signal_energy = float(np.mean(np.abs(s.values) ** 2))
        noise_energy = float(np.sum(np.abs(z.samples) ** 2) / 4845)
        ratios.append(signal_energy / noise_energy)
    grid_energy = float(np.mean(np.abs(con.points()) ** 2))
    assert np.mean(ratios) == pytest.approx(grid_energy, rel=0.05)
