"""Shared fixtures: small cached plans, and helpers for spectra, samples and bins."""
import math

import numpy as np
import pytest

from ffast.frontend import BinBank, steering_vector
from ffast.planner import build_plan
from ffast.singleton import bin_statistics, classify_bin
from ffast.spectral import SparseSpectrum


@pytest.fixture(scope="session")
def plan20():
    return build_plan("paper-20", 5, seed=3)


@pytest.fixture(scope="session")
def plan504():
    return build_plan("n504", 7, seed=17)


@pytest.fixture(scope="session")
def plan990():
    return build_plan("n990", 9, seed=17)


@pytest.fixture(scope="session")
def plan_big():
    return build_plan("paper-124950", 40, seed=1)


def make_singleton_obs(plan, ell, value, rng=None, stage=0):
    """(y, stage, bin) of a bin holding a lone tone, optionally noise-corrupted."""
    f = plan.bin_counts[stage]
    y = math.sqrt(f) * value * steering_vector(ell, plan)
    if rng is not None:
        d = plan.chain_count
        y = y + (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2)
    return y, stage, int(ell % f)


def classify_one(y, stage, bin, plan, constellation=None):
    """(reason, support, value, residual) of one bin row, through the batched statistics."""
    row = plan.row_offsets[stage] + bin
    stats = bin_statistics(y[None, :], [row], plan, constellation)
    code, support, value, residual = (field[0].item() for field in stats[:4])
    return classify_bin(code), support, value, residual


def spectrum(n, pairs):
    """A SparseSpectrum of length n from an {index: value} map or (index, value) pairs."""
    items = list(pairs.items() if isinstance(pairs, dict) else pairs)
    indices = np.array([i for i, _ in items], dtype=np.int64)
    return SparseSpectrum(n, indices, np.array([v for _, v in items], dtype=np.complex128))


def dense_samples(signal):
    """All n samples of a signal, noise included: the value the front end reads at each index."""
    return signal.add_noise_at(signal.clean.copy(), np.arange(signal.n))


def bank_from_samples(samples, plan):
    """The bin bank of an explicit length-n sample array.

    Gathers the samples at plan.sample_index and takes each stage's
    orthonormal DFT in place, as the front end does when it gathers.
    """
    bank = BinBank(plan, samples[plan.sample_index])
    for stage in bank.stages:
        np.fft.fft(stage, axis=0, norm="ortho", out=stage)
    return bank
