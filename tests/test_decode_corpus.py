"""Frozen decode digests over the equivalence corpus.

Seven configurations (sparse-5db, stretch-x12, dense-noiseless, n504
k=7 at 5 dB, 0 dB and noiseless, and sparse-5db with random phases,
decoded with no constellation), plans at seed 20260817, trial seeds
1000-1007, each run along the package's trial path with per-index
noise.  Each configuration's SHA-256 covers every decode's (pass,
stage, bin, support, value) events, values bit for bit, plus passes,
converged and multi_ton_bins.  A change to the front end, the
classifier or the decoder that moves any of them fails here.  At 0 dB
n504 pins the schedule: a decoder that re-reads a candidate whose row an
earlier commit of the same pass touched, instead of deferring it, gives
another digest.  The random-phase configuration keeps every fitted value
as it is, so it pins the unsnapped value table bit for bit.  The banks
the front end builds for the three benchmark configurations are pinned
on their own, byte for byte.
"""
import hashlib
import math

import pytest

from ffast.bench import ExperimentConfig, plan_for_config
from ffast.frontend import subsample_and_transform
from ffast.peeling import decode
from ffast.spectral import (
    Constellation,
    add_noise,
    random_phase_spectrum,
    random_spectrum,
    synthesize,
)

PLAN_SEED = 20260817
TRIAL_SEEDS = range(1000, 1008)
CORPUS = {
    "sparse-5db": dict(preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3),
    "stretch-x12": dict(preset="paper-124950x12", k=40, snr_db=5.0, clusters=12, per_cluster=3),
    "dense-noiseless": dict(preset="n4845", k=170, snr_db=None),
    "n504-5db": dict(preset="n504", k=7, snr_db=5.0),
    "n504-0db": dict(preset="n504", k=7, snr_db=0.0),
    "n504-noiseless": dict(preset="n504", k=7, snr_db=None),
    "sparse-5db-random-phases": dict(
        preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3, random_phases=True
    ),
}
DIGESTS = {
    "sparse-5db": "32857938a0ce662ffdd537cc5acd7e31cb1e702e12ce666fe261f6cc802dc00e",
    "stretch-x12": "2f62d541a2fd5ea18d4b0243ef859b1d6d4caad97dfedebc21f4b31c55bf9fab",
    "dense-noiseless": "780bca475972528ff493a6117328b633a3e35349d25f0a32ba2d9afab40a3d7b",
    "n504-5db": "24ee2529be495822053dd12979503a8ab9d5eec9d56c85ad95037fee136fa300",
    "n504-0db": "9d51a9f1dc561b5205220ee0c17fb5597cc52760aa11f0a979df82142218db3f",
    "n504-noiseless": "cd0072ea37f7d777ab1eebc55f7a103a9e64ea89db08eb2bdb047b3c659974de",
    "sparse-5db-random-phases": "79ef3b02d3bf529f690e054a4703ea2356b9755ce63dfe5d22f14d7a74b5dce7",
}


# SHA-256 of the front end's bank bytes over the same trial seeds, for the
# three benchmark configurations: the noise kernel, the stage FFTs and the
# factored synthesis must stay bit for bit.  Recorded before the noise kernel
# and the stage FFTs were rewritten in place.
BANK_DIGESTS = {
    "sparse-5db": "7ef649c60a51d2361886da66f3f93777c73131f4d7f3ec1e5ab5ab086288e742",
    "stretch-x12": "8f72a89c2a9dde15f3a3c14dae4ded82f5fb4bbf595b2ac318dc04345954dcb6",
    "dense-noiseless": "228a774f21ceb2602ca5cb38f0571a42814d21da19dbe2dced013c99db355c42",
}


def corpus_signals(name: str):
    """(config, plan, constellation, seed, signal) for each trial seed of a configuration."""
    config = ExperimentConfig(**CORPUS[name], seed=PLAN_SEED)
    plan = plan_for_config(config)
    constellation = Constellation(config.rho)
    for seed in TRIAL_SEEDS:
        if config.random_phases:
            truth = random_phase_spectrum(plan.n, config.k, math.sqrt(config.rho), seed)
        else:
            truth = random_spectrum(plan.n, config.k, constellation, seed)
        signal = synthesize(truth)
        if config.snr_db is not None:
            signal = add_noise(signal, 1.0, seed)
        yield config, plan, constellation, seed, signal


def corpus_digest(name: str) -> str:
    digest = hashlib.sha256()
    for config, plan, constellation, seed, signal in corpus_signals(name):
        result = decode(
            subsample_and_transform(signal, plan), constellation if config.snap else None
        )
        events = [
            (e.pass_index, e.stage, e.bin, e.support, e.value.real.hex(), e.value.imag.hex())
            for e in result.events
        ]
        record = (seed, events, result.passes, result.converged, result.multi_ton_bins)
        digest.update(repr(record).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_decodes_are_frozen(name):
    assert corpus_digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", list(BANK_DIGESTS))
def test_front_end_banks_are_frozen(name):
    digest = hashlib.sha256()
    for _, plan, _, _, signal in corpus_signals(name):
        digest.update(subsample_and_transform(signal, plan).rows.tobytes())
    assert digest.hexdigest() == BANK_DIGESTS[name]
