"""Frozen decode digests over the equivalence corpus.

Five configurations (sparse-5db, stretch-x12, dense-noiseless, and n504
k=7 at 5 dB and noiseless), plans at seed 20260817, trial seeds
1000-1007, each run along the package's trial path with per-index
noise.  Each configuration's SHA-256 covers every decode's (pass,
stage, bin, support, value) events, values bit for bit, plus passes,
converged and multi_ton_bins.  A change to the front end, the
classifier or the decoder that moves any of them fails here.
"""
import hashlib

import pytest

from ffast.bench import ExperimentConfig, plan_for_config
from ffast.frontend import subsample_and_transform
from ffast.peeling import decode
from ffast.spectral import Constellation, add_noise, random_spectrum, synthesize

PLAN_SEED = 20260817
TRIAL_SEEDS = range(1000, 1008)
CORPUS = {
    "sparse-5db": dict(preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3),
    "stretch-x12": dict(preset="paper-124950x12", k=40, snr_db=5.0, clusters=12, per_cluster=3),
    "dense-noiseless": dict(preset="n4845", k=170, snr_db=None),
    "n504-5db": dict(preset="n504", k=7, snr_db=5.0),
    "n504-noiseless": dict(preset="n504", k=7, snr_db=None),
}
DIGESTS = {
    "sparse-5db": "32857938a0ce662ffdd537cc5acd7e31cb1e702e12ce666fe261f6cc802dc00e",
    "stretch-x12": "2f62d541a2fd5ea18d4b0243ef859b1d6d4caad97dfedebc21f4b31c55bf9fab",
    "dense-noiseless": "780bca475972528ff493a6117328b633a3e35349d25f0a32ba2d9afab40a3d7b",
    "n504-5db": "24ee2529be495822053dd12979503a8ab9d5eec9d56c85ad95037fee136fa300",
    "n504-noiseless": "cd0072ea37f7d777ab1eebc55f7a103a9e64ea89db08eb2bdb047b3c659974de",
}


def corpus_digest(name: str) -> str:
    config = ExperimentConfig(**CORPUS[name], seed=PLAN_SEED)
    plan = plan_for_config(config)
    constellation = Constellation(config.rho)
    digest = hashlib.sha256()
    for seed in TRIAL_SEEDS:
        signal = synthesize(random_spectrum(plan.n, config.k, constellation, seed))
        if config.snr_db is not None:
            signal = add_noise(signal, 1.0, seed)
        result = decode(subsample_and_transform(signal, plan), constellation)
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
