"""Shared fixtures: small cached plans and a helper for synthetic bins."""
import math

import numpy as np
import pytest

from ffast.frontend import steering_vector
from ffast.planner import build_plan
from ffast.singleton import bin_statistics, classify_bin


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
    """Verdict on one bin row, through the batched statistics."""
    return classify_bin(bin_statistics(y[None, :], [stage], [bin], plan, constellation), 0)
