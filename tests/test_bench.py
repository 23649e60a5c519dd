"""Experiment harness tests: seeding, scoring, and the value-scale rule."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffast
from ffast.bench import ExperimentConfig, plan_for_config, run_experiment, run_trial
from ffast.planner import PlanningError


class TestExperimentConfig:
    def test_snr_converts_from_decibels(self):
        assert ExperimentConfig(snr_db=10.0).rho == pytest.approx(10.0)
        assert ExperimentConfig(snr_db=0.0).rho == pytest.approx(1.0)
        assert ExperimentConfig(snr_db=5.0).rho == pytest.approx(10 ** 0.5)

    def test_noiseless_uses_the_fixed_value_scale(self):
        # thresholds assume unit noise, so even noiseless values need
        # enough energy to clear the gates; see ExperimentConfig.rho
        assert ExperimentConfig(snr_db=None).rho == 4.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(PlanningError):
            ExperimentConfig(preset="n1000000")

    def test_zero_trials_rejected(self):
        with pytest.raises(PlanningError):
            ExperimentConfig(trials=0)


class TestRunTrial:
    def test_per_trial_seed_is_xor(self):
        config = ExperimentConfig(preset="paper-20", k=2, snr_db=None, trials=4, seed=12)
        plan = plan_for_config(config)
        rows = [run_trial(plan, config, t) for t in range(4)]
        assert [r.seed for r in rows] == [12 ^ 0, 12 ^ 1, 12 ^ 2, 12 ^ 3]

    def test_noiseless_trial_recovers_exactly(self):
        config = ExperimentConfig(preset="n504", k=4, snr_db=None, seed=7)
        row = run_trial(plan_for_config(config), config, 0)
        assert row.success
        assert row.l1 < 1e-9
        assert row.samples_used == plan_for_config(config).sample_count

    def test_a_trial_imports_neither_numpy_ma_nor_scipy(self):
        """Each module a process imports adds to its memory, so one trial
        of each benchmark configuration (sparse 5 dB, its n=1.5M stretch,
        dense noiseless) in a fresh process leaves both unloaded."""
        script = """
import sys
from ffast.bench import ExperimentConfig, plan_for_config, run_trial
for kw in (
    dict(preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3),
    dict(preset="paper-124950x12", k=40, snr_db=5.0, clusters=12, per_cluster=3),
    dict(preset="n4845", k=170, snr_db=None),
):
    config = ExperimentConfig(**kw, seed=20260817)
    run_trial(plan_for_config(config), config, 0)
print(sorted(m for m in ("numpy.ma", "scipy") if m in sys.modules))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(ffast.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestRunExperiment:
    def test_rows_are_reproducible(self):
        config = ExperimentConfig(
            preset="paper-20", k=2, snr_db=None, trials=3, seed=5
        )
        a = run_experiment(config)
        b = run_experiment(config)
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.trial, ra.seed, ra.success, ra.l1) == (
                rb.trial, rb.seed, rb.success, rb.l1
            )
        assert a.successes == b.successes

    def test_stats_aggregate_the_rows(self):
        config = ExperimentConfig(
            preset="paper-20", k=2, snr_db=None, trials=3, seed=5
        )
        result = run_experiment(config)
        assert len(result.rows) == 3
        assert result.successes == sum(r.success for r in result.rows)
        finite = [r.l1 for r in result.rows if math.isfinite(r.l1)]
        assert result.l1_error_mean == pytest.approx(
            sum(finite) / len(finite)
        )
        assert result.micros == sum(
            r.micros_frontend + r.micros_decode for r in result.rows
        )

    def test_noisy_run_mostly_succeeds(self):
        config = ExperimentConfig(
            preset="n2730", k=5, snr_db=10.0, clusters=6, per_cluster=3,
            trials=8, seed=3
        )
        result = run_experiment(config)
        assert result.successes >= 7
