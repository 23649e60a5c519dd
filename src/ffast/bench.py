"""Experiment harness: seeded trials, Monte-Carlo runs, scaling sweeps.

A trial is generate -> corrupt -> subsample -> decode -> score.
synthesize and add_noise only describe the signal: they keep the
spectrum and the noise seed and evaluate no sample.  The subsampling
front end evaluates the m samples it reads, so the timed span (front
end plus decoder) covers everything that grows with the samples read,
and nothing that grows with n.  Per-trial seeds are seed XOR
trial_index, so a run can be sharded across workers without changing
any result.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property

from .frontend import subsample_and_transform
from .metrics import support_recovery
from .peeling import decode
from .planner import FrontendPlan, PlanningError, build_plan, preset_by_name
from .spectral import (
    Constellation,
    add_noise,
    random_phase_spectrum,
    random_spectrum,
    synthesize,
)


# The highest SNR a run accepts.  float64 rounding in a singleton's fit grows
# with the values: n504 and paper-124950 runs recover every support at 280 dB
# but most fail at 300 dB, so the ceiling keeps 30 dB below the last good level.
SNR_DB_CEILING = 250.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one Monte-Carlo run."""

    preset: str = "paper-124950"
    k: int = 40
    snr_db: float | None = 5.0
    clusters: int | None = None
    per_cluster: int | None = None
    trials: int = 1
    seed: int = 0
    random_phases: bool = False

    def __post_init__(self) -> None:
        preset_by_name(self.preset)
        if self.trials < 1:
            raise PlanningError(f"trials must be at least 1, got {self.trials}")
        if self.snr_db is not None and self.snr_db > SNR_DB_CEILING:
            raise PlanningError(f"snr_db must be at most {SNR_DB_CEILING:g} dB, got {self.snr_db}")
        if not 0.0 < self.rho < math.inf:
            raise PlanningError(f"snr_db must give a positive finite SNR, got {self.snr_db}")

    @property
    def rho(self) -> float:
        """Nonzero-coefficient energy relative to unit noise variance.

        Noiseless runs still need a value scale because the decoder's
        thresholds are calibrated to unit noise: rho = 4 puts the
        weakest grid point (magnitude 1) safely above the energy gate
        in every stage, so thresholding never hides a real coefficient.
        """
        if self.snr_db is None:
            return 4.0
        return 10.0 ** (self.snr_db / 10.0)

    @cached_property
    def constellation(self) -> Constellation:
        """The value grid at rho, built once per config and shared by its trials."""
        return Constellation(self.rho)

    @property
    def snap(self) -> bool:
        """Whether decoded values snap to the constellation.

        Only grid-drawn values lie on the grid, so a random-phase run
        keeps its fitted values as they are.
        """
        return not self.random_phases


@dataclass(frozen=True)
class TrialRow:
    trial: int
    seed: int
    success: bool
    l1: float
    samples_used: int
    micros_frontend: int
    micros_decode: int


@dataclass(frozen=True)
class ExperimentResult:
    """One run: its config, its plan and one row per trial.

    The run's totals are read off the rows.
    """

    config: ExperimentConfig
    plan: FrontendPlan
    rows: tuple[TrialRow, ...]

    @property
    def successes(self) -> int:
        """Trials that recovered the exact support."""
        return sum(r.success for r in self.rows)

    @property
    def l1_error_mean(self) -> float:
        """Mean l1 over the trials whose l1 is finite; 0.0 if none is."""
        finite = [r.l1 for r in self.rows if math.isfinite(r.l1)]
        return sum(finite) / len(finite) if finite else 0.0

    @property
    def micros(self) -> int:
        """Front-end plus decoder microseconds, summed over the trials."""
        return sum(r.micros_frontend + r.micros_decode for r in self.rows)


def plan_for_config(config: ExperimentConfig) -> FrontendPlan:
    return build_plan(
        config.preset,
        config.k,
        clusters=config.clusters,
        per_cluster=config.per_cluster,
        seed=config.seed,
    )


def run_trial(plan: FrontendPlan, config: ExperimentConfig, trial: int) -> TrialRow:
    trial_seed = config.seed ^ trial
    constellation = config.constellation
    if config.random_phases:
        truth = random_phase_spectrum(
            plan.n, config.k, math.sqrt(config.rho), trial_seed
        )
    else:
        truth = random_spectrum(plan.n, config.k, constellation, trial_seed)
    signal = synthesize(truth)
    if config.snr_db is not None:
        signal = add_noise(signal, 1.0, trial_seed)

    t0 = time.perf_counter_ns()
    bank = subsample_and_transform(signal, plan)
    t1 = time.perf_counter_ns()
    result = decode(bank, constellation if config.snap else None)
    t2 = time.perf_counter_ns()

    success, l1 = support_recovery(result.spectrum, truth)
    return TrialRow(
        trial=trial,
        seed=trial_seed,
        success=success,
        l1=l1,
        samples_used=plan.sample_count,
        micros_frontend=(t1 - t0) // 1000,
        micros_decode=(t2 - t1) // 1000,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    plan = plan_for_config(config)
    rows = tuple(run_trial(plan, config, t) for t in range(config.trials))
    return ExperimentResult(config, plan, rows)


# auto_sweep's cluster-count ramp: the first point starts at
# SWEEP_CLUSTERS_START, and no point goes past SWEEP_CLUSTERS_MAX.
SWEEP_CLUSTERS_START = 9
SWEEP_CLUSTERS_MAX = 16
# Chains per cluster at every sweep point unless the config sets them.
SWEEP_PER_CLUSTER = 3
# The support-success rate a sweep point's cluster count must reach.
SWEEP_TARGET_SUCCESS = 0.97


def _preset_name(scale: int) -> str:
    return "paper-124950" if scale == 1 else f"paper-124950x{scale}"


def sweep_config(config: ExperimentConfig, scale: int, clusters: int) -> ExperimentConfig:
    """What auto_sweep runs at one scale and cluster count.

    `config` with four fields replaced: the preset (paper-124950
    stretched by `scale`), the cluster count, the seed
    (config.seed ^ scale << 20) and per_cluster (SWEEP_PER_CLUSTER
    unless the config sets it).
    """
    return replace(
        config,
        preset=_preset_name(scale),
        clusters=clusters,
        per_cluster=SWEEP_PER_CLUSTER if config.per_cluster is None else config.per_cluster,
        seed=config.seed ^ (scale << 20),
    )


def auto_sweep(scales: list[int], config: ExperimentConfig) -> list[ExperimentResult]:
    """Scaling study over the stretched-length preset family.

    Returns one accepted run per scale, in order.  Every run's config is
    sweep_config(config, scale, clusters), so k, snr_db, trials and
    random_phases reach every trial as given.

    At each length the cluster count ramps up from the previous point's
    choice until the observed success rate reaches SWEEP_TARGET_SUCCESS,
    so the selected C (and with it m = D * sum f_i) is monotone across
    the sweep.  per_cluster stays fixed; empirically 3 chains per cluster
    suffice at these SNRs and the cluster count is the lever that
    actually buys decoding margin.
    """
    if not scales:
        raise PlanningError("sweep needs a nonempty scale list")
    needed = math.ceil(SWEEP_TARGET_SUCCESS * config.trials - 1e-9)
    accepted: list[ExperimentResult] = []
    c_floor = SWEEP_CLUSTERS_START
    for scale in scales:
        for clusters in range(c_floor, SWEEP_CLUSTERS_MAX + 1):
            result = run_experiment(sweep_config(config, scale, clusters))
            if result.successes >= needed:
                break
        else:
            raise PlanningError(
                f"no cluster count up to {SWEEP_CLUSTERS_MAX} reached "
                f"{SWEEP_TARGET_SUCCESS:.0%} success at {_preset_name(scale)}"
            )
        accepted.append(result)
        c_floor = clusters
    return accepted
