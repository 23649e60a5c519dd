"""Experiment harness: seeded trials, Monte-Carlo runs, scaling sweeps.

A trial is generate -> corrupt -> subsample -> decode -> score.  Only
the subsampling front end and the decoder are timed; synthesizing the
dense signal and its noise is test scaffolding, not part of the
algorithm under measurement.  Per-trial seeds are seed XOR trial_index,
so a run can be sharded across workers without changing any result.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .frontend import subsample_and_transform
from .metrics import TrialStats, support_recovery
from .peeling import decode
from .planner import FrontendPlan, PlanningError, build_plan, preset_by_name
from .spectral import (
    Constellation,
    add_noise,
    random_phase_spectrum,
    random_spectrum,
    synthesize,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one Monte-Carlo run."""

    preset: str = "paper-124950"
    k: int = 40
    snr_db: float | None = 5.0
    clusters: int | None = None
    per_cluster: int | None = None
    gamma: float = 0.2
    c1: float = 8.0
    trials: int = 1
    seed: int = 0
    random_phases: bool = False
    snap: bool = True

    def __post_init__(self) -> None:
        preset_by_name(self.preset)
        if self.trials < 1:
            raise PlanningError(f"trials must be at least 1, got {self.trials}")

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
    config: ExperimentConfig
    plan: FrontendPlan
    stats: TrialStats
    rows: tuple[TrialRow, ...]


def plan_for_config(config: ExperimentConfig) -> FrontendPlan:
    return build_plan(
        config.preset,
        config.k,
        clusters=config.clusters,
        per_cluster=config.per_cluster,
        gamma=config.gamma,
        c1=config.c1,
        seed=config.seed,
    )


def run_trial(plan: FrontendPlan, config: ExperimentConfig, trial: int) -> TrialRow:
    trial_seed = config.seed ^ trial
    constellation = Constellation(config.rho)
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


def run_experiment(
    config: ExperimentConfig, plan: FrontendPlan | None = None
) -> ExperimentResult:
    if plan is None:
        plan = plan_for_config(config)
    rows = tuple(run_trial(plan, config, t) for t in range(config.trials))
    successes = sum(r.success for r in rows)
    finite = [r.l1 for r in rows if math.isfinite(r.l1)]
    stats = TrialStats(
        trials=config.trials,
        support_success=successes,
        l1_error_mean=sum(finite) / len(finite) if finite else 0.0,
        samples_used=plan.sample_count,
        wall_time=sum(r.micros_frontend + r.micros_decode for r in rows) / 1e6,
    )
    return ExperimentResult(config, plan, stats, rows)


@dataclass(frozen=True)
class SweepPoint:
    scale: int
    n: int
    clusters: int
    per_cluster: int
    samples_used: int
    trials: int
    support_success: int
    mean_seconds: float
    mean_l1: float


# auto_sweep's cluster-count ramp: the first point starts at
# SWEEP_CLUSTERS_START, and no point goes past SWEEP_CLUSTERS_MAX.
SWEEP_CLUSTERS_START = 9
SWEEP_CLUSTERS_MAX = 16


def _preset_name(scale: int) -> str:
    return "paper-124950" if scale == 1 else f"paper-124950x{scale}"


def auto_sweep(
    scales: list[int],
    *,
    k: int = 40,
    snr_db: float = 5.0,
    trials: int = 16,
    seed: int = 0,
    target_success: float = 0.97,
    per_cluster: int = 3,
    gamma: float = 0.2,
    c1: float = 8.0,
) -> list[SweepPoint]:
    """Scaling study over the stretched-length preset family.

    At each length the cluster count ramps up from the previous point's
    choice until the observed success rate reaches the target, so the
    selected C (and with it m = D * sum f_i) is monotone across the
    sweep.  per_cluster stays fixed; empirically 3 chains per cluster
    suffice at these SNRs and the cluster count is the lever that
    actually buys decoding margin.
    """
    if not scales:
        raise PlanningError("sweep needs at least one scale point")
    needed = math.ceil(target_success * trials - 1e-9)
    points: list[SweepPoint] = []
    c_floor = SWEEP_CLUSTERS_START
    for scale in scales:
        name = _preset_name(scale)
        accepted = None
        for clusters in range(c_floor, SWEEP_CLUSTERS_MAX + 1):
            config = ExperimentConfig(
                preset=name,
                k=k,
                snr_db=snr_db,
                clusters=clusters,
                per_cluster=per_cluster,
                gamma=gamma,
                c1=c1,
                trials=trials,
                seed=seed ^ (scale << 20),
            )
            result = run_experiment(config)
            if result.stats.support_success >= needed:
                accepted = (clusters, result)
                break
        if accepted is None:
            raise PlanningError(
                f"no cluster count up to {SWEEP_CLUSTERS_MAX} reached "
                f"{target_success:.0%} success at {name}"
            )
        clusters, result = accepted
        c_floor = clusters
        rows = result.rows
        mean_seconds = (
            sum(r.micros_frontend + r.micros_decode for r in rows) / len(rows) / 1e6
        )
        points.append(
            SweepPoint(
                scale=scale,
                n=result.plan.n,
                clusters=clusters,
                per_cluster=per_cluster,
                samples_used=result.plan.sample_count,
                trials=trials,
                support_success=result.stats.support_success,
                mean_seconds=mean_seconds,
                mean_l1=result.stats.l1_error_mean,
            )
        )
    return points
