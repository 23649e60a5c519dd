"""Seeded closed-loop trial harness for the ffast benchmark.

One trial is draw -> synthesize -> add noise -> front end -> decode ->
score, calling the package's public functions in the order
``ffast.bench.run_trial`` does, with the same per-trial seed
(workload seed XOR trial index) and the same ``ExperimentConfig.rho``.
Trials run one after another in a single thread (a closed loop with
one client); correctness checks run after the timed loop.
"""
from __future__ import annotations

import dataclasses
import gc
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "ffast" / "__init__.py").is_file():
    raise ImportError(f"ffast sources not found under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from ffast import frontend, metrics, oracle, peeling, planner, spectral  # noqa: E402
from ffast.bench import ExperimentConfig, plan_for_config  # noqa: E402

from tracing import NULL_TRACER, Tracer, layer_metrics, rebound  # noqa: E402

# One entry per workload in BENCHMARK.json; README.md gives why each is here.
WORKLOADS: dict[str, dict] = {
    "sparse-5db": dict(preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3),
    "stretch-x12": dict(preset="paper-124950x12", k=40, snr_db=5.0, clusters=12, per_cluster=3),
    "dense-noiseless": dict(preset="n4845", k=170, snr_db=None),
}

# The shift pattern is part of a workload's definition, the same in every
# run; --seed draws the trial signals.  With a plan drawn per seed,
# dense-noiseless decode time moved by ~12% from seed to seed.  This is
# the seed acceptance 3 uses.
PLAN_SEED = 20260817
# An untraced run keeps going past --seconds until this many trials are
# in, so decode_ms_p90 has at least ten samples beyond it.  A traced run
# reports means and needs fewer.
MIN_TRIALS = 110
MIN_TRACED_TRIALS = 20
# Hard stop for a timed loop, whatever the trial count, so a run ends
# in well under three minutes.
MAX_LOOP_SECONDS = 120.0
# setup_s is the median of SETUP_BUILDS plan builds before the timed loop
# and one more after the first trial to end in each SETUP_EVERY_SECONDS
# of it.  Spreading the builds over the run matters on a shared machine:
# dense-noiseless builds took 0.17-0.30 ms from one 0.5 s burst to the next.
SETUP_BUILDS = 11
SETUP_EVERY_SECONDS = 1.0
# Noisy workloads: a run whose exact-support rate falls below this
# fails the correctness gate (acceptance 3 requires 0.97 over 500 trials).
NOISY_SUCCESS_FLOOR = 0.90
# Noiseless workloads: every oracle-peelable trial must decode to within this l1.
NOISELESS_L1_TOLERANCE = 1e-9


def workload_config(name: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(**WORKLOADS[name], seed=seed)


def plan_config(config: ExperimentConfig) -> ExperimentConfig:
    """The configuration the plan is built from: the workload's, at PLAN_SEED."""
    return dataclasses.replace(config, seed=PLAN_SEED)


@dataclass
class TrialOutcome:
    trial: int
    seed: int
    truth: spectral.SparseSpectrum
    result: peeling.DecodeResult
    success: bool
    l1: float
    decode_ns: int
    trial_ns: int


def run_trial(
    plan: planner.FrontendPlan,
    config: ExperimentConfig,
    trial: int,
    tracer: Tracer = NULL_TRACER,
) -> TrialOutcome:
    """One seeded trial, timed from the first draw to the score.

    decode_ns covers the front end plus the decoder, the span
    ``ffast.bench.run_trial`` reports as micros_frontend + micros_decode.
    """
    seed = config.seed ^ trial
    constellation = spectral.Constellation(config.rho)
    span = tracer.span
    tracer.begin(trial)
    t0 = time.perf_counter_ns()
    with span("trial"):
        with span("spectral.random_spectrum"):
            truth = spectral.random_spectrum(plan.n, config.k, constellation, seed)
        with span("spectral.synthesize"):
            signal = spectral.synthesize(truth)
        # On a noiseless workload this span times the skipped step.
        with span("spectral.add_noise"):
            if config.snr_db is not None:
                signal = spectral.add_noise(signal, 1.0, seed)
        t1 = time.perf_counter_ns()
        with span("frontend.subsample_and_transform"):
            bank = frontend.subsample_and_transform(signal, plan)
        with span("peeling.decode"):
            result = peeling.decode(bank, constellation if config.snap else None)
        t2 = time.perf_counter_ns()
        with span("metrics.support_recovery"):
            success, l1 = metrics.support_recovery(result.spectrum, truth)
    t3 = time.perf_counter_ns()
    return TrialOutcome(trial, seed, truth, result, success, l1, t2 - t1, t3 - t0)


def build_once(config: ExperimentConfig, tracer: Tracer = NULL_TRACER, build: int = -1,
               expect: planner.FrontendPlan | None = None):
    """One timed plan build; return (plan, seconds).  Builds use negative trial ids.

    The plan is deterministic, so a build must give the plan it is expected to.
    """
    tracer.begin(build)
    t0 = time.perf_counter_ns()
    with tracer.span("planner.build_plan"):
        plan = plan_for_config(plan_config(config))
    seconds = (time.perf_counter_ns() - t0) / 1e9
    if expect is not None and plan != expect:
        raise RuntimeError("build_plan is not deterministic for this configuration")
    return plan, seconds


def build_setup(config: ExperimentConfig, tracer: Tracer = NULL_TRACER):
    """Build the plan SETUP_BUILDS times; return (plan, per-build seconds)."""
    plan, first = build_once(config, tracer)
    times = [first]
    while len(times) < SETUP_BUILDS:
        times.append(build_once(config, tracer, -1 - len(times), plan)[1])
    return plan, times


def timed_loop(seconds: float, min_trials: int, step) -> list:
    """Closed loop: call step(trial) until the time and trial floors are met.

    Callers run one warm-up trial first, so lazy caches (the plan's
    cluster check, estimator weights, residual thresholds) are filled.
    """
    gc.collect()
    out = []
    start = time.perf_counter()
    trial = 0
    while True:
        out.append(step(trial))
        trial += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_SECONDS:
            break
        if elapsed >= seconds and trial >= min_trials:
            break
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class GateReport:
    attempted: int
    failed: int
    misses: int
    peelable: int | None
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.problems


def check_outcomes(plan, config: ExperimentConfig, outcomes: list[TrialOutcome]) -> GateReport:
    """Correctness gate, run outside the timed region.

    Every trial was scored against its ground truth inside the loop.  A
    trial fails the gate when its decoded spectrum has the wrong length,
    or when it is a noiseless trial that the oracle calls peelable and
    it was not recovered exactly.  A noisy run fails as a whole when its
    exact-support rate drops below NOISY_SUCCESS_FLOOR.  A support miss
    on its own is not a gate failure: it counts against
    support_success_rate.
    """
    problems: list[str] = []
    failed = 0
    peelable = 0 if config.snr_db is None else None
    for o in outcomes:
        bad = []
        if o.result.spectrum.n != plan.n:
            bad.append("decoded spectrum has the wrong length")
        if config.snr_db is None and oracle.noiseless_check(o.truth, plan):
            peelable += 1
            if not (o.success and o.l1 <= NOISELESS_L1_TOLERANCE):
                bad.append(f"peelable noiseless trial missed (success={o.success}, l1={o.l1:.3g})")
        if bad:
            failed += 1
            problems.append(f"trial {o.trial}: " + "; ".join(bad))
    misses = sum(not o.success for o in outcomes)
    if config.snr_db is not None and outcomes:
        rate = 1 - misses / len(outcomes)
        if rate < NOISY_SUCCESS_FLOOR:
            problems.append(f"support success rate {rate:.3f} below {NOISY_SUCCESS_FLOOR}")
    return GateReport(len(outcomes), failed, misses, peelable, problems)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(plan, config, setup_times, outcomes: list[TrialOutcome]) -> dict:
    """The end-to-end metrics of an untraced run, as {name: (value, unit)}."""
    decode_ms = [o.decode_ns / 1e6 for o in outcomes]
    finite = [o.l1 for o in outcomes if math.isfinite(o.l1)]
    return {
        "decode_ms_p50": (statistics.median(decode_ms), "ms"),
        "decode_ms_p90": (percentile(decode_ms, 90), "ms"),
        "trials_per_s": (len(outcomes) / (sum(o.trial_ns for o in outcomes) / 1e9), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "support_success_rate": (sum(o.success for o in outcomes) / len(outcomes), "fraction"),
        "l1_error_mean": (sum(finite) / len(finite) if finite else 0.0, "ratio"),
        "samples_m": (plan.sample_count, "samples"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_untraced(name: str, seed: int, seconds: float):
    config = workload_config(name, seed)
    plan, setup_times = build_setup(config)
    run_trial(plan, config, 0)  # warm-up
    last_build = time.perf_counter()

    def step(trial):
        nonlocal last_build
        outcome = run_trial(plan, config, trial)
        if time.perf_counter() - last_build >= SETUP_EVERY_SECONDS:
            setup_times.append(build_once(config, expect=plan)[1])
            last_build = time.perf_counter()
        return outcome

    outcomes = timed_loop(seconds, MIN_TRIALS, step)
    gate = check_outcomes(plan, config, outcomes)
    e2e = end_to_end(plan, config, setup_times, outcomes)
    p90 = e2e["decode_ms_p90"][0]
    counts = {
        "setup_builds": len(setup_times),
        "trials": len(outcomes),
        "trials_beyond_p90": sum(o.decode_ns / 1e6 > p90 for o in outcomes),
    }
    return config, plan, gate, e2e, counts


def run_traced(name: str, seed: int, seconds: float):
    """Per-layer run: every trial runs twice, untraced and traced.

    The order alternates by trial so warm caches favour neither side;
    the paired times give trace.overhead_pct.  Both runs of a trial must
    score identically.
    """
    config = workload_config(name, seed)
    tracer = Tracer()
    with rebound(tracer):
        plan, setup_times = build_setup(config, tracer)

    def traced(trial):
        with rebound(tracer):
            return run_trial(plan, config, trial, tracer)

    def step(trial):
        if trial % 2 == 0:
            plain = run_trial(plan, config, trial)
            return plain, traced(trial)
        timed = traced(trial)
        return run_trial(plan, config, trial), timed

    step(0)  # warm-up
    tracer.discard_trials()
    pairs = timed_loop(seconds, MIN_TRACED_TRIALS, step)
    traced_outcomes = [t for _, t in pairs]
    gate = check_outcomes(plan, config, traced_outcomes)
    for plain, timed in pairs:
        if (plain.success, plain.l1) != (timed.success, timed.l1):
            gate.failed += 1
            gate.problems.append(f"trial {plain.trial}: traced and untraced results differ")
    layers = layer_metrics(tracer, plan, traced_outcomes, config.snr_db is not None)
    untraced_ns = sum(p.trial_ns for p, _ in pairs)
    traced_ns = sum(t.trial_ns for _, t in pairs)
    layers["trace.overhead_pct"] = (100.0 * (traced_ns - untraced_ns) / untraced_ns, "%")
    counts = {"setup_builds": len(setup_times), "trials": len(pairs), "spans": len(tracer.spans)}
    return config, plan, gate, layers, counts, tracer
