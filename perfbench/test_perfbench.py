"""Checks on the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math

import pytest

import harness
import run
import tracing
from ffast import peeling, planner
from ffast.bench import ExperimentConfig, plan_for_config
from ffast.bench import run_trial as package_run_trial

SMALL_CONFIGS = [
    ExperimentConfig(preset="paper-20", k=2, snr_db=None, seed=5),
    ExperimentConfig(preset="n504", k=4, snr_db=None, seed=7),
    ExperimentConfig(preset="n504", k=6, snr_db=8.0, seed=11),
]


def traced_trials(config, trials):
    """Plan build and trials under one tracer, the way the traced run does it."""
    tracer = tracing.Tracer()
    with tracing.rebound(tracer):
        plan, _ = harness.build_setup(config, tracer)
        outcomes = [harness.run_trial(plan, config, t, tracer) for t in range(trials)]
    return tracer, plan, outcomes


@pytest.mark.parametrize(
    "config",
    SMALL_CONFIGS
    + [harness.workload_config("sparse-5db", 3), harness.workload_config("dense-noiseless", 3)],
    ids=lambda c: f"{c.preset}-k{c.k}-{c.snr_db}",
)
def test_trial_loop_matches_package_run_trial(config):
    plan = plan_for_config(harness.plan_config(config))
    for trial in range(3):
        ours = harness.run_trial(plan, config, trial)
        theirs = package_run_trial(plan, config, trial)
        assert ours.seed == theirs.seed == config.seed ^ trial
        assert (ours.success, ours.l1) == (theirs.success, theirs.l1)
        assert plan.sample_count == theirs.samples_used


def test_traced_trial_gives_the_untraced_result():
    config = SMALL_CONFIGS[2]
    tracer, plan, outcomes = traced_trials(config, 4)
    for o in outcomes:
        plain = harness.run_trial(plan, config, o.trial)
        assert (plain.success, plain.l1) == (o.success, o.l1)
        assert plain.result.events == o.result.events


@pytest.mark.parametrize("config", SMALL_CONFIGS[1:], ids=["noiseless", "noisy"])
def test_trace_is_self_consistent(config):
    tracer, plan, outcomes = traced_trials(config, 4)
    by_id = {s.id: s for s in tracer.spans}
    own = tracing.self_times(tracer.spans)
    assert all(t >= 0 for t in own.values())
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert parent.trial == s.trial
    for s in tracer.spans:
        if s.name in ("singleton.classify_bin", "peeling.peel"):
            assert by_id[s.parent].name == "peeling.decode"
        if s.name == "planner.verify_incoherence":
            assert by_id[s.parent].name == "planner.build_plan"

    rows = tracing.per_trial(tracer, plan, outcomes, config.snr_db is not None)
    for o in outcomes:
        row = rows[o.trial]
        trial_span = next(s for s in tracer.spans if s.trial == o.trial and s.name == "trial")
        layers = [s for s in tracer.spans if s.parent == trial_span.id]
        layer_ns = sum(s.end - s.start for s in layers)
        duration = trial_span.end - trial_span.start
        assert layer_ns + own[trial_span.id] == duration
        assert own[trial_span.id] <= 0.1 * duration
        decode = row["peeling.decode_ms"]
        parts = row["singleton.classify_ns"] / 1e6 + row["peeling.peel_ms"] + row["peeling.self_ms"]
        assert math.isclose(parts, decode, rel_tol=1e-9)
        assert row["peeling.peels"] == len(o.result.events)
        assert row["peeling.passes"] == o.result.passes
        assert row["peeling.revalidations"] >= 0
        verdicts = sum(row[f"singleton.verdict_{k}"] for k in ("zeroton", "singleton", "multiton"))
        assert verdicts == row["singleton.classify_calls"]


def test_counts_repeat_for_the_same_seed():
    config = SMALL_CONFIGS[2]
    keys = [
        "singleton.classify_calls", "peeling.passes", "peeling.peels",
        "singleton.verdict_zeroton", "singleton.verdict_singleton", "singleton.verdict_multiton",
    ]

    def counts():
        tracer, plan, outcomes = traced_trials(config, 4)
        rows = tracing.per_trial(tracer, plan, outcomes, True)
        draws = tracing.layer_metrics(tracer, plan, outcomes, True)["planner.shift_draws"]
        return [[row[k] for k in keys] for row in rows.values()], draws

    assert counts() == counts()


def test_rebound_restores_the_package_names():
    originals = (peeling.classify_bin, peeling.peel, planner.verify_incoherence)
    with pytest.raises(RuntimeError):
        with tracing.rebound(tracing.Tracer()):
            assert peeling.classify_bin is not originals[0]
            raise RuntimeError
    assert (peeling.classify_bin, peeling.peel, planner.verify_incoherence) == originals


def test_gate_flags_a_missed_peelable_noiseless_trial():
    config = SMALL_CONFIGS[1]
    plan = plan_for_config(harness.plan_config(config))
    outcome = harness.run_trial(plan, config, 0)
    assert harness.check_outcomes(plan, config, [outcome]).correct
    outcome.success, outcome.l1 = False, 1.0
    gate = harness.check_outcomes(plan, config, [outcome])
    assert not gate.correct and gate.failed == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_listed_metric(trace, monkeypatch, capsys):
    monkeypatch.setattr(harness, "MIN_TRIALS", 3)
    monkeypatch.setattr(harness, "MIN_TRACED_TRIALS", 2)
    monkeypatch.setattr(harness, "SETUP_EVERY_SECONDS", 0.0)
    code = run.main(["--workload", "sparse-5db", "--seed", "2", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = run.benchmark_spec()
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == listed
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2


def test_workload_names_agree():
    listed = [w["name"] for w in run.benchmark_spec()["workloads"]]
    assert listed == list(run.WORKLOAD_NAMES) == list(harness.WORKLOADS)
