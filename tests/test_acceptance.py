"""End-to-end acceptance checks.

Each test exercises one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line (run pytest -s to watch them stream).
All seeds are frozen, so every number here is reproducible.
"""
import math
import statistics
import time

import numpy as np
import pytest

from ffast import oracle
from ffast.bench import ExperimentConfig, auto_sweep, run_experiment, run_trial
from ffast.frontend import subsample_and_transform
from ffast.metrics import energy_tail_bound, kay_variance, zeroton_bound
from ffast.peeling import decode
from ffast.planner import (
    PRESETS,
    FrontendPlan,
    build_plan,
    draw_heads,
    verify_incoherence,
)
from ffast.singleton import VerdictKind, bin_statistics, classify_bin, cluster_estimate
from ffast.spectral import Constellation, SparseSpectrum, random_spectrum, synthesize


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_noiseless_oracle_equivalence():
    """1000 random noiseless instances across every small preset must
    decode to exactly what the direct dense DFT reports, whenever the
    alias graph is peelable at all.  Zero failures allowed, under a
    minute of wall time."""
    t0 = time.perf_counter()
    names = sorted(
        (n for n, p in PRESETS.items() if p.n <= 10_000),
        key=lambda n: PRESETS[n].n,
    )
    con = Constellation(4.0)
    plans = {}
    failures = []
    checked = skipped = 0
    t = 0
    while checked + skipped < 1000:
        name = names[t % len(names)]
        preset = PRESETS[name]
        kmax = max(1, min(50, int(preset.n ** (1.0 / 3.0))))
        rng = np.random.default_rng(900_000 + t)
        k = int(rng.integers(1, kmax + 1))
        key = (name, k)
        if key not in plans:
            plans[key] = build_plan(name, k, seed=17)
        plan = plans[key]
        truth = random_spectrum(plan.n, k, con, 900_000 + t)
        t += 1
        if not oracle.noiseless_check(truth, plan):
            skipped += 1
            continue
        checked += 1
        signal = synthesize(truth)
        result = decode(subsample_and_transform(signal, plan))
        report = oracle.compare_spectra(
            result.spectrum, oracle.dense_dft(signal.clean), 1e-9
        )
        if not report.matched:
            failures.append((name, k, t - 1, report.detail))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(
        "1 noiseless-oracle-corpus",
        ok,
        f"{checked - len(failures)}/{checked} decodable matched, "
        f"{skipped} unpeelable skipped, {elapsed:.1f}s < 60s"
        + (f"; first failures {failures[:3]}" if failures else ""),
    )


def test_02_worked_small_instance():
    """The n=20, k=5 walkthrough instance: bin roles, exact recovery,
    and bit-for-bit determinism, in under a second."""
    t0 = time.perf_counter()
    plan = build_plan("paper-20", 5, seed=3)
    supports = (1, 3, 5, 10, 15)
    ring = (0, 2, 5, 7, 3)
    values = [1.5 * np.exp(1j * math.pi / 4 * i) for i in ring]
    truth = SparseSpectrum(20, supports, values)
    signal = synthesize(truth)
    bank = subsample_and_transform(signal, plan)

    stats = bin_statistics(bank.rows, plan.row_stage, plan.row_bin, plan)
    kinds = {
        (stage, j): classify_bin(stats, plan.row_offsets[stage] + j)
        for stage in range(plan.d)
        for j in range(plan.bin_counts[stage])
    }
    roles_ok = (
        kinds[(0, 0)].kind is VerdictKind.ZERO_TON
        and kinds[(0, 1)].kind is VerdictKind.MULTI_TON
        and kinds[(0, 2)].kind is VerdictKind.SINGLETON
        and kinds[(0, 2)].support == 10
        and kinds[(0, 3)].kind is VerdictKind.MULTI_TON
    )

    first = decode(bank)
    second = decode(bank)
    deterministic = [
        (e.pass_index, e.stage, e.bin, e.support, e.value) for e in first.events
    ] == [(e.pass_index, e.stage, e.bin, e.support, e.value) for e in second.events]

    report = oracle.compare_spectra(first.spectrum, oracle.dense_dft(signal.clean), 1e-9)
    elapsed = time.perf_counter() - t0
    ok = roles_ok and deterministic and first.converged and report.matched and elapsed < 1.0
    _report(
        "2 worked-small-instance",
        ok,
        f"roles_ok={roles_ok} deterministic={deterministic} "
        f"max_err={report.max_abs_error:.1e} {elapsed:.2f}s < 1s",
    )


def test_03_noisy_support_recovery_rate():
    """n=124950, k=40 at 5 dB with 12 clusters of 3 chains: at least 97%
    of 500 seeded trials must recover the support exactly."""
    t0 = time.perf_counter()
    config = ExperimentConfig(
        preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3,
        trials=500, seed=20260817,
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - t0
    rate = result.successes / config.trials
    ok = rate >= 0.97 and elapsed < 600.0
    _report(
        "3 noisy-support-recovery",
        ok,
        f"{result.successes}/{config.trials} "
        f"(rate {rate:.4f} >= 0.97), {elapsed:.1f}s < 600s",
    )


def test_04_sublinear_scaling():
    """Stretching the length 12x at fixed k=40 may cost at most 1.6x the
    per-trial wall time and 2x the sample budget, with every sweep point
    still at >= 97% support recovery.

    The sweep picks and scores every point.  Its two end points are then
    timed again, trial by trial in alternation, so a change of machine
    speed during the test falls on both alike; the time ratio is that of
    their median per-trial times."""
    config = ExperimentConfig(k=40, snr_db=5.0, trials=16, seed=42)
    points = auto_sweep(list(range(1, 13)), config)
    needed = math.ceil(0.97 * 16 - 1e-9)
    all_hit = all(p.successes >= needed for p in points)
    ends = [points[0].config, points[-1].config]
    plans = [points[0].plan, points[-1].plan]
    micros = ([], [])
    for trial in range(config.trials):
        for side in (0, 1):
            row = run_trial(plans[side], ends[side], trial)
            micros[side].append(row.micros_frontend + row.micros_decode)
    time_ratio = statistics.median(micros[1]) / statistics.median(micros[0])
    m_ratio = plans[1].sample_count / plans[0].sample_count
    ok = all_hit and time_ratio <= 1.6 and m_ratio <= 2.0
    _report(
        "4 sublinear-scaling",
        ok,
        f"12 points all >= {needed}/16: {all_hit}, "
        f"time x{time_ratio:.3f} <= 1.6, m x{m_ratio:.3f} <= 2",
    )


def test_05_frequency_estimator_variance():
    """The weighted phase-difference estimator's empirical variance must
    sit within 20% of 6/(rho_b N (N^2-1)) at rho_b=10, in under 30s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    rho_b = 10.0
    ratios = {}
    for n_samples in (3, 5, 8):
        errs = np.empty(10_000)
        tt = np.arange(n_samples)
        for trial in range(10_000):
            phase0 = rng.uniform(0, 2 * np.pi)
            y = np.sqrt(rho_b) * np.exp(1j * (phase0 + 1.0 * tt)) + (
                rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
            ) / np.sqrt(2)
            est = cluster_estimate(y, 1)
            errs[trial] = (est - 1.0 + np.pi) % (2 * np.pi) - np.pi
        ratios[n_samples] = float(np.mean(errs**2)) / kay_variance(rho_b, n_samples)
    elapsed = time.perf_counter() - t0
    ok = all(0.8 <= r <= 1.2 for r in ratios.values()) and elapsed < 30.0
    detail = ", ".join(f"N={n}: x{r:.3f}" for n, r in ratios.items())
    _report("5 estimator-variance", ok, f"{detail} (all in [0.8, 1.2]), {elapsed:.1f}s < 30s")


def test_06_energy_test_bounds():
    """Monte-Carlo false-alarm and missed-singleton rates for the energy
    gate must stay below their closed-form bounds, 1e5 trials each."""
    rng = np.random.default_rng(2024)
    trials = 100_000

    d_fa, gamma = 128, 1.0 / 3.0
    w = (rng.standard_normal((trials, d_fa)) + 1j * rng.standard_normal((trials, d_fa))) / np.sqrt(2)
    energies = np.einsum("ij,ij->i", w.conj(), w).real
    fa = float(np.mean(energies >= (1 + gamma) * d_fa))
    fa_bound = zeroton_bound(d_fa, gamma)

    d_miss, u_per_dim = 36, 1.0
    u = np.sqrt(u_per_dim) * np.exp(1j * rng.uniform(0, 2 * np.pi, (trials, d_miss)))
    w2 = (rng.standard_normal((trials, d_miss)) + 1j * rng.standard_normal((trials, d_miss))) / np.sqrt(2)
    energies2 = np.einsum("ij,ij->i", (u + w2).conj(), u + w2).real
    miss = float(np.mean(energies2 < (1 + gamma) * d_miss))
    miss_bound = energy_tail_bound(u_per_dim, d_miss, gamma)

    ok = fa <= fa_bound and miss <= miss_bound
    _report(
        "6 energy-test-bounds",
        ok,
        f"false alarm {fa:.2e} <= {fa_bound:.3f}, miss {miss:.2e} <= {miss_bound:.3f}",
    )


def test_07_incoherence_ensemble():
    """At n=1430 with 12 chains, at least 20% of 1000 random shift draws
    must satisfy the closed-form coherence screening bound.  That bound
    is 1.72 and no mu exceeds 1, so every draw passes."""
    passing = 0
    bound = None
    for seed in range(1000):
        plan = FrontendPlan(n=1430, bin_counts=(10, 11, 13), per_cluster=2,
                            heads=draw_heads(1430, 6, seed))
        report = verify_incoherence(plan)
        bound = report.bound
        passing += report.passed
    ok = passing >= 200
    _report(
        "7 incoherence-ensemble",
        ok,
        f"{passing}/1000 draws within bound {bound:.3f} (need >= 200)",
    )


def test_08_l1_error_with_arbitrary_phases():
    """Criterion-3 conditions but with uniformly random coefficient
    phases and value snapping disabled: the successful trials' mean
    normalized l1 error must stay at or below 0.05."""
    config = ExperimentConfig(
        preset="paper-124950", k=40, snr_db=5.0, clusters=12, per_cluster=3,
        trials=500, seed=20260817,
        random_phases=True,
    )
    result = run_experiment(config)
    l1s = [r.l1 for r in result.rows if r.success and math.isfinite(r.l1)]
    mean_l1 = float(np.mean(l1s)) if l1s else float("inf")
    ok = bool(l1s) and mean_l1 <= 0.05
    _report(
        "8 l1-error-arbitrary-phases",
        ok,
        f"{len(l1s)} successes, mean l1 {mean_l1:.4f} <= 0.05 "
        f"(max {max(l1s):.4f})" if l1s else "no successful trials",
    )
