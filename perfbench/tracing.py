"""In-memory span tracer for the benchmark's traced run.

A span records a name, a start, an end and the span that caused it;
spans of one trial share its trial id (plan builds use negative ids).
The benchmark opens spans around each call it makes into a layer.  For
the calls the package makes internally, ``rebound`` points
``ffast.peeling.classify_bin``, ``ffast.peeling.peel`` and
``ffast.planner.verify_incoherence`` at timing wrappers while it is
active and restores the originals on exit; nothing is rebound outside
a traced run.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from ffast import peeling, planner
from ffast.singleton import VerdictKind

BYTES_PER_SAMPLE = 16  # complex128
# Dense length-n arrays each spectral call writes: synthesize fills the
# dense spectrum and the time signal, add_noise the noise and the sum.
DENSE_ARRAYS_SYNTHESIZE = 2
DENSE_ARRAYS_NOISE = 2
VERDICT_KEYS = {
    VerdictKind.ZERO_TON: "singleton.verdict_zeroton",
    VerdictKind.SINGLETON: "singleton.verdict_singleton",
    VerdictKind.MULTI_TON: "singleton.verdict_multiton",
}


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    trial: int


class _OpenSpan:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1].id if t._stack else None
        self.span = Span(len(t.spans) + t._dropped, self.name, 0, 0, parent, t._trial)
        t.spans.append(self.span)
        t._stack.append(self.span)
        self.span.start = time.perf_counter_ns()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call and record nothing."""

    _span = _NullSpan()

    def begin(self, trial: int) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL_TRACER = NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[Span] = []
        self._trial = -1
        self._dropped = 0

    def begin(self, trial: int) -> None:
        self._trial = trial

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    def count(self, key: str) -> None:
        self.counts[self._trial][key] += 1

    def discard_trials(self) -> None:
        """Forget every trial span and count (plan-build spans stay)."""
        kept = [s for s in self.spans if s.trial < 0]
        self._dropped += len(self.spans) - len(kept)
        self.spans = kept
        for trial in [t for t in self.counts if t >= 0]:
            del self.counts[trial]

    def wrap(self, name: str, fn, on_result=None):
        def timed(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return timed

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span and count once, at the end of the run."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["span_fields"] = ["id", "name", "start_ns", "end_ns", "parent", "trial"]
        doc["span_names"] = names
        doc["spans"] = [
            [s.id, index[s.name], s.start, s.end, s.parent, s.trial] for s in self.spans
        ]
        doc["counts"] = {str(t): dict(c) for t, c in sorted(self.counts.items())}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


@contextmanager
def rebound(tracer: Tracer):
    """Point the package's internal call sites at timing wrappers, then restore them."""

    def count_verdict(verdict):
        tracer.count(VERDICT_KEYS[verdict.kind])

    targets = [
        (peeling, "classify_bin", "singleton.classify_bin", count_verdict),
        (peeling, "peel", "peeling.peel", None),
        (planner, "verify_incoherence", "planner.verify_incoherence", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, hook in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), hook))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def per_trial(tracer: Tracer, plan, outcomes, noisy: bool) -> dict[int, dict[str, float]]:
    """Layer figures for each traced trial, keyed by trial id."""
    by_trial: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        if s.trial >= 0:
            by_trial[s.trial].append(s)
    bins = sum(plan.bin_counts)
    rows = {}
    for o in outcomes:
        spans = by_trial[o.trial]
        own = self_times(spans)
        total: Counter = Counter()
        calls: Counter = Counter()
        for s in spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
        (decode,) = [s for s in spans if s.name == "peeling.decode"]
        classify_calls = calls["singleton.classify_bin"]
        peels = calls["peeling.peel"]
        passes = o.result.passes
        counts = tracer.counts.get(o.trial, Counter())
        dense_arrays = DENSE_ARRAYS_SYNTHESIZE * calls["spectral.synthesize"]
        if noisy:
            dense_arrays += DENSE_ARRAYS_NOISE * calls["spectral.add_noise"]
        rows[o.trial] = {
            "spectral.random_spectrum_ms": total["spectral.random_spectrum"] / 1e6,
            "spectral.synthesize_ms": total["spectral.synthesize"] / 1e6,
            "spectral.add_noise_ms": total["spectral.add_noise"] / 1e6,
            "spectral.bytes_computed": dense_arrays * plan.n * BYTES_PER_SAMPLE,
            "frontend.subsample_ms": total["frontend.subsample_and_transform"] / 1e6,
            "singleton.classify_calls": classify_calls,
            "singleton.classify_ns": total["singleton.classify_bin"],
            "singleton.verdict_zeroton": counts["singleton.verdict_zeroton"],
            "singleton.verdict_singleton": counts["singleton.verdict_singleton"],
            "singleton.verdict_multiton": counts["singleton.verdict_multiton"],
            "peeling.decode_ms": total["peeling.decode"] / 1e6,
            "peeling.self_ms": own[decode.id] / 1e6,
            "peeling.peel_ms": total["peeling.peel"] / 1e6,
            "peeling.passes": passes,
            "peeling.peels": peels,
            "peeling.revalidations": classify_calls - passes * bins,
            "metrics.score_ms": total["metrics.support_recovery"] / 1e6,
            "metrics.l1": o.l1,
        }
    return rows


def layer_metrics(tracer: Tracer, plan, outcomes, noisy: bool) -> dict:
    """Per-layer metrics as {name: (value, unit)}: per trial, planner ones per build."""
    rows = list(per_trial(tracer, plan, outcomes, noisy).values())

    def mean(key):
        return statistics.fmean(r[key] for r in rows)

    builds: dict[int, Counter] = defaultdict(Counter)
    for s in tracer.spans:
        if s.trial < 0:
            builds[s.trial][s.name + "_ns"] += s.end - s.start
            builds[s.trial][s.name + "_calls"] += 1
    per_build = list(builds.values())
    calls = sum(r["singleton.classify_calls"] for r in rows)
    finite = [r["metrics.l1"] for r in rows if math.isfinite(r["metrics.l1"])]
    m = plan.sample_count
    out = {
        "planner.build_plan_ms": (
            statistics.median(b["planner.build_plan_ns"] for b in per_build) / 1e6, "ms"
        ),
        "planner.verify_incoherence_ms": (
            statistics.median(b["planner.verify_incoherence_ns"] for b in per_build) / 1e6, "ms"
        ),
        "planner.shift_draws": (
            statistics.fmean(b["planner.verify_incoherence_calls"] for b in per_build), "count"
        ),
        "spectral.random_spectrum_ms": (mean("spectral.random_spectrum_ms"), "ms"),
        "spectral.synthesize_ms": (mean("spectral.synthesize_ms"), "ms"),
        "spectral.add_noise_ms": (mean("spectral.add_noise_ms"), "ms"),
        "spectral.bytes_computed": (mean("spectral.bytes_computed"), "B"),
        "frontend.subsample_ms": (mean("frontend.subsample_ms"), "ms"),
        "frontend.bins": (sum(plan.bin_counts), "count"),
        "frontend.samples_read": (m, "samples"),
        "frontend.bytes_gathered": (m * BYTES_PER_SAMPLE, "B"),
        "singleton.classify_calls": (mean("singleton.classify_calls"), "count"),
        "singleton.classify_ms": (mean("singleton.classify_ns") / 1e6, "ms"),
        "singleton.classify_us_per_call": (
            sum(r["singleton.classify_ns"] for r in rows) / calls / 1e3,
            "us",
        ),
        "singleton.verdict_zeroton": (mean("singleton.verdict_zeroton"), "count"),
        "singleton.verdict_singleton": (mean("singleton.verdict_singleton"), "count"),
        "singleton.verdict_multiton": (mean("singleton.verdict_multiton"), "count"),
        "peeling.decode_ms": (mean("peeling.decode_ms"), "ms"),
        "peeling.self_ms": (mean("peeling.self_ms"), "ms"),
        "peeling.peel_ms": (mean("peeling.peel_ms"), "ms"),
        "peeling.passes": (mean("peeling.passes"), "count"),
        "peeling.peels": (mean("peeling.peels"), "count"),
        "peeling.revalidations": (mean("peeling.revalidations"), "count"),
        "peeling.commit_ratio": (sum(r["peeling.peels"] for r in rows) / calls, "ratio"),
        "metrics.score_ms": (mean("metrics.score_ms"), "ms"),
        "metrics.l1_error_mean": (statistics.fmean(finite) if finite else 0.0, "ratio"),
    }
    return out
