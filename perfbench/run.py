"""Benchmark entry point: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload sparse-5db --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics named in
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  The
process exits 1 when the correctness gate fails, 2 on a usage or
environment error.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One thread, pinned before numpy loads: the load model is a closed loop
# of one client on one thread.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("sparse-5db", "stretch-x12", "dense-noiseless")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def provenance(args, counts: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **counts,
    }


def run_one(args, spec) -> int:
    import harness

    if args.trace:
        config, plan, gate, values, counts, tracer = harness.run_traced(
            args.workload, args.seed, args.seconds
        )
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        config, plan, gate, values, counts = harness.run_untraced(
            args.workload, args.seed, args.seconds
        )
        tracer = None
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in wanted if name not in values]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")

    prov = provenance(args, {
        **counts,
        "preset": config.preset,
        "n": plan.n,
        "k": config.k,
        "snr_db": config.snr_db,
        "bin_counts": list(plan.bin_counts),
        "clusters": plan.clusters,
        "per_cluster": plan.per_cluster,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "support_misses": gate.misses,
        "noiseless_peelable": gate.peelable,
    })
    print("provenance " + json.dumps(prov))
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} ({mode}): "
          f"{gate.attempted} trials, {gate.failed} failed the gate, "
          f"{gate.misses} support misses")
    for name, (value, unit) in values.items():
        note = "" if name in wanted else "  (informational)"
        print(f"  {name:32s} {value:>14.6g} {unit}{note}")
    if args.trace:
        decode = values["peeling.decode_ms"][0]
        parts = sum(values[k][0] for k in ("singleton.classify_ms", "peeling.peel_ms",
                                           "peeling.self_ms"))
        print(f"  classify + peel + self = {parts:.4f} ms of decode {decode:.4f} ms")
    for problem in gate.problems:
        print(f"GATE: {problem}", file=sys.stderr)

    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]} for name in wanted},
    }
    record = {"provenance": prov, "all_metrics": {k: list(v) for k, v in values.items()},
              "gate_problems": gate.problems, "result": result}
    path = OUT / f"{args.workload}-trace{args.trace}.json"
    if tracer is not None:
        tracer.dump(path, record)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if gate.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        status = status or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result line (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
    if not args.trace:
        base, big = (json.loads((OUT / f"{w}-trace0.json").read_text())["all_metrics"]
                     for w in ("sparse-5db", "stretch-x12"))
        print("sub-linear (informational, n ratio 12): stretch-x12 / sparse-5db "
              f"decode_ms_p50 {big['decode_ms_p50'][0] / base['decode_ms_p50'][0]:.3f}, "
              f"samples_m {big['samples_m'][0] / base['samples_m'][0]:.3f}")
    combined = {
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = benchmark_spec()
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))
    try:
        import harness  # noqa: F401
    except ImportError as exc:
        print(f"cannot load the benchmark harness: {exc}", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
