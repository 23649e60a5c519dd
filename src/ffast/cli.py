"""Command-line harness.

Subcommands:

* plan    build and screen a subsampling plan, print its figures of merit
* run     Monte-Carlo decode trials, one CSV row per trial plus a summary
* sweep   scaling study over the stretched preset family
* bounds  tabulate the closed-form error-event bounds for a configuration
* verify  decode noiseless instances and compare against the direct DFT

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 verification
failure.  A config file (INI, [experiment] section) overrides flags, so a
saved experiment beats whatever is on the command line.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from configparser import ConfigParser

from . import bench, metrics, oracle
from .formats import CSV_HEADER, FormatError, write_plan
from .frontend import subsample_and_transform
from .peeling import decode
from .planner import PRESETS, PlanningError, build_plan, verify_incoherence
from .spectral import Constellation, random_spectrum, synthesize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4

_NOT_CONFIG_KEYS = {"command", "handler", "parser", "config"}


def _parse_snr(text: str) -> float | None:
    if text.lower() in ("inf", "none", "noiseless"):
        return None
    return float(text)


def _parse_scales(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.replace(",", " ").split()]


def _apply_config_file(args: argparse.Namespace, path: str) -> None:
    """INI [experiment] keys override parsed flags of the same name.

    Only the subcommand's own flags may be set; any other key (a typo
    such as `snr` for `snr_db`) is a configuration error.  Each value is
    converted the way its flag is: by the flag's type, or as a boolean
    for an on/off flag.
    """
    cfg = ConfigParser()
    if not cfg.read(path, encoding="utf-8"):
        raise FormatError(f"unreadable config file {path}")
    if not cfg.has_section("experiment"):
        raise PlanningError(f"config file {path} lacks an [experiment] section")
    section = cfg["experiment"]
    known = set(vars(args)) - _NOT_CONFIG_KEYS
    actions = {a.dest: a for a in args.parser._actions if a.dest in known}
    for name, raw in section.items():
        key = name.replace("-", "_")
        action = actions.get(key)
        if action is None:
            raise PlanningError(
                f"config file {path}: unknown key {key!r} for '{args.command}'"
            )
        if action.nargs == 0:  # store_true / store_false: the key names the value
            value: object = section.getboolean(name)
        elif action.type is not None:
            value = action.type(raw)
        else:
            value = raw
        setattr(args, key, value)


def _experiment_config(args: argparse.Namespace) -> bench.ExperimentConfig:
    return bench.ExperimentConfig(
        preset=args.preset,
        k=args.k,
        snr_db=args.snr_db,
        clusters=args.clusters,
        per_cluster=args.per_cluster,
        gamma=args.gamma,
        c1=args.c1,
        trials=args.trials,
        seed=args.seed,
        random_phases=args.random_phases,
        snap=args.snap,
    )


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


def _write_csv(
    path: str | None, header: list[str], rows: list[list], *, stamp: bool = True
) -> None:
    fh, owned = _open_out(path)
    try:
        fh.write(CSV_HEADER + "\n")
        if stamp:
            fh.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if owned:
            fh.close()


def cmd_plan(args: argparse.Namespace) -> int:
    plan = build_plan(
        args.preset,
        args.k,
        clusters=args.clusters,
        per_cluster=args.per_cluster,
        gamma=args.gamma,
        c1=args.c1,
        seed=args.seed,
    )
    report = verify_incoherence(plan)
    if args.out:
        write_plan(args.out, plan)
    print(f"n            {plan.n}")
    print(f"stages       {plan.d}  bins {plan.bin_counts}  periods {plan.periods}")
    print(
        f"chains       D={plan.chain_count} "
        f"({plan.clusters} clusters x {plan.per_cluster}, base {plan.base})"
    )
    print(f"mu_max       {report.mu_max:.6f}  bound {report.bound:.6f}")
    print(f"samples m    {plan.sample_count}  (m/n = {plan.sample_count / plan.n:.6f})")
    if args.out:
        print(f"plan written to {args.out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    result = bench.run_experiment(config)
    stable = args.stable_output
    rows = [
        [
            r.trial,
            r.seed,
            int(r.success),
            repr(r.l1),
            r.samples_used,
            0 if stable else r.micros_frontend,
            0 if stable else r.micros_decode,
        ]
        for r in result.rows
    ]
    stats = result.stats
    rows.append(
        [
            "summary",
            config.seed,
            stats.support_success,
            repr(stats.l1_error_mean),
            stats.samples_used,
            0 if stable else round(stats.wall_time * 1e6),
            stats.trials,
        ]
    )
    _write_csv(
        args.out,
        ["trial", "seed", "success", "l1", "m", "micros_frontend", "micros_decode"],
        rows,
        stamp=not stable,
    )
    print(
        f"{stats.support_success}/{stats.trials} trials recovered the support "
        f"(rate {stats.success_rate:.3f}, mean l1 {stats.l1_error_mean:.4g}, "
        f"m={stats.samples_used})"
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.scales:
        raise PlanningError("sweep needs a nonempty scale list")
    points = bench.auto_sweep(
        args.scales,
        k=args.k,
        snr_db=args.snr_db if args.snr_db is not None else 5.0,
        trials=args.trials,
        seed=args.seed,
        target_success=args.target_success,
        per_cluster=args.per_cluster if args.per_cluster else 3,
        gamma=args.gamma,
        c1=args.c1,
    )
    stable = args.stable_output
    rows = [
        [
            p.scale,
            p.n,
            p.clusters,
            p.per_cluster,
            p.samples_used,
            p.trials,
            p.support_success,
            repr(0.0 if stable else p.mean_seconds),
            repr(p.mean_l1),
        ]
        for p in points
    ]
    _write_csv(
        args.out,
        ["scale", "n", "clusters", "per_cluster", "m", "trials", "successes",
         "mean_seconds", "mean_l1"],
        rows,
        stamp=not stable,
    )
    base = points[0]
    last = points[-1]
    print(
        f"swept {len(points)} lengths: m {base.samples_used} -> {last.samples_used} "
        f"(x{last.samples_used / base.samples_used:.2f}), "
        f"time x{last.mean_seconds / base.mean_seconds:.2f}"
    )
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    plan = bench.plan_for_config(config)
    rho = config.rho
    f_min = min(plan.bin_counts)
    rho_b = f_min * rho
    d_chains = plan.chain_count
    n_samples = plan.per_cluster
    m2 = Constellation(rho).m2
    cluster_value, cluster_ok = metrics.prop1_bound(
        rho_b, n_samples, plan.c1, plan.n
    )
    rows = [
        ["zeroton", f"D={d_chains} gamma={plan.gamma}",
         repr(metrics.zeroton_bound(d_chains, plan.gamma))],
        ["singleton_miss", f"rho_b={rho_b} D={d_chains} gamma={plan.gamma}",
         repr(metrics.energy_tail_bound(rho_b, d_chains, plan.gamma))],
        ["kay_variance", f"rho_b={rho_b} N={n_samples}",
         repr(metrics.kay_variance(rho_b, n_samples))],
        ["cluster_miss", f"rho_b={rho_b} N={n_samples} c1={plan.c1} n={plan.n} "
         f"below_1_over_n3={cluster_ok}", repr(cluster_value)],
        ["value_error", f"rho_b={rho_b} D={d_chains} m2={m2}",
         repr(metrics.value_error_bound(rho_b, d_chains, m2))],
        ["multiton", f"rho_b={rho_b} D={d_chains} gamma={plan.gamma} n={plan.n} L=2",
         repr(metrics.multiton_bound(rho_b, d_chains, plan.gamma, plan.n, 2))],
    ]
    _write_csv(args.out, ["bound", "params", "value"], rows,
               stamp=not args.stable_output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Noiseless decode against the direct DFT oracle on every small preset."""
    names = sorted(
        name for name, p in PRESETS.items() if p.n <= oracle.ORACLE_MAX_N and p.scale == 1
    )
    # Scale 4 keeps the weakest grid magnitude above the unit-noise
    # energy gate in every stage; scale 1 would hide half the grid.
    constellation = Constellation(4.0)
    failures = 0
    checked = 0
    instance = 0
    for name in names:
        preset = PRESETS[name]
        k = max(1, min(args.k, int(preset.n ** (1.0 / 3.0))))
        plan = build_plan(name, k, seed=args.seed, gamma=args.gamma, c1=args.c1)
        for _ in range(args.trials):
            seed = args.seed ^ instance
            instance += 1
            truth = random_spectrum(plan.n, k, constellation, seed)
            if not oracle.noiseless_check(truth, plan):
                continue
            signal = synthesize(truth)
            bank = subsample_and_transform(signal, plan)
            decoded = decode(bank).spectrum
            reference = oracle.dense_dft(signal)
            report = oracle.compare_spectra(decoded, reference, tolerance=1e-9)
            checked += 1
            if not report.matched:
                failures += 1
                print(f"FAIL {name} k={k} seed={seed}: {report.detail}")
    print(f"verify: {checked - failures}/{checked} decodable instances matched")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _add_common(sub: argparse.ArgumentParser, *, seed_required: bool) -> None:
    sub.add_argument("--preset", default="paper-124950",
                     help="admissible length preset (see planner.PRESETS)")
    sub.add_argument("--k", type=int, default=40, help="number of nonzero coefficients")
    sub.add_argument("--snr-db", type=_parse_snr, default=5.0, dest="snr_db",
                     metavar="DB", help="SNR in dB, or 'inf' for noiseless")
    sub.add_argument("--clusters", type=int, default=None,
                     help="shift clusters C (default: planner's choice)")
    sub.add_argument("--per-cluster", type=int, default=None,
                     help="chains per cluster N (default: planner's choice)")
    sub.add_argument("--gamma", type=float, default=0.2,
                     help="energy-gate slack in (0, 1/3]")
    sub.add_argument("--c1", type=float, default=8.0,
                     help="refinement lock-in interval divisor")
    sub.add_argument("--trials", type=int, default=1)
    sub.add_argument("--seed", type=int, default=None if seed_required else 0,
                     help="base RNG seed" + (" (required)" if seed_required else ""))
    sub.add_argument("--random-phases", action="store_true", dest="random_phases",
                     help="draw coefficient phases uniformly instead of from the grid")
    sub.add_argument("--no-snap", action="store_false", dest="snap",
                     help="skip snapping fitted values to the constellation")
    sub.add_argument("--stable-output", action="store_true", dest="stable_output",
                     help="zero timing columns so output is byte-reproducible")
    sub.add_argument("--out", default=None, help="output path ('-' for stdout)")
    sub.add_argument("--config", default=None,
                     help="INI file whose [experiment] section overrides flags")
    sub.set_defaults(parser=sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffast",
        description="Sparse DFT from subsampled, noise-corrupted time samples.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan_p = commands.add_parser("plan", help="build and screen a subsampling plan")
    _add_common(plan_p, seed_required=False)
    plan_p.set_defaults(handler=cmd_plan)

    run_p = commands.add_parser("run", help="run seeded decode trials")
    _add_common(run_p, seed_required=True)
    run_p.set_defaults(handler=cmd_run)

    sweep_p = commands.add_parser("sweep", help="scaling study over stretched lengths")
    _add_common(sweep_p, seed_required=True)
    sweep_p.add_argument("--scales", type=_parse_scales,
                         default=list(range(1, 13)),
                         help="comma-separated length multipliers (default 1..12)")
    sweep_p.add_argument("--target-success", type=float, default=0.97,
                         dest="target_success")
    sweep_p.set_defaults(handler=cmd_sweep)

    bounds_p = commands.add_parser("bounds", help="tabulate error-event bounds")
    _add_common(bounds_p, seed_required=False)
    bounds_p.set_defaults(handler=cmd_bounds)

    verify_p = commands.add_parser("verify", help="check decodes against the DFT oracle")
    _add_common(verify_p, seed_required=False)
    verify_p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(args, args.config)
        if args.command in ("run", "sweep") and args.seed is None:
            raise PlanningError(f"{args.command} requires --seed")
        return args.handler(args)
    except (PlanningError, ValueError) as exc:
        if isinstance(exc, FormatError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
