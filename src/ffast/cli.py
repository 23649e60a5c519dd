"""Command-line harness.

Subcommands:

* plan    build and screen a subsampling plan, print its figures of merit
* run     Monte-Carlo decode trials, one CSV row per trial plus a summary
* sweep   scaling study over the stretched preset family
* bounds  tabulate the closed-form error-event bounds for a configuration
* verify  decode noiseless instances and compare against the direct DFT

Each subcommand registers only the flags its handler reads.  The flags
that name bench.ExperimentConfig fields build the one config a handler
passes on; fields without a flag keep their defaults.  A config file
(INI, [experiment] section) may set the same keys as the subcommand's
flags and overrides them, so a saved experiment beats whatever is on the
command line; any other key is a configuration error.

Exit codes: 0 success, 2 configuration error (an unknown flag too, from
argparse), 3 I/O error, 4 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from configparser import ConfigParser
from configparser import Error as ConfigParserError
from dataclasses import fields, replace

from . import bench, metrics, oracle
from .formats import CSV_HEADER, FormatError, write_plan
from .frontend import subsample_and_transform
from .peeling import decode
from .planner import C1, MU_CEILING, PRESETS, PlanningError, verify_incoherence
from .singleton import GAMMA
from .spectral import M2, Constellation, random_spectrum, synthesize

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
    for an on/off flag; a value that does not convert is a configuration
    error, and so is a file that is not UTF-8 INI (a key outside a
    section, a repeated key or section, a bad %-interpolation).  A
    missing or unreadable file is an I/O error.
    """
    cfg = ConfigParser()
    try:
        if not cfg.read(path, encoding="utf-8"):
            raise FormatError(f"unreadable config file {path}")
        if not cfg.has_section("experiment"):
            raise PlanningError(f"config file {path} lacks an [experiment] section")
        section = cfg["experiment"]
        entries = dict(section)  # interpolates every value
    except (ConfigParserError, UnicodeDecodeError) as exc:
        raise PlanningError(f"malformed config file {path}: {exc}") from None
    known = set(vars(args)) - _NOT_CONFIG_KEYS
    actions = {a.dest: a for a in args.parser._actions if a.dest in known}
    for name, raw in entries.items():
        key = name.replace("-", "_")
        action = actions.get(key)
        if action is None:
            raise PlanningError(
                f"config file {path}: unknown key {key!r} for '{args.command}'"
            )
        try:
            if action.nargs == 0:  # store_true / store_false: the key names the value
                value: object = section.getboolean(name)
            elif action.type is not None:
                value = action.type(raw)
            else:
                value = raw
        except ValueError as exc:
            raise PlanningError(f"config file {path}: bad value for {key!r}: {exc}") from None
        setattr(args, key, value)


_CONFIG_FIELDS = frozenset(f.name for f in fields(bench.ExperimentConfig))


def _experiment_config(args: argparse.Namespace) -> bench.ExperimentConfig:
    """The config named by the subcommand's flags; other fields keep their defaults."""
    return bench.ExperimentConfig(
        **{key: value for key, value in vars(args).items() if key in _CONFIG_FIELDS}
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
    plan = bench.plan_for_config(_experiment_config(args))
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
    if report.bound > MU_CEILING:
        print("             bound >= 1 and no mu exceeds 1: every shift draw passes")
    # chains whose shifts agree mod a stage's period read the same samples there
    distinct = "/".join(str(len({r % p for r in plan.shifts})) for p in plan.periods)
    print(f"distinct     {distinct} of D={plan.chain_count} chains per stage read distinct samples")
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
    m = result.plan.sample_count
    rows.append(["summary", config.seed, result.successes, repr(result.l1_error_mean), m,
                 0 if stable else result.micros, config.trials])
    _write_csv(
        args.out,
        ["trial", "seed", "success", "l1", "m", "micros_frontend", "micros_decode"],
        rows,
        stamp=not stable,
    )
    print(
        f"{result.successes}/{config.trials} trials recovered the support "
        f"(rate {result.successes / config.trials:.3f}, "
        f"mean l1 {result.l1_error_mean:.4g}, m={m})"
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    results = bench.auto_sweep(args.scales, _experiment_config(args))
    stable = args.stable_output
    # front end plus decoder seconds per trial, at each scale
    seconds = [r.micros / len(r.rows) / 1e6 for r in results]
    rows = [
        [scale, r.plan.n, r.config.clusters, r.config.per_cluster, r.plan.sample_count,
         r.config.trials, r.successes, repr(0.0 if stable else t), repr(r.l1_error_mean)]
        for scale, r, t in zip(args.scales, results, seconds)
    ]
    _write_csv(
        args.out,
        ["scale", "n", "clusters", "per_cluster", "m", "trials", "successes",
         "mean_seconds", "mean_l1"],
        rows,
        stamp=not stable,
    )
    m_base = results[0].plan.sample_count
    m_last = results[-1].plan.sample_count
    summary = f"swept {len(results)} lengths: m {m_base} -> {m_last} (x{m_last / m_base:.2f})"
    if not stable:
        summary += f", time x{seconds[-1] / seconds[0]:.2f}"
    print(summary)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    if config.snr_db is None:
        raise PlanningError("bounds need a finite SNR; --snr-db inf has no noise to bound")
    plan = bench.plan_for_config(config)
    rho = config.rho
    f_min = min(plan.bin_counts)
    rho_b = f_min * rho
    if not GAMMA < rho_b:
        raise PlanningError(
            f"bounds need gamma < per-bin SNR rho_b; got gamma={GAMMA}, rho_b={rho_b:.6g}"
        )
    d_chains = plan.chain_count
    n_samples = plan.per_cluster
    cluster_value, cluster_ok = metrics.prop1_bound(rho_b, n_samples, C1, plan.n)
    rows = [
        ["zeroton", f"D={d_chains} gamma={GAMMA}",
         repr(metrics.zeroton_bound(d_chains, GAMMA))],
        ["singleton_miss", f"rho_b={rho_b} D={d_chains} gamma={GAMMA}",
         repr(metrics.energy_tail_bound(rho_b, d_chains, GAMMA))],
        ["kay_variance", f"rho_b={rho_b} N={n_samples}",
         repr(metrics.kay_variance(rho_b, n_samples))],
        ["cluster_miss", f"rho_b={rho_b} N={n_samples} c1={C1} n={plan.n} "
         f"below_1_over_n3={cluster_ok}", repr(cluster_value)],
        ["value_error", f"rho_b={rho_b} D={d_chains} m2={M2}",
         repr(metrics.value_error_bound(rho_b, d_chains, M2))],
        ["multiton", f"rho_b={rho_b} D={d_chains} gamma={GAMMA} n={plan.n} L=2",
         repr(metrics.multiton_bound(rho_b, d_chains, GAMMA, plan.n, 2))],
    ]
    _write_csv(args.out, ["bound", "params", "value"], rows,
               stamp=not args.stable_output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Noiseless decode against the direct DFT oracle on every small preset."""
    config = _experiment_config(args)
    names = sorted(name for name, p in PRESETS.items() if p.n <= oracle.ORACLE_MAX_N)
    constellation = Constellation(replace(config, snr_db=None).rho)
    failures = 0
    checked = 0
    instance = 0
    for name in names:
        preset = PRESETS[name]
        k = max(1, min(config.k, int(preset.n ** (1.0 / 3.0))))
        plan = bench.plan_for_config(replace(config, preset=name, k=k))
        for _ in range(config.trials):
            seed = config.seed ^ instance
            instance += 1
            truth = random_spectrum(plan.n, k, constellation, seed)
            if not oracle.noiseless_check(truth, plan):
                continue
            signal = synthesize(truth)
            bank = subsample_and_transform(signal, plan)
            decoded = decode(bank).spectrum
            reference = oracle.dense_dft(signal.clean)
            report = oracle.compare_spectra(decoded, reference, tolerance=1e-9)
            checked += 1
            if not report.matched:
                failures += 1
                print(f"FAIL {name} k={k} seed={seed}: {report.detail}")
    print(f"verify: {checked - failures}/{checked} decodable instances matched")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# Every flag, keyed by its dest.  A subcommand registers those its
# handler reads, so a flag it would ignore is an argparse error instead.
_FLAGS: dict[str, tuple[str, dict]] = {
    "preset": ("--preset", dict(default="paper-124950",
                                help="admissible length preset (see planner.PRESETS)")),
    "k": ("--k", dict(type=int, default=40, help="number of nonzero coefficients")),
    "snr_db": ("--snr-db", dict(type=_parse_snr, default=5.0, metavar="DB",
                                help="SNR in dB, or 'inf' for noiseless")),
    "clusters": ("--clusters", dict(type=int, default=None,
                                    help="shift clusters C (default: planner's choice)")),
    "per_cluster": ("--per-cluster", dict(
        type=int, default=None, help="chains per cluster N (default: planner's choice)")),
    "trials": ("--trials", dict(type=int, default=1)),
    "seed": ("--seed", dict(type=int, default=0, help="base RNG seed")),
    "random_phases": ("--random-phases", dict(
        action="store_true",
        help="draw coefficient phases uniformly instead of from the grid, "
             "and keep fitted values unsnapped")),
    "stable_output": ("--stable-output", dict(
        action="store_true",
        help="zero timing columns and print no timing figure, so output is byte-reproducible")),
    "out": ("--out", dict(default=None, help="output path ('-' for stdout)")),
    "scales": ("--scales", dict(type=_parse_scales, default=list(range(1, 13)),
                                help="comma-separated length multipliers (default 1..12)")),
}


def _add_command(
    commands, name: str, handler, summary: str, flags: tuple[str, ...], *,
    seed_required: bool = False,
) -> None:
    sub = commands.add_parser(name, help=summary)
    for dest in flags:
        flag, options = _FLAGS[dest]
        if dest == "seed" and seed_required:
            options = dict(options, default=None, help="base RNG seed (required)")
        sub.add_argument(flag, dest=dest, **options)
    sub.add_argument("--config", default=None,
                     help="INI file whose [experiment] section overrides flags")
    sub.set_defaults(handler=handler, parser=sub)


_PLAN_FLAGS = ("preset", "k", "clusters", "per_cluster", "seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffast",
        description="Sparse DFT from subsampled, noise-corrupted time samples.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_command(commands, "plan", cmd_plan, "build and screen a subsampling plan",
                 (*_PLAN_FLAGS, "out"))
    _add_command(commands, "run", cmd_run, "run seeded decode trials",
                 (*_PLAN_FLAGS, "snr_db", "trials", "random_phases", "stable_output", "out"),
                 seed_required=True)
    _add_command(commands, "sweep", cmd_sweep, "scaling study over stretched lengths",
                 ("k", "snr_db", "per_cluster", "trials", "seed", "random_phases",
                  "stable_output", "out", "scales"),
                 seed_required=True)
    _add_command(commands, "bounds", cmd_bounds, "tabulate error-event bounds",
                 (*_PLAN_FLAGS, "snr_db", "stable_output", "out"))
    _add_command(commands, "verify", cmd_verify, "check decodes against the DFT oracle",
                 ("k", "trials", "seed"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(args, args.config)
        if args.seed is None:
            raise PlanningError(f"{args.command} requires --seed")
        return args.handler(args)
    except PlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
