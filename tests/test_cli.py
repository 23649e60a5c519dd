"""Command-line harness tests, run in-process through cli.main()."""
import argparse
import csv
from configparser import ConfigParser

import pytest

from ffast import bench, cli, metrics
from ffast.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main
from ffast.formats import CSV_HEADER
from ffast.planner import build_plan
from ffast.singleton import GAMMA


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    rows = list(csv.reader(data))
    return rows[0], rows[1:]


class TestPlanCommand:
    def test_prints_figures_of_merit(self, capsys):
        code = main(["plan", "--preset", "paper-20", "--k", "2", "--seed", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "n            20" in out
        assert "mu_max" in out
        assert "samples m" in out

    @pytest.mark.parametrize("argv,distinct", [
        (["--preset", "n4845", "--k", "170"], "18/14/16 of D=44"),
        (["--preset", "paper-124950", "--k", "40", "--clusters", "12", "--per-cluster", "3"],
         "36/36/36 of D=36"),
    ])
    def test_prints_the_chains_reading_distinct_samples_per_stage(self, argv, distinct, capsys):
        """Chains whose shifts agree mod a stage's period read the same
        samples there; n4845's periods 19/15/17 hold fewer than its 44."""
        assert main(["plan", *argv, "--seed", "20260817"]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"distinct     {distinct} chains per stage read distinct samples" in out

    @pytest.mark.parametrize("preset,k,vacuous", [("n504", 4, True), ("n4845", 170, False)])
    def test_says_when_every_draw_passes(self, preset, k, vacuous, capsys):
        """n504's bound is 1.40, above any mu; n4845's is 0.96."""
        assert main(["plan", "--preset", preset, "--k", str(k)]) == EXIT_OK
        out = capsys.readouterr().out
        assert ("bound >= 1 and no mu exceeds 1: every shift draw passes" in out) == vacuous

    def test_written_plan_round_trips(self, tmp_path, capsys):
        out = tmp_path / "plan.ini"
        code = main(["plan", "--preset", "n504", "--k", "4", "--seed", "17",
                     "--out", str(out)])
        assert code == EXIT_OK
        plan = build_plan("n504", 4, seed=17)
        ini = ConfigParser()
        ini.read(out, encoding="utf-8")
        assert dict(ini["plan"]) == {"n": str(plan.n), "base": str(plan.base),
                                     "clusters": str(plan.clusters),
                                     "per_cluster": str(plan.per_cluster)}
        assert ini["delays"]["shifts"].split() == [str(r) for r in plan.shifts]
        stages = [s for s in ini.sections() if s.startswith("stage ")]
        assert stages == [f"stage {i}" for i in range(plan.d)]
        for name, f, period in zip(stages, plan.bin_counts, plan.periods):
            assert dict(ini[name]) == {"bins": str(f), "period": str(period)}

    def test_unknown_preset_is_a_config_error(self, capsys):
        code = main(["plan", "--preset", "n1000000", "--k", "2"])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_noiseless_trials_recover_support(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["run", "--preset", "paper-20", "--k", "2",
                     "--snr-db", "inf", "--trials", "2", "--seed", "5",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "2/2 trials recovered the support" in capsys.readouterr().out
        header, body = _read_rows(out)
        assert header == ["trial", "seed", "success", "l1", "m",
                          "micros_frontend", "micros_decode"]
        assert len(body) == 3  # two trial rows plus the summary
        assert body[-1][0] == "summary"
        assert [row[2] for row in body[:-1]] == ["1", "1"]

    def test_seed_is_required(self, capsys):
        code = main(["run", "--preset", "paper-20", "--k", "2", "--trials", "1"])
        assert code == EXIT_CONFIG
        assert "requires --seed" in capsys.readouterr().err

    def test_stable_output_is_byte_reproducible(self, tmp_path, capsys):
        args = ["run", "--preset", "paper-20", "--k", "2", "--snr-db", "inf",
                "--trials", "2", "--seed", "5", "--stable-output"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_supplies_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\n"
            "preset = paper-20\n"
            "k = 2\n"
            "snr_db = noiseless\n"
            "trials = 2\n"
            "seed = 5\n"
            "stable_output = true\n",
            encoding="utf-8",
        )
        from_cfg = tmp_path / "cfg.csv"
        # config seed satisfies the --seed requirement; config trials beat the flag
        code = main(["run", "--config", str(cfg), "--trials", "9",
                     "--out", str(from_cfg)])
        assert code == EXIT_OK
        from_flags = tmp_path / "flags.csv"
        main(["run", "--preset", "paper-20", "--k", "2", "--snr-db", "inf",
              "--trials", "2", "--seed", "5", "--stable-output",
              "--out", str(from_flags)])
        assert from_cfg.read_bytes() == from_flags.read_bytes()

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        code = main(["run", "--preset", "paper-20", "--k", "2",
                     "--snr-db", "inf", "--trials", "1", "--seed", "5",
                     "--out", str(tmp_path / "missing" / "run.csv")])
        assert code == EXIT_IO
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_two_point_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--scales", "1,2", "--k", "8", "--trials", "2",
                     "--seed", "1", "--stable-output", "--out", str(out)])
        assert code == EXIT_OK
        header, body = _read_rows(out)
        assert header[:2] == ["scale", "n"]
        assert [int(r[0]) for r in body] == [1, 2]
        assert int(body[0][1]) == 124950 and int(body[1][1]) == 2 * 124950
        # sample budget must not shrink as the length doubles
        assert int(body[1][4]) >= int(body[0][4])
        assert "swept 2 lengths" in capsys.readouterr().out

    def test_stable_output_stdout_is_byte_identical(self, capsys):
        """With the CSV on stdout, two runs print the same bytes: no
        wall-clock figure reaches stdout under --stable-output."""
        argv = ["sweep", "--scales", "1,2", "--k", "8", "--trials", "2", "--seed", "1",
                "--stable-output"]
        outputs = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]
        assert b"swept 2 lengths" in outputs[0] and b"time x" not in outputs[0]

    def test_config_file_supplies_trials(self, tmp_path, capsys):
        """An INI value is converted by its flag's type, so trials
        arrives as an int, the same as --trials."""
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[experiment]\n"
            "scales = 1\n"
            "trials = 2\n"
            "stable_output = true\n",
            encoding="utf-8",
        )
        common = ["sweep", "--k", "8", "--seed", "1"]
        from_cfg, from_flags = tmp_path / "cfg.csv", tmp_path / "flags.csv"
        assert main(common + ["--config", str(cfg), "--out", str(from_cfg)]) == EXIT_OK
        assert main(common + ["--scales", "1", "--trials", "2",
                              "--stable-output", "--out", str(from_flags)]) == EXIT_OK
        assert from_cfg.read_bytes() == from_flags.read_bytes()

    def test_snr_db_inf_sweeps_noiseless(self, tmp_path, capsys, monkeypatch):
        """--snr-db inf reaches every trial as noiseless, not as 5 dB, and
        --random-phases reaches every trial too, with snapping off.

        With snapping both sweeps recover all trials exactly (l1 = 0) at
        the first cluster count, so their CSVs agree; the difference is
        in what the trials ran.
        """
        ran = []
        run_experiment = bench.run_experiment

        def spy(config):
            ran.append((config.snr_db, config.snap, config.random_phases))
            return run_experiment(config)

        monkeypatch.setattr(bench, "run_experiment", spy)
        common = ["sweep", "--scales", "1", "--k", "8", "--trials", "2", "--seed", "1",
                  "--stable-output"]
        noiseless, noisy = tmp_path / "inf.csv", tmp_path / "5.csv"
        assert main(common + ["--snr-db", "inf", "--out", str(noiseless)]) == EXIT_OK
        assert ran == [(None, True, False)]
        assert main(common + ["--snr-db", "5", "--out", str(noisy)]) == EXIT_OK
        assert ran[1:] == [(5.0, True, False)]
        assert main(common + ["--snr-db", "5", "--random-phases",
                              "--out", str(tmp_path / "raw.csv")]) == EXIT_OK
        assert set(ran[2:]) == {(5.0, False, True)}
        _, body = _read_rows(noiseless)
        assert body[0][5:7] == ["2", "2"] and float(body[0][8]) == 0.0

    def test_empty_scales_rejected(self, capsys):
        code = main(["sweep", "--scales", "", "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "nonempty scale list" in capsys.readouterr().err


# Each subcommand's flag dests, pinned so that a flag its handler does
# not read cannot be registered unnoticed.
FLAG_DESTS = {
    "bounds": ["clusters", "config", "k", "out", "per_cluster", "preset", "seed",
               "snr_db", "stable_output"],
    "plan": ["clusters", "config", "k", "out", "per_cluster", "preset", "seed"],
    "run": ["clusters", "config", "k", "out", "per_cluster", "preset",
            "random_phases", "seed", "snr_db", "stable_output", "trials"],
    "sweep": ["config", "k", "out", "per_cluster", "random_phases", "scales", "seed",
              "snr_db", "stable_output", "trials"],
    "verify": ["config", "k", "seed", "trials"],
}


def test_each_subcommand_registers_only_the_flags_it_reads():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    registered = {
        name: sorted(a.dest for a in sub._actions if a.dest != "help")
        for name, sub in commands.choices.items()
    }
    assert registered == FLAG_DESTS


class TestErrors:
    @pytest.mark.parametrize("command, key", [
        ("run", "snr"), ("plan", "trials"), ("sweep", "clusters"),
        ("bounds", "snap"), ("verify", "preset"),
        ("run", "snap"), ("sweep", "snap"),
        ("plan", "gamma"), ("verify", "c1"), ("sweep", "target_success"),
    ])
    def test_unknown_config_key_is_a_config_error(self, command, key, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\n{key} = inf\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(cfg), "--seed", "5"]
        if "out" in FLAG_DESTS[command]:
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["plan", "--trials", "3"],
        ["sweep", "--seed", "1", "--clusters", "12"],
        ["bounds", "--no-snap"],
        ["run", "--seed", "1", "--no-snap"],
        ["verify", "--preset", "n504"],
        ["plan", "--preset", "paper-20", "--k", "2", "--gamma", "0.5"],
        ["sweep", "--scales", "1", "--seed", "1", "--target-success", "nan"],
    ])
    def test_flag_a_subcommand_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["plan", "--preset", "paper-20", "--k", "21"],
        ["bounds", "--preset", "paper-20", "--k", "2", "--snr-db", "-20"],
        ["run", "--preset", "paper-20", "--k", "2", "--seed", "1", "--snr-db", "nan"],
        ["sweep", "--scales", "1", "--seed", "1", "--trials", "0"],
        # k = n, where a three-factor preset's d = 1/(1 - delta) diverges
        ["plan", "--preset", "n504", "--k", "504"],
        ["run", "--preset", "n504", "--k", "504", "--seed", "1"],
        ["bounds", "--preset", "n504", "--k", "504"],
    ])
    def test_bad_flag_values_are_config_errors(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--per-cluster", "1"], "per_cluster must be at least 2, got 1"),
        (["--clusters", "0"], "clusters must be at least 1, got 0"),
        (["--clusters", "-3"], "clusters must be at least 1, got -3"),
    ])
    def test_invalid_cluster_settings_are_config_errors(self, flags, message, capsys):
        """Only a PlanningError becomes exit 2; any other ValueError propagates."""
        argv = ["plan", "--preset", "n504", "--k", "4", "--seed", "1", *flags]
        assert main(argv) == EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err

    def test_bounds_need_a_finite_snr(self, tmp_path, capsys):
        """Noiseless runs use rho = 4 as a value scale; it is not an SNR
        that the error-event bounds could be taken at."""
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--snr-db", "inf", "--out", str(out)]) == EXIT_CONFIG
        assert "bounds need a finite SNR" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["k = abc", "snr_db = loud", "random_phases = maybe"])
    def test_unconvertible_config_value_is_a_config_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\n{line}\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--seed", "1"]) == EXIT_CONFIG
        assert "bad value for" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        b"k = 3\n[experiment]\n",
        b"[experiment]\nk = 3\nk = 4\n",
        b"[experiment]\nk = 3\n[experiment]\nseed = 2\n",
        b"[experiment]\npreset = n\xe9504\n",
        b"[experiment]\npreset = %(x)s\n",
    ], ids=["no-section-header", "repeated-key", "repeated-section", "not-utf8",
            "interpolation"])
    def test_malformed_config_file_is_a_config_error(self, body, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(body)
        assert main(["plan", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"malformed config file {cfg}" in capsys.readouterr().err

    def test_missing_config_file_is_an_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "absent.ini"
        assert main(["plan", "--config", str(cfg)]) == EXIT_IO
        assert f"unreadable config file {cfg}" in capsys.readouterr().err

    def test_unexpected_value_error_propagates(self, monkeypatch):
        def broken(args):
            raise ValueError("a bug, not a configuration error")

        monkeypatch.setattr(cli, "cmd_plan", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["plan", "--preset", "paper-20", "--k", "2"])


class TestBoundsCommand:
    def test_values_match_the_library(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--preset", "paper-20", "--k", "2",
                     "--stable-output", "--out", str(out)])
        assert code == EXIT_OK
        header, body = _read_rows(out)
        assert header == ["bound", "params", "value"]
        table = {row[0]: float(row[2]) for row in body}
        assert len(table) >= 3
        config = bench.ExperimentConfig(preset="paper-20", k=2)
        plan = bench.plan_for_config(config)
        rho_b = min(plan.bin_counts) * config.rho
        assert table["zeroton"] == metrics.zeroton_bound(plan.chain_count, GAMMA)
        assert table["singleton_miss"] == metrics.energy_tail_bound(
            rho_b, plan.chain_count, GAMMA
        )
        assert table["kay_variance"] == metrics.kay_variance(rho_b, plan.per_cluster)


class TestVerifyCommand:
    def test_small_presets_match_the_oracle(self, capsys):
        code = main(["verify", "--k", "2", "--trials", "1", "--seed", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "verify:" in out
        assert "FAIL" not in out
