"""Command-line harness tests, run in-process through cli.main()."""
import csv

import pytest

from ffast import bench, metrics
from ffast.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main
from ffast.formats import CSV_HEADER, read_plan
from ffast.planner import build_plan


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

    def test_written_plan_round_trips(self, tmp_path, capsys):
        out = tmp_path / "plan.ini"
        code = main(["plan", "--preset", "n504", "--k", "4", "--seed", "17",
                     "--out", str(out)])
        assert code == EXIT_OK
        expected = build_plan("n504", 4, seed=17)
        assert read_plan(out) == expected

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

    def test_unknown_config_key_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nsnr = inf\n", encoding="utf-8")
        code = main(["run", "--config", str(cfg), "--preset", "paper-20",
                     "--k", "2", "--seed", "5", "--out", str(tmp_path / "run.csv")])
        assert code == EXIT_CONFIG
        assert "unknown key 'snr'" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

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

    def test_config_file_supplies_target_success(self, tmp_path, capsys):
        """An INI value is converted by its flag's type, so target_success
        arrives as a float, the same as --target-success."""
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[experiment]\n"
            "scales = 1\n"
            "target_success = 0.5\n"
            "stable_output = true\n",
            encoding="utf-8",
        )
        common = ["sweep", "--k", "8", "--trials", "2", "--seed", "1"]
        from_cfg, from_flags = tmp_path / "cfg.csv", tmp_path / "flags.csv"
        assert main(common + ["--config", str(cfg), "--out", str(from_cfg)]) == EXIT_OK
        assert main(common + ["--scales", "1", "--target-success", "0.5",
                              "--stable-output", "--out", str(from_flags)]) == EXIT_OK
        assert from_cfg.read_bytes() == from_flags.read_bytes()

    def test_empty_scales_rejected(self, capsys):
        code = main(["sweep", "--scales", "", "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "nonempty scale list" in capsys.readouterr().err


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
        assert table["zeroton"] == metrics.zeroton_bound(plan.chain_count, plan.gamma)
        assert table["singleton_miss"] == metrics.energy_tail_bound(
            rho_b, plan.chain_count, plan.gamma
        )
        assert table["kay_variance"] == metrics.kay_variance(rho_b, plan.per_cluster)


class TestVerifyCommand:
    def test_small_presets_match_the_oracle(self, capsys):
        code = main(["verify", "--k", "2", "--trials", "1", "--seed", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "verify:" in out
        assert "FAIL" not in out
