import contextlib
import csv
import datetime as dt
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbmfolio
from gbmfolio import cli
from gbmfolio.cli import main
from gbmfolio.config import SETTINGS, RunConfig
from gbmfolio.evaluation import HorizonResult
from gbmfolio.market_data import load_csv, slice_period
from gbmfolio.stats import asset_stats
from gbmfolio.synthetic import make_universe, weekday_range


@pytest.fixture(scope="module")
def universe_dir(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("data")
    make_universe(data_dir, n_assets=6, seed=21)
    return data_dir


def run(data_dir, out_dir, *args):
    return main(["--data-dir", str(data_dir), "--out-dir", str(out_dir), *args])


def run_child(*argv, **env):
    """A child interpreter run on argv, with this gbmfolio importable and `env` set."""
    env = dict(os.environ, PYTHONPATH=str(Path(gbmfolio.__file__).resolve().parents[1]), **env)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def run_process(*args, **env):
    """The CLI in a child interpreter: (exit code, stderr)."""
    proc = run_child("-m", "gbmfolio.cli", *args, **env)
    return proc.returncode, proc.stderr


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestStats:
    def test_rows_match_library_stats(self, universe_dir, tmp_path):
        assert run(universe_dir, tmp_path, "stats", "SYN00", "SYN01") == 0
        rows = read_rows(tmp_path / "stats.csv")
        assert [r["ticker"] for r in rows] == ["SYN00", "SYN01"]
        series = slice_period(
            load_csv(universe_dir / "SYN00.csv", "SYN00"),
            dt.date(2016, 1, 1),
            dt.date(2018, 12, 31),
        )
        expected = asset_stats(series, 0.019)
        assert float(rows[0]["return_annual"]) == pytest.approx(expected.return_annual, rel=1e-9)
        assert float(rows[0]["risk_annual"]) == pytest.approx(expected.risk_annual, rel=1e-9)
        assert float(rows[0]["sharpe"]) == pytest.approx(expected.sharpe, rel=1e-9)

    def test_zero_risk_asset_marked_na(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        with open(data / "FLAT.csv", "w") as fh:
            fh.write("Date,Adj Close\n")
            d = dt.date(2016, 1, 4)
            for _ in range(40):
                if d.weekday() < 5:
                    fh.write(f"{d},10.0\n")
                d += dt.timedelta(days=1)
        assert run(data, tmp_path / "out", "stats", "FLAT") == 0
        rows = read_rows(tmp_path / "out" / "stats.csv")
        assert rows[0]["sharpe"] == "NA"

    def test_empty_ticker_list(self, universe_dir, tmp_path):
        # no tickers means the whole universe, byte for byte as report writes it
        assert run(universe_dir, tmp_path / "stats", "stats") == 0
        flags = ("--group-count", "3", "--group-size", "2", "--paths", "10", "--trials", "5")
        assert run(universe_dir, tmp_path / "report", *flags, "report") == 0
        for name in ("stats.csv", "stats.txt"):
            stats = (tmp_path / "stats" / name).read_bytes()
            assert stats == (tmp_path / "report" / name).read_bytes()
        tickers = [r["ticker"] for r in read_rows(tmp_path / "stats" / "stats.csv")]
        assert tickers == sorted(p.stem for p in universe_dir.glob("*.csv"))

    def test_a_failed_run_leaves_no_out_dir(self, tmp_path):
        out_dir = tmp_path / "out"
        assert run(tmp_path / "nonexistent", out_dir, "stats") == 2
        assert not out_dir.exists()

    def test_missing_ticker_is_data_error(self, universe_dir, tmp_path):
        assert run(universe_dir, tmp_path, "stats", "NOPE") == 2

    def test_repeated_ticker_is_usage_error(self, universe_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(universe_dir, tmp_path, "stats", "SYN00", "SYN01", "SYN00")
        assert exc.value.code == 1
        assert "more than once" in capsys.readouterr().err
        assert not (tmp_path / "stats.csv").exists()


class TestGroup:
    def test_return_groups_descending(self, universe_dir, tmp_path):
        rc = run(
            universe_dir, tmp_path, "--group-count", "6", "--group-size", "1",
            "group", "--metric", "return",
        )
        assert rc == 0
        rows = read_rows(tmp_path / "groups_return.csv")
        assert len(rows) == 6
        assert [r["group"] for r in rows] == [str(i) for i in range(1, 7)]

    def test_sharpe_weights_sum_to_one(self, universe_dir, tmp_path):
        rc = run(
            universe_dir, tmp_path, "--group-count", "3", "--group-size", "2",
            "--trials", "1", "group", "--metric", "sharpe",
        )
        assert rc == 0
        rows = read_rows(tmp_path / "weights_sharpe.csv")
        by_group = {}
        for r in rows:
            by_group.setdefault(r["group"], []).append(float(r["weight"]))
        assert set(by_group) == {"1", "2", "3"}
        for weights in by_group.values():
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_divisibility_failure(self, universe_dir, tmp_path):
        rc = run(
            universe_dir, tmp_path, "--group-count", "4", "--group-size", "2",
            "group", "--metric", "risk",
        )
        assert rc == 2


class TestSimulate:
    def test_single_ticker_outputs(self, universe_dir, tmp_path):
        rc = run(
            universe_dir, tmp_path, "--paths", "50", "simulate", "--subject", "SYN02"
        )
        assert rc == 0
        report = read_rows(tmp_path / "report_SYN02.csv")
        assert [r["horizon"] for r in report] == ["1w", "2w", "1m", "6m", "1y"]
        env = read_rows(tmp_path / "envelope_SYN02.csv")
        assert len(env) == 248  # day 0 plus the 1y horizon
        assert env[0]["day_index"] == "0"
        assert float(env[0]["actual"]) == float(env[0]["mean"])

    def test_envelope_rows_format_the_band(self, universe_dir, tmp_path, monkeypatch):
        # a row per day: its index and ISO date, then actual, mean, q05 and q95 to 12 digits
        forecasts = {}
        forecast = cli.Run.forecast

        def keep(run, subject):
            forecasts[subject] = forecast(run, subject)
            return forecasts[subject]

        monkeypatch.setattr(cli.Run, "forecast", keep)
        assert run(universe_dir, tmp_path, "--paths", "50", "simulate", "--subject", "SYN02") == 0
        _, band, actual = forecasts["SYN02"]
        columns = zip(actual.dates, actual.prices, *band)
        expected = ["day_index,date,actual,mean,q05,q95\n"] + [
            f"{k},{day.isoformat()},{price:.12g},{mean:.12g},{lower:.12g},{upper:.12g}\n"
            for k, (day, price, mean, lower, upper) in enumerate(columns)
        ]
        with open(tmp_path / "envelope_SYN02.csv", newline="") as fh:
            assert fh.readlines() == expected

    def test_group_subject(self, universe_dir, tmp_path):
        rc = run(
            universe_dir, tmp_path, "--group-count", "3", "--group-size", "2",
            "--paths", "50", "--trials", "20", "simulate", "--subject", "sharpe-2",
        )
        assert rc == 0
        assert (tmp_path / "report_sharpe-2.csv").exists()
        assert (tmp_path / "envelope_sharpe-2.csv").exists()

    def test_all_emits_summary_with_mean_row(self, universe_dir, tmp_path):
        rc = run(
            universe_dir, tmp_path, "--group-count", "3", "--group-size", "2",
            "--paths", "30", "--trials", "20", "simulate", "--subject", "all",
        )
        assert rc == 0
        rows = read_rows(tmp_path / "summary.csv")
        subjects = {r["subject"] for r in rows}
        # 6 tickers + 9 groups + the final mean rows
        assert {"SYN00", "return-1", "risk-3", "sharpe-2", "MEAN"} <= subjects
        mean_rows = [r for r in rows if r["subject"] == "MEAN"]
        assert [r["horizon"] for r in mean_rows] == ["1w", "2w", "1m", "6m", "1y"]

    def test_the_mean_row_skips_a_subject_without_correlation(self):
        reports = [
            (
                HorizonResult("1w", 5, 0.5, 0.25, "reasonable"),
                HorizonResult("1m", 21, 0.25, 0.125, "good"),
            ),
            (
                HorizonResult("1w", 5, None, 0.75, "imprecise"),
                HorizonResult("1m", 21, 0.75, 0.375, "reasonable"),
            ),
        ]
        rows = cli._summary_rows(["A", "B"], reports)
        assert rows == [
            ("A", "1w", 5, 0.5, 0.25, "reasonable"),
            ("A", "1m", 21, 0.25, 0.125, "good"),
            ("B", "1w", 5, None, 0.75, "imprecise"),
            ("B", "1m", 21, 0.75, 0.375, "reasonable"),
            ("MEAN", "1w", 5, 0.5, 0.5, ""),
            ("MEAN", "1m", 21, 0.5, 0.25, ""),
        ]
        assert {len(row) for row in rows} == {len(cli.REPORT_COLUMNS) + 1}

    def test_roundtrip_precision(self, universe_dir, tmp_path):
        run(universe_dir, tmp_path, "--paths", "50", "simulate", "--subject", "SYN03")
        rows = read_rows(tmp_path / "report_SYN03.csv")
        for r in rows:
            v = float(r["mape"])
            assert abs(v - float(f"{v:.12g}")) <= 1e-9 * max(1.0, abs(v))

    def test_deterministic_reruns_byte_identical(self, universe_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = run(
                universe_dir, out, "--seed", "5", "--paths", "40",
                "simulate", "--subject", "SYN01",
            )
            assert rc == 0
        for name in ("report_SYN01.csv", "envelope_SYN01.csv", "run_manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize(
        "command", [("simulate", "--subject", "SYN04"), ("report",)], ids=["simulate", "report"]
    )
    def test_manifest_hashes_match_files(self, universe_dir, tmp_path, command):
        import hashlib

        flags = ("--group-count", "2", "--group-size", "3", "--paths", "30", "--trials", "20")
        assert run(universe_dir, tmp_path, *flags, *command) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert set(manifest["files"]) == {p.name for p in tmp_path.iterdir()} - {
            "run_manifest.json"
        }
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_insufficient_evaluation_data(self, universe_dir, tmp_path, capsys):
        # 2019-01-01..2019-03-01 holds 44 weekdays, fewer than the default 1y horizon
        for route in ("flag", "config"):
            argv, suffix = settings_argv(tmp_path, {"evaluation_end": "2019-03-01"}, route)
            out = tmp_path / route
            rc = run(universe_dir, out, *argv, "--paths", "10", "simulate", "--subject", "SYN00")
            assert rc == 2
            assert capsys.readouterr().err == (
                "data error: SYN00: evaluation_start..evaluation_end (2019-01-01..2019-03-01)"
                f" holds 44 trading days, fewer than the longest horizon (1y, 247 days){suffix}\n"
            )
            assert not out.exists()

    def test_an_overflowing_return_is_a_numeric_error(self, tmp_path):
        # the price ratios are 1e600 and 1e-600: log returns of inf and -inf
        data_dir, out_dir = tmp_path / "data", tmp_path / "out"
        data_dir.mkdir()
        days = weekday_range(dt.date(2016, 1, 4), dt.date(2019, 12, 30))
        prices = [1e300 if i % 2 else 1e-300 for i in range(len(days))]
        (data_dir / "EXT.csv").write_text(
            "Date,Adj Close\n" + "".join(f"{d},{p}\n" for d, p in zip(days, prices))
        )
        for filters in ("", "error::RuntimeWarning"):
            rc, stderr = run_process(
                "--data-dir", str(data_dir), "--out-dir", str(out_dir), "stats",
                PYTHONWARNINGS=filters,
            )
            assert (rc, stderr) == (
                3, "numeric error: EXT: return or risk is not finite (price ratio overflow)\n"
            ), filters
            assert not out_dir.exists()

    def test_overflowing_forecast_exits_3(self, tmp_path):
        # log-linear from 1e-300 to 1e300 over 2016-2018: the ensemble overflows
        data_dir, out_dir = tmp_path / "data", tmp_path / "out"
        data_dir.mkdir()
        days = weekday_range(dt.date(2016, 1, 4), dt.date(2019, 12, 30))
        n_calibration = sum(d.year <= 2018 for d in days)
        climb = np.exp(np.linspace(np.log(1e-300), np.log(1e300), n_calibration)).tolist()
        prices = climb + [1e300] * (len(days) - n_calibration)
        (data_dir / "BOOM.csv").write_text(
            "Date,Adj Close\n" + "".join(f"{d.isoformat()},{p!r}\n" for d, p in zip(days, prices))
        )
        rc, stderr = run_process(
            "--data-dir", str(data_dir), "--out-dir", str(out_dir), "--paths", "50",
            "simulate", "--subject", "BOOM",
        )
        assert rc == 3
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1].startswith("numeric error: ")
        assert len(stderr.splitlines()) == 1, stderr  # no NumPy RuntimeWarning lines
        assert not (out_dir / "report_BOOM.csv").exists()


class TestUsageAndConfig:
    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_metric_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["group", "--metric", "beta"])
        assert exc.value.code == 1

    def test_config_file_with_flag_override(self, universe_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "risk_free = 0.05\nn_paths = 25\n# comment\nhorizons = 1w:5,2w:10\n"
        )
        rc = main(
            [
                "--config", str(cfg), "--data-dir", str(universe_dir),
                "--out-dir", str(tmp_path / "out"), "--risk-free", "0.01",
                "simulate", "--subject", "SYN00",
            ]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["config"]["risk_free"] == 0.01  # flag wins
        assert manifest["config"]["n_paths"] == 25
        assert [h["label"] for h in manifest["config"]["horizons"]] == ["1w", "2w"]

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (["--seed", "-1"], 2, "data error: seed must be >= 0"),
            (["--calibration-start", "2016-13-01"], 1, "error: argument --calibration-start"),
            (["--horizons", "1w:x"], 1, "error: argument --horizons"),
            (["--risk-free", "nan"], 2, "data error: risk_free must be finite"),
            (["--risk-free", "inf"], 2, "data error: risk_free must be finite"),
            (["--horizons", "1w:5,1w:10"], 2, "data error: horizon label '1w' is given more"),
            (["--horizons", "1w:5, 1w :10"], 2, "data error: horizon label '1w' is given more"),
            # a horizon label is written unquoted into CSVs
            (["--horizons", '"x:5,1m:21'], 1, "error: argument --horizons: bad horizon label"),
            (["--horizons", "a\rb:5"], 1, "error: argument --horizons: bad horizon label"),
            # the MAPE's denominator is the forecast, and no longer a setting
            (["--mape-denominator", "forecast"], 1, "error: unrecognized arguments: --mape-denom"),
            # an unknown option before the subcommand is named, not its value
            (["--sed", "5"], 1, "error: unrecognized arguments: --sed"),
        ],
    )
    def test_bad_flag_value_exits_without_traceback(
        self, universe_dir, tmp_path, flags, code, message
    ):
        rc, stderr = run_process(
            "--data-dir", str(universe_dir), "--out-dir", str(tmp_path), *flags,
            "--paths", "10", "simulate", "--subject", "SYN00",
        )
        assert rc == code
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1].startswith(message)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_risk_free_in_config_exits_2(self, universe_dir, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"risk_free = {value}\n")
        rc, stderr = run_process(
            "--config", str(cfg), "--data-dir", str(universe_dir), "--out-dir", str(tmp_path),
            "stats", "SYN00",
        )
        assert rc == 2
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1].startswith("data error: risk_free must be finite")

    def test_repeated_horizon_label_in_config_exits_2(self, universe_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizons = 1w:5, 2w:10, 1w:21\n")
        rc, stderr = run_process(
            "--config", str(cfg), "--data-dir", str(universe_dir), "--out-dir", str(tmp_path),
            "--paths", "10", "simulate", "--subject", "SYN00",
        )
        assert rc == 2
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1].startswith("data error: horizon label '1w' is given more")
        assert not (tmp_path / "report_SYN00.csv").exists()

    def test_flags_complete_the_windows_of_a_config_file(self, universe_dir, tmp_path):
        # the file alone ends calibration after the default evaluation start
        cfg = tmp_path / "run.cfg"
        cfg.write_text("calibration_start = 2016-07-01\ncalibration_end = 2019-06-28\n")
        rc, stderr = run_process(
            "--config", str(cfg), "--data-dir", str(universe_dir), "--out-dir", str(tmp_path),
            "--evaluation-start", "2019-07-01", "stats", "SYN00",
        )
        assert rc == 0, stderr
        config = json.loads((tmp_path / "run_manifest.json").read_text())["config"]
        assert (config["calibration_start"], config["calibration_end"]) == (
            "2016-07-01", "2019-06-28"
        )
        assert config["evaluation_start"] == "2019-07-01"

    def test_a_bad_value_from_a_config_file_names_the_file(self, universe_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("risk_free = nan\n")
        rc, stderr = run_process(
            "--config", str(cfg), "--data-dir", str(universe_dir), "--out-dir", str(tmp_path),
            "stats", "SYN00",
        )
        assert rc == 2
        assert "risk_free must be finite" in stderr and str(cfg) in stderr.splitlines()[-1]

    @pytest.mark.parametrize(
        "text, error",
        [
            ("a:0", "horizon days must be >= 1"),
            ("a", "bad horizon 'a', expected label:days"),
            (
                '1w:5,"x:10',
                "bad horizon label '\"x': a label is letters, digits and . _ -,"
                " starting with a letter or a digit",
            ),
        ],
        ids=["zero-days", "no-days", "bad-label"],
    )
    def test_a_bad_horizons_line_names_the_file_and_line(
        self, universe_dir, tmp_path, capsys, text, error
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\nhorizons = {text}\n")
        out = tmp_path / "out"
        assert run(universe_dir, out, "--config", str(cfg), "stats", "SYN00") == 2
        assert capsys.readouterr().err == f"data error: {cfg}:2: bad value for horizons: {error}\n"
        assert not out.exists()

    def test_bad_config_value_is_data_error(self, universe_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = abc\n")
        rc = main(
            ["--config", str(cfg), "--data-dir", str(universe_dir),
             "--out-dir", str(tmp_path / "out"), "stats"]
        )
        assert rc == 2

    def test_seed_above_128_bits(self, universe_dir, tmp_path):
        # subject seeds are (seed << 32) ^ crc32: 132 bits here
        rc, stderr = run_process(
            "--data-dir", str(universe_dir), "--out-dir", str(tmp_path), "--seed", str(2**100),
            "--paths", "10", "simulate", "--subject", "SYN00",
        )
        assert rc == 0, stderr

    @pytest.mark.parametrize("target", ["price file", "config"])
    def test_non_utf8_input_exits_2(self, universe_dir, tmp_path, target):
        data = tmp_path / "data"
        shutil.copytree(universe_dir, data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        bad = data / "SYN00.csv" if target == "price file" else cfg
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        rc, stderr = run_process(
            "--config", str(cfg), "--data-dir", str(data), "--out-dir", str(tmp_path / "out"),
            "--paths", "10", "simulate", "--subject", "SYN00",
        )
        assert rc == 2
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1].startswith("data error:")
        assert "UTF-8" in stderr

    def test_bad_config_line_is_data_error(self, universe_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense line\n")
        rc = main(
            ["--config", str(cfg), "--data-dir", str(universe_dir),
             "--out-dir", str(tmp_path / "out"), "stats"]
        )
        assert rc == 2

    @pytest.mark.parametrize("key", ["data_dir", "out_dir"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_empty_directory_is_data_error(
        self, universe_dir, tmp_path, monkeypatch, capsys, key, route
    ):
        data = tmp_path / "data"
        shutil.copytree(universe_dir, data)
        monkeypatch.chdir(data)  # where an empty path would point
        dirs = {"data_dir": str(data), "out_dir": str(tmp_path / "out"), key: ""}
        if route == "flag":
            argv = ["--data-dir", dirs["data_dir"], "--out-dir", dirs["out_dir"]]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in dirs.items()))
            argv = ["--config", str(cfg)]
        assert main([*argv, "stats"]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {key} is empty")
        assert {p.name for p in data.iterdir()} == {p.name for p in universe_dir.iterdir()}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "window, start, end",
        [("calibration", "2018-12-31", "2016-01-01"), ("evaluation", "2019-12-31", "2019-01-01")],
    )
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_a_reversed_window_names_its_settings(
        self, universe_dir, tmp_path, capsys, window, start, end, route
    ):
        dates = {f"{window}_start": start, f"{window}_end": end}
        argv, suffix = settings_argv(tmp_path, dates, route)
        out = tmp_path / "out"
        assert run(universe_dir, out, *argv, "stats", "SYN00") == 2
        assert capsys.readouterr().err == (
            f"data error: {window}_start {start} is after {window}_end {end}{suffix}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings, named, days, command",
        [
            (
                {"calibration_start": "2018-12-31", "calibration_end": "2018-12-31"},
                ("calibration_start", "calibration_end"),
                3,
                ["stats", "SYN00"],
            ),
            (
                # two prices are one log return, too few for a sample std
                {"calibration_start": "2018-12-27", "calibration_end": "2018-12-28"},
                ("calibration_start", "calibration_end"),
                3,
                ["stats", "SYN00"],
            ),
            (
                {"evaluation_start": "2019-12-31", "evaluation_end": "2019-12-31"},
                ("evaluation_start", "evaluation_end"),
                2,
                ["--paths", "10", "simulate", "--subject", "SYN00"],
            ),
            (
                {
                    "calibration_start": "2020-01-01", "calibration_end": "2020-01-31",
                    "evaluation_start": "2020-02-03", "evaluation_end": "2020-03-31",
                },
                ("calibration_start", "evaluation_end"),
                2,
                ["stats", "SYN00"],
            ),
        ],
        ids=["calibration", "calibration-2-days", "evaluation", "whole-run"],
    )
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_a_window_too_short_for_a_ticker_names_its_settings(
        self, universe_dir, tmp_path, capsys, settings, named, days, command, route
    ):
        first, last = named
        argv, suffix = settings_argv(tmp_path, settings, route)
        out = tmp_path / "out"
        assert run(universe_dir, out, *argv, *command) == 2
        assert capsys.readouterr().err == (
            f"data error: SYN00: {first}..{last} ({settings[first]}..{settings[last]})"
            f" holds fewer than {days} trading days{suffix}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_a_group_beyond_group_count_names_the_setting(
        self, universe_dir, tmp_path, capsys, route
    ):
        argv, suffix = settings_argv(tmp_path, {"group_count": "3"}, route)
        out = tmp_path / "out"
        rc = run(universe_dir, out, *argv, "--group-size", "2", "simulate", "--subject", "sharpe-4")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: sharpe-4: group_count is 3, so there is no group 4{suffix}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_a_universe_that_does_not_split_names_the_settings(
        self, universe_dir, tmp_path, capsys, route
    ):
        argv, suffix = settings_argv(tmp_path, {"group_count": "4"}, route)
        out = tmp_path / "out"
        rc = run(universe_dir, out, *argv, "--group-size", "2", "group", "--metric", "risk")
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: universe of 6 tickers does not split into group_count 4 x group_size 2"
            f"{suffix}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--s", "5", "stats", "SYN00"], "unrecognized arguments: --s"),
            (["--s=5", "stats", "SYN00"], "unrecognized arguments: --s=5"),
            (["--trial", "5", "stats", "SYN00"], "unrecognized arguments: --trial"),
            (["--h", "1w:5", "stats", "SYN00"], "unrecognized arguments: --h"),
            (["group", "--met", "sharpe"], "the following arguments are required: --metric"),
            (["simulate", "--sub", "SYN00"], "the following arguments are required: --subject"),
        ],
    )
    def test_an_option_is_spelled_in_full(self, universe_dir, tmp_path, capsys, argv, message):
        # with prefixes on, --s 5 would quietly set the seed
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(universe_dir, out, *argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, argv",
        [
            ("--config", ["--config", "run.cfg", "--config", "run.cfg", "stats"]),
            ("--metric", ["group", "--metric", "risk", "--metric", "risk"]),
            ("--subject", ["simulate", "--subject", "SYN00", "--subject", "SYN01"]),
        ],
    )
    def test_an_option_given_twice_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, option, argv
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: argument {option}: given more than once"
        )
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("blocked", ["out_dir_is_a_file", "output_is_a_directory"])
    def test_unwritable_out_dir_is_data_error(self, universe_dir, tmp_path, blocked):
        out = tmp_path / "out"
        if blocked == "out_dir_is_a_file":
            out.write_text("")
        else:
            (out / "stats.csv").mkdir(parents=True)
        rc, stderr = run_process(
            "--data-dir", str(universe_dir), "--out-dir", str(out), "stats", "SYN00"
        )
        assert rc == 2
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("data error: ") and str(out) in stderr

    @pytest.mark.parametrize("paths", [10**12, 10**30])
    def test_an_ensemble_too_large_to_allocate_is_data_error(self, universe_dir, tmp_path, paths):
        # NumPy refuses both shapes inside np.empty, before any page is touched
        out = tmp_path / "out"
        rc, stderr = run_process(
            "--data-dir", str(universe_dir), "--out-dir", str(out), "--paths", str(paths),
            "simulate", "--subject", "SYN00",
        )
        assert rc == 2
        assert stderr == f"data error: cannot allocate an ensemble of {paths} paths x 247 days\n"
        assert not out.exists()


class TestInterrupt:
    def test_ctrl_c_is_one_line_and_exit_130(self, universe_dir, tmp_path):
        # groups_sharpe.csv is written just before the optimizer starts its trials
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(gbmfolio.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "gbmfolio.cli", "--data-dir", str(universe_dir),
                "--out-dir", str(out), "--group-count", "3", "--group-size", "2",
                "--trials", "1000000000000", "report",
            ],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            deadline = time.monotonic() + 60
            while not (out / "groups_sharpe.csv").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130
        assert stderr == "interrupted\n"
        assert (out / "groups_sharpe.csv").exists()  # files already written stay

    def test_numpy_random_is_imported_with_the_cli(self):
        # a SIGINT that lands in numpy.random's first import is lost there, so
        # no draw during a run may be the one that imports it
        proc = run_child("-c", "import sys, gbmfolio.cli; print('numpy.random' in sys.modules)")
        assert proc.stdout == "True\n"


def write_flawed_prices(data_dir):
    """BAD.csv: 2016-2019 weekdays with a zero price, a NaN price twice and a date thrice."""
    days = weekday_range(dt.date(2016, 1, 4), dt.date(2019, 12, 30))
    rows = [f"{d.isoformat()},{100 + i % 7}" for i, d in enumerate(days)]
    rows[2] = "2016-01-06,0"
    rows[3] = "2016-01-07,nan"
    rows += ["2016-01-07,nan", "2016-01-11,99", "2016-01-11,99"]
    data_dir.mkdir()
    (data_dir / "BAD.csv").write_text("Date,Adj Close\n" + "\n".join(rows) + "\n")


FLAWED_PRICE_WARNINGS = [
    "warning: BAD: dropping non-positive price on 2016-01-06",
    "warning: BAD: dropping non-finite price on 2016-01-07",
    "warning: BAD: dropping non-finite price on 2016-01-07",
    "warning: BAD: duplicate date 2016-01-11, keeping first",
    "warning: BAD: duplicate date 2016-01-11, keeping first",
]


class TestLoaderWarnings:
    def test_one_stderr_line_per_warning(self, tmp_path):
        # one line per dropped row, repeats included, whatever the interpreter's
        # warning filters say (an empty PYTHONWARNINGS sets none)
        write_flawed_prices(tmp_path / "data")
        for filters in ("", "ignore", "error"):
            rc, stderr = run_process(
                "--data-dir", str(tmp_path / "data"), "--out-dir", str(tmp_path / f"out{filters}"),
                "stats", PYTHONWARNINGS=filters,
            )
            assert rc == 0
            assert stderr.splitlines() == FLAWED_PRICE_WARNINGS, filters

    def test_short_and_unparseable_rows_are_named(self, tmp_path):
        # line 2 is blank, and a blank line is not a row
        days = weekday_range(dt.date(2016, 1, 4), dt.date(2019, 12, 30))
        rows = ["", "2016-01-01", "2016-01-0x,100", "2016-01-02,null"]
        rows += [f"{d.isoformat()},{100 + i % 7}" for i, d in enumerate(days)]
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "BAD.csv").write_text("Date,Adj Close\n" + "\n".join(rows) + "\n")
        rc, stderr = run_process(
            "--data-dir", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out"), "stats"
        )
        assert rc == 0
        assert stderr.splitlines() == [
            "warning: BAD: dropping line 3: too few fields",
            "warning: BAD: dropping line 4: unparseable date or price",
            "warning: BAD: dropping line 5: unparseable date or price",
        ]

    def test_main_leaves_the_numpy_error_state_as_it_found_it(self, tmp_path, capsys):
        write_flawed_prices(tmp_path / "data")
        with np.errstate(over="raise", under="print", divide="warn", invalid="ignore"):
            before = np.geterr()
            assert run(tmp_path / "data", tmp_path / "out", "stats") == 0
            assert np.geterr() == before
            assert run(tmp_path / "nowhere", tmp_path / "out", "stats") == 2
            assert np.geterr() == before
        assert capsys.readouterr().err.splitlines() == FLAWED_PRICE_WARNINGS + [
            f"data error: no CSV files in {tmp_path / 'nowhere'}"
        ]


# one text per setting, none of them its default
SETTING_TEXTS = {
    "data_dir": "prices",
    "out_dir": "results",
    "calibration_start": "2015-06-01",
    "calibration_end": "2018-06-29",
    "evaluation_start": "2019-02-01",
    "evaluation_end": "2019-06-28",
    "risk_free": "0.025",
    "n_paths": "17",
    "n_trials": "33",
    "seed": "5",
    "group_count": "2",
    "group_size": "3",
    "horizons": "1w:5,3m:63",
}


def flag_of(key):
    return {"n_paths": "--paths", "n_trials": "--trials"}.get(key, "--" + key.replace("_", "-"))


def settings_argv(tmp_path, settings, route):
    """`settings` as flags or as a config file: (argv, what a config file adds to an error)."""
    if route == "flag":
        return [arg for key, text in settings.items() for arg in (flag_of(key), text)], ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, text in settings.items()))
    return ["--config", str(cfg)], f" (with settings from {cfg})"


def resolve(*argv):
    return cli._resolve_config(cli.build_parser().parse_args([*argv, "report"]))


class TestSettings:
    """config.SETTINGS is the one list of run settings: each key is a config-file
    key and a global flag, and the README's settings table names both."""

    @pytest.mark.parametrize("key", list(SETTINGS))
    def test_flag_and_config_file_give_the_same_config(self, tmp_path, key):
        text = SETTING_TEXTS[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        from_flag = resolve(flag_of(key), text)
        assert from_flag == resolve("--config", str(cfg))
        assert getattr(from_flag, key) != getattr(RunConfig(), key)

    @pytest.mark.parametrize("key", list(SETTINGS))
    def test_a_flag_given_twice_is_a_usage_error(self, tmp_path, monkeypatch, capsys, key):
        # even with the same value: a repeat is a slip, not a setting
        flag, text = flag_of(key), SETTING_TEXTS[key]
        monkeypatch.chdir(tmp_path)  # the default out_dir would land here
        with pytest.raises(SystemExit) as exc:
            main([flag, text, flag, text, "stats", "SYN00"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: argument {flag}: given more than once"
        )
        assert not any(tmp_path.iterdir())

    def test_global_flags_are_the_settings_plus_config_and_help(self):
        actions = [a for a in cli.build_parser()._actions if a.option_strings]
        flags = {flag for a in actions for flag in a.option_strings}
        assert flags == {"-h", "--help", "--config"} | {flag_of(key) for key in SETTINGS}
        assert {a.dest for a in actions} == {"help", "config"} | set(SETTINGS)

    def test_readme_settings_table_lists_every_flag_with_its_key(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = {
            tuple(cell.strip() for cell in line.strip().strip("|").split("|")[:2])
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `")
        }
        for action in cli.build_parser()._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                assert (f"`{action.dest}`", f"`{action.option_strings[0]}`") in rows, action.dest


class TestTickerRule:
    """A ticker is letters, digits and . - ^ =, starting with a letter, a digit or ^,
    and is never a subject name: all, MEAN or <metric>-<n>."""

    FLAGS = ("--group-count", "3", "--group-size", "2", "--paths", "10", "--trials", "5")

    def universe_with(self, universe_dir, tmp_path, name):
        """The 6-ticker universe with SYN05's file renamed to `name`.csv."""
        data = tmp_path / "data"
        shutil.copytree(universe_dir, data)
        (data / "SYN05.csv").rename(data / f"{name}.csv")
        return data

    @pytest.mark.parametrize("name", ["sharpe-1", "MEAN", "all", "A,B", ".hidden", "A B"])
    @pytest.mark.parametrize("command", [("report",), ("simulate", "--subject", "all")])
    def test_bad_file_name_is_data_error_naming_the_file(
        self, universe_dir, tmp_path, capsys, name, command
    ):
        data = self.universe_with(universe_dir, tmp_path, name)
        assert run(data, tmp_path / "out", *self.FLAGS, *command) == 2
        assert f"{name}.csv" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("name", ["BRK-B", "^GSPC", "EURUSD=X", "sharpe-x", "risk-1a"])
    def test_tickers_within_the_rule_load(self, universe_dir, tmp_path, name):
        data = self.universe_with(universe_dir, tmp_path, name)
        assert run(data, tmp_path / "all", *self.FLAGS, "simulate", "--subject", "all") == 0
        rows = read_rows(tmp_path / "all" / "summary.csv")
        assert name in {r["subject"] for r in rows}
        assert [r["horizon"] for r in rows if r["subject"] == "MEAN"] == [
            "1w", "2w", "1m", "6m", "1y"
        ]
        assert run(data, tmp_path / "one", "--paths", "10", "simulate", "--subject", name) == 0
        for file in (f"report_{name}.csv", f"envelope_{name}.csv"):
            assert (tmp_path / "one" / file).read_bytes() == (tmp_path / "all" / file).read_bytes()

    @pytest.mark.parametrize(
        "command",
        [
            ("simulate", "--subject", "../data/SYN00"),
            ("simulate", "--subject", "MEAN"),
            ("simulate", "--subject", ""),
            ("simulate", "--subject", "sharpe-02"),
            ("simulate", "--subject", "risk-0"),
            ("stats", "SYN00", "../data/SYN01"),
            ("stats", "sharpe-1"),
        ],
    )
    def test_bad_subject_argument_is_usage_error(self, universe_dir, tmp_path, capsys, command):
        data = tmp_path / "data"
        shutil.copytree(universe_dir, data)
        with pytest.raises(SystemExit) as exc:
            run(data, tmp_path / "out", *command)
        assert exc.value.code == 1
        assert "error: argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# --subject text: names that exist, names of subjects, paths and arbitrary text
SUBJECTS = st.one_of(
    st.sampled_from(
        ["all", "SYN00", "sharpe-2", "risk-3", "return-0", "sharpe-99", "MEAN", "sharpe-x",
         "../data/SYN00", "data/../SYN00", "/SYN00", "..", "-x", "", "SYN00\n", "SYN\x0000"]
    ),
    st.text(alphabet=st.sampled_from("SYN0125./-^=_ ,\\"), max_size=14),
    st.text(max_size=14),
)


@pytest.fixture(scope="module")
def subject_sandbox(universe_dir, tmp_path_factory):
    """A directory holding a copy of the universe under data/, and nothing else."""
    base = tmp_path_factory.mktemp("subjects")
    shutil.copytree(universe_dir, base / "data")
    return base


def _files_under(path):
    return set(path.rglob("*"))


@settings(max_examples=80, deadline=None)
@given(subject=SUBJECTS)
def test_any_subject_exits_cleanly_inside_out_dir(subject_sandbox, subject):
    before = _files_under(subject_sandbox)
    out = subject_sandbox / "out"
    try:  # any exception but SystemExit fails the test: the CLI would show a traceback
        code = main([
            "--data-dir", str(subject_sandbox / "data"), "--out-dir", str(out),
            "--group-count", "3", "--group-size", "2", "--paths", "5", "--trials", "5",
            "simulate", "--subject", subject,
        ])
    except SystemExit as exc:
        code = exc.code
    try:
        assert code in (0, 1, 2)
        added = _files_under(subject_sandbox) - before
        assert not {p for p in added if p != out and out not in p.parents}
    finally:
        shutil.rmtree(out, ignore_errors=True)


@pytest.fixture(scope="module")
def window_universe(tmp_path_factory):
    """Six tickers priced on the weekdays of 2016-01-04..2019-12-30."""
    data_dir = tmp_path_factory.mktemp("windows")
    make_universe(data_dir, n_assets=6, seed=8)
    return data_dir


# calibration_start from a little before the universe to past its end, then the
# gaps to calibration_end, evaluation_start and evaluation_end: short windows,
# windows off the data and windows that touch or overlap are all drawn
WINDOW_START = st.integers(-30, 1500).map(lambda k: dt.date(2016, 1, 4) + dt.timedelta(days=k))
WINDOW_GAPS = st.lists(st.integers(0, 7) | st.integers(0, 500), min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    start=WINDOW_START,
    gaps=WINDOW_GAPS,
    command=st.sampled_from(
        [("stats", "SYN00"), ("group", "--metric", "sharpe"), ("simulate", "--subject", "risk-1")]
    ),
)
def test_any_window_is_a_clean_run_or_one_data_error(
    window_universe, tmp_path_factory, start, gaps, command
):
    dates = [start]
    for gap in gaps:
        dates.append(dates[-1] + dt.timedelta(days=gap))
    keys = ("calibration-start", "calibration-end", "evaluation-start", "evaluation-end")
    out = tmp_path_factory.mktemp("out")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):  # any exception fails: it would be a traceback
        code = run(
            window_universe, out,
            *(arg for key, date in zip(keys, dates) for arg in (f"--{key}", date.isoformat())),
            "--horizons", "1w:5", "--paths", "10", "--group-count", "3", "--group-size", "2",
            "--trials", "10", *command,
        )
    shutil.rmtree(out, ignore_errors=True)
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("data error: "), lines


class TestReport:
    def test_full_pipeline(self, universe_dir, tmp_path):
        rc = run(
            universe_dir, tmp_path, "--group-count", "2", "--group-size", "3",
            "--paths", "30", "--trials", "20", "report",
        )
        assert rc == 0
        names = {p.name for p in Path(tmp_path).iterdir()}
        assert {"stats.csv", "stats.txt", "groups_return.csv", "groups_risk.csv",
                "groups_sharpe.csv", "weights_sharpe.csv", "summary.csv",
                "run_manifest.json"} <= names
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["command"] == "report"
        assert set(manifest["files"]) == names - {"run_manifest.json"}

    def test_manifest_names_streams_and_versions(self, universe_dir, tmp_path):
        rc = run(universe_dir, tmp_path, "--paths", "10", "simulate", "--subject", "SYN00")
        assert rc == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert "backend" not in manifest
        assert manifest["streams"] == "pcg64dxsm-advance-v1"
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "gbmfolio": gbmfolio.__version__,
        }

    def test_package_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == gbmfolio.__version__

    def test_manifest_lists_only_files_of_this_run(self, universe_dir, tmp_path):
        (tmp_path / "stale.csv").write_text("left,over\n")
        rc = run(
            universe_dir, tmp_path, "--group-count", "2", "--group-size", "3",
            "--paths", "20", "--trials", "20", "report",
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert "stale.csv" not in manifest["files"]
        assert set(manifest["files"]) == {p.name for p in tmp_path.iterdir()} - {
            "stale.csv", "run_manifest.json"
        }

    def test_report_reads_nothing_back_from_out_dir(self, universe_dir, tmp_path):
        # an audit hook cannot be removed, so the report runs in its own interpreter
        out = tmp_path / "out"
        proc = run_child(
            "-c", OPENS_UNDER, str(out), "--data-dir", str(universe_dir), "--out-dir", str(out),
            "--group-count", "2", "--group-size", "3", "--paths", "20", "--trials", "20", "report",
        )
        assert proc.returncode == 0, proc.stderr
        opens = json.loads(proc.stdout)
        assert opens["read"] == []
        # each file is opened once, to be written
        assert sorted(opens["write"]) == sorted(p.name for p in out.iterdir())


# Runs the CLI on argv[2:] and prints, as JSON, the names of the files under
# argv[1] it opened for reading and for writing.
OPENS_UNDER = """
import json, os, sys
from gbmfolio.cli import main

out = os.path.abspath(sys.argv[1])
opens = {"read": [], "write": []}

def record(event, args):
    if event != "open" or not isinstance(args[0], (str, bytes, os.PathLike)):
        return
    path = os.path.abspath(os.fsdecode(args[0]))
    if os.path.dirname(path) == out:
        mode, flags = args[1], args[2]
        reads = "r" in mode or "+" in mode if mode else flags & os.O_ACCMODE != os.O_WRONLY
        opens["read" if reads else "write"].append(os.path.basename(path))

sys.addaudithook(record)
code = main(sys.argv[2:])
print(json.dumps(opens))
sys.exit(code)
"""


class TestPipeline:
    """report computes each stage once; the other commands are views of it."""

    FLAGS = ("--group-count", "3", "--group-size", "2", "--paths", "20", "--trials", "20")

    def test_report_runs_each_stage_once(self, universe_dir, tmp_path, monkeypatch):
        calls = Counter()

        def count(name):
            original = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)

        names = ("load_csv", "align_panel", "asset_stats", "rank_and_group", "optimize_max_sharpe")
        for name in names:
            count(name)
        assert run(universe_dir, tmp_path, *self.FLAGS, "report") == 0
        n_files = len(list(universe_dir.glob("*.csv")))
        assert calls == {
            "load_csv": n_files, "align_panel": 1, "rank_and_group": 3, "optimize_max_sharpe": 3,
            "asset_stats": n_files + 3 * 3,  # each ticker, then each of the 3x3 group subjects
        }

    def test_commands_are_views_of_report(self, universe_dir, tmp_path):
        tickers = sorted(p.stem for p in universe_dir.glob("*.csv"))
        views = {
            "stats": ["stats", *tickers],
            "all": ["simulate", "--subject", "all"],
            **{m: ["group", "--metric", m] for m in cli.METRICS},
        }
        assert run(universe_dir, tmp_path / "report", *self.FLAGS, "report") == 0
        viewed = set()
        for name, command in views.items():
            out = tmp_path / name
            assert run(universe_dir, out, *self.FLAGS, *command) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            for file in manifest["files"]:
                assert (out / file).read_bytes() == (tmp_path / "report" / file).read_bytes()
            viewed |= set(manifest["files"])
        report = json.loads((tmp_path / "report" / "run_manifest.json").read_text())
        assert viewed == set(report["files"])

    def test_a_ticker_is_calibrated_on_its_own_dates_in_every_run(self, universe_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(universe_dir, data)
        # a gap in another ticker's calibration window shrinks the inner-joined panel
        gap = data / "SYN03.csv"
        lines = gap.read_text().splitlines(keepends=True)
        gap.write_text("".join(line for line in lines if not line.startswith("2017-06")))
        views = {
            "alone": ["simulate", "--subject", "SYN00"],
            "all": ["simulate", "--subject", "all"],
            "report": ["report"],
        }
        for name, command in views.items():
            assert run(data, tmp_path / name, *self.FLAGS, *command) == 0
        for file in ("report_SYN00.csv", "envelope_SYN00.csv"):
            outputs = {(tmp_path / name / file).read_bytes() for name in views}
            assert len(outputs) == 1, file
        stats = read_rows(tmp_path / "report" / "stats.csv")
        for metric, column in (("return", "return_annual"), ("risk", "risk_annual"),
                               ("sharpe", "sharpe")):
            ranked = sorted(stats, key=lambda r: (-float(r[column]), r["ticker"]))
            groups = read_rows(tmp_path / "report" / f"groups_{metric}.csv")
            assert [r["ticker"] for r in groups] == [r["ticker"] for r in ranked], metric

    def test_every_subject_of_all_matches_its_run_alone(self, universe_dir, tmp_path):
        # every forecast of a run is drawn into the same arrays
        assert run(universe_dir, tmp_path / "all", *self.FLAGS, "simulate", "--subject", "all") == 0
        tickers = sorted(p.stem for p in universe_dir.glob("*.csv"))
        groups = [f"{m}-{i}" for m in cli.METRICS for i in (1, 2, 3)]
        for subject in tickers + groups:
            out = tmp_path / subject
            assert run(universe_dir, out, *self.FLAGS, "simulate", "--subject", subject) == 0
            for file in (f"report_{subject}.csv", f"envelope_{subject}.csv"):
                assert (out / file).read_bytes() == (tmp_path / "all" / file).read_bytes(), file

    @pytest.mark.parametrize(
        "command", [("group", "--metric", "sharpe"), ("simulate", "--subject", "risk-1")]
    )
    def test_a_joined_panel_of_one_date_is_data_error(self, tmp_path, capsys, command):
        flags = ("--group-count", "1", "--group-size", "2", "--paths", "10", "--trials", "10")
        for shared in (1, 0):
            data = tmp_path / f"data{shared}"
            make_universe(data, n_assets=2, seed=5)
            for k, path in enumerate(sorted(data.glob("*.csv"))):
                header, *rows = path.read_text().splitlines(keepends=True)
                # the two tickers trade on alternate days and share `shared` first days
                path.write_text(header + "".join(rows[:shared] + rows[shared + k :: 2]))
            assert run(data, tmp_path / f"out{shared}", *flags, *command) == 2
            assert capsys.readouterr().err == (
                "data error: inner join of 2 tickers: calibration_start..evaluation_end"
                " (2016-01-01..2019-12-31) holds fewer than 2 trading days\n"
            )

    def test_a_joined_panel_without_calibration_days_names_that_window(self, tmp_path, capsys):
        data = tmp_path / "data"
        make_universe(data, n_assets=2, seed=5)
        for k, path in enumerate(sorted(data.glob("*.csv"))):
            header, *rows = path.read_text().splitlines(keepends=True)
            # alternate days up to 2018, then every day of 2019 shared
            rows = [r for i, r in enumerate(rows) if r.startswith("2019") or i % 2 == k]
            path.write_text(header + "".join(rows))
        flags = ("--group-count", "1", "--group-size", "2", "--trials", "10")
        assert run(data, tmp_path / "out", *flags, "group", "--metric", "sharpe") == 2
        assert capsys.readouterr().err == (
            "data error: inner join of 2 tickers: calibration_start..calibration_end"
            " (2016-01-01..2018-12-31) holds fewer than 3 trading days\n"
        )

    def test_single_ticker_commands_read_only_their_file(self, universe_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(universe_dir, data)
        (data / "SYN03.csv").write_text("not a price file\n")
        assert run(data, tmp_path / "stats", "stats", "SYN00") == 0
        rc = run(data, tmp_path / "sim", "--paths", "20", "simulate", "--subject", "SYN00")
        assert rc == 0
        assert run(data, tmp_path / "report", *self.FLAGS, "report") == 2
