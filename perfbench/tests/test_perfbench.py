"""Self-tests of the benchmark: the output checker rejects corrupted
outputs, self times are derived from spans correctly, and every workload
runs end to end at a tiny scale.

    python3 -m pytest perfbench/tests -q
"""

import csv
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from gbmfolio.cli import main as cli_main  # noqa: E402
from gbmfolio.synthetic import make_universe  # noqa: E402

SEED = 7


def tiny(name):
    """The workload with the same shape on 6 assets in 2 groups of 3."""
    return replace(
        run.WORKLOADS[name], n_assets=6, group_count=2, group_size=3, trials=50, paths=50
    )


@pytest.fixture(scope="module")
def report_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("report")
    w = tiny("report-paper")
    make_universe(base / "data", n_assets=w.n_assets, start=w.start, end=w.end, seed=SEED)
    assert cli_main(w.cli_args(base / "data", base / "out", SEED)) == 0
    return base, w


@pytest.fixture
def out(report_run, tmp_path):
    base, _ = report_run
    shutil.copytree(base / "out", tmp_path / "out")
    return tmp_path / "out"


def problems(out, report_run):
    base, w = report_run
    return check.check_outputs(out, base / "data", w)


def rehash_manifest(out):
    """Make the manifest agree with the files on disk, as a program that
    wrote wrong numbers consistently would."""
    path = out / check.MANIFEST
    manifest = json.loads(path.read_text())
    manifest["files"] = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != check.MANIFEST
    }
    path.write_text(json.dumps(manifest))


def edit_rows(path, edit):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def flip_weight(out):
    def edit(rows):
        rows[0]["weight"] = repr(-float(rows[0]["weight"]))

    edit_rows(out / "weights_sharpe.csv", edit)


def delete_report(out):
    (out / "report_SYN00.csv").unlink()


def mislabel_band(out):
    def edit(rows):
        rows[0]["band"] = "imprecise" if rows[0]["band"] != "imprecise" else "high"

    edit_rows(out / "report_SYN01.csv", edit)


def alter_mean_row(out):
    def edit(rows):
        row = next(r for r in rows if r["subject"] == "MEAN")
        row["mape"] = repr(float(row["mape"]) * 1.01)

    edit_rows(out / "summary.csv", edit)


def alter_stats(out):
    def edit(rows):
        rows[2]["risk_annual"] = repr(float(rows[2]["risk_annual"]) * (1 + 1e-6))

    edit_rows(out / "stats.csv", edit)


def drift_ensemble_mean(out):
    def edit(rows):
        for r in rows[1:]:
            r["mean"] = repr(float(r["mean"]) * 1.5)

    edit_rows(out / "envelope_SYN02.csv", edit)


def swap_groups(out):
    def edit(rows):
        rows[0]["ticker"], rows[-1]["ticker"] = rows[-1]["ticker"], rows[0]["ticker"]

    edit_rows(out / "groups_return.csv", edit)


CORRUPTIONS = [
    (flip_weight, "negative weight"),
    (delete_report, "report_SYN00.csv: missing"),
    (mislabel_band, "report_SYN01.csv: 1w band"),
    (alter_mean_row, "MEAN 1w MAPE"),
    (alter_stats, "stats.csv: SYN02 risk_annual"),
    (drift_ensemble_mean, "envelope_SYN02.csv: 1w ensemble mean"),
    (swap_groups, "groups_return.csv: position 1"),
]


def test_clean_output_passes(out, report_run):
    assert problems(out, report_run) == []


@pytest.mark.parametrize(
    "corrupt, expected", CORRUPTIONS, ids=[c.__name__ for c, _ in CORRUPTIONS]
)
def test_checker_rejects_corruption(out, report_run, corrupt, expected):
    corrupt(out)
    rehash_manifest(out)
    found = problems(out, report_run)
    assert any(expected in p for p in found), found


def test_checker_rejects_stale_manifest(out, report_run):
    (out / "stats.txt").write_text("edited\n")
    assert "stats.txt: sha256 differs from run_manifest.json" in problems(out, report_run)


def test_self_time_subtracts_direct_children():
    def span(i, name, start, end, parent, **attrs):
        return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                "run": "r", **({"attrs": attrs} if attrs else {})}

    m = spans.layer_metrics([
        span(0, "cli.main", 0.0, 10.0, None),
        span(1, "market_data.load_csv", 1.0, 3.0, 0, key="a.csv", rows=100),
        span(2, "market_data.load_csv", 3.0, 3.5, 0, key="a.csv", rows=100),
        span(3, "portfolio.rank_and_group", 4.0, 8.0, 0),
        span(4, "stats.asset_stats", 5.0, 6.0, 3, key=["A"]),
    ])
    assert m["cli.main.busy_s"] == (10.0, "s")
    assert m["cli.self_s"] == (3.5, "s")
    assert m["market_data.self_s"] == (2.5, "s")
    assert m["portfolio.self_s"] == (3.0, "s")
    assert m["stats.self_s"] == (1.0, "s")
    assert m["market_data.load_csv.calls"] == (2, "count")
    assert m["market_data.load_csv.distinct_ratio"] == (0.5, "ratio")
    assert m["market_data.load_csv.rows_per_s"] == (80.0, "1/s")


def declared(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_workload_smoke(name, trace):
    record = run.run_benchmark(ROOT, name, SEED, 0, trace, workload=tiny(name))
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= run.MIN_SAMPLES
    units = {k: m["unit"] for k, m in record["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "forecast-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
