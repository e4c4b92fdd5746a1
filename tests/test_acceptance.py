"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line on success so a -s run reads as a checklist.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gbmfolio
from gbmfolio.cli import main
from gbmfolio.errors import NumericError
from gbmfolio.evaluation import HorizonSpec, classify_mape, evaluate_ensemble
from gbmfolio.gbm import GbmParams, simulate_ensemble, wiener_ensemble
from gbmfolio.portfolio import Weights, optimize_max_sharpe
from gbmfolio.stats import log_returns, sharpe_ratio
from gbmfolio.synthetic import make_universe

from conftest import series
from test_portfolio import dominant_pair_panel, gbm_prices, panel_from_columns, portfolio_stats


def ok(msg):
    print(f"PASS: {msg}")


def test_01_sharpe_arithmetic_oracle():
    published = [
        (0.463, 0.514, 0.864),
        (0.354, 0.409, 0.819),
        (0.417, 0.303, 1.314),
        (0.631, 0.415, 1.475),
    ]
    for ret, risk, expected in published:
        assert sharpe_ratio(ret, risk, 0.019) == pytest.approx(expected, abs=0.002)
    ok("criterion 1: Sharpe reproduces the four published triples within 0.002")


def test_02_mape_band_table():
    expected = {
        0.10: "high",
        0.11: "good",
        0.20: "good",
        0.21: "reasonable",
        0.50: "reasonable",
        0.51: "imprecise",
    }
    for value, band in expected.items():
        assert classify_mape(value) == band
    ok("criterion 2: MAPE band boundaries match the interval scale exactly")


def test_03_gbm_moment_check():
    mu, sigma, s0, horizon, n = 0.0004, 0.01, 100.0, 247, 5000
    ps = simulate_ensemble(GbmParams(s0, mu, sigma), wiener_ensemble(n, horizon, 1))

    expected_mean = s0 * math.exp(mu * horizon)
    var = s0**2 * math.exp(2 * mu * horizon) * (math.exp(sigma**2 * horizon) - 1)
    se = math.sqrt(var / n)
    terminal = ps.paths[:, -1].mean()
    assert abs(terminal - expected_mean) <= 3 * se

    inc = np.diff(np.log(ps.paths), axis=1).ravel()
    se_mean = sigma / math.sqrt(len(inc))
    assert abs(inc.mean() - (mu - sigma**2 / 2)) <= 3 * se_mean
    assert inc.std(ddof=1) == pytest.approx(sigma, rel=0.02)
    ok("criterion 3: ensemble terminal mean and log-increment moments in tolerance")


def test_04_wiener_scaling():
    def increments(dt):
        # mu = sigma^2 / 2: each log increment is sigma sqrt(dt) times a normal
        ps = simulate_ensemble(GbmParams(1.0, 0.5, 1.0, dt=dt), wiener_ensemble(4000, 250, 2))
        return np.diff(np.log(ps.paths), axis=1)

    inc = increments(4.0)
    assert inc.size == 1_000_000
    assert inc.std() == pytest.approx(2.0, abs=0.01)
    assert np.max(np.abs(inc - 2.0 * increments(1.0))) <= 1e-14
    ok("criterion 4: 1e6 increments at dt=4 have sample std 2.0 +- 0.01, twice those at dt=1")


def test_05_taylor_bound():
    rng = np.random.default_rng(3)
    p0 = rng.uniform(1, 1000, 10_000)
    rs = rng.uniform(-0.1, 0.1, 10_000)
    pairs = np.column_stack([p0, p0 * (1 + rs)]).ravel()
    rlog = log_returns(pairs)[::2]  # within each (P0, P1) pair
    assert np.all(np.abs(rlog - rs) <= rs * rs + 1e-15)
    ok("criterion 5: |R_log - R_s| <= R_s^2 for 1e4 random pairs with |R_s| <= 0.1")


def test_06_optimizer_contract():
    rng = np.random.default_rng(4)
    for trial in range(50):
        panel = panel_from_columns(
            {
                f"T{i}": gbm_prices(rng, 120, rng.uniform(-0.001, 0.002), rng.uniform(0.005, 0.03))
                for i in range(4)
            }
        )
        _, best = optimize_max_sharpe(panel, 10_000, seed=trial, risk_free=0.019)
        equal = portfolio_stats(panel, Weights(np.full(4, 0.25)), 0.019)
        assert best.sharpe >= equal.sharpe

    panel = dominant_pair_panel()
    weights, best = optimize_max_sharpe(panel, 10_000, seed=0, risk_free=0.019)
    assert weights.values[0] >= 0.95
    grid = -math.inf
    for w in np.linspace(0, 1, 101):
        try:
            grid = max(grid, portfolio_stats(panel, Weights([w, 1 - w]), 0.019).sharpe)
        except NumericError:
            continue
    assert abs(best.sharpe - grid) <= 0.05
    ok("criterion 6: optimizer beats equal weight 50/50 and matches the grid oracle")


def test_07_self_forecast_monotone_degradation():
    mu, sigma = 0.0005, 0.015
    actual_ps = simulate_ensemble(GbmParams(100.0, mu, sigma), wiener_ensemble(1, 247, 11))
    actual = series(actual_ps.paths[0])
    ensemble = simulate_ensemble(GbmParams(100.0, mu, sigma), wiener_ensemble(1000, 247, 22))
    week, year = evaluate_ensemble(
        ensemble, actual, (HorizonSpec("1w", 5), HorizonSpec("1y", 247))
    )
    assert week.mape <= year.mape
    ok("criterion 7: 1-week mean MAPE <= 1-year mean MAPE on a self-forecast")


def small_report(data, out):
    """The 6-asset report that criteria 8 and 10 run."""
    return main(
        [
            "--data-dir", str(data), "--out-dir", str(out), "--seed", "9",
            "--group-count", "3", "--group-size", "2",
            "--paths", "100", "--trials", "200", "report",
        ]
    )


def test_08_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    make_universe(data, n_assets=6, seed=8)
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert small_report(data, out) == 0
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    assert names == sorted(p.name for p in outputs[1].iterdir())
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    ok("criterion 8: two identical pipeline runs are byte-identical")


def test_09_paper_scale_run(tmp_path):
    data = tmp_path / "data"
    make_universe(data, n_assets=78, seed=99)
    start = time.monotonic()
    rc = main(
        [
            "--data-dir", str(data), "--out-dir", str(tmp_path / "out"),
            "--seed", "1", "--paths", "1000", "--trials", "2000", "report",
        ]
    )
    elapsed = time.monotonic() - start
    assert rc == 0
    out = tmp_path / "out"
    # 78 assets + 18 portfolios, a report and an envelope each
    assert len(list(out.glob("report_*.csv"))) == 96
    assert len(list(out.glob("envelope_*.csv"))) == 96
    assert (out / "summary.csv").exists()
    assert elapsed < 300
    ok(f"criterion 9: paper-scale run (96 subjects x 1000 paths) in {elapsed:.1f}s")


# the sha256 of every output of small_report but the manifest, as the manifest lists
# them; a change that means to move a number updates this map and says so
PINNED_OUTPUTS = {
    "envelope_SYN00.csv": "c1de957133ddc7e04bed299374d95f952425c8f01c7194073c2c0ecf957f2941",
    "envelope_SYN01.csv": "4ba2cf79329600ae4c3396c4bc09d3ae0b8f5ed2407b8aae1ddb8252f841618c",
    "envelope_SYN02.csv": "cf71b2f809eec33ec559df942a452d9e18a13aa8783a9d08eb73d32c30ebf6bf",
    "envelope_SYN03.csv": "1d6936b8e6fa70c3b8c2746f7c71ee40a2bc9d336cc058cc36c55bc4d93f0e05",
    "envelope_SYN04.csv": "8d7259af7447642525997d55aa97bb202720f02f3acaadf176c92efcc769ff54",
    "envelope_SYN05.csv": "cac764277124a9ddc446d673d4fcbed70b721e83536e7a16d9da9bad6c83dd1f",
    "envelope_return-1.csv": "9ac5a42ffb8e972443d2f6ef77dedc5594ace4b8a322d0ce3f80831e5d71fa7d",
    "envelope_return-2.csv": "a967e56613553ed9d8ede5630b3763b9e4039db0e9f26f2d3172435db4c7f567",
    "envelope_return-3.csv": "c1b018beb4c0dacaf3f2115e8e062b5c567ddc3d2a26bbfeffdae2fe57f343f1",
    "envelope_risk-1.csv": "249000960ecf9b89e51f491b7048e2ce0bc157821d214f2324f504dd59dc1e74",
    "envelope_risk-2.csv": "b7f81632f49a5a858fe4ec578d87881b2f4db24838ad61e30f57a89e6c3edfc8",
    "envelope_risk-3.csv": "16ba46553e97adb89f971a31ebc12092d9ad3026e7edc501f8b2cf9c50c1ee21",
    "envelope_sharpe-1.csv": "bd1dbcd47feb267ddc0db206b80b2c8149c8fcc2a36467cf79db02f3aa5fc6b6",
    "envelope_sharpe-2.csv": "2d7c9a951bc53f53fffc9e4f5b0ebf448ff20c4c825ae01fc4f0ca9a0f4c4cbf",
    "envelope_sharpe-3.csv": "84d35aaf94b14aeecc2f7b76da39c6add7258da4d788b20cfb323b03aa2e1b7e",
    "groups_return.csv": "0580701f787d3200566e2fa88355c2e76ec1c48f01a3833271189e4f935fd075",
    "groups_risk.csv": "4fd208217bf5c6ed3c12a82852688122231c9c62b01e93e23f6dde6d4e311ac0",
    "groups_sharpe.csv": "0580701f787d3200566e2fa88355c2e76ec1c48f01a3833271189e4f935fd075",
    "report_SYN00.csv": "f93a8ed49e3e370429d890adc20e3e34739d4dd1dab744e6191643e67f5324e6",
    "report_SYN01.csv": "d07aeba65279d76f66a47ea7bc3beaf0b9e7a16999376d81508f3e6a3bdd0393",
    "report_SYN02.csv": "38227652be3bd275511d6d8617341abb030cba66e2ea6cd7248273a7f0b68587",
    "report_SYN03.csv": "3d7b0624820e0e25ad4d68308dd27dc4dcb309f73a04f0f1a80bc9880dd0850e",
    "report_SYN04.csv": "651e663ddeca99bc80c4defda3c3972f3eb188fb1f94e0d9484230e4fb6d1cbe",
    "report_SYN05.csv": "6f79af4bf107914e8a9eb9c223c1f66c8748364fbdfc0abe728c2aa1daea9688",
    "report_return-1.csv": "2c26b5df9cac074888bb0057b8a72e2ffba0f89239ac1e6e00e96251b96b2a93",
    "report_return-2.csv": "e029ae7e30608ab0b660beb6adfe1c73e4c6c56884ce26e88d54c8736a5b0f98",
    "report_return-3.csv": "ff38f7e77f8ea7b9ed8155b67069b65f7dad1ed22a0e8648d229ec065e2aeed8",
    "report_risk-1.csv": "fab1a258e20838982fc9ad7d8768ecc52c5e729689b1e4bdc326b78de3d3d88a",
    "report_risk-2.csv": "2e4a2e0b85100318da1b48df584020f9912c15c06522eb346913895a2092885b",
    "report_risk-3.csv": "ec4cd2e47c7990f6db211ee7a9ac427486838be5fff1ba3745f499efd23ec4ee",
    "report_sharpe-1.csv": "da1e96fe3b27a1ecda9cad152e03dae63b4395433f2909a1e53b13b9ffc80600",
    "report_sharpe-2.csv": "3f22b9db010bdf4b8a1ef8df016d41ebb488a5b5b887ee15814bec253719e380",
    "report_sharpe-3.csv": "7cc5fbd593624c39e020ae2debc867643e4f4aa1dbcea7069d8ad8502f90722c",
    "stats.csv": "c38837f6193921112aea35fbb036777feec1b55af53bda6461b721e28ec88715",
    "stats.txt": "3663db865f038406d8dd5a4415d940094071035e2cac31613c182224d36060f3",
    "summary.csv": "db141db3c8bb2a394ce46f11a210ddf8ff771692a1f5341a308c06db337433f6",
    "weights_sharpe.csv": "96c9e8e12fb945e2ad92f4b8c1de19cc3cb046c5ecb0bf550563a779aee11e71",
}


def test_10_report_outputs_pinned(tmp_path):
    data = tmp_path / "data"
    make_universe(data, n_assets=6, seed=8)
    assert small_report(data, tmp_path / "out") == 0
    files = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["files"]
    names = sorted(files.keys() | PINNED_OUTPUTS.keys())
    assert [n for n in names if files.get(n) != PINNED_OUTPUTS.get(n)] == []
    ok(f"criterion 10: the {len(files)} outputs of a small report match their pinned sha256")


# small_report in a child interpreter, whose NumPy reads NPY_DISABLE_CPU_FEATURES on
# import; it prints the SIMD targets left to it and the manifest's file digests
DISPATCH_CHILD = """
import json, sys
from pathlib import Path
import numpy as np
from test_acceptance import small_report
data, out = map(Path, sys.argv[1:])
assert small_report(data, out) == 0
found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
print(json.dumps([found, json.loads((out / "run_manifest.json").read_text())["files"]]))
"""


def test_11_outputs_pinned_under_every_dispatch_target(tmp_path):
    # exp, log and tan differ by an ulp between SIMD targets, and the band is read
    # through W's order, which holds only while exp never decreases as W grows
    data = tmp_path / "data"
    make_universe(data, n_assets=6, seed=8)
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    path = os.pathsep.join([str(Path(gbmfolio.__file__).parents[1]), str(Path(__file__).parent)])
    moved = {}
    # disabling found[k:] leaves found[:k]; all of it leaves the baseline, run once if
    # nothing is found
    for k in range(max(len(found), 1)):
        disabled = " ".join(found[k:])
        env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=disabled)
        proc = subprocess.run(
            [sys.executable, "-c", DISPATCH_CHILD, str(data), str(tmp_path / f"out{k}")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        left, files = json.loads(proc.stdout)
        assert left == found[:k]
        names = sorted(files.keys() | PINNED_OUTPUTS.keys())
        moved[disabled] = [n for n in names if files.get(n) != PINNED_OUTPUTS.get(n)]
    assert {disabled: names for disabled, names in moved.items() if names} == {}
    ok(f"criterion 11: the outputs match their pins with each suffix of {found} disabled")
