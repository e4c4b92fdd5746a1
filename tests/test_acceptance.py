"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line on success so a -s run reads as a checklist.
"""

import math
import time

import numpy as np
import pytest

from gbmfolio.cli import main
from gbmfolio.errors import NumericError
from gbmfolio.evaluation import HorizonSpec, classify_mape, evaluate_ensemble
from gbmfolio.gbm import GbmParams, simulate_ensemble
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
    ps = simulate_ensemble(GbmParams(s0, mu, sigma), n, horizon, 1)

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
        ps = simulate_ensemble(GbmParams(1.0, 0.5, 1.0, dt=dt), 4000, 250, 2)
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
    rlog = log_returns(series(pairs))[::2]  # within each (P0, P1) pair
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
    actual_ps = simulate_ensemble(GbmParams(100.0, mu, sigma), 1, 247, 11)
    actual = series(actual_ps.paths[0])
    ensemble = simulate_ensemble(GbmParams(100.0, mu, sigma), 1000, 247, 22)
    week, year = evaluate_ensemble(
        ensemble, actual, (HorizonSpec("1w", 5), HorizonSpec("1y", 247))
    )
    assert week.mape <= year.mape
    ok("criterion 7: 1-week mean MAPE <= 1-year mean MAPE on a self-forecast")


def test_08_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    make_universe(data, n_assets=6, seed=8)
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = main(
            [
                "--data-dir", str(data), "--out-dir", str(out), "--seed", "9",
                "--group-count", "3", "--group-size", "2",
                "--paths", "100", "--trials", "200", "report",
            ]
        )
        assert rc == 0
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
