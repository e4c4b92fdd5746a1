"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line on success so a -s run reads as a checklist.
"""

import json
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
    "envelope_SYN00.csv": "2ba83a7f62164779be83c91fb86e40f2d2f27657088a845dd0d0f923112d95ac",
    "envelope_SYN01.csv": "f612353c88a920f08640e4678dfd46dd65f57fe8063f46194a2e5795a7095a7a",
    "envelope_SYN02.csv": "e5b30ac180cdbe31a2f585b5ed0d006858aacc9ae4f19d132083f5e6cb205afe",
    "envelope_SYN03.csv": "4779f2f85fffc5971a69cea0fa0124e108b9e12678f1f013409ae556d3b59462",
    "envelope_SYN04.csv": "a90d3dcf983680eb957a435b706f62e6854ed0ef2f00f85c61b232d7a30ba805",
    "envelope_SYN05.csv": "a4633f20fa79cdfaf9bfca9cbb43df3e743ccf7601c72e271b7c80c43408e424",
    "envelope_return-1.csv": "d43d02c7c7db4399559c42f0fa7ae8eff9933165fd8944caf94874705058a6e2",
    "envelope_return-2.csv": "115c1b29b69bb520b3608eb7e5d595f92b1a6ee2d7fb1a3e6e950ef2d933cc06",
    "envelope_return-3.csv": "2ccf0fafe5e24b84da864c9ce3e4fe802d10b252591a1ea184f47fb7b808a8c1",
    "envelope_risk-1.csv": "277fd0059897082b26647d793bb5c52b65febe61c970b938c0f6177466eb07cf",
    "envelope_risk-2.csv": "e8db0876d11a4f855ca3171622d33ba0ab7480ea12ec4efd01e9c46177b90966",
    "envelope_risk-3.csv": "7b883f3147f4a4af9795ca6ffaf501e89cc0cd2dd2c3b2a306671660d99944f7",
    "envelope_sharpe-1.csv": "ee6a9f3171a34355ad2159c38a37141248d525ec53c74278073f1489a5821210",
    "envelope_sharpe-2.csv": "45a5cdd12a98db26e1f8b201e0ae70c7d660d934aa943fb784cf72b641780fd7",
    "envelope_sharpe-3.csv": "d3484d035766a5dd3eb3c1fe6fcc736e523fa6ad978ddb1c9e8ddbaec8817e3c",
    "groups_return.csv": "0580701f787d3200566e2fa88355c2e76ec1c48f01a3833271189e4f935fd075",
    "groups_risk.csv": "4fd208217bf5c6ed3c12a82852688122231c9c62b01e93e23f6dde6d4e311ac0",
    "groups_sharpe.csv": "0580701f787d3200566e2fa88355c2e76ec1c48f01a3833271189e4f935fd075",
    "report_SYN00.csv": "cbc55cfddb20681ecc90269fb41053e8c005d712a8504e881f1c0e91b2eb4e10",
    "report_SYN01.csv": "8024c2e0dbfda644e3de48d046f9497fe8a4cacfe9b01fa80ed08b2022f14747",
    "report_SYN02.csv": "7bee76439abd69809274a91d93a7eed29680fcb1421d328672ae7b53cedf6bbe",
    "report_SYN03.csv": "0f080dd9a96a4c7560234e7c3fc62642303095ad6d5e776ab8e7a24e5d0a721d",
    "report_SYN04.csv": "e1499c7294d5431346f8c5402bd17691e3d1ebe830b466caf6814df82978deee",
    "report_SYN05.csv": "12ec276c7f9119f49a2b50caa7bd1687299fd68ff2b36e0b0f18bf99fc4e8494",
    "report_return-1.csv": "5723d0cd83e676862a8466238902babd0d5cd6b9a895e1b16a0527a67d5182ef",
    "report_return-2.csv": "2c3730be41be86e06b51accecf4a589a701ae591db82578993a1ef76393a1558",
    "report_return-3.csv": "7876a4918e0bb67b3e3ab6f12d2f58556c7e38d87285d80d31bed8e9b8d9f0b6",
    "report_risk-1.csv": "f32bef0f9872af09c4cb0c49b0e0a9c85621b3f314a5ff895dfd617fa51f6903",
    "report_risk-2.csv": "f43687b8b6ccff473e39318c2cfa948ae0493f57b791e2632983271a3edfd73a",
    "report_risk-3.csv": "bf13b42148cd45e4f161a3b349fb35588004ef90f786d5aece4a29037e52bf25",
    "report_sharpe-1.csv": "f14922197db009d7d4f9ec03e0abea811cef48ea844cd78679655d8bb9abae06",
    "report_sharpe-2.csv": "54009b5ef19c3b456c827b7fbedfaa1ed39ab930b36dba7d811f69d4bb67b9c6",
    "report_sharpe-3.csv": "27f88d6980fce4b1ed1832de0b06ae5d2db3571cdc1a3240cdabbdec08253ed2",
    "stats.csv": "c38837f6193921112aea35fbb036777feec1b55af53bda6461b721e28ec88715",
    "stats.txt": "3663db865f038406d8dd5a4415d940094071035e2cac31613c182224d36060f3",
    "summary.csv": "dcebe907e8edd254d1f74cffcc1b80407a92969b7ff7110a9554f8dd8d665836",
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
