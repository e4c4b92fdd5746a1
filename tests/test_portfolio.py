import math

import numpy as np
import pytest

from gbmfolio import portfolio
from gbmfolio.errors import DataError, NumericError, SettingsError
from gbmfolio.market_data import PriceSeries, align_panel
from gbmfolio.portfolio import (
    PortfolioStats,
    Weights,
    optimize_max_sharpe,
    portfolio_value_series,
    rank_and_group,
    trial_stats,
    trial_weights,
)
from gbmfolio.stats import asset_stats, sharpe_ratio
from gbmfolio.streams import uniform_rows

from conftest import series

RISK_FREE = 0.019


def panel_from_columns(columns):
    """columns: dict ticker -> price list, all on the same day axis."""
    return align_panel([series(p, t) for t, p in columns.items()])


def gbm_prices(rng, n, mu, sigma, s0=100.0):
    steps = (mu - 0.5 * sigma**2) + sigma * rng.standard_normal(n - 1)
    return s0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))


def portfolio_stats(panel, weights, risk_free):
    """Oracle: annualized return, risk and Sharpe of one weight vector.

    Written apart from the optimizer's calibration and trial scoring:
    np.cov of the daily log returns, then w' Sigma w.
    """
    w = weights.values
    log_rets = np.diff(np.log(panel.matrix), axis=0)
    cov = np.atleast_2d(np.cov(log_rets, rowvar=False, ddof=1))
    ret = float(w @ log_rets.mean(axis=0)) * 252
    risk = math.sqrt(max(float(w @ cov @ w), 0.0) * 252)
    return PortfolioStats(ret, risk, sharpe_ratio(ret, risk, risk_free))


class TestValueSeries:
    def test_single_asset_passthrough(self):
        panel = panel_from_columns({"A": [10, 12]})
        v = portfolio_value_series(panel, Weights([1.0]), 100.0)
        assert list(v.prices) == [100.0, 120.0]

    def test_homogeneous_doubling(self):
        panel = panel_from_columns({"A": [10, 20], "B": [50, 100]})
        v = portfolio_value_series(panel, Weights([0.3, 0.7]), 500.0)
        assert list(v.prices) == pytest.approx([500.0, 1000.0])

    def test_mixed_moves(self):
        # 200 * (0.5 * 1.2 + 0.5 * 0.9) = 210
        panel = panel_from_columns({"A": [10, 12], "B": [10, 9]})
        v = portfolio_value_series(panel, Weights([0.5, 0.5]), 200.0)
        assert list(v.prices) == pytest.approx([200.0, 210.0])

    def test_linear_in_capital_and_scale_invariant(self, rng):
        prices = {f"T{i}": rng.uniform(5, 50, 20) for i in range(3)}
        panel = panel_from_columns(prices)
        w = Weights(trial_weights(7, 1, 1, 3)[0])
        v1 = portfolio_value_series(panel, w, 100.0)
        v2 = portfolio_value_series(panel, w, 250.0)
        assert np.allclose(v2.prices, 2.5 * v1.prices, rtol=1e-12)
        scaled = panel_from_columns({t: np.asarray(p) * 7.0 for t, p in prices.items()})
        v3 = portfolio_value_series(scaled, w, 100.0)
        assert np.allclose(v3.prices, v1.prices, rtol=1e-12)

    def test_dimension_mismatch(self):
        panel = panel_from_columns({"A": [10, 12]})
        with pytest.raises(DataError):
            portfolio_value_series(panel, Weights([0.5, 0.5]), 100.0)


class TestWeightsContract:
    @pytest.mark.parametrize("values", [[np.nan, 1.0], [np.nan], [0.5, 0.5, np.nan]])
    def test_nan_is_rejected(self, values):
        with pytest.raises(DataError):
            Weights(values)

    def test_optimizer_rejects_a_nan_trial(self, monkeypatch):
        def with_nan(*args):
            block = trial_weights(*args)
            block[-1, 0] = np.nan
            return block

        monkeypatch.setattr(portfolio, "trial_weights", with_nan)
        with pytest.raises(DataError, match="trial weights are not"):
            optimize_max_sharpe(dominant_pair_panel(), 10, seed=1, risk_free=RISK_FREE)


class TestRandomWeights:
    """Random trial weights: the seed's stream uniforms, normalized by their sum."""

    def test_single_asset(self):
        assert np.array_equal(trial_weights(5, 1, 10, 1), np.ones((10, 1)))

    def test_deterministic_for_seed(self):
        w1 = trial_weights(5, 1, 1, 4)[0]
        w2 = trial_weights(5, 1, 1, 4)[0]
        assert np.array_equal(w1, w2)
        assert w1.sum() == pytest.approx(1.0, abs=1e-12)

    def test_simplex_mean(self):
        draws = trial_weights(7, 1, 10_000, 3)
        assert np.allclose(draws.mean(axis=0), 1 / 3, atol=0.02)

    def test_coordinate_can_dominate(self):
        assert (trial_weights(6, 1, 2000, 3) > 0.5).any(axis=0).all()

    def test_zero_assets(self):
        with pytest.raises(DataError):
            trial_weights(5, 1, 1, 0)


class TestPortfolioStats:
    """The portfolio_stats oracle, and the optimizer's statistics against it."""

    def test_single_asset_matches_asset_stats(self, rng):
        prices = rng.uniform(5, 50, 40)
        panel = panel_from_columns({"A": prices})
        st = asset_stats(series(prices, "A"), RISK_FREE)
        for ps in (
            portfolio_stats(panel, Weights([1.0]), RISK_FREE),
            optimize_max_sharpe(panel, 1, seed=0, risk_free=RISK_FREE)[1],
        ):
            assert ps.return_annual == pytest.approx(st.return_annual, rel=1e-12)
            assert ps.risk_annual == pytest.approx(st.risk_annual, rel=1e-12)
            assert ps.sharpe == pytest.approx(st.sharpe, rel=1e-12)

    def test_optimizer_stats_match_oracle(self, rng):
        panel = panel_from_columns({f"T{i}": gbm_prices(rng, 80, 0.001, 0.02) for i in range(5)})
        weights, best = optimize_max_sharpe(panel, 200, seed=4, risk_free=RISK_FREE)
        oracle = portfolio_stats(panel, weights, RISK_FREE)
        assert best.return_annual == pytest.approx(oracle.return_annual, rel=1e-12)
        assert best.risk_annual == pytest.approx(oracle.risk_annual, rel=1e-12)
        assert best.sharpe == pytest.approx(oracle.sharpe, rel=1e-12)

    def test_perfectly_correlated_identical_assets(self, rng):
        prices = rng.uniform(5, 50, 40)
        panel = panel_from_columns({"A": prices, "B": prices * 2.0})
        ps = portfolio_stats(panel, Weights([0.5, 0.5]), RISK_FREE)
        single = portfolio_stats(panel_from_columns({"A": prices}), Weights([1.0]), RISK_FREE)
        assert ps.risk_annual == pytest.approx(single.risk_annual, rel=1e-9)

    def test_independent_equal_sigma_diversification(self, rng):
        # two independent assets with the same sigma: risk ~ sigma / sqrt(2)
        a = gbm_prices(rng, 4000, 0.0, 0.01)
        b = gbm_prices(rng, 4000, 0.0, 0.01)
        panel = panel_from_columns({"A": a, "B": b})
        ps = portfolio_stats(panel, Weights([0.5, 0.5]), RISK_FREE)
        single = asset_stats(series(a, "A"), RISK_FREE)
        assert ps.risk_annual == pytest.approx(single.risk_annual / math.sqrt(2), rel=0.05)
        # oracle: brute-force covariance of the weighted daily log returns
        ra = np.diff(np.log(a))
        rb = np.diff(np.log(b))
        w = 0.5
        cov = np.cov(np.vstack([ra, rb]), ddof=1)
        var_p = w * w * cov[0, 0] + 2 * w * w * cov[0, 1] + w * w * cov[1, 1]
        assert ps.risk_annual == pytest.approx(math.sqrt(var_p * 252), rel=1e-9)

    def test_zero_variance_errors(self):
        panel = panel_from_columns({"A": [5, 5, 5, 5]})
        with pytest.raises(NumericError):
            portfolio_stats(panel, Weights([1.0]), RISK_FREE)

    def test_trial_stats_loop_oracle(self, rng):
        n = 7
        weights = rng.random((50, n))
        weights /= weights.sum(axis=1, keepdims=True)
        mu = rng.standard_normal(n) * 1e-3
        m = rng.standard_normal((n, n)) * 1e-2
        cov = m @ m.T
        ret, risk = trial_stats(weights, mu, cov)
        for t, w in enumerate(weights):
            r = sum(w[i] * mu[i] for i in range(n))
            var = sum(w[i] * cov[i, j] * w[j] for i in range(n) for j in range(n))
            assert ret[t] == pytest.approx(r * 252, rel=1e-12)
            assert risk[t] == pytest.approx(math.sqrt(var * 252), rel=1e-12)


def dominant_pair_panel(n=300, sigma=0.012, shift=0.002, seed=99):
    """Two assets with correlation 1 and equal sigma; A's drift is higher."""
    rng = np.random.default_rng(seed)
    steps = sigma * rng.standard_normal(n - 1)
    a = 100 * np.exp(np.concatenate(([0.0], np.cumsum(steps + shift))))
    b = 100 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    return panel_from_columns({"A": a, "B": b})


class TestOptimizeMaxSharpe:
    def test_single_trial_contract(self, rng):
        panel = panel_from_columns({f"T{i}": gbm_prices(rng, 50, 0.001, 0.02) for i in range(3)})
        weights, stats = optimize_max_sharpe(panel, 1, seed=1, risk_free=RISK_FREE)
        equal = portfolio_stats(panel, Weights(np.full(3, 1 / 3)), RISK_FREE)
        assert stats.sharpe >= equal.sharpe

    def test_deterministic(self, rng):
        panel = panel_from_columns({f"T{i}": gbm_prices(rng, 60, 0.001, 0.02) for i in range(4)})
        r1 = optimize_max_sharpe(panel, 500, seed=42, risk_free=RISK_FREE)
        r2 = optimize_max_sharpe(panel, 500, seed=42, risk_free=RISK_FREE)
        assert np.array_equal(r1[0].values, r2[0].values)
        assert r1[1] == r2[1]

    def test_block_size_does_not_change_result(self, rng):
        panel = panel_from_columns({f"T{i}": gbm_prices(rng, 60, 0.001, 0.02) for i in range(4)})
        r1 = optimize_max_sharpe(panel, 300, seed=3, risk_free=RISK_FREE, block_size=7)
        r2 = optimize_max_sharpe(panel, 300, seed=3, risk_free=RISK_FREE, block_size=8192)
        assert np.array_equal(r1[0].values, r2[0].values)

    def test_dominant_asset_gets_nearly_all(self):
        panel = dominant_pair_panel()
        weights, stats = optimize_max_sharpe(panel, 100_000, seed=7, risk_free=RISK_FREE)
        assert weights.values[0] >= 0.95
        # grid-search oracle over w in {0, 0.01, ..., 1}
        best = -math.inf
        for w in np.linspace(0, 1, 101):
            try:
                s = portfolio_stats(panel, Weights([w, 1 - w]), RISK_FREE).sharpe
            except NumericError:
                continue
            best = max(best, s)
        assert abs(stats.sharpe - best) <= 0.05

    def test_all_trials_undefined(self):
        panel = panel_from_columns({"A": [5, 5, 5, 5]})
        with pytest.raises(NumericError):
            optimize_max_sharpe(panel, 10, seed=0, risk_free=RISK_FREE)


class TestTrialStream:
    """Trial i >= 1 is row i of the seed's stream, normalized by its sum."""

    def test_row_alone_equals_row_in_block(self):
        block = uniform_rows(11, 0, 8192, 13)
        weights = trial_weights(11, 0, 8192, 13)
        for i in (0, 1, 2, 5000, 8191):
            assert np.array_equal(uniform_rows(11, i, 1, 13)[0], block[i])
        for i in (1, 2, 5000, 8191):
            assert np.array_equal(trial_weights(11, i, 1, 13)[0], weights[i])

    def test_trial_zero_is_equal_weight(self):
        assert np.array_equal(trial_weights(5, 0, 3, 4)[0], np.full(4, 0.25))

    def test_block_size_one_equals_8192(self, rng):
        panel = panel_from_columns({f"T{i}": gbm_prices(rng, 60, 0.001, 0.02) for i in range(5)})
        one = optimize_max_sharpe(panel, 400, seed=8, risk_free=RISK_FREE, block_size=1)
        big = optimize_max_sharpe(panel, 400, seed=8, risk_free=RISK_FREE, block_size=8192)
        assert np.array_equal(one[0].values, big[0].values)
        assert one[1] == big[1]

    def test_trial_stats_row_alone_equals_row_in_block(self, rng):
        n = 13
        weights = trial_weights(4, 0, 500, n)
        m = rng.standard_normal((n, n)) * 1e-2
        mu, cov = rng.standard_normal(n) * 1e-3, m @ m.T
        ret, risk = trial_stats(weights, mu, cov)
        for i in range(len(weights)):
            alone = trial_stats(weights[i : i + 1], mu, cov)
            assert (alone[0][0], alone[1][0]) == (ret[i], risk[i])

    def test_weight_coordinate_means(self):
        n, count = 5, 200_000
        weights = trial_weights(2024, 1, count, n)
        assert np.all(weights >= 0)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        se = weights.std(axis=0, ddof=1) / math.sqrt(count)
        assert np.all(np.abs(weights.mean(axis=0) - 1 / n) <= 3 * se)

    def test_seed_wider_than_128_bits(self, rng):
        panel = panel_from_columns({f"T{i}": gbm_prices(rng, 60, 0.001, 0.02) for i in range(3)})
        weights, _ = optimize_max_sharpe(panel, 50, seed=2**140 + 1, risk_free=RISK_FREE)
        assert weights.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_seed_is_data_error(self, rng):
        panel = panel_from_columns({f"T{i}": gbm_prices(rng, 60, 0.001, 0.02) for i in range(3)})
        with pytest.raises(DataError, match="seed"):
            optimize_max_sharpe(panel, 10, seed=-1, risk_free=RISK_FREE)


class TestRankAndGroup:
    def make_universe(self, rng, n, mus=None, sigmas=None):
        cols = {}
        for i in range(n):
            mu = mus[i] if mus else 0.0005 * (i + 1)
            sigma = sigmas[i] if sigmas else 0.01
            cols[f"T{i}"] = gbm_prices(rng, 400, mu, sigma)
        return panel_from_columns(cols)

    def column_stats(self, universe, ticker):
        j = universe.tickers.index(ticker)
        return asset_stats(PriceSeries(ticker, universe.dates, universe.matrix[:, j]), RISK_FREE)

    def universe_stats(self, universe):
        return [self.column_stats(universe, t) for t in universe.tickers]

    def test_singleton_groups_descending_by_return(self, rng):
        universe = self.make_universe(rng, 6)
        groups = rank_and_group(self.universe_stats(universe), "return", group_count=6, group_size=1)
        rets = [self.column_stats(universe, g[0]).return_annual for g in groups]
        assert rets == sorted(rets, reverse=True)

    def test_risk_descending(self, rng):
        cols = {
            "A": gbm_prices(rng, 400, 0.0, 0.3 / math.sqrt(252)),
            "B": gbm_prices(rng, 400, 0.0, 0.2 / math.sqrt(252)),
            "C": gbm_prices(rng, 400, 0.0, 0.1 / math.sqrt(252)),
        }
        universe = panel_from_columns(cols)
        groups = rank_and_group(self.universe_stats(universe), "risk", group_count=3, group_size=1)
        assert groups == (("A",), ("B",), ("C",))

    def test_tie_breaks_lexicographically(self):
        prices = [10.0, 11.0, 10.5, 12.0]
        universe = panel_from_columns({"ZZZ": prices, "AAA": prices})
        groups = rank_and_group(self.universe_stats(universe), "return", group_count=2, group_size=1)
        assert groups == (("AAA",), ("ZZZ",))

    def test_partition_and_sortedness(self, rng):
        universe = self.make_universe(rng, 12)
        groups = rank_and_group(self.universe_stats(universe), "sharpe", group_count=4, group_size=3)
        flat = [t for g in groups for t in g]
        assert sorted(flat) == sorted(universe.tickers)
        sharpes = [self.column_stats(universe, t).sharpe for t in flat]
        assert sharpes == sorted(sharpes, reverse=True)

    def test_divisibility_error(self, rng):
        universe = self.make_universe(rng, 5)
        with pytest.raises(SettingsError, match="split into group_count 2 x group_size 3"):
            rank_and_group(self.universe_stats(universe), "return", group_count=2, group_size=3)
