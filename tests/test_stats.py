import math

import numpy as np
import pytest

from gbmfolio.errors import NumericError
from gbmfolio.stats import asset_stats, log_returns, sharpe_ratio

from conftest import series


class TestLogReturns:
    def test_zero(self):
        assert log_returns(np.asarray([100, 100])) == pytest.approx([0.0])

    def test_e(self):
        assert log_returns(np.asarray([100, 100 * math.e])) == pytest.approx([1.0])

    def test_ln_1_1(self):
        # oracle: high-precision ln(1.1)
        assert log_returns(np.asarray([100, 110])) == pytest.approx([0.0953101798043], abs=1e-10)

    def test_additivity(self, rng):
        s = series(rng.uniform(5, 50, 30))
        total = log_returns(s.prices).sum()
        assert total == pytest.approx(math.log(s.prices[-1] / s.prices[0]), rel=1e-10)

    def test_a_price_matrix_gives_each_column_its_own_log_returns(self, rng):
        # rows are days: the optimizer's panel and one ticker's prices share the formula
        prices = rng.uniform(5, 50, (250, 13))
        rets = log_returns(prices)
        assert rets.shape == (249, 13)
        for j in range(prices.shape[1]):
            assert rets[:, j].tobytes() == log_returns(prices[:, j]).tobytes()


class TestAnnualize:
    """asset_stats: mean daily log return x 252, sample std x sqrt(252)."""

    def test_constant_log_return(self):
        prices = 100 * np.exp(0.001 * np.arange(10))
        assert asset_stats(series(prices), 0.019).return_annual == pytest.approx(0.252)

    def test_all_zero(self):
        assert asset_stats(series([7, 7, 7]), 0.019).return_annual == 0.0

    def test_requires_log_kind(self):
        # log returns ln 2, -ln 2 average 0; simple returns 1, -0.5 would average 0.25
        assert asset_stats(series([1, 2, 1]), 0.019).return_annual == 0.0

    def test_zero_variance_risk(self):
        prices = 100 * np.cumprod([1.0, 1.01, 1.01, 1.01])
        assert asset_stats(series(prices), 0.019).risk_annual == pytest.approx(0.0, abs=1e-12)

    def test_two_point_risk(self):
        # oracle: sample std of [0, ln 1.02] = ln(1.02) / sqrt(2) = 0.0140025720
        prices = [100.0, 100.0, 100.0 * 1.02]
        assert list(log_returns(np.asarray(prices))) == pytest.approx([0.0, math.log(1.02)])
        risk = asset_stats(series(prices), 0.019).risk_annual
        assert risk == pytest.approx(0.0140025720 * math.sqrt(252), abs=1e-6)
        assert risk == pytest.approx(0.222284, abs=1e-6)

    def test_risk_matches_two_pass_oracle(self, rng):
        s = series(rng.uniform(5, 50, 60))
        x = log_returns(s.prices)
        mean = sum(x) / len(x)
        var = sum((v - mean) ** 2 for v in x) / (len(x) - 1)
        assert asset_stats(s, 0.019).risk_annual == pytest.approx(math.sqrt(var * 252), rel=1e-12)


class TestSharpe:
    @pytest.mark.parametrize(
        "ret,risk,expected",
        [(0.463, 0.514, 0.864), (0.354, 0.409, 0.819), (0.417, 0.303, 1.314), (0.631, 0.415, 1.475)],
    )
    def test_published_triples(self, ret, risk, expected):
        assert sharpe_ratio(ret, risk, 0.019) == pytest.approx(expected, abs=0.001)

    def test_zero_excess(self):
        assert sharpe_ratio(0.1, 0.3, 0.1) == 0.0

    def test_an_overflowing_sharpe_is_a_numeric_error(self, rng):
        # annual risk below 1, so (return - 1e308) / risk overflows to -inf
        s = series(100 * np.exp(np.cumsum(0.01 * rng.standard_normal(60))), "A")
        with pytest.raises(NumericError) as exc:
            asset_stats(s, 1e308)
        assert str(exc.value) == "A: Sharpe is not finite at risk_free 1e+308"


class TestProperties:
    def test_taylor_bound(self, rng):
        # |R_log - R_s| <= R_s^2 whenever |R_s| <= 0.1
        p0 = rng.uniform(10, 100, 10_000)
        rs = rng.uniform(-0.1, 0.1, 10_000)
        p1 = p0 * (1 + rs)
        rlog = log_returns(np.column_stack([p0, p1]).ravel())[::2]
        assert np.all(np.abs(rlog - rs) <= rs * rs + 1e-15)

    def test_scale_invariance(self, rng):
        prices = rng.uniform(5, 50, 50)
        for scale in (0.001, 3.7, 1e6):
            a = asset_stats(series(prices), 0.019)
            b = asset_stats(series(prices * scale), 0.019)
            assert b.mu_daily == pytest.approx(a.mu_daily, rel=1e-9, abs=1e-12)
            assert b.sigma_daily == pytest.approx(a.sigma_daily, rel=1e-12)
            assert b.sharpe == pytest.approx(a.sharpe, rel=1e-9)
            ra = log_returns(prices)
            rb = log_returns(prices * scale)
            assert np.allclose(ra, rb, rtol=1e-12, atol=1e-15)

    def test_asset_stats_consistency(self, rng):
        s = series(rng.uniform(5, 50, 100))
        st = asset_stats(s, 0.019)
        assert st.return_annual == pytest.approx(st.mu_daily * 252)
        assert st.risk_annual == pytest.approx(st.sigma_daily * math.sqrt(252))
        assert st.sharpe == pytest.approx((st.return_annual - 0.019) / st.risk_annual)

    def test_asset_stats_zero_risk(self):
        st = asset_stats(series([5, 5, 5, 5]), 0.019)
        assert st.risk_annual == 0.0
        assert st.sharpe is None
