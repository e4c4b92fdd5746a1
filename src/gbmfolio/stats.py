"""Return, risk and Sharpe computations on daily price series.

Log returns drive all calibration and annualized statistics.
Annualization uses 252 trading days: mean daily return x 252, daily
standard deviation x sqrt(252).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .market_data import TRADING_DAYS_PER_YEAR


@dataclass(frozen=True)
class AssetStats:
    """Daily and annualized return/risk plus Sharpe for one asset.

    sharpe is None when the series has zero risk (undefined ratio).
    """

    ticker: str
    mu_daily: float
    sigma_daily: float
    return_annual: float
    risk_annual: float
    sharpe: float | None


def log_returns(prices):
    """ln(P1 / P0) for each consecutive pair of rows (days); additive over windows."""
    return np.log(prices[1:] / prices[:-1])


def sharpe_ratio(return_annual, risk_annual, risk_free):
    """Excess annual return per unit of positive annual risk, for floats or arrays alike."""
    return (return_annual - risk_free) / risk_annual


def asset_stats(series, risk_free):
    """All per-asset statistics in one pass over the daily log returns of at least 3 prices."""
    rets = log_returns(series.prices)
    mu_daily = float(np.mean(rets))
    sigma_daily = float(np.std(rets, ddof=1))
    if not (math.isfinite(mu_daily) and math.isfinite(sigma_daily)):
        raise NumericError(f"{series.ticker}: return or risk is not finite (price ratio overflow)")
    return_annual = mu_daily * TRADING_DAYS_PER_YEAR
    risk_annual = sigma_daily * math.sqrt(TRADING_DAYS_PER_YEAR)
    sharpe = None
    if risk_annual > 0:
        sharpe = sharpe_ratio(return_annual, risk_annual, risk_free)
        if not math.isfinite(sharpe):
            raise NumericError(f"{series.ticker}: Sharpe is not finite at risk_free {risk_free}")
    return AssetStats(series.ticker, mu_daily, sigma_daily, return_annual, risk_annual, sharpe)
