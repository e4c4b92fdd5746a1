"""Portfolio construction, random-weight Monte Carlo optimization, and
ranked grouping of an asset universe.

Portfolios are buy-and-hold: initial positions are fixed by the weight
vector and never rebalanced. Risk uses the full sample covariance matrix
of daily log returns (Markowitz form); return is the weighted mean of
per-asset daily mean log returns, annualized by 252.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, SettingsError
from .market_data import TRADING_DAYS_PER_YEAR, PriceSeries
from .streams import uniform_rows

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Weights:
    """Nonnegative allocation fractions summing to 1."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if len(values) == 0:
            raise DataError("weights cannot be empty")
        # written as tests that must hold, so that a NaN fails them
        if not np.all(values >= 0):
            raise DataError("weights must be nonnegative")
        if not abs(values.sum() - 1.0) <= WEIGHT_SUM_TOL:
            raise DataError(f"weights sum to {values.sum()}, expected 1")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class PortfolioStats:
    return_annual: float
    risk_annual: float
    sharpe: float


def portfolio_value_series(panel, weights, capital, name="portfolio"):
    """Buy-and-hold value series: capital split by weight on day 0."""
    if len(weights) != len(panel.tickers):
        raise DataError("weights do not match panel tickers")
    normalized = panel.matrix / panel.matrix[0, :]
    values = capital * (normalized @ weights.values)
    return PriceSeries(name, panel.dates, values)


def _normalize_rows(u):
    """Divide each row of uniforms by its sum, in place.

    A row summing to 0 (probability zero, but keep the contract total)
    becomes equal weights.
    """
    total = u.sum(axis=1)
    zero = total == 0.0
    if zero.any():
        u[zero] = 1.0
        total[zero] = u.shape[1]
    u /= total[:, None]
    return u


def trial_weights(seed, first, count, n_assets):
    """Weights of trials first .. first+count-1, shape (count, n_assets).

    Trial 0 is the equal-weight portfolio; trial i >= 1 is row i of the
    seed's stream (streams.uniform_rows), normalized by its sum.
    """
    block = _normalize_rows(uniform_rows(seed, first, count, n_assets))
    if first == 0:
        block[0] = 1.0 / n_assets
    return block


def trial_stats(weights, mu_daily, cov_daily):
    """Annualized return and risk for a block of weight vectors.

    weights: (n_trials, n_assets); mu_daily: (n_assets,) mean daily log
    returns; cov_daily: (n_assets, n_assets) sample covariance of daily
    log returns. Returns (ret_annual, risk_annual) arrays of length
    n_trials. Each row is summed on its own, in the same order whatever
    the block size; a BLAS product would take another kernel for a
    single row and round differently.
    """
    ret = (weights * mu_daily).sum(axis=1) * TRADING_DAYS_PER_YEAR
    var = (np.einsum("ti,ij->tj", weights, cov_daily) * weights).sum(axis=1)
    risk = np.sqrt(np.maximum(var, 0.0) * TRADING_DAYS_PER_YEAR)
    return ret, risk


def _calibrate(panel):
    """Mean vector and sample covariance of daily log returns."""
    if panel.matrix.shape[0] < 3:
        raise DataError("panel needs at least 3 dates for covariance")
    log_rets = np.diff(np.log(panel.matrix), axis=0)
    mu_daily = log_rets.mean(axis=0)
    cov_daily = np.cov(log_rets, rowvar=False, ddof=1).reshape(len(panel.tickers), -1)
    return mu_daily, cov_daily


def optimize_max_sharpe(panel, n_trials, seed, risk_free, block_size=8192):
    """Best Sharpe among random-weight trials plus the equal-weight baseline.

    Trial 0 is always the equal-weight portfolio, so the result can never
    be worse than it. Trial i >= 1 is row i of the seed's stream
    (trial_weights): it depends on (seed, i) alone, so the result is the
    same for every block size.
    """
    if n_trials < 1 or block_size < 1:
        raise DataError("need at least one trial and a block size >= 1")
    n = len(panel.tickers)
    mu_daily, cov_daily = _calibrate(panel)

    best_sharpe = -math.inf
    best_weights = None
    best_ret = best_risk = 0.0
    for first in range(0, n_trials + 1, block_size):
        count = min(block_size, n_trials + 1 - first)
        block = trial_weights(seed, first, count, n)
        # the Weights contract, checked once per block; a NaN fails it
        if not ((block >= 0).all() and (np.abs(block.sum(axis=1) - 1.0) <= WEIGHT_SUM_TOL).all()):
            raise DataError("trial weights are not nonnegative fractions summing to 1")
        ret, risk = trial_stats(block, mu_daily, cov_daily)
        ok = risk > 0
        if ok.any():
            sharpe = np.where(ok, (ret - risk_free) / np.where(ok, risk, 1.0), -math.inf)
            k = int(np.argmax(sharpe))
            if sharpe[k] > best_sharpe:
                best_sharpe = float(sharpe[k])
                best_weights = block[k].copy()
                best_ret, best_risk = float(ret[k]), float(risk[k])

    if best_weights is None:
        raise NumericError("undefined Sharpe for every trial (zero variance)")
    return Weights(best_weights), PortfolioStats(best_ret, best_risk, best_sharpe)


def _metric_value(stats, metric):
    if metric == "return":
        return stats.return_annual
    if metric == "risk":
        return stats.risk_annual
    if metric == "sharpe":
        if stats.sharpe is None:
            raise NumericError(f"{stats.ticker}: undefined Sharpe, cannot rank")
        return stats.sharpe
    raise DataError(f"unknown metric {metric!r}")


def rank_and_group(stats, metric, group_count, group_size):
    """Sort per-asset stats descending by a metric and chunk their tickers.

    Returns group_count tuples of group_size tickers, best metric values
    first. Ties break by ticker so the grouping is deterministic. The
    number of assets must equal group_count * group_size.
    """
    n = len(stats)
    if n != group_count * group_size:
        raise SettingsError(
            f"universe of {n} tickers does not split into group_count {group_count}"
            f" x group_size {group_size}"
        )
    ranked = sorted(stats, key=lambda s: (-_metric_value(s, metric), s.ticker))
    return tuple(
        tuple(s.ticker for s in ranked[g * group_size : (g + 1) * group_size])
        for g in range(group_count)
    )
