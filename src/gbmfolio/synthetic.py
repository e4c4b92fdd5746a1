"""Synthetic daily-price fixtures.

Real exchange data cannot be redistributed, so tests and demos run on a
generated universe with the same shape: one CSV per ticker in the common
daily-export layout, weekday dates, GBM prices with per-ticker drift and
volatility. It imports nothing from the package: tests pin its bytes.
"""

import datetime as dt
from pathlib import Path

import numpy as np


def weekday_range(start, end):
    """All Monday-Friday dates in [start, end]."""
    days = []
    d = start
    while d <= end:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def make_universe(
    data_dir,
    n_assets=78,
    start=dt.date(2016, 1, 4),
    end=dt.date(2019, 12, 30),
    seed=12345,
):
    """Write n_assets GBM-priced CSVs into data_dir; returns the tickers."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    dates = weekday_range(start, end)
    labels = [d.isoformat() for d in dates]
    horizon = len(dates) - 1
    tickers = [f"SYN{i:02d}" for i in range(n_assets)]
    for i, ticker in enumerate(tickers):
        rng = np.random.default_rng([seed, i])
        mu = rng.uniform(-0.001, 0.002)
        sigma = rng.uniform(0.005, 0.035)
        s0 = rng.uniform(5.0, 80.0)
        z = rng.standard_normal(horizon)
        log_rel = np.cumsum(z * sigma + (mu - 0.5 * sigma * sigma))
        prices = s0 * np.exp(np.concatenate(([0.0], log_rel)))
        # the bytes csv.writer's excel dialect writes: \r\n line ends, and no
        # ISO date or fixed-point price holds a character it would quote
        text = "Date,Open,High,Low,Close,Adj Close,Volume\r\n" + "".join(
            f"{date},{p},{p},{p},{p},{p},0\r\n"
            for date, p in zip(labels, map("{:.6f}".format, prices.tolist()))
        )
        (data_dir / f"{ticker}.csv").write_text(text, newline="")
    return tickers
