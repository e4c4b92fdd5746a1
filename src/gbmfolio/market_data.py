"""Loading, validation, alignment and windowing of daily price histories.

Prices come from CSV files in the common daily-export layout
(Date, Open, High, Low, Close, Adj Close, Volume); the adjusted close
is used as the price. Dates are opaque ordered labels: whatever trading
days the data contains define the calendar.

Each distinct date text is parsed once per process, so every series that
holds a trading day holds the same `datetime.date` object for it. Date
axes are sorted tuples: windows are cut by bisection and series on the
same axis are aligned without a lookup.
"""

import csv
import datetime as dt
import functools
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DataError

TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class PriceSeries:
    """One asset's dated daily closing prices.

    Dates are strictly increasing, prices are positive and finite,
    and there are at least two rows.
    """

    ticker: str
    dates: tuple
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(prices):
            raise DataError(f"{self.ticker}: dates and prices length mismatch")
        if len(prices) < 2:
            raise DataError(f"{self.ticker}: insufficient data (need >= 2 rows)")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0):
            raise DataError(f"{self.ticker}: prices must be positive and finite")
        if not _increasing(self.dates):
            raise DataError(f"{self.ticker}: dates not strictly increasing")

    def __len__(self):
        return len(self.prices)


@dataclass(frozen=True)
class PricePanel:
    """Multiple assets on a shared, strictly increasing trading-day axis, no missing cells."""

    tickers: tuple
    dates: tuple
    matrix: np.ndarray  # shape (n_dates, n_tickers)

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", tuple(self.dates))
        if matrix.shape != (len(self.dates), len(self.tickers)):
            raise DataError("panel matrix shape does not match axes")
        if not np.all(np.isfinite(matrix)) or np.any(matrix <= 0):
            raise DataError("panel prices must be positive and finite")
        if not _increasing(self.dates):
            raise DataError("panel dates not strictly increasing")


def _increasing(dates):
    return all(map(operator.lt, dates, dates[1:]))


@functools.lru_cache(maxsize=65536)
def _parse_date(text):
    # one date object per distinct text; a text that does not parse raises each time
    return dt.date.fromisoformat(text.strip())


def _drop(ticker, what):
    print(f"warning: {ticker}: {what}", file=sys.stderr)


def _read_rows(reader, path, ticker):
    """The dates and prices of every usable row, in file order, after the header."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    cols = {name.strip().lower(): i for i, name in enumerate(header)}
    if "date" not in cols:
        raise DataError(f"{path}: malformed header, no Date column")
    if "adj close" in cols:
        price_col = cols["adj close"]
    elif "close" in cols:
        price_col = cols["close"]
    else:
        raise DataError(f"{path}: malformed header, no Adj Close/Close column")
    date_col = cols["date"]
    last_col = max(date_col, price_col)

    dates, prices = [], []
    for row in reader:
        if not row:  # a blank line is not a row
            continue
        if len(row) <= last_col:
            _drop(ticker, f"dropping line {reader.line_num}: too few fields")
            continue
        try:
            date = _parse_date(row[date_col])
            price = float(row[price_col])
        except ValueError:
            _drop(ticker, f"dropping line {reader.line_num}: unparseable date or price")
            continue
        if not math.isfinite(price):
            _drop(ticker, f"dropping non-finite price on {row[date_col]}")
            continue
        if price <= 0:
            _drop(ticker, f"dropping non-positive price on {row[date_col]}")
            continue
        dates.append(date)
        prices.append(price)
    return dates, prices


def load_csv(path, ticker):
    """Load one asset's daily prices from a CSV export.

    The file needs a header with a date column and an adjusted-close
    column ("Adj Close", falling back to "Close"). Blank lines are skipped;
    every other row dropped (too few fields, an unparseable date or price,
    a non-finite or non-positive price, or a date already read) is
    named in its own `warning:` line on stderr.
    A file that is not UTF-8 text or not well-formed CSV is a DataError.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open price file {path}: {exc}") from exc
    with fh:
        try:
            dates, prices = _read_rows(csv.reader(fh), path, ticker)
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise DataError(f"{path}: malformed CSV: {exc}") from None

    if not _increasing(dates):
        dates, prices = _sorted_first_per_date(dates, prices, ticker)
    if len(dates) < 2:
        raise DataError(f"{ticker}: insufficient data in {path}")
    return PriceSeries(ticker, dates, np.array(prices))


def _sorted_first_per_date(dates, prices, ticker):
    """The rows in date order, keeping the first of each date and reporting each later one."""
    kept_dates, kept_prices = [], []
    # a stable sort: rows of one date stay in file order
    for date, price in sorted(zip(dates, prices), key=operator.itemgetter(0)):
        if kept_dates and kept_dates[-1] == date:
            _drop(ticker, f"duplicate date {date}, keeping first")
            continue
        kept_dates.append(date)
        kept_prices.append(price)
    return kept_dates, kept_prices


def align_panel(series_list):
    """Inner-join a list of PriceSeries onto their common dates."""
    if not series_list:
        raise DataError("align_panel needs at least one series")
    dates = series_list[0].dates
    if any(s.dates != dates for s in series_list[1:]):
        common = set(dates).intersection(*(s.dates for s in series_list[1:]))
        if not common:
            raise DataError("no common dates across series")
        dates = tuple(sorted(common))
    matrix = np.empty((len(dates), len(series_list)))
    for j, s in enumerate(series_list):
        if s.dates == dates:  # shared date objects compare by identity
            matrix[:, j] = s.prices
        else:
            matrix[:, j] = s.prices[[bisect_left(s.dates, d) for d in dates]]
    return PricePanel(tuple(s.ticker for s in series_list), dates, matrix)


def slice_period(series, start, end):
    """Rows with start <= date <= end; error if fewer than 2 remain."""
    if start > end:
        raise DataError(f"{series.ticker}: start {start} after end {end}")
    i, j = _window(series.dates, start, end)
    if j - i < 2:
        raise DataError(f"{series.ticker}: window {start}..{end} has fewer than 2 rows")
    return PriceSeries(series.ticker, series.dates[i:j], series.prices[i:j])


def slice_panel(panel, start, end):
    """slice_period applied to a whole panel."""
    if start > end:
        raise DataError(f"start {start} after end {end}")
    i, j = _window(panel.dates, start, end)
    if j - i < 2:
        raise DataError(f"window {start}..{end} has fewer than 2 rows")
    return PricePanel(panel.tickers, panel.dates[i:j], panel.matrix[i:j])


def _window(dates, start, end):
    """The positions [i, j) of the sorted dates with start <= date <= end."""
    return bisect_left(dates, start), bisect_right(dates, end)
