"""Forecast scoring: Pearson correlation and MAPE over standard horizons.

MAPE divides each absolute error by the forecast value, as the paper
does. MAPE values map onto four precision bands: high (<= 10%), good
(<= 20%), reasonable (<= 50%) and imprecise above that.

Ensembles are scored per path over each horizon's days 1..h (day 0 is
the known starting price and is excluded), then averaged across paths.
Each call scores every horizon in one reused (max_h, n_paths) buffer,
over the time-major rows paths.T.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError


# a horizon label is written unquoted into CSVs
_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class HorizonSpec:
    label: str
    days: int

    def __post_init__(self):
        if not _LABEL.fullmatch(self.label):
            raise DataError(
                f"bad horizon label {self.label!r}: a label is letters, digits and . _ -,"
                " starting with a letter or a digit"
            )
        if self.days < 1:
            raise DataError("horizon days must be >= 1")


DEFAULT_HORIZONS = (
    HorizonSpec("1w", 5),
    HorizonSpec("2w", 10),
    HorizonSpec("1m", 21),
    HorizonSpec("6m", 126),
    HorizonSpec("1y", 247),
)


@dataclass(frozen=True)
class HorizonResult:
    """One horizon's scores: a row of report_<subject>.csv, its fields in column order."""

    horizon: str  # the HorizonSpec's label
    days: int
    mean_correlation: float | None  # None when the actual or every path segment is constant
    mape: float
    band: str


def classify_mape(value):
    """Precision band for a MAPE value."""
    if math.isnan(value):
        raise DataError("MAPE is not a number")
    if value < 0:
        raise DataError("MAPE cannot be negative")
    if value <= 0.10:
        return "high"
    if value <= 0.20:
        return "good"
    if value <= 0.50:
        return "reasonable"
    return "imprecise"


def evaluate_ensemble(pathset, actual, horizons=DEFAULT_HORIZONS):
    """Score an ensemble against realized prices: one HorizonResult per horizon, in order.

    actual must cover every horizon plus the starting day (index 0
    aligns with the paths' starting price). Per horizon, correlation and
    MAPE are computed per path over days 1..h and averaged across paths;
    paths whose segment is constant are skipped in the correlation mean
    but still counted for MAPE. A MAPE or mean correlation that is not
    finite (an ensemble or a sum of squares that overflowed) raises
    NumericError.

    One (max_h, n_paths) buffer, one row per day, does all the work: it is
    filled once with the absolute percentage errors over days 1..max_h,
    each horizon's per-path MAPE sums its first h rows, and it is then
    overwritten per horizon with the paths' deviations from their means.
    A prefix of rows sums in the same order as a fresh (h, n_paths) array,
    so the results are those of scoring each horizon on its own.
    """
    steps = pathset.paths.T
    max_h = max(h.days for h in horizons)
    if len(actual) < max_h + 1:
        raise DataError(f"actual series too short for horizon {max_h}")
    if steps.shape[0] < max_h + 1:
        raise DataError(f"simulated horizon too short for horizon {max_h}")
    if steps.shape[1] < 1:
        raise DataError("no paths to evaluate")

    prices = actual.prices
    f_all = steps[1 : max_h + 1]
    # x.all() is False iff some x == 0, without a boolean temporary
    if not f_all.all():
        raise NumericError("undefined MAPE: zero forecast value")

    buf = np.subtract(prices[1 : max_h + 1, None], f_all)
    np.abs(buf, out=buf)
    np.divide(buf, f_all, out=buf)
    mapes = []
    for spec in horizons:
        value = float((buf[: spec.days].sum(axis=0) / spec.days).mean())
        if not math.isfinite(value):
            raise NumericError(f"{spec.label}: MAPE is {value}; the ensemble overflowed")
        mapes.append(value)

    results = []
    for spec, mape_mean in zip(horizons, mapes):
        h = spec.days
        corr_mean = None  # a single point, or no usable path, has no correlation
        if h >= 2:
            a = prices[1 : h + 1]
            f = steps[1 : h + 1]
            da = a - a.mean()
            df = np.subtract(f, f.mean(axis=0), out=buf[:h])
            ss_a = float(da @ da)
            ss_f = np.einsum("ip,ip->p", df, df)
            # constancy is tested exactly: a constant segment's deviations from
            # its rounded mean need not be zero, so ss > 0 alone lets it through
            usable = (ss_f > 0) & (f.max(axis=0) > f.min(axis=0))
            if ss_a > 0 and a.max() > a.min() and usable.any():
                r = (da @ df)[usable] / np.sqrt(ss_f[usable] * ss_a)
                corr_mean = float(np.clip(r, -1.0, 1.0).mean())
                if not math.isfinite(corr_mean):
                    raise NumericError(f"{spec.label}: correlation is {corr_mean}; sums overflowed")
        results.append(
            HorizonResult(spec.label, h, corr_mean, mape_mean, classify_mape(mape_mean))
        )
    return tuple(results)
