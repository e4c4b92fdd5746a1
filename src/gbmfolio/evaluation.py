"""Forecast scoring: Pearson correlation and MAPE over standard horizons.

MAPE here divides each absolute error by the forecast value (not the
actual); set denominator="actual" for the conventional form. MAPE values
map onto four precision bands: high (<= 10%), good (<= 20%), reasonable
(<= 50%) and imprecise above that.

Ensembles are scored per path over each horizon's days 1..h (day 0 is
the known starting price and is excluded), then averaged across paths.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError


@dataclass(frozen=True)
class HorizonSpec:
    label: str
    days: int

    def __post_init__(self):
        if self.days < 1:
            raise DataError("horizon days must be >= 1")


DEFAULT_HORIZONS = (
    HorizonSpec("1w", 5),
    HorizonSpec("2w", 10),
    HorizonSpec("1m", 21),
    HorizonSpec("6m", 126),
    HorizonSpec("1y", 247),
)

BANDS = ("high", "good", "reasonable", "imprecise")
MAPE_DENOMINATORS = ("forecast", "actual")


@dataclass(frozen=True)
class HorizonResult:
    horizon: HorizonSpec
    mean_correlation: float | None  # None when every path segment was constant
    mape: float
    band: str


@dataclass(frozen=True)
class EvalReport:
    subject: str
    results: tuple  # HorizonResult per horizon, in input order


def pearson_correlation(x, y):
    """Product-moment correlation of two equal-length samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise DataError("correlation needs two equal-length samples of >= 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        raise NumericError("undefined correlation: constant input")
    r = float(dx @ dy) / denom
    return max(-1.0, min(1.0, r))


def mape(actual, forecast, denominator="forecast"):
    """Mean absolute percentage error between two price lists."""
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if actual.shape != forecast.shape or len(actual) < 1:
        raise DataError("mape needs two equal-length nonempty lists")
    if denominator == "forecast":
        base = forecast
    elif denominator == "actual":
        base = actual
    else:
        raise DataError(f"unknown denominator {denominator!r}")
    if np.any(base == 0):
        raise NumericError("undefined MAPE: zero denominator value")
    return float(np.mean(np.abs(actual - forecast) / base))


def classify_mape(value):
    """Precision band for a MAPE value."""
    if value < 0:
        raise DataError("MAPE cannot be negative")
    if value <= 0.10:
        return "high"
    if value <= 0.20:
        return "good"
    if value <= 0.50:
        return "reasonable"
    return "imprecise"


def evaluate_ensemble(pathset, actual, horizons=DEFAULT_HORIZONS, denominator="forecast"):
    """Score an ensemble against realized prices at each horizon.

    actual must cover every horizon plus the starting day (index 0
    aligns with the paths' starting price). Per horizon, correlation and
    MAPE are computed per path over days 1..h and averaged across paths;
    paths whose segment is constant are skipped in the correlation mean
    but still counted for MAPE.
    """
    if denominator not in MAPE_DENOMINATORS:
        raise DataError(f"unknown denominator {denominator!r}")
    paths = pathset.paths
    max_h = max(h.days for h in horizons)
    if len(actual) < max_h + 1:
        raise DataError(f"actual series too short for horizon {max_h}")
    if paths.shape[1] < max_h + 1:
        raise DataError(f"simulated horizon too short for horizon {max_h}")
    if paths.shape[0] < 1:
        raise DataError("no paths to evaluate")

    results = []
    for spec in horizons:
        h = spec.days
        a = actual.prices[1 : h + 1]
        f = paths[:, 1 : h + 1]

        if np.any(f == 0) or (denominator == "actual" and np.any(a == 0)):
            raise NumericError("undefined MAPE: zero denominator value")
        base = f if denominator == "forecast" else a
        mape_mean = float(np.mean(np.abs(a - f) / base, axis=1).mean())

        if h >= 2:
            da = a - a.mean()
            df = f - f.mean(axis=1, keepdims=True)
            ss_a = float(da @ da)
            ss_f = np.einsum("pi,pi->p", df, df)
            usable = (ss_f > 0) & (ss_a > 0)
            if usable.any():
                r = (df[usable] @ da) / np.sqrt(ss_f[usable] * ss_a)
                corr_mean = float(np.clip(r, -1.0, 1.0).mean())
            else:
                corr_mean = None
        else:
            corr_mean = None  # single-point segments have no correlation

        results.append(HorizonResult(spec, corr_mean, mape_mean, classify_mape(mape_mean)))
    return EvalReport(actual.ticker, tuple(results))
