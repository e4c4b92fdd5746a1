"""Wiener increments and closed-form geometric Brownian motion paths.

Paths follow S(t) = S(0) * exp((mu - sigma^2/2) t + sigma W(t)) sampled
at daily steps, with W built from standard-normal increments scaled by
sqrt(dt). Path i of an ensemble is row i of the seed's counter stream
(see streams.py), turned into normals by Box-Muller, so it depends on
(seed, i) alone and results are reproducible regardless of execution order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .streams import uniform_rows


@dataclass(frozen=True)
class GbmParams:
    """Drift/volatility in daily units plus the starting price."""

    s0: float
    mu: float  # per day
    sigma: float  # per sqrt(day)
    dt: float = 1.0  # trading days per step

    def __post_init__(self):
        if self.s0 <= 0:
            raise DataError("s0 must be positive")
        if self.sigma < 0:
            raise DataError("sigma must be nonnegative")
        if self.dt <= 0:
            raise DataError("dt must be positive")


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int = 1000
    horizon: int = 247  # trading days
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1 or self.horizon < 1:
            raise DataError("n_paths and horizon must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PathSet:
    """Ensemble of simulated trajectories, shape (n_paths, horizon + 1)."""

    paths: np.ndarray
    params: GbmParams
    config: SimulationConfig

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float)
        paths.flags.writeable = False
        object.__setattr__(self, "paths", paths)


@dataclass(frozen=True)
class Envelope:
    """Per-step empirical quantile band and mean across an ensemble."""

    lower: np.ndarray
    upper: np.ndarray
    mean: np.ndarray


def wiener_increments(n, dt, rng):
    """n draws of eps * sqrt(dt), eps standard normal."""
    if n < 1:
        raise DataError("need at least one increment")
    if dt <= 0:
        raise DataError("dt must be positive")
    return rng.standard_normal(n) * math.sqrt(dt)


def gbm_paths(s0, mu, sigma, dt, normals):
    """Closed-form GBM paths from pre-drawn standard normals.

    normals has shape (n_paths, horizon); the result has shape
    (n_paths, horizon + 1) with column 0 fixed at s0.
    """
    normals = np.asarray(normals, dtype=float)
    out = np.empty((normals.shape[0], normals.shape[1] + 1))
    out[:, 0] = s0
    log_rel = out[:, 1:]
    np.multiply(normals, sigma * np.sqrt(dt), out=log_rel)
    log_rel += (mu - 0.5 * sigma * sigma) * dt
    np.cumsum(log_rel, axis=1, out=log_rel)
    np.exp(log_rel, out=log_rel)
    log_rel *= s0
    return out


def gbm_path(params, horizon, rng):
    """One simulated path of horizon+1 prices starting at s0."""
    normals = rng.standard_normal((1, horizon))
    return gbm_paths(params.s0, params.mu, params.sigma, params.dt, normals)[0]


def box_muller(uniforms, horizon):
    """The first `horizon` normals of each row of 2*ceil(horizon/2) uniforms.

    The left half of a row gives the radii, sqrt(-2 log(1 - u)), so the
    logarithm never sees 0; the right half gives the angles. The normals
    are r*cos followed by r*sin, written over `uniforms`.
    """
    half = uniforms.shape[1] // 2
    radius, angle = uniforms[:, :half], uniforms[:, half:]
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    np.multiply(cos, radius, out=radius)
    return uniforms[:, :horizon]


def _ensemble_normals(config):
    width = 2 * -(-config.horizon // 2)
    return box_muller(uniform_rows(config.seed, 0, config.n_paths, width), config.horizon)


def simulate_ensemble(params, config):
    """n_paths independent paths; path i depends only on (seed, i)."""
    normals = _ensemble_normals(config)
    paths = gbm_paths(params.s0, params.mu, params.sigma, params.dt, normals)
    return PathSet(paths, params, config)


def _nearest_rank(sorted_cols, q):
    # sorted_cols: (n_paths, steps) sorted along axis 0; q=0 maps to the minimum
    n = sorted_cols.shape[0]
    idx = max(int(math.ceil(q * n)) - 1, 0)
    return sorted_cols[idx].copy()


def envelope(pathset, lower_q=0.05, upper_q=0.95):
    """Nearest-rank quantile band plus the arithmetic mean path."""
    if not (0 <= lower_q < upper_q <= 1):
        raise DataError("need 0 <= lower_q < upper_q <= 1")
    paths = pathset.paths
    sorted_cols = np.sort(paths, axis=0)
    return Envelope(
        lower=_nearest_rank(sorted_cols, lower_q),
        upper=_nearest_rank(sorted_cols, upper_q),
        mean=paths.mean(axis=0),
    )
