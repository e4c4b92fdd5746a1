"""Wiener increments and closed-form geometric Brownian motion paths.

Paths follow S(t) = S(0) * exp((mu - sigma^2/2) t + sigma W(t)) sampled
at daily steps, with W built from standard-normal increments scaled by
sqrt(dt). Path i of an ensemble is row i of the seed's counter stream
(see streams.py), turned into normals by Box-Muller, so it depends on
(seed, i) alone and results are reproducible regardless of execution order,
and of which arrays the ensemble is drawn into.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .streams import padded_width, uniform_rows


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
    """Ensemble of simulated trajectories, shape (n_paths, horizon + 1).

    `paths` is a read-only view: the array it views stays writable, so a
    caller's arrays can be drawn into again (simulate_ensemble's `out`).
    """

    paths: np.ndarray
    params: GbmParams
    config: SimulationConfig

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float).view()
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


def gbm_paths(s0, mu, sigma, dt, normals, out=None):
    """Closed-form GBM paths from pre-drawn standard normals.

    normals has shape (n_paths, horizon); the result has shape
    (n_paths, horizon + 1) with column 0 fixed at s0. It is written into
    `out` when one is given, and into a fresh array otherwise.
    """
    normals = np.asarray(normals, dtype=float)
    shape = (normals.shape[0], normals.shape[1] + 1)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise DataError(f"out has shape {out.shape}, need {shape}")
    out[:, 0] = s0
    log_rel = out[:, 1:]
    np.multiply(normals, sigma * np.sqrt(dt), out=log_rel)
    log_rel += (mu - 0.5 * sigma * sigma) * dt
    np.cumsum(log_rel, axis=1, out=log_rel)
    np.exp(log_rel, out=log_rel)
    log_rel *= s0
    return out


def box_muller(uniforms, horizon):
    """The first `horizon` normals of each row of 2*ceil(horizon/2) uniforms.

    The left half of a row gives the radii, r = sqrt(-2 log(1 - u)), so the
    logarithm never sees 0; the right half gives the angles, theta = 2 pi u.
    The normals are r cos(theta) followed by r sin(theta), written over
    `uniforms`. Both come from the half-angle tangent t = tan(pi u), one
    ufunc where cos and sin would be two slower ones:
    r cos(theta) = 2r / (1 + t^2) - r and r sin(theta) = 2rt / (1 + t^2).
    At u = 1/2, tan(pi u) is about 1.6e16, so t^2 stays finite.
    """
    half = uniforms.shape[1] // 2
    radius, tangent = uniforms[:, :half], uniforms[:, half:]
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    tangent *= math.pi
    np.tan(tangent, out=tangent)
    scale = np.multiply(tangent, tangent)
    scale += 1.0
    np.divide(radius, scale, out=scale)
    scale *= 2.0  # 2r / (1 + t^2)
    tangent *= scale
    np.subtract(scale, radius, out=radius)
    return uniforms[:, :horizon]


def _normals_width(horizon):
    return 2 * -(-horizon // 2)


def ensemble_arrays(n_paths, horizon):
    """Fresh (uniforms, paths) arrays for one draw of n_paths x horizon steps.

    Pass them to simulate_ensemble's `out` to draw any number of
    ensembles of that shape into the same memory.
    """
    uniforms = np.empty((n_paths, padded_width(_normals_width(horizon))))
    return uniforms, np.empty((n_paths, horizon + 1))


def _ensemble_normals(config, uniforms=None):
    width = _normals_width(config.horizon)
    rows = uniform_rows(config.seed, 0, config.n_paths, width, out=uniforms)
    return box_muller(rows, config.horizon)


def simulate_ensemble(params, config, out=None):
    """n_paths independent paths; path i depends only on (seed, i).

    `out` is a (uniforms, paths) pair from ensemble_arrays(n_paths,
    horizon) to draw into, as NumPy's `out=` arguments are: the returned
    PathSet then views `paths`, and the next draw into the same pair
    overwrites it. Without `out`, each call draws into arrays of its own.
    """
    uniforms, paths = ensemble_arrays(config.n_paths, config.horizon) if out is None else out
    normals = _ensemble_normals(config, uniforms)
    gbm_paths(params.s0, params.mu, params.sigma, params.dt, normals, out=paths)
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
