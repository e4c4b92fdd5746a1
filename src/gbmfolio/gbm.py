"""Closed-form geometric Brownian motion ensembles and their quantile band.

Paths follow S(t) = S(0) * exp((mu - sigma^2/2) t + sigma W(t)) sampled
at daily steps. W is a standard Brownian ensemble drawn once
(wiener_ensemble): path i is row i of the seed's stream (see streams.py),
turned into normals by Box-Muller and summed over the steps, so it
depends on (seed, i) alone and results are reproducible regardless of
execution order. simulate_ensemble prices one subject on a given W in
closed form, scaling it by sigma sqrt(dt), so any number of subjects can
share one draw (common random numbers): each subject's ensemble is still
n_paths iid GBM paths, and only the subjects' Monte Carlo errors are
correlated.

An ensemble is time-major from draw to band: one row per step, one
column per path. The stream is drawn path-major, one row per path, and
read transposed by Box-Muller's first operation on each half, into a
contiguous (steps, paths) array; every later ufunc then runs over whole
contiguous rows, where on path-major views NumPy would call its inner
loop once per path. The PathSet views a priced array transposed, and
scoring and the band read its rows back as paths.T.

The band is read through W's order: pricing never decreases as W grows,
so the path of rank k in W at a step has rank k in every ensemble priced
on that W. band_index orders W once per run; envelope reads a band by
that index, which holds only for an ensemble priced on the indexed W.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .streams import uniform_rows

# the forecast band: the 5% and 95% nearest-rank quantiles of each step
BAND_QUANTILES = (0.05, 0.95)


@dataclass(frozen=True)
class GbmParams:
    """Drift/volatility in daily units plus the starting price."""

    s0: float
    mu: float  # per day
    sigma: float  # per sqrt(day)
    dt: float = 1.0  # trading days per step

    def __post_init__(self):
        # written as tests that must hold, so that a NaN fails them
        if not 0 < self.s0 < math.inf:
            raise DataError(f"s0 must be positive and finite, got {self.s0}")
        if not math.isfinite(self.mu):
            raise DataError(f"mu must be finite, got {self.mu}")
        if not 0 <= self.sigma < math.inf:
            raise DataError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if not 0 < self.dt < math.inf:
            raise DataError(f"dt must be positive and finite, got {self.dt}")


@dataclass(frozen=True)
class PathSet:
    """Ensemble of simulated trajectories, shape (n_paths, horizon + 1).

    `paths` is a read-only view: the array it views stays writable, so a
    caller's array can be priced into again (simulate_ensemble's `out`).
    """

    paths: np.ndarray

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float).view()
        paths.flags.writeable = False
        object.__setattr__(self, "paths", paths)


def box_muller(uniforms, horizon, out=None, scratch=None):
    """The first `horizon` normals of each column of 2*ceil(horizon/2) uniforms.

    Time-major: uniforms has one row per step and one column per path, with
    any strides (the transpose of a path-major block reads it in place).
    The top half of a column gives the radii, r = sqrt(-2 log(1 - u)), so
    the logarithm never sees 0; the bottom half gives the angles,
    theta = 2 pi u. The normals are r cos(theta) followed by r sin(theta),
    written into `out`, which must be a contiguous array of uniforms' shape
    (fresh when not given). Both come from the half-angle tangent
    t = tan(pi u), one ufunc where cos and sin would be two slower ones:
    r cos(theta) = 2r / (1 + t^2) - r and r sin(theta) = 2rt / (1 + t^2).
    At u = 1/2, tan(pi u) is about 1.6e16, so t^2 stays finite. 2r / (1 + t^2)
    is held in `scratch`, a (half, n_paths) array (fresh when not given).
    """
    half = uniforms.shape[0] // 2
    if out is None:
        out = np.empty(uniforms.shape)
    radius, tangent = out[:half], out[half:]
    np.subtract(1.0, uniforms[:half], out=radius)
    np.multiply(uniforms[half:], math.pi, out=tangent)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.tan(tangent, out=tangent)
    scale = np.multiply(tangent, tangent, out=scratch)
    scale += 1.0
    np.divide(radius, scale, out=scale)
    scale *= 2.0  # 2r / (1 + t^2)
    tangent *= scale
    np.subtract(scale, radius, out=radius)
    return out[:horizon]


def wiener_ensemble(n_paths, horizon, seed):
    """A standard Brownian ensemble, read-only and time-major, shape (horizon + 1, n_paths).

    Row 0 is zeros and row k the sum of path i's first k Box-Muller
    normals, so column i depends on (seed, i) alone. The uniform block is
    freed once W is drawn. n_paths and horizon are >= 1 (RunConfig and
    HorizonSpec check them) and seed >= 0.
    """
    width = 2 * -(-horizon // 2)  # uniforms per path: Box-Muller takes them in pairs
    rows = uniform_rows(seed, 0, n_paths, width)
    wiener = np.empty((width + 1, n_paths))
    wiener[0] = 0.0
    # Box-Muller's scratch: the front half of the contiguous uniform block,
    # dead once both halves are read, so a draw allocates no temporary
    scratch = rows.reshape(-1, n_paths)[: width // 2]
    normals = box_muller(rows.T, horizon, out=wiener[1:], scratch=scratch)
    np.cumsum(normals, axis=0, out=normals)
    wiener = wiener[: horizon + 1]
    wiener.flags.writeable = False
    return wiener


def simulate_ensemble(params, wiener, out=None):
    """The GBM ensemble of `params` on a Brownian ensemble from wiener_ensemble.

    S(t) = s0 exp((mu - sigma^2/2) dt t + sigma sqrt(dt) W(t)), written into
    `out`, which must have wiener's shape, as NumPy's `out=` arguments must:
    the returned PathSet then views it transposed, and the next call into
    the same array overwrites it. Without `out`, each call prices into an
    array of its own.
    """
    if out is None:
        out = np.empty(wiener.shape)
    np.multiply(wiener, params.sigma * math.sqrt(params.dt), out=out)
    drift = (params.mu - 0.5 * params.sigma * params.sigma) * params.dt
    out += np.arange(wiener.shape[0])[:, None] * drift
    np.exp(out, out=out)
    out *= params.s0
    return PathSet(out.T)


def band_index(wiener):
    """Per step, the paths holding W's BAND_QUANTILES: ranks ceil(q n), counted from 1."""
    ranks = [math.ceil(q * wiener.shape[1]) - 1 for q in BAND_QUANTILES]
    return np.argsort(wiener, axis=1)[:, ranks]


def envelope(pathset, index):
    """(mean, q05, q95) per step: the mean path and the nearest-rank BAND_QUANTILES.

    The quantiles are read at `index`, band_index of the W that pathset was
    priced on; for an ensemble priced on another W they are wrong. A mean
    path that is not finite (a sum of paths that overflowed) raises NumericError.
    """
    steps = pathset.paths.T
    lower, upper = np.take_along_axis(steps, index, axis=1).T
    mean = steps.mean(axis=1)
    if not np.isfinite(mean).all():
        raise NumericError("mean path is not finite; the sum of the paths overflowed")
    return mean, lower, upper
