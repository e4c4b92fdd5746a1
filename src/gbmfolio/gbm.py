"""Closed-form geometric Brownian motion ensembles and their quantile band.

Paths follow S(t) = S(0) * exp((mu - sigma^2/2) t + sigma W(t)) sampled
at daily steps, with W built from standard-normal increments scaled by
sqrt(dt). Path i of an ensemble is row i of the seed's stream (see
streams.py), turned into normals by Box-Muller, so it depends on
(seed, i) alone and results are reproducible regardless of execution
order, and of which arrays the ensemble is drawn into.

An ensemble is time-major from draw to band: one row per step, one
column per path. The stream is drawn path-major, one row per path, and
read transposed by Box-Muller's first operation on each half, into a
contiguous (steps, paths) work array; every later ufunc then runs over
whole contiguous rows, where on path-major views NumPy would call its
inner loop once per path. The PathSet views that array transposed, and
scoring and the band read its rows back as paths.T. Every path is
bit-identical to the one drawn alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
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
        if self.s0 <= 0:
            raise DataError("s0 must be positive")
        if self.sigma < 0:
            raise DataError("sigma must be nonnegative")
        if self.dt <= 0:
            raise DataError("dt must be positive")


@dataclass(frozen=True)
class PathSet:
    """Ensemble of simulated trajectories, shape (n_paths, horizon + 1).

    `paths` is a read-only view: the array it views stays writable, so a
    caller's arrays can be drawn into again (simulate_ensemble's `out`).
    """

    paths: np.ndarray

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float).view()
        paths.flags.writeable = False
        object.__setattr__(self, "paths", paths)


def gbm_paths(s0, mu, sigma, dt, normals, out=None):
    """Closed-form GBM paths from pre-drawn standard normals, time-major.

    normals has shape (horizon, n_paths), one row per step; the result has
    shape (horizon + 1, n_paths) with row 0 fixed at s0. It is written into
    `out` when one is given, and into a fresh array otherwise; `out[1:]`
    may be `normals` itself.
    """
    normals = np.asarray(normals, dtype=float)
    shape = (normals.shape[0] + 1, normals.shape[1])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise DataError(f"out has shape {out.shape}, need {shape}")
    out[0] = s0
    log_rel = out[1:]
    np.multiply(normals, sigma * np.sqrt(dt), out=log_rel)
    log_rel += (mu - 0.5 * sigma * sigma) * dt
    np.cumsum(log_rel, axis=0, out=log_rel)
    np.exp(log_rel, out=log_rel)
    log_rel *= s0
    return out


def box_muller(uniforms, horizon, out=None, scratch=None):
    """The first `horizon` normals of each column of 2*ceil(horizon/2) uniforms.

    Time-major: uniforms has one row per step and one column per path, with
    any strides (the transpose of a path-major block reads it in place).
    The top half of a column gives the radii, r = sqrt(-2 log(1 - u)), so
    the logarithm never sees 0; the bottom half gives the angles,
    theta = 2 pi u. The normals are r cos(theta) followed by r sin(theta),
    written into `out`, a contiguous array of uniforms' shape (fresh when
    not given). Both come from the half-angle tangent t = tan(pi u), one
    ufunc where cos and sin would be two slower ones:
    r cos(theta) = 2r / (1 + t^2) - r and r sin(theta) = 2rt / (1 + t^2).
    At u = 1/2, tan(pi u) is about 1.6e16, so t^2 stays finite. 2r / (1 + t^2)
    is held in `scratch`, a (half, n_paths) array (fresh when not given).
    """
    half = uniforms.shape[0] // 2
    if out is None:
        out = np.empty(uniforms.shape)
    elif out.shape != uniforms.shape:
        raise DataError(f"out has shape {out.shape}, need {uniforms.shape}")
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


def _array_shapes(n_paths, horizon):
    if n_paths < 1 or horizon < 1:
        raise DataError("n_paths and horizon must be >= 1")
    width = 2 * -(-horizon // 2)  # uniforms per path: Box-Muller takes them in pairs
    return (n_paths, width), (width + 1, n_paths)


def ensemble_arrays(n_paths, horizon):
    """Fresh (uniforms, steps) arrays for one draw of n_paths x horizon steps.

    uniforms is the path-major stream block and steps the time-major work
    array the paths are drawn into. Pass them to simulate_ensemble's `out`
    to draw any number of ensembles of that shape into the same memory.
    """
    return tuple(np.empty(shape) for shape in _array_shapes(n_paths, horizon))


def simulate_ensemble(params, n_paths, horizon, seed, out=None):
    """n_paths independent paths of `horizon` steps; path i depends only on (seed, i).

    `out` is a (uniforms, steps) pair from ensemble_arrays(n_paths, horizon)
    to draw into, as NumPy's `out=` arguments are: the returned PathSet
    then views rows 0..horizon of `steps`, transposed, and the next draw
    into the same arrays overwrites it. Without `out`, each call draws
    into arrays of its own.
    """
    if out is None:
        out = ensemble_arrays(n_paths, horizon)
    shapes = _array_shapes(n_paths, horizon)
    if tuple(a.shape for a in out) != shapes:
        raise DataError(f"out has shapes {[a.shape for a in out]}, need {list(shapes)}")
    uniforms, steps = out
    rows = uniform_rows(seed, 0, n_paths, shapes[0][1], out=uniforms)
    # Box-Muller's scratch: the front half of the contiguous uniform block,
    # dead once both halves are read, so a draw allocates no temporary
    scratch = rows.reshape(-1, n_paths)[: rows.shape[1] // 2]
    normals = box_muller(rows.T, horizon, out=steps[1:], scratch=scratch)
    steps = steps[: horizon + 1]
    gbm_paths(params.s0, params.mu, params.sigma, params.dt, normals, out=steps)
    return PathSet(steps.T)


def envelope(pathset):
    """(mean, q05, q95) per step: the mean path and the nearest-rank BAND_QUANTILES.

    Quantile q is the value of rank ceil(q n), counted from 1, read from a
    sorted copy of the time-major rows.
    """
    steps = pathset.paths.T
    ranks = [math.ceil(q * steps.shape[1]) - 1 for q in BAND_QUANTILES]
    lower, upper = np.sort(steps, axis=1)[:, ranks].T
    return steps.mean(axis=1), lower, upper
