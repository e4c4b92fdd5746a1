import csv
import datetime as dt
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbmfolio.errors import DataError, NumericError
from gbmfolio.gbm import (
    BAND_QUANTILES,
    GbmParams,
    PathSet,
    band_index,
    box_muller,
    envelope,
    simulate_ensemble,
    wiener_ensemble,
)
from gbmfolio.streams import uniform_rows
from gbmfolio.synthetic import make_universe

HORIZONS = (1, 2, 5, 6, 247, 248)  # odd and even: an odd horizon drops its last normal
N_PATHS = (1, 3, 300)


class TestWienerIncrements:
    """The ensemble's Wiener increments, read back from its log prices."""

    @staticmethod
    def increments(n_paths, horizon, dt, seed):
        # mu = sigma^2 / 2 cancels the drift: each log increment is sqrt(dt) times a normal
        wiener = wiener_ensemble(n_paths, horizon, seed)
        ps = simulate_ensemble(GbmParams(1.0, 0.5, 1.0, dt=dt), wiener)
        return np.diff(np.log(ps.paths), axis=1).ravel()

    def test_standard_moments(self):
        inc = self.increments(800, 250, 1.0, 3)
        assert abs(inc.mean()) <= 3 / math.sqrt(inc.size)
        assert inc.std() == pytest.approx(1.0, abs=0.01)

    def test_sqrt_dt_scaling(self):
        inc = self.increments(800, 250, 4.0, 3)
        assert inc.std() == pytest.approx(2.0, abs=0.02)

    def test_deterministic_per_stream(self):
        assert np.array_equal(self.increments(10, 10, 1.0, 3), self.increments(10, 10, 1.0, 3))

    def test_read_only_time_major_from_zero(self):
        wiener = wiener_ensemble(4, 7, 3)
        assert wiener.shape == (8, 4)
        assert np.all(wiener[0] == 0.0)
        assert not wiener.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            wiener[1, 0] = 0.0


class TestGbmPath:
    """One path: row 0 of a one-path ensemble."""

    def test_sigma_zero_drift(self):
        path = simulate_ensemble(GbmParams(100.0, 0.001, 0.0), wiener_ensemble(1, 2, 0)).paths[0]
        assert path == pytest.approx([100.0, 100.0 * math.e**0.001, 100.0 * math.e**0.002])

    def test_sigma_zero_mu_zero_constant(self):
        path = simulate_ensemble(GbmParams(100.0, 0.0, 0.0), wiener_ensemble(1, 10, 0)).paths[0]
        assert np.all(path == 100.0)

    def test_log_increment_moments(self):
        # Fig-2-scale parameters: mu = 0.0004, sigma = 0.01
        mu, sigma, n = 0.0004, 0.01, 100_000
        path = simulate_ensemble(GbmParams(100.0, mu, sigma), wiener_ensemble(1, n, 0)).paths[0]
        inc = np.diff(np.log(path))
        se = sigma / math.sqrt(n)
        assert abs(inc.mean() - (mu - sigma**2 / 2)) <= 5 * se
        assert inc.std() == pytest.approx(sigma, rel=0.02)

    def test_length_and_start(self):
        path = simulate_ensemble(GbmParams(42.0, 0.001, 0.02), wiener_ensemble(1, 30, 0)).paths[0]
        assert len(path) == 31
        assert path[0] == 42.0
        assert np.all(path > 0)

    def test_param_validation(self):
        with pytest.raises(DataError):
            GbmParams(0.0, 0.0, 0.01)
        with pytest.raises(DataError):
            GbmParams(1.0, 0.0, -0.01)
        with pytest.raises(DataError):
            GbmParams(1.0, 0.0, 0.01, dt=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("s0", math.nan), ("s0", math.inf), ("mu", math.nan), ("mu", -math.inf),
            ("sigma", math.nan), ("sigma", math.inf), ("dt", math.nan), ("dt", math.inf),
        ],
    )
    def test_non_finite_param_is_data_error(self, field, value):
        # each would reach exp and surface only as a nan score
        values = {"s0": 1.0, "mu": 0.0, "sigma": 0.01, "dt": 1.0, field: value}
        with pytest.raises(DataError, match=rf"^{field} must be .*finite, got"):
            GbmParams(**values)


class TestGbmPaths:
    def test_ensemble_closed_form_oracle(self, rng):
        # S(k) = s0 * exp((mu - sigma^2/2) dt k + sigma sqrt(dt) W(k)) on a given W
        params = GbmParams(50.0, 0.001, 0.02, dt=0.5)
        wiener = np.vstack([np.zeros(3), rng.standard_normal((10, 3)).cumsum(axis=0)])
        paths = simulate_ensemble(params, wiener).paths
        assert paths.shape == (3, 11)
        for i in range(3):
            for k in range(11):
                log_rel = (0.001 - 0.02**2 / 2) * 0.5 * k + 0.02 * math.sqrt(0.5) * wiener[k, i]
                assert paths[i, k] == pytest.approx(50.0 * math.exp(log_rel), rel=1e-12)


def reference_box_muller(uniforms, horizon):
    """box_muller of version 0.2.0, from cos and sin of 2 pi u; kept as an oracle."""
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


def path_drawn_alone(params, seed, i, horizon):
    """Path i from its own stream row: the closed form over one row's Box-Muller cumsum."""
    width = 2 * -(-horizon // 2)
    normals = box_muller(uniform_rows(seed, i, 1, width).T, horizon)[:, 0]
    wiener = np.concatenate(([0.0], np.cumsum(normals)))
    drift = (params.mu - 0.5 * params.sigma * params.sigma) * params.dt
    log_rel = wiener * (params.sigma * math.sqrt(params.dt)) + np.arange(horizon + 1) * drift
    return params.s0 * np.exp(log_rel)


class TestPathStream:
    """Path i is row i of the seed's stream, turned into normals by Box-Muller."""

    HORIZON = 247
    WIDTH = 248  # 2 * ceil(247 / 2) uniforms per path

    @pytest.mark.parametrize("width", [1, 13, WIDTH])
    @pytest.mark.parametrize("first", [0, 1, 4000])
    def test_rows_are_consecutive_pcg64dxsm_words(self, width, first):
        seed, count = 2**100 + 3, 7
        words = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed)))
        expected = words.random((first + count) * width)[first * width :].reshape(count, width)
        rows = uniform_rows(seed, first, count, width)
        assert np.array_equal(rows, expected)
        # the ensemble draw reuses the block in place as Box-Muller's scratch
        assert rows.flags.c_contiguous and rows.flags.writeable

    def test_row_alone_equals_row_in_block(self):
        seed = 2**100 + 3  # a subject seed wider than 128 bits
        block = uniform_rows(seed, 0, 8192, self.WIDTH)
        for i in (0, 1, 2, 1000, 8191):
            assert np.array_equal(uniform_rows(seed, i, 1, self.WIDTH)[0], block[i])
        assert np.array_equal(uniform_rows(seed, 4000, 100, self.WIDTH), block[4000:4100])

    @pytest.mark.parametrize("n_paths", N_PATHS)
    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_ensemble_path_drawn_alone(self, horizon, n_paths):
        params = GbmParams(100.0, 0.0004, 0.01)
        out = np.empty((horizon + 1, n_paths))
        for seed in (42, 2**100 + 3):
            wiener = wiener_ensemble(n_paths, horizon, seed)
            paths = simulate_ensemble(params, wiener, out=out).paths
            for i in range(n_paths):
                assert np.array_equal(path_drawn_alone(params, seed, i, horizon), paths[i])

    def test_box_muller_moments(self):
        z = box_muller(uniform_rows(2024, 0, 4000, 250).T, 250).ravel()
        assert z.size == 1_000_000
        assert abs(z.mean()) <= 3 / math.sqrt(z.size)
        assert z.std() == pytest.approx(1.0, rel=0.01)
        kurtosis = ((z - z.mean()) ** 4).mean() / z.var() ** 2
        assert kurtosis == pytest.approx(3.0, abs=0.05)

    def test_box_muller_finite_at_zero_uniform(self):
        u = np.zeros((4, 1))
        assert np.array_equal(box_muller(u, 3), np.zeros((3, 1)))

    def test_box_muller_leaves_uniforms_unchanged(self):
        uniforms = uniform_rows(5, 0, 3, 6)
        before = uniforms.copy()
        box_muller(uniforms.T, 5)
        assert np.array_equal(uniforms, before)

    def test_half_angle_matches_cos_sin_reference(self):
        uniforms = uniform_rows(2024, 0, 4100, self.WIDTH)
        assert uniforms.size >= 1_000_000
        normals = box_muller(uniforms.T, self.HORIZON)
        reference = reference_box_muller(uniforms.copy(), self.HORIZON)
        np.testing.assert_allclose(normals, reference.T, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("angle", [0.0, 0.25, 0.5, 0.75, 1 - 2**-53])
    def test_half_angle_edge_uniforms(self, angle):
        # 0.5 puts tan(pi u) at its pole; the radii run from 0 to the largest
        radii = np.array([0.0, 0.3, 0.5, 1 - 2**-53])
        uniforms = np.column_stack([radii, np.full(radii.size, angle)])
        normals = box_muller(uniforms.T, 2)
        assert np.all(np.isfinite(normals))
        reference = reference_box_muller(uniforms.copy(), 2)
        np.testing.assert_allclose(normals, reference.T, rtol=0, atol=1e-14)

    def test_odd_horizon_draws_an_even_row(self):
        normals = box_muller(uniform_rows(1, 0, 3, 6).T, 5)  # 2 * ceil(5 / 2) words per path
        assert normals.shape == (5, 3)
        assert np.all(np.isfinite(normals))
        assert np.array_equal(wiener_ensemble(3, 5, 1)[1:], np.cumsum(normals, axis=0))


class TestEnsemble:
    def test_single_path_reduction(self):
        params = GbmParams(100.0, 0.001, 0.02)
        ps = simulate_ensemble(params, wiener_ensemble(1, 20, 9))
        assert ps.paths.shape == (1, 21)
        assert ps.paths[0, 0] == 100.0

    def test_sigma_zero_identical_paths(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.001, 0.0), wiener_ensemble(50, 10, 1))
        assert np.all(ps.paths == ps.paths[0])

    def test_lognormal_mean_oracle(self):
        # E[S(t)] = s0 * exp(mu t); SE from the analytic log-normal variance
        mu, sigma, s0, horizon, n = 0.0004, 0.01, 100.0, 247, 5000
        ps = simulate_ensemble(GbmParams(s0, mu, sigma), wiener_ensemble(n, horizon, 4))
        expected = s0 * math.exp(mu * horizon)
        var = s0**2 * math.exp(2 * mu * horizon) * (math.exp(sigma**2 * horizon) - 1)
        se = math.sqrt(var / n)
        assert abs(ps.paths[:, -1].mean() - expected) <= 3 * se

    def test_martingale_style_moments(self):
        mu, sigma, s0 = 0.001, 0.02, 100.0
        ps = simulate_ensemble(GbmParams(s0, mu, sigma), wiener_ensemble(4000, 100, 11))
        for k in (10, 50, 100):
            discounted = ps.paths[:, k] / math.exp(mu * k)
            se = discounted.std(ddof=1) / math.sqrt(len(discounted))
            assert abs(discounted.mean() - s0) <= 5 * se

    def test_positivity(self):
        ps = simulate_ensemble(GbmParams(1e-3, -0.05, 0.5), wiener_ensemble(200, 100, 2))
        assert np.all(ps.paths > 0)

    def test_bit_identical_reruns(self):
        params = GbmParams(100.0, 0.0004, 0.01)
        config = (100, 50, 123)
        a = simulate_ensemble(params, wiener_ensemble(*config))
        b = simulate_ensemble(params, wiener_ensemble(*config))
        assert np.array_equal(a.paths, b.paths)

    def test_path_depends_only_on_seed_and_index(self):
        # path i is unchanged when the ensemble grows
        params = GbmParams(100.0, 0.0004, 0.01)
        small = simulate_ensemble(params, wiener_ensemble(3, 40, 77))
        large = simulate_ensemble(params, wiener_ensemble(10, 40, 77))
        assert np.array_equal(small.paths, large.paths[:3])

    def test_subjects_share_the_brownian_ensemble(self):
        # on one W, a subject's log path is its drift plus sigma times W
        wiener = wiener_ensemble(50, 30, 5)
        days = np.arange(31)
        for params in (GbmParams(100.0, 0.0004, 0.01), GbmParams(7.0, -0.002, 0.03)):
            log_rel = np.log(simulate_ensemble(params, wiener).paths / params.s0)
            drift = (params.mu - params.sigma**2 / 2) * days
            np.testing.assert_allclose(log_rel, drift + params.sigma * wiener.T, rtol=0, atol=1e-14)

    def test_wiener_draw_keeps_only_w(self):
        # the uniform block lives only while W is drawn
        tracemalloc.start()
        try:
            wiener = wiener_ensemble(1000, 247, 5)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current <= 1.01 * wiener.nbytes
        assert peak <= 2.05 * wiener.nbytes


class TestDrawArrays:
    """simulate_ensemble's `out`: pricing into a reused array changes no path."""

    PARAMS = GbmParams(100.0, 0.0004, 0.01)

    def test_draws_without_out_share_no_memory(self):
        wiener = wiener_ensemble(50, 30, 1)
        first = simulate_ensemble(self.PARAMS, wiener)
        second = simulate_ensemble(self.PARAMS, wiener)
        assert not np.shares_memory(first.paths, second.paths)
        assert not np.shares_memory(first.paths, wiener)

    @pytest.mark.parametrize("n_paths", N_PATHS)
    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_reused_arrays_give_the_fresh_paths(self, horizon, n_paths):
        out = np.empty((horizon + 1, n_paths))
        for seed in (3, 2**100 + 3, 77):
            wiener = wiener_ensemble(n_paths, horizon, seed)
            for params in (self.PARAMS, GbmParams(7.0, -0.002, 0.03)):
                reused = simulate_ensemble(params, wiener, out=out)
                assert np.shares_memory(reused.paths, out)
                assert not reused.paths.flags.writeable and out.flags.writeable
                assert np.array_equal(reused.paths, simulate_ensemble(params, wiener).paths)

    def test_reused_draw_allocates_under_a_tenth_of_the_paths(self):
        wiener = wiener_ensemble(1000, 247, 5)
        out = np.empty(wiener.shape)
        paths = simulate_ensemble(self.PARAMS, wiener, out=out).paths
        assert peak_allocation(lambda: simulate_ensemble(self.PARAMS, wiener, out=out)) < (
            0.1 * paths.nbytes
        )


def peak_allocation(call):
    """Peak bytes traced by tracemalloc while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_envelope(pathset, lower_q, upper_q):
    """envelope of version 0.3.0 as first released, sorting down path-major columns."""
    paths = pathset.paths
    sorted_cols = np.sort(paths, axis=0)
    n = sorted_cols.shape[0]

    def nearest_rank(q):
        return sorted_cols[max(int(math.ceil(q * n)) - 1, 0)].copy()

    return nearest_rank(lower_q), nearest_rank(upper_q), paths.mean(axis=0)


# Brownian values with ties between paths and within a path
W_VALUES = st.one_of(st.sampled_from([0.0, -1.0, 1.0]), st.floats(-40.0, 40.0))


@st.composite
def wiener_like(draw):
    """A time-major W-like array: ties, tied steps (W's row 0 is all zeros) and constant paths."""
    n_paths = draw(st.integers(1, 64))
    steps = draw(st.integers(1, 6))
    varying = st.lists(W_VALUES, min_size=n_paths, max_size=n_paths)
    tied = W_VALUES.map(lambda value: [value] * n_paths)
    wiener = np.array(draw(st.lists(st.one_of(varying, tied), min_size=steps, max_size=steps)))
    for path in draw(st.sets(st.integers(0, n_paths - 1), max_size=n_paths)):
        wiener[:, path] = wiener[0, path]
    return wiener


# s0 from 1e-300 to 1e300 and sigma up to 20 over |W| <= 40: prices underflow
# to 0 and overflow to inf, and sigma = 0 prices every path alike
GBM_PARAMS = st.builds(
    GbmParams,
    s0=st.one_of(st.sampled_from([1e-300, 1.0, 1e300]), st.floats(1e-300, 1e300)),
    mu=st.floats(-1.0, 1.0),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
)


class TestEnvelope:
    def test_sigma_zero_collapse(self):
        wiener = wiener_ensemble(20, 10, 1)
        ps = simulate_ensemble(GbmParams(100.0, 0.001, 0.0), wiener)
        mean, lower, upper = envelope(ps, band_index(wiener))
        assert np.array_equal(lower, upper)
        assert np.allclose(mean, ps.paths[0])

    def test_nearest_rank_oracle(self):
        # constant paths at 1..20: rank ceil(0.05 * 20) = 1 and ceil(0.95 * 20) = 19;
        # W orders the paths as their prices do
        wiener = np.tile(np.arange(20.0, 0.0, -1.0), (5, 1))
        paths = PathSet([[float(p)] * 5 for p in range(20, 0, -1)])
        mean, lower, upper = envelope(paths, band_index(wiener))
        assert np.all(lower == 1.0)
        assert np.all(upper == 19.0)
        assert np.all(mean == 10.5)

    @settings(max_examples=300, deadline=None)
    @given(wiener_like(), GBM_PARAMS)
    @example(np.zeros((3, 5)), GbmParams(1.0, 0.0, 0.0))
    @example(np.array([[0.0, 0.0], [40.0, -40.0]]), GbmParams(1e300, 0.0, 20.0))
    @example(wiener_ensemble(300, 247, 4), GbmParams(100.0, 0.0004, 0.01))
    # finite paths near 3.3e306 whose sum, and so their mean, overflows
    @example(np.array([[1.0] * 60, [0.0] * 60, [0.0] * 60]), GbmParams(1e300, 0.0, 15.0))
    def test_matches_the_column_sort_reference(self, wiener, params):
        with np.errstate(over="ignore", under="ignore"):
            pathset = simulate_ensemble(params, wiener)
            reference = reference_envelope(pathset, *BAND_QUANTILES)
            if not np.isfinite(reference[2]).all():
                with pytest.raises(NumericError, match="mean path is not finite"):
                    envelope(pathset, band_index(wiener))
                return
            mean, lower, upper = envelope(pathset, band_index(wiener))
        for got, want in zip((lower, upper, mean), reference):
            assert np.array_equal(got, want)

    def test_allocates_at_most_a_tenth_more_than_the_paths(self):
        wiener = wiener_ensemble(1000, 247, 5)
        ps = simulate_ensemble(GbmParams(100.0, 0.0004, 0.01), wiener)
        index = band_index(wiener)
        assert peak_allocation(lambda: envelope(ps, index)) <= 1.1 * ps.paths.nbytes


class TestSyntheticUniverse:
    def test_closed_form_oracle(self, tmp_path):
        # S(k) = s0 * exp(sum_{j<=k} (mu - sigma^2/2) + sigma z_j), step by step, with
        # each ticker's mu, sigma, s0 and normals drawn again in make_universe's order
        tickers = make_universe(
            tmp_path, n_assets=3, start=dt.date(2019, 1, 1), end=dt.date(2019, 3, 29), seed=7
        )
        for i, ticker in enumerate(tickers):
            with open(tmp_path / f"{ticker}.csv", newline="") as fh:
                prices = [float(row["Adj Close"]) for row in csv.DictReader(fh)]
            rng = np.random.default_rng([7, i])
            mu = rng.uniform(-0.001, 0.002)
            sigma = rng.uniform(0.005, 0.035)
            s0 = rng.uniform(5.0, 80.0)
            z = rng.standard_normal(len(prices) - 1)
            log_rel = 0.0
            for k, price in enumerate(prices):
                if k:
                    log_rel += (mu - sigma * sigma / 2) + sigma * z[k - 1]
                expected = s0 * math.exp(log_rel)
                # printed to 6 decimals, and np.exp may differ from math.exp by an ulp
                assert abs(price - expected) <= 0.5e-6 + 1e-12 * expected, (ticker, k)

    def test_files_pinned(self, tmp_path):
        # the files as version 0.3.0 first wrote them: the fixture prices never move
        tickers = make_universe(
            tmp_path, n_assets=3, start=dt.date(2019, 1, 1), end=dt.date(2019, 3, 29), seed=7
        )
        digest = hashlib.sha256()
        for ticker in tickers:
            digest.update((tmp_path / f"{ticker}.csv").read_bytes())
        assert digest.hexdigest() == (
            "01e4e0bdbf3e1f68149176a01eef3d8ab7e36dc0f92428e7992770f553b25ca3"
        )

    @pytest.mark.parametrize(
        "start, digest",
        [
            # report-paper and forecast-all
            (dt.date(2016, 1, 4), "d1a10ad05de0bb236647ffd5c3ebeaf7542c61e618c22e153f50cf3ad4f6bd62"),
            # history-long
            (dt.date(2008, 1, 2), "4fb04fe19a28ed77f12e8fd1d22c21efc530fae9dcd59095561101d89c270106"),
        ],
    )
    def test_benchmark_universes_pinned(self, tmp_path, start, digest):
        # the seed-1, 78-asset universes the benchmark writes, as version 0.5.0 wrote them
        tickers = make_universe(tmp_path, n_assets=78, start=start, end=dt.date(2019, 12, 30), seed=1)
        sha = hashlib.sha256()
        for ticker in tickers:
            sha.update((tmp_path / f"{ticker}.csv").read_bytes())
        assert sha.hexdigest() == digest
