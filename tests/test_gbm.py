import datetime as dt
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbmfolio.errors import DataError
from gbmfolio.gbm import (
    BAND_QUANTILES,
    GbmParams,
    PathSet,
    box_muller,
    ensemble_arrays,
    envelope,
    gbm_paths,
    simulate_ensemble,
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
        ps = simulate_ensemble(GbmParams(1.0, 0.5, 1.0, dt=dt), n_paths, horizon, seed)
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

    def test_validation(self):
        for n_paths, horizon in ((0, 5), (5, 0)):
            with pytest.raises(DataError, match=">= 1"):
                simulate_ensemble(GbmParams(1.0, 0.5, 1.0), n_paths, horizon, 0)
        with pytest.raises(DataError, match=">= 1"):
            ensemble_arrays(0, 5)
        with pytest.raises(DataError):
            GbmParams(1.0, 0.5, 1.0, dt=0.0)


class TestGbmPath:
    """One path: row 0 of a one-path ensemble, or of gbm_paths on given normals."""

    def test_sigma_zero_drift(self):
        path = simulate_ensemble(GbmParams(100.0, 0.001, 0.0), 1, 2, 0).paths[0]
        assert path == pytest.approx([100.0, 100.0 * math.e**0.001, 100.0 * math.e**0.002])

    def test_sigma_zero_mu_zero_constant(self):
        path = simulate_ensemble(GbmParams(100.0, 0.0, 0.0), 1, 10, 0).paths[0]
        assert np.all(path == 100.0)

    def test_log_increment_moments(self, rng):
        # Fig-2-scale parameters: mu = 0.0004, sigma = 0.01
        mu, sigma, n = 0.0004, 0.01, 100_000
        path = gbm_paths(100.0, mu, sigma, 1.0, rng.standard_normal((n, 1)))[:, 0]
        inc = np.diff(np.log(path))
        se = sigma / math.sqrt(n)
        assert abs(inc.mean() - (mu - sigma**2 / 2)) <= 5 * se
        assert inc.std() == pytest.approx(sigma, rel=0.02)

    def test_length_and_start(self):
        path = simulate_ensemble(GbmParams(42.0, 0.001, 0.02), 1, 30, 0).paths[0]
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


class TestGbmPaths:
    def test_closed_form_oracle(self, rng):
        # S(k) = s0 * exp(sum_{j<=k} (mu - sigma^2/2) dt + sigma sqrt(dt) z_j), step by step
        s0, mu, sigma, dt = 50.0, 0.001, 0.02, 0.5
        normals = rng.standard_normal((10, 3))  # time-major: one row per step
        out = gbm_paths(s0, mu, sigma, dt, normals)
        assert out.shape == (11, 3)
        for i in range(3):
            assert out[0, i] == s0
            log_rel = 0.0
            for k in range(10):
                log_rel += (mu - sigma * sigma / 2) * dt + sigma * math.sqrt(dt) * normals[k, i]
                assert out[k + 1, i] == pytest.approx(s0 * math.exp(log_rel), rel=1e-12)

    def test_wrong_out_shape_is_data_error(self, rng):
        with pytest.raises(DataError, match="shape"):
            gbm_paths(1.0, 0.0, 0.01, 1.0, rng.standard_normal((4, 2)), out=np.empty((2, 5)))


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
    """Path i from its own stream row: one column through box_muller and gbm_paths."""
    width = 2 * -(-horizon // 2)
    normals = box_muller(uniform_rows(seed, i, 1, width).T, horizon)
    return gbm_paths(params.s0, params.mu, params.sigma, params.dt, normals)[:, 0]


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
        assert np.array_equal(uniform_rows(seed, first, count, width), expected)

    def test_rows_are_drawn_into_out_contiguously(self):
        buf = np.empty((5, 13))
        rows = uniform_rows(7, 3, 5, 13, out=buf)
        assert rows is buf and rows.flags.c_contiguous
        assert np.array_equal(rows, uniform_rows(7, 3, 5, 13))
        with pytest.raises(DataError, match="shape"):
            uniform_rows(7, 3, 5, 13, out=np.empty((5, 16)))

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
        out = ensemble_arrays(n_paths, horizon)
        for seed in (42, 2**100 + 3):
            paths = simulate_ensemble(params, n_paths, horizon, seed, out=out).paths
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

    def test_box_muller_leaves_uniforms_and_checks_out(self):
        uniforms = uniform_rows(5, 0, 3, 6)
        before = uniforms.copy()
        box_muller(uniforms.T, 5)
        assert np.array_equal(uniforms, before)
        with pytest.raises(DataError, match="shape"):
            box_muller(uniforms.T, 5, out=np.empty((3, 6)))

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
        assert ensemble_arrays(3, 5)[0].shape == (3, 6)  # 2 * ceil(5 / 2) words per path
        normals = box_muller(uniform_rows(1, 0, 3, 6).T, 5)
        assert normals.shape == (5, 3)
        assert np.all(np.isfinite(normals))

    def test_negative_seed_is_data_error(self):
        with pytest.raises(DataError, match="seed"):
            simulate_ensemble(GbmParams(1.0, 0.5, 1.0), 1, 5, -1)
        with pytest.raises(DataError, match="seed"):
            uniform_rows(-1, 0, 1, 4)


class TestEnsemble:
    def test_single_path_reduction(self):
        params = GbmParams(100.0, 0.001, 0.02)
        ps = simulate_ensemble(params, 1, 20, 9)
        assert ps.paths.shape == (1, 21)
        assert ps.paths[0, 0] == 100.0

    def test_sigma_zero_identical_paths(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.001, 0.0), 50, 10, 1)
        assert np.all(ps.paths == ps.paths[0])

    def test_lognormal_mean_oracle(self):
        # E[S(t)] = s0 * exp(mu t); SE from the analytic log-normal variance
        mu, sigma, s0, horizon, n = 0.0004, 0.01, 100.0, 247, 5000
        ps = simulate_ensemble(GbmParams(s0, mu, sigma), n, horizon, 4)
        expected = s0 * math.exp(mu * horizon)
        var = s0**2 * math.exp(2 * mu * horizon) * (math.exp(sigma**2 * horizon) - 1)
        se = math.sqrt(var / n)
        assert abs(ps.paths[:, -1].mean() - expected) <= 3 * se

    def test_martingale_style_moments(self):
        mu, sigma, s0 = 0.001, 0.02, 100.0
        ps = simulate_ensemble(GbmParams(s0, mu, sigma), 4000, 100, 11)
        for k in (10, 50, 100):
            discounted = ps.paths[:, k] / math.exp(mu * k)
            se = discounted.std(ddof=1) / math.sqrt(len(discounted))
            assert abs(discounted.mean() - s0) <= 5 * se

    def test_positivity(self):
        ps = simulate_ensemble(GbmParams(1e-3, -0.05, 0.5), 200, 100, 2)
        assert np.all(ps.paths > 0)

    def test_bit_identical_reruns(self):
        params = GbmParams(100.0, 0.0004, 0.01)
        config = (100, 50, 123)
        a = simulate_ensemble(params, *config)
        b = simulate_ensemble(params, *config)
        assert np.array_equal(a.paths, b.paths)

    def test_path_depends_only_on_seed_and_index(self):
        # path i is unchanged when the ensemble grows
        params = GbmParams(100.0, 0.0004, 0.01)
        small = simulate_ensemble(params, 3, 40, 77)
        large = simulate_ensemble(params, 10, 40, 77)
        assert np.array_equal(small.paths, large.paths[:3])


class TestDrawArrays:
    """simulate_ensemble's `out`: drawing into reused arrays changes no path."""

    PARAMS = GbmParams(100.0, 0.0004, 0.01)

    def test_draws_without_out_share_no_memory(self):
        config = (50, 30, 1)
        first = simulate_ensemble(self.PARAMS, *config)
        second = simulate_ensemble(self.PARAMS, *config)
        assert not np.shares_memory(first.paths, second.paths)

    @pytest.mark.parametrize("n_paths", N_PATHS)
    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_reused_arrays_give_the_fresh_paths(self, horizon, n_paths):
        out = ensemble_arrays(n_paths, horizon)
        for seed in (3, 2**100 + 3, 77):
            config = (n_paths, horizon, seed)
            reused = simulate_ensemble(self.PARAMS, *config, out=out)
            assert np.shares_memory(reused.paths, out[1])
            assert not reused.paths.flags.writeable and out[1].flags.writeable
            assert np.array_equal(reused.paths, simulate_ensemble(self.PARAMS, *config).paths)

    @pytest.mark.parametrize("shape", [(10, 24), (10, 18), (11, 20)])
    def test_arrays_of_another_shape_are_data_error(self, shape):
        with pytest.raises(DataError, match="shape"):
            simulate_ensemble(self.PARAMS, 10, 20, 0, out=ensemble_arrays(*shape))

    @pytest.mark.parametrize("which", [0, 1])
    def test_one_array_of_another_shape_is_data_error(self, which):
        out = list(ensemble_arrays(10, 20))
        out[which] = np.empty(out[which].shape[::-1])
        with pytest.raises(DataError, match="shape"):
            simulate_ensemble(self.PARAMS, 10, 20, 0, out=tuple(out))

    def test_reused_draw_allocates_under_a_tenth_of_the_paths(self):
        config = (1000, 247, 5)
        out = ensemble_arrays(1000, 247)
        paths = simulate_ensemble(self.PARAMS, *config, out=out).paths
        assert peak_allocation(lambda: simulate_ensemble(self.PARAMS, *config, out=out)) < (
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


# prices with ties, infinities and constant paths; no NaN, which has no rank
PRICES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, math.inf]),
    st.floats(allow_nan=False, allow_infinity=True),
)


@st.composite
def path_sets(draw):
    n_paths = draw(st.integers(1, 64))
    steps = draw(st.integers(1, 6))
    varying = st.lists(PRICES, min_size=steps, max_size=steps)
    constant = PRICES.map(lambda price: [price] * steps)
    paths = st.lists(st.one_of(varying, constant), min_size=n_paths, max_size=n_paths)
    return PathSet(draw(paths))


class TestEnvelope:
    def test_sigma_zero_collapse(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.001, 0.0), 20, 10, 1)
        mean, lower, upper = envelope(ps)
        assert np.array_equal(lower, upper)
        assert np.allclose(mean, ps.paths[0])

    def test_nearest_rank_oracle(self):
        # constant paths at 1..20: rank ceil(0.05 * 20) = 1 and ceil(0.95 * 20) = 19
        mean, lower, upper = envelope(PathSet([[float(p)] * 5 for p in range(20, 0, -1)]))
        assert np.all(lower == 1.0)
        assert np.all(upper == 19.0)
        assert np.all(mean == 10.5)

    @settings(max_examples=300, deadline=None)
    @given(path_sets())
    @example(PathSet([[1.0, math.inf]] * 3))
    @example(PathSet([[2.0, 3.0]]))
    def test_matches_the_column_sort_reference(self, pathset):
        with np.errstate(all="ignore"):  # the mean of inf and -inf is nan
            mean, lower, upper = envelope(pathset)
            reference = reference_envelope(pathset, *BAND_QUANTILES)
        for got, want in zip((lower, upper, mean), reference):
            assert np.array_equal(got, want, equal_nan=True)

    def test_allocates_at_most_a_tenth_more_than_the_paths(self):
        params = GbmParams(100.0, 0.0004, 0.01)
        ps = simulate_ensemble(params, 1000, 247, 5)
        assert peak_allocation(lambda: envelope(ps)) <= 1.1 * ps.paths.nbytes


class TestSyntheticUniverse:
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
