import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmfolio.errors import DataError, NumericError
from gbmfolio.evaluation import (
    HorizonResult,
    HorizonSpec,
    classify_mape,
    evaluate_ensemble,
)
from gbmfolio.gbm import GbmParams, PathSet, simulate_ensemble

from conftest import series


def score_one_path(actual, forecast):
    """evaluate_ensemble's one horizon over days 1..h of a one-path ensemble.

    Day 0, the shared starting price, is not scored.
    """
    actual = series([1.0, *actual])
    pathset = PathSet([[1.0, *forecast]])
    horizon = (HorizonSpec("h", len(forecast)),)
    return evaluate_ensemble(pathset, actual, horizon)[0]


class TestPearson:
    """Hand-computed correlations of a one-path ensemble."""

    def test_perfect_positive(self):
        assert score_one_path([1, 2, 3], [1, 2, 3]).mean_correlation == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert score_one_path([1, 2, 3], [3, 2, 1]).mean_correlation == pytest.approx(-1.0)

    def test_hand_computed(self):
        # oracle: direct product-moment evaluation, 3 / sqrt(5 * 5) = 3/5
        assert score_one_path([1, 2, 3, 4], [2, 1, 4, 3]).mean_correlation == pytest.approx(0.6)

    def test_constant_input_has_no_correlation(self):
        assert score_one_path([1, 2, 3], [1, 1, 1]).mean_correlation is None
        assert score_one_path([1, 1, 1], [1, 2, 3]).mean_correlation is None

    def test_affine_invariance(self, rng):
        horizon = (HorizonSpec("h", 14),)
        for _ in range(20):
            actual = series(rng.uniform(1, 10, 15))
            paths = rng.uniform(1, 10, (20, 15))

            def corr(p):
                return evaluate_ensemble(PathSet(p), actual, horizon)[0].mean_correlation

            r = corr(paths)
            assert corr(3.5 * paths + 2.0) == pytest.approx(r, abs=1e-10)
            assert corr(-2.0 * paths + 100.0) == pytest.approx(-r, abs=1e-10)

    def test_bounded(self, rng):
        horizon = (HorizonSpec("h", 7),)
        for _ in range(200):
            ps = PathSet(rng.uniform(1, 10, (1, 8)))
            r = evaluate_ensemble(ps, series(rng.uniform(1, 10, 8)), horizon)[0]
            assert abs(r.mean_correlation) <= 1.0


class TestMape:
    """Hand-computed MAPEs of a one-path ensemble."""

    def test_identity_zero(self):
        assert score_one_path([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).mape == 0.0

    def test_single_term(self):
        assert score_one_path([110.0], [100.0]).mape == pytest.approx(0.10)

    def test_two_terms(self):
        assert score_one_path([90.0, 120.0], [100.0, 100.0]).mape == pytest.approx(0.15)

    def test_forecast_denominator_is_default(self):
        # |100 - 80| / 80 = 0.25, where dividing by the actual would give 0.20
        assert score_one_path([100.0], [80.0]).mape == pytest.approx(0.25)

    def test_zero_forecast_errors(self):
        with pytest.raises(NumericError, match="undefined MAPE"):
            score_one_path([1.0], [0.0])

    def test_zero_iff_equal(self, rng):
        a = rng.uniform(1, 10, 20)
        f = a.copy()
        assert score_one_path(a, f).mape == 0.0
        f[3] += 1e-6
        assert score_one_path(a, f).mape > 0.0


class TestClassifyMape:
    @pytest.mark.parametrize(
        "value,band",
        [
            (0.0, "high"),
            (0.10, "high"),
            (0.11, "good"),
            (0.20, "good"),
            (0.21, "reasonable"),
            (0.35, "reasonable"),
            (0.50, "reasonable"),
            (0.51, "imprecise"),
            (2.0, "imprecise"),
        ],
    )
    def test_band_table(self, value, band):
        assert classify_mape(value) == band

    def test_monotone(self, rng):
        order = ["high", "good", "reasonable", "imprecise"]
        values = np.sort(rng.uniform(0, 1, 500))
        ranks = [order.index(classify_mape(v)) for v in values]
        assert ranks == sorted(ranks)

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            classify_mape(-0.1)

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="not a number"):
            classify_mape(float("nan"))


class TestEvaluateEnsemble:
    horizons = (HorizonSpec("1w", 5), HorizonSpec("2w", 10))

    def test_perfect_deterministic_forecast(self):
        actual = series(100 * 1.01 ** np.arange(11))
        ps = simulate_ensemble(GbmParams(100.0, np.log(1.01), 0.0), 10, 10, 0)
        report = evaluate_ensemble(ps, actual, self.horizons)
        for r in report:
            assert r.mape == pytest.approx(0.0, abs=1e-12)
            assert r.band == "high"

    def test_actual_equals_single_path(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.01), 1, 10, 3)
        actual = series(ps.paths[0])
        report = evaluate_ensemble(ps, actual, self.horizons)
        for r in report:
            assert r.mean_correlation == pytest.approx(1.0)
            assert r.mape == pytest.approx(0.0, abs=1e-12)

    def test_constant_paths_skipped_for_correlation(self):
        actual_prices = 100 * 1.005 ** np.arange(11)
        paths = np.vstack([np.full(11, 100.0), actual_prices * 1.5])
        ps = PathSet(paths)
        actual = series(actual_prices)
        report = evaluate_ensemble(ps, actual, self.horizons)
        for r in report:
            # only the non-constant path contributes, and it tracks actual perfectly
            assert r.mean_correlation == pytest.approx(1.0)
            assert r.mape > 0.0

    def test_all_constant_paths_no_correlation(self):
        ps = PathSet(np.full((3, 11), 100.0))
        actual = series(100 * 1.005 ** np.arange(11))
        report = evaluate_ensemble(ps, actual, self.horizons)
        for r in report:
            assert r.mean_correlation is None

    @settings(max_examples=200, deadline=None)
    @given(price=st.floats(0.01, 1000.0), h=st.integers(2, 30))
    def test_constant_path_has_no_correlation(self, price, h):
        # a constant segment's mean is rounded, and its deviations from it
        # need not be zero; the path is still skipped
        actual = series(100 * 1.005 ** np.arange(h + 1))
        constant = PathSet(np.full((1, h + 1), price))
        report = evaluate_ensemble(constant, actual, (HorizonSpec("h", h),))
        assert report[0].mean_correlation is None

    def test_constant_actual_has_no_correlation(self):
        # 0.3 averages to a value other than 0.3 over 10 days
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.01), 20, 10, 3)
        report = evaluate_ensemble(ps, series(np.full(11, 0.3)), self.horizons)
        assert [r.mean_correlation for r in report] == [None, None]

    def test_constant_paths_leave_the_mean_correlation_unchanged(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.01), 20, 10, 3)
        actual = series(100 * 1.002 ** np.arange(11))
        mixed = np.vstack([ps.paths[:10], np.full((5, 11), 0.3), ps.paths[10:]])
        got = evaluate_ensemble(PathSet(mixed), actual, self.horizons)
        for r, want in zip(got, evaluate_ensemble(ps, actual, self.horizons)):
            assert r.mean_correlation == pytest.approx(want.mean_correlation, rel=1e-14)

    def test_prefix_consistency(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.01), 50, 30, 3)
        actual = series(100 * 1.002 ** np.arange(31))
        full = evaluate_ensemble(
            ps, actual, (HorizonSpec("1w", 5), HorizonSpec("2w", 10), HorizonSpec("x", 30))
        )
        short = evaluate_ensemble(ps, actual, (HorizonSpec("1w", 5), HorizonSpec("2w", 10)))
        for a, b in zip(short, full[:2]):
            assert a == b

    def test_too_short_actual(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.01), 5, 10, 3)
        actual = series(100 * 1.002 ** np.arange(8))
        with pytest.raises(DataError):
            evaluate_ensemble(ps, actual, self.horizons)

    def test_mape_against_larger_monte_carlo_oracle(self):
        # expected MAPE estimated from an independent 10x larger ensemble
        mu, sigma, h = 0.0005, 0.015, 60
        actual_path = simulate_ensemble(GbmParams(100.0, mu, sigma), 1, h, 101)
        actual = series(actual_path.paths[0])
        horizons = (HorizonSpec("x", h),)
        small = simulate_ensemble(GbmParams(100.0, mu, sigma), 1000, h, 202)
        big = simulate_ensemble(GbmParams(100.0, mu, sigma), 10_000, h, 303)
        got = evaluate_ensemble(small, actual, horizons)[0].mape
        oracle = evaluate_ensemble(big, actual, horizons)[0].mape
        assert got == pytest.approx(oracle, rel=0.20)

    def test_overflowed_ensemble_is_numeric_error(self):
        paths = np.tile(100 * 1.01 ** np.arange(11), (3, 1))
        paths[1, 6:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="2w: MAPE is nan"):
            evaluate_ensemble(PathSet(paths), series(paths[0]), self.horizons)

    def test_overflowing_correlation_is_numeric_error(self):
        # MAPE is finite near 1e200, but the sums of squared deviations are not
        ps = simulate_ensemble(GbmParams(1e200, 0.0, 0.01), 20, 10, 3)
        actual = series(ps.paths[0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="1w: correlation is nan"):
                evaluate_ensemble(ps, actual, self.horizons)

    def test_peak_memory_is_about_one_ensemble(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.015), 1000, 247, 7)
        actual = series(ps.paths[3])
        evaluate_ensemble(ps, actual)  # warm up lazily allocated state
        tracemalloc.start()
        try:
            evaluate_ensemble(ps, actual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ps.paths.nbytes


def path_major_reference(pathset, actual, horizons):
    """The evaluator of version 0.3.0: every horizon scored path-major, on
    fresh (n_paths, h) arrays. It sums in another order, so it is an oracle
    to within rounding."""
    paths = pathset.paths
    results = []
    for spec in horizons:
        h = spec.days
        a = actual.prices[1 : h + 1]
        f = paths[:, 1 : h + 1]
        mape_mean = float(np.mean(np.abs(a - f) / f, axis=1).mean())
        corr_mean = None
        if h >= 2:
            da = a - a.mean()
            df = f - f.mean(axis=1, keepdims=True)
            ss_a = float(da @ da)
            ss_f = np.einsum("pi,pi->p", df, df)
            # a segment is constant when its maximum equals its minimum
            usable = (ss_f > 0) & (f.max(axis=1) > f.min(axis=1))
            if ss_a > 0 and a.max() > a.min() and usable.any():
                r = (df[usable] @ da) / np.sqrt(ss_f[usable] * ss_a)
                corr_mean = float(np.clip(r, -1.0, 1.0).mean())
        band = classify_mape(mape_mean)
        results.append(HorizonResult(spec.label, h, corr_mean, mape_mean, band))
    return tuple(results)


def time_major_reference(pathset, actual, horizons):
    """Every horizon scored on fresh (h, n_paths) arrays of the time-major
    rows paths.T, in the evaluator's sum order but without its buffer."""
    steps = pathset.paths.T
    results = []
    for spec in horizons:
        h = spec.days
        a = actual.prices[1 : h + 1]
        f = steps[1 : h + 1]
        mape_mean = float((np.sum(np.abs(a[:, None] - f) / f, axis=0) / h).mean())
        corr_mean = None
        if h >= 2:
            da = a - a.mean()
            df = f - f.mean(axis=0)
            ss_a = float(da @ da)
            ss_f = np.einsum("ip,ip->p", df, df)
            usable = (ss_f > 0) & (f.max(axis=0) > f.min(axis=0))
            if ss_a > 0 and a.max() > a.min() and usable.any():
                r = (da @ df)[usable] / np.sqrt(ss_f[usable] * ss_a)
                corr_mean = float(np.clip(r, -1.0, 1.0).mean())
        band = classify_mape(mape_mean)
        results.append(HorizonResult(spec.label, h, corr_mean, mape_mean, band))
    return tuple(results)


@st.composite
def scoring_cases(draw):
    """An ensemble, an actual series and horizons, as (pathset, actual, horizons)."""
    n_paths = draw(st.integers(1, 64))
    days = draw(st.lists(st.integers(1, 150), min_size=1, max_size=6))  # unsorted, repeats
    width = max(days) + 1 + draw(st.integers(0, 3))  # paths may run past max_h
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    paths = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, (n_paths, width)), axis=1))
    constant = draw(st.sampled_from(["none", "some", "all"]))
    if constant == "all":
        paths[:] = paths[:, :1]
    elif constant == "some":
        rows = rng.random(n_paths) < 0.5
        paths[rows] = paths[rows, :1]
    if draw(st.booleans()):
        actual = paths[rng.integers(n_paths)] * rng.uniform(0.8, 1.2, width)
    else:
        actual = np.full(width, 50.0 + rng.random())
    horizons = tuple(HorizonSpec(f"h{i}", d) for i, d in enumerate(days))
    # time-major, as simulate_ensemble lays an ensemble out
    return PathSet(np.ascontiguousarray(paths.T).T), series(actual), horizons


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_one_buffer_scoring_equals_per_horizon_reference(case):
    pathset, actual, horizons = case
    got = evaluate_ensemble(pathset, actual, horizons)
    assert got == time_major_reference(pathset, actual, horizons)


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_scoring_matches_the_path_major_oracle(case):
    pathset, actual, horizons = case
    got = evaluate_ensemble(pathset, actual, horizons)
    for r, want in zip(got, path_major_reference(pathset, actual, horizons)):
        assert (r.horizon, r.days, r.band) == (want.horizon, want.days, want.band)
        assert r.mape == pytest.approx(want.mape, rel=1e-13, abs=0)
        if want.mean_correlation is None:
            assert r.mean_correlation is None
        else:
            assert r.mean_correlation == pytest.approx(want.mean_correlation, rel=0, abs=1e-13)
