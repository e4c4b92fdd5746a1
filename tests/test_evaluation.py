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
    mape,
    pearson_correlation,
)
from gbmfolio.gbm import GbmParams, PathSet, SimulationConfig, simulate_ensemble

from conftest import series


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        # oracle: direct product-moment evaluation gives 3/5
        assert pearson_correlation([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_constant_input_errors(self):
        with pytest.raises(NumericError, match="undefined correlation"):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_affine_invariance(self, rng):
        for _ in range(20):
            x = rng.standard_normal(15)
            y = rng.standard_normal(15)
            r = pearson_correlation(x, y)
            assert pearson_correlation(3.5 * x + 2.0, y) == pytest.approx(r, abs=1e-10)
            assert pearson_correlation(-2.0 * x + 1.0, y) == pytest.approx(-r, abs=1e-10)

    def test_bounded(self, rng):
        for _ in range(200):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            assert abs(pearson_correlation(x, y)) <= 1.0


class TestMape:
    def test_identity_zero(self):
        assert mape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_term(self):
        assert mape([110.0], [100.0]) == pytest.approx(0.10)

    def test_two_terms(self):
        assert mape([90.0, 120.0], [100.0, 100.0]) == pytest.approx(0.15)

    def test_forecast_denominator_is_default(self):
        # |100 - 80| / 80 = 0.25 vs conventional |100 - 80| / 100 = 0.20
        assert mape([100.0], [80.0]) == pytest.approx(0.25)
        assert mape([100.0], [80.0], denominator="actual") == pytest.approx(0.20)

    def test_zero_forecast_errors(self):
        with pytest.raises(NumericError):
            mape([1.0], [0.0])

    def test_zero_iff_equal(self, rng):
        a = rng.uniform(1, 10, 20)
        f = a.copy()
        assert mape(a, f) == 0.0
        f[3] += 1e-6
        assert mape(a, f) > 0.0


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


def constant_pathset(paths):
    paths = np.asarray(paths, dtype=float)
    params = GbmParams(float(paths[0, 0]), 0.0, 0.0)
    config = SimulationConfig(paths.shape[0], paths.shape[1] - 1, 0)
    return PathSet(paths, params, config)


class TestEvaluateEnsemble:
    horizons = (HorizonSpec("1w", 5), HorizonSpec("2w", 10))

    def test_perfect_deterministic_forecast(self):
        actual = series(100 * 1.01 ** np.arange(11))
        ps = simulate_ensemble(
            GbmParams(100.0, np.log(1.01), 0.0), SimulationConfig(10, 10, 0)
        )
        report = evaluate_ensemble(ps, actual, self.horizons)
        for r in report.results:
            assert r.mape == pytest.approx(0.0, abs=1e-12)
            assert r.band == "high"

    def test_actual_equals_single_path(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.01), SimulationConfig(1, 10, 3))
        actual = series(ps.paths[0])
        report = evaluate_ensemble(ps, actual, self.horizons)
        for r in report.results:
            assert r.mean_correlation == pytest.approx(1.0)
            assert r.mape == pytest.approx(0.0, abs=1e-12)

    def test_constant_paths_skipped_for_correlation(self):
        actual_prices = 100 * 1.005 ** np.arange(11)
        paths = np.vstack([np.full(11, 100.0), actual_prices * 1.5])
        ps = constant_pathset(paths)
        actual = series(actual_prices)
        report = evaluate_ensemble(ps, actual, self.horizons)
        for r in report.results:
            # only the non-constant path contributes, and it tracks actual perfectly
            assert r.mean_correlation == pytest.approx(1.0)
            assert r.mape > 0.0

    def test_all_constant_paths_no_correlation(self):
        ps = constant_pathset(np.full((3, 11), 100.0))
        actual = series(100 * 1.005 ** np.arange(11))
        report = evaluate_ensemble(ps, actual, self.horizons)
        for r in report.results:
            assert r.mean_correlation is None

    def test_prefix_consistency(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.01), SimulationConfig(50, 30, 3))
        actual = series(100 * 1.002 ** np.arange(31))
        full = evaluate_ensemble(
            ps, actual, (HorizonSpec("1w", 5), HorizonSpec("2w", 10), HorizonSpec("x", 30))
        )
        short = evaluate_ensemble(ps, actual, (HorizonSpec("1w", 5), HorizonSpec("2w", 10)))
        for a, b in zip(short.results, full.results[:2]):
            assert a == b

    def test_unknown_denominator_rejected(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.01), SimulationConfig(2, 10, 3))
        with pytest.raises(DataError, match="denominator"):
            evaluate_ensemble(ps, series(ps.paths[0]), self.horizons, denominator="bogus")

    def test_too_short_actual(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.01), SimulationConfig(5, 10, 3))
        actual = series(100 * 1.002 ** np.arange(8))
        with pytest.raises(DataError):
            evaluate_ensemble(ps, actual, self.horizons)

    def test_mape_against_larger_monte_carlo_oracle(self):
        # expected MAPE estimated from an independent 10x larger ensemble
        mu, sigma, h = 0.0005, 0.015, 60
        actual_path = simulate_ensemble(GbmParams(100.0, mu, sigma), SimulationConfig(1, h, 101))
        actual = series(actual_path.paths[0])
        horizons = (HorizonSpec("x", h),)
        small = simulate_ensemble(GbmParams(100.0, mu, sigma), SimulationConfig(1000, h, 202))
        big = simulate_ensemble(GbmParams(100.0, mu, sigma), SimulationConfig(10_000, h, 303))
        got = evaluate_ensemble(small, actual, horizons).results[0].mape
        oracle = evaluate_ensemble(big, actual, horizons).results[0].mape
        assert got == pytest.approx(oracle, rel=0.20)

    def test_overflowed_ensemble_is_numeric_error(self):
        paths = np.tile(100 * 1.01 ** np.arange(11), (3, 1))
        paths[1, 6:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="2w: MAPE is nan"):
            evaluate_ensemble(constant_pathset(paths), series(paths[0]), self.horizons)

    def test_overflowing_correlation_is_numeric_error(self):
        # MAPE is finite near 1e200, but the sums of squared deviations are not
        ps = simulate_ensemble(GbmParams(1e200, 0.0, 0.01), SimulationConfig(20, 10, 3))
        actual = series(ps.paths[0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="1w: correlation is nan"):
                evaluate_ensemble(ps, actual, self.horizons)

    def test_peak_memory_is_about_one_ensemble(self):
        ps = simulate_ensemble(GbmParams(100.0, 0.0005, 0.015), SimulationConfig(1000, 247, 7))
        actual = series(ps.paths[3])
        evaluate_ensemble(ps, actual)  # warm up lazily allocated state
        tracemalloc.start()
        try:
            evaluate_ensemble(ps, actual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ps.paths.nbytes


def reference_results(pathset, actual, horizons, denominator):
    """The evaluator as it was before its one-buffer form: every horizon
    scored on fresh (n_paths, h) arrays."""
    paths = pathset.paths
    results = []
    for spec in horizons:
        h = spec.days
        a = actual.prices[1 : h + 1]
        f = paths[:, 1 : h + 1]
        base = f if denominator == "forecast" else a
        mape_mean = float(np.mean(np.abs(a - f) / base, axis=1).mean())
        corr_mean = None
        if h >= 2:
            da = a - a.mean()
            df = f - f.mean(axis=1, keepdims=True)
            ss_a = float(da @ da)
            ss_f = np.einsum("pi,pi->p", df, df)
            usable = (ss_f > 0) & (ss_a > 0)
            if usable.any():
                r = (df[usable] @ da) / np.sqrt(ss_f[usable] * ss_a)
                corr_mean = float(np.clip(r, -1.0, 1.0).mean())
        results.append(HorizonResult(spec, corr_mean, mape_mean, classify_mape(mape_mean)))
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
    return constant_pathset(paths), series(actual), horizons


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases(), denominator=st.sampled_from(["forecast", "actual"]))
def test_one_buffer_scoring_equals_per_horizon_reference(case, denominator):
    pathset, actual, horizons = case
    got = evaluate_ensemble(pathset, actual, horizons, denominator)
    assert got.results == reference_results(pathset, actual, horizons, denominator)
