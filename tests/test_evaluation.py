import numpy as np
import pytest

from gbmfolio.errors import DataError, NumericError
from gbmfolio.evaluation import (
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
