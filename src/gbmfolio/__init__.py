"""Stock and portfolio price simulation with geometric Brownian motion,
Monte Carlo max-Sharpe optimization, and forecast evaluation.
"""

__version__ = "0.3.0"

from .errors import DataError, GbmfolioError, NumericError
from .evaluation import (
    DEFAULT_HORIZONS,
    EvalReport,
    HorizonSpec,
    classify_mape,
    evaluate_ensemble,
    mape,
    pearson_correlation,
)
from .gbm import (
    Envelope,
    GbmParams,
    PathSet,
    SimulationConfig,
    ensemble_arrays,
    envelope,
    simulate_ensemble,
    wiener_increments,
)
from .market_data import (
    PricePanel,
    PriceSeries,
    align_panel,
    load_csv,
    normalize_base100,
    slice_panel,
    slice_period,
)
from .portfolio import (
    PortfolioGroup,
    PortfolioStats,
    Weights,
    optimize_max_sharpe,
    portfolio_stats,
    portfolio_value_series,
    random_weights,
    rank_and_group,
)
from .stats import (
    AssetStats,
    ReturnSeries,
    annualize_return,
    annualize_risk,
    asset_stats,
    log_returns,
    sharpe_ratio,
    simple_returns,
)
