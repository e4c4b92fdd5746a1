"""Stock and portfolio price simulation with geometric Brownian motion,
Monte Carlo max-Sharpe optimization, and forecast evaluation.

The library API is the submodules (gbmfolio.market_data, .stats,
.portfolio, .gbm, .evaluation); the command line is gbmfolio.cli.
"""

__version__ = "0.8.0"
