"""Optimal time-based portfolio rebalancing under small proportional costs.

A numpy library for computing asymptotically optimal rebalancing
schedules for multi-asset portfolios facing proportional trading costs, and
for validating the closed-form frequencies and welfare losses by Monte Carlo
simulation of discretely rebalanced wealth against alternative strategies
(buy-and-hold, no-trade bands, constant calendars).
"""

from .errors import (
    AssumptionError,
    ConvergenceError,
    DegenerateCovarianceError,
    DegenerateTargetError,
    DomainError,
    InputError,
    ParameterError,
    RebalfreqError,
)
from .markets import (
    BlackScholesModel,
    MarketModel,
    TruncatedKimOmbergModel,
    evaluate_coefficients,
    finite_difference_jacobians,
    jacobians,
    model_from_config,
    smooth_cutoff,
)
from .merton import (
    MertonState,
    beta_matrix,
    frictionless_rate,
    l21_norm,
    merton_diffusion,
    merton_state,
    merton_weights,
    tr_beta_sigma_beta,
)
from .frequency import (
    ALPHA,
    Bs1dClosedForms,
    CostBreakdown,
    DiscretizationRule,
    bs1d_closed_forms,
    check_nondegeneracy,
    constant_rule,
    cost_breakdown,
    lemma_constants,
    optimal_rule,
    rate_parts,
    schedule_trading_times,
    total_cost,
)
from .simulate import (
    SimulationConfig,
    Strategy,
    StrategyOutcome,
    buy_and_hold,
    frictionless_benchmark,
    move_based,
    move_based_halfwidth_1d,
    pasted_halfwidths,
    pasted_move_based,
    rebalance_solve,
    run_strategies,
    run_strategy,
    simulate_market_path,
    simulate_state_grid,
    time_based,
)
from .evaluate import (
    StrategyReport,
    decomposition_check,
    estimate_objective,
    expansion_check,
    figure_rows,
    frictionless_report,
    rows_to_csv,
    table_runner,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"
