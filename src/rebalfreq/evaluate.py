"""Aggregation of path outcomes into objective estimates and diagnostics.

The simulated objective of a strategy is the time-averaged sum of relative
wealth increments minus ``gamma/2`` times their squares, estimated path by
path; each path contributes one value, so standard errors are plain sample
statistics (pair means under antithetic sampling). The loss relative to the
frictionless benchmark decomposes, to leading order, into realised
proportional costs plus ``gamma/2`` times the tracking-error integral, both
measured relative to the simulated benchmark;
:func:`decomposition_check` verifies that on common random numbers, and
:func:`expansion_check` verifies the cost/error scaling exponents in the
cost rate for general waiting-time exponents.

Benchmark tables 1-4 reproduce the four simulation studies shipped with the
package (single- and two-asset constant-coefficient markets, and their
mean-reverting counterparts); :func:`table_runner` runs them end to end, on
one worker pool: first every cell's predictions, then every cell's Monte
Carlo run. The prediction grid steps its state paths as the engine does and
sums each path's rates step by step (:mod:`rebalfreq.frequency`). Bit
identity: cells whose state processes are the same (table 4's correlations)
share one pass of that grid, whose per-path sums are the bits each cell's own
pass would give, and the Monte Carlo results do not depend on blocks or
workers (:mod:`rebalfreq.simulate`); so each cell's row is the same bytes as
:func:`run_table_cell` gives for that cell alone, at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    AssumptionError,
    DegenerateCovarianceError,
    DegenerateTargetError,
    DomainError,
    InputError,
    ParameterError,
)
from .frequency import (
    _GRID_PATHS,
    _rate_grid,
    bs1d_closed_forms,
    lemma_constants,
    optimal_rule,
)
from .markets import BlackScholesModel, TruncatedKimOmbergModel
from .merton import merton_state
from .simulate import (
    SimulationConfig,
    _state_key,
    _worker_pool,
    buy_and_hold,
    frictionless_benchmark,
    move_based,
    pasted_move_based,
    run_strategies,
    time_based,
)


CSV_HEADER = "strategy,F_hat,stderr,mean_tac,mean_de,mean_trades,asymptotic_prediction"

TABLE_IDS = (1, 2, 3, 4)


@dataclass
class StrategyReport:
    """Monte Carlo summary of one strategy.

    ``F_hat`` is the annualised objective estimate, ``mean_tac`` /
    ``mean_de`` are the average realised cost and tracking-error totals over
    the horizon, and ``implied_loss = frictionless_rate - F_hat``.
    """

    strategy: str
    F_hat: float
    stderr: float
    mean_tac: float
    mean_de: float
    mean_trades: float
    frictionless_rate: float
    implied_loss: float
    n_paths: int
    n_failed: int
    asymptotic_prediction: Optional[float] = None


def _stderr(values, antithetic):
    if antithetic and len(values) % 2 == 0:
        values = values.reshape(-1, 2).mean(axis=1)  # antithetic pairs' means
    if len(values) <= 1:
        return float("nan")
    return float(values.std(ddof=1) / np.sqrt(len(values)))


def estimate_objective(outcome, config, frictionless_rate=None, prediction=None):
    """Turn per-path ledger aggregates into a :class:`StrategyReport`.

    Failed paths (wealth hit zero) are excluded and counted. When
    ``frictionless_rate`` is not given, the same-path plug-in estimate from
    the outcome's frictionless accumulator is used, which makes the implied
    loss a common-random-number difference.
    """
    valid = ~outcome.failed
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ParameterError("no surviving paths to aggregate")
    f = outcome.objective_paths(config)
    anti = config.antithetic and bool(valid.all())
    fr = (
        float(frictionless_rate)
        if frictionless_rate is not None
        else float(outcome.frictionless_path[valid].mean())
    )
    F = float(f[valid].mean())
    return StrategyReport(
        strategy=outcome.label,
        F_hat=F,
        stderr=_stderr(f[valid], anti),
        mean_tac=float(outcome.tac[valid].mean()),
        mean_de=float(outcome.de[valid].mean()),
        mean_trades=float(outcome.n_trades[valid].mean()),
        frictionless_rate=fr,
        implied_loss=fr - F,
        n_paths=n_valid,
        n_failed=int(outcome.failed.sum()),
        asymptotic_prediction=prediction,
    )


def frictionless_report(outcome, config, analytic=None):
    """Frictionless benchmark row from the same paths as a simulated run.

    For constant-coefficient models pass ``analytic`` (the exact rate); the
    row is then exact with zero standard error. Otherwise the plug-in rate
    is averaged over the simulated state paths.
    """
    vals = outcome.frictionless_path
    if analytic is None:
        rate, stderr = float(vals.mean()), _stderr(vals, config.antithetic)
    else:
        rate, stderr = float(analytic), 0.0
    return StrategyReport(
        strategy="frictionless",
        F_hat=rate,
        stderr=stderr,
        mean_tac=0.0,
        mean_de=0.0,
        mean_trades=0.0,
        frictionless_rate=rate,
        implied_loss=0.0,
        n_paths=len(vals),
        n_failed=0,
        asymptotic_prediction=None if analytic is None else rate,
    )


def decomposition_check(model, config, strategy):
    """Same-path check of ``loss ~ (E[TAC] + gamma/2 E[DE]) / T``.

    Runs the strategy together with the zero-cost benchmark, rebalanced at
    every grid step, on shared draws, so the simulated loss is a per-path
    difference with small noise. ``TAC`` and ``DE`` are the strategy's
    totals net of the benchmark's own totals on the same paths: between
    grid steps the benchmark's weights drift off target, which leaves it an
    O(dt) tracking-error floor that this subtraction cancels. Returns the
    simulated loss, the decomposition value, their residual, and the
    residual/loss ratio, which is NaN when the simulated loss is exactly
    zero (as at ``eps = 0``, where both trade identically).
    """
    bench = frictionless_benchmark()
    outcomes, _ = run_strategies(model, config, [strategy, bench])
    out = outcomes[strategy.label]
    ref = outcomes[bench.label]
    valid = ~(out.failed | ref.failed)
    diff = (ref.objective_paths(config) - out.objective_paths(config))[valid]
    loss = float(diff.mean())
    tac = (out.tac - ref.tac)[valid]
    de = (out.de - ref.de)[valid]
    decomp = float((tac.mean() + 0.5 * config.gamma * de.mean()) / config.horizon)
    residual = loss - decomp
    return {
        "loss_sim": loss,
        "loss_stderr": _stderr(diff, config.antithetic and bool(valid.all())),
        "loss_decomposed": decomp,
        "residual": residual,
        "residual_over_loss": residual / loss if loss != 0 else float("nan"),
        "n_paths": int(valid.sum()),
    }


def expansion_check(model, gamma, config, alphas, epsilons, allow_flagged=False):
    """Scaling diagnostics for the cost and tracking-error expansions.

    For each waiting-time exponent ``alpha``, reruns the time-based strategy
    built on the adaptive optimal profile across the ``epsilons`` grid (same
    seeds; one run per ``eps`` holds every exponent) and compares ``E[TAC] /
    eps^(1 - alpha/2)`` and ``E[DE] / eps^alpha`` to the limiting constants
    computed by the frequency module. Reports fitted log-log slopes
    (expected ``1 - alpha/2`` and ``alpha``). A slope needs two distinct cost
    rates or more, all positive, and fits through no zero cost: else raises
    :class:`ParameterError`, naming the exponent and cost rate of a run that
    has no trade within the horizon.
    """
    if not (min(epsilons, default=0) > 0 and len(set(epsilons)) > 1):
        raise ParameterError(f"need two distinct positive cost rates or more, got {epsilons!r}")
    if not alphas:
        raise ParameterError("no waiting-time exponents to check")
    rule0 = optimal_rule(model, gamma, allow_flagged=allow_flagged)
    limits = lemma_constants(model, gamma, rule0, config.horizon, y0=config.y0, dt=config.dt,
                             seed=config.seed, allow_flagged=allow_flagged)
    strategies = [time_based(rule0.with_alpha(a), label=f"time_{i}") for i, a in enumerate(alphas)]
    runs = []
    for eps in epsilons:
        cfg = replace(config, epsilon=eps, gamma=gamma, allow_flagged=allow_flagged)
        runs.append(run_strategies(model, cfg, strategies)[0])
    rows = []
    summaries = []
    for alpha, strategy in zip(alphas, strategies):
        tacs, des = [], []
        for eps, outcomes in zip(epsilons, runs):
            out = outcomes[strategy.label]
            tac, de = float(out.tac.mean()), float(out.de.mean())
            if tac <= 0.0:
                raise ParameterError(
                    f"no trade within the horizon at exponent alpha={alpha:.6g} and "
                    f"eps={eps:.6g}: no slope fits through zero costs"
                )
            tacs.append(tac)
            des.append(de)
            rows.append(
                {
                    "alpha": alpha,
                    "epsilon": eps,
                    "mean_tac": tac,
                    "mean_de": de,
                    "tac_scaled": tac / eps ** (1.0 - alpha / 2.0),
                    "de_scaled": de / eps**alpha,
                }
            )
        log_eps = np.log(np.asarray(epsilons, dtype=float))
        tac_slope = float(np.polyfit(log_eps, np.log(tacs), 1)[0])
        de_slope = float(np.polyfit(log_eps, np.log(des), 1)[0])
        summaries.append(
            {
                "alpha": alpha,
                "tac_slope": tac_slope,
                "tac_slope_expected": 1.0 - alpha / 2.0,
                "de_slope": de_slope,
                "de_slope_expected": alpha,
                "tac_limit": limits[0],
                "de_limit": limits[1],
            }
        )
    return rows, summaries


# ---------------------------------------------------------------------------
# benchmark tables
# ---------------------------------------------------------------------------

# Settings shared by the benchmark tables and figure 1.
_GAMMA = 5.0
_DT = 1.0 / 250.0
_HORIZON = 20.0
_N_WORKERS = 2
_SEED = 7
_EPSILON = 0.01

_BARBERIS = {
    "long_run_mean": 0.056,
    "state_vol": 0.0368,
    "mean_reversion": 0.2712,
    "state_correlation": -0.9351,
}


def _bs2d(rho):
    """Two identical constant-coefficient assets with correlation ``rho``."""
    return BlackScholesModel(
        mu=[0.08, 0.08], vol=[0.16, 0.16], correlation=[[1.0, rho], [rho, 1.0]]
    )


def _run_config(
    n_paths=2, seed=_SEED, epsilon=_EPSILON, horizon=_HORIZON, n_workers=1, allow_flagged=True
):
    """Simulation settings of a table cell or figure point (antithetic draws);
    without arguments, the ones the CLI checks table and figure flags on."""
    return SimulationConfig(
        horizon=horizon,
        dt=_DT,
        n_paths=n_paths,
        epsilon=epsilon,
        gamma=_GAMMA,
        seed=seed,
        antithetic=True,
        n_workers=n_workers,
        allow_flagged=allow_flagged,
    )


def _table_spec(table_id):
    if table_id == 1:
        return {
            "models": [("", BlackScholesModel(mu=[0.08], vol=[0.16]))],
            "strategies": ["frictionless", "move", "time_adaptive", "buy_hold"],
            "default_paths": 40_000,
        }
    if table_id == 2:
        return {
            "models": [("", TruncatedKimOmbergModel(vol=[0.1428], **_BARBERIS))],
            "strategies": [
                "frictionless",
                "move",
                "time_adaptive",
                "time_constant",
                "buy_hold",
            ],
            "default_paths": 30_000,
        }
    if table_id == 3:
        return {
            "models": [(f"[rho={rho}]", _bs2d(rho)) for rho in (0.3, 0.6, 0.9)],
            "strategies": ["frictionless", "time_adaptive", "buy_hold"],
            "default_paths": 20_000,
        }
    if table_id == 4:
        return {
            "models": [
                (
                    f"[rho={rho}]",
                    TruncatedKimOmbergModel(
                        vol=[0.1428, 0.1428],
                        correlation=[[1.0, rho], [rho, 1.0]],
                        **_BARBERIS,
                    ),
                )
                for rho in (0.3, 0.6, 0.9)
            ],
            "strategies": ["frictionless", "pasted", "time_adaptive", "buy_hold"],
            "default_paths": 20_000,
        }
    raise InputError(f"table id must be one of {TABLE_IDS}, got {table_id!r}")


# Each strategy name a table or run config may list, and its builder from the cell's model,
# config and ``time_constant`` rule (:func:`_cell_predictions`); ``frictionless`` builds none,
# since it is reported from another strategy's paths.
STRATEGIES = {
    "frictionless": None,
    "frictionless_sim": lambda model, config, constant: frictionless_benchmark(),
    "time_adaptive": lambda model, config, constant: time_based(
        optimal_rule(model, config.gamma, config.allow_flagged), label="time_adaptive"),
    "time_constant": lambda model, config, constant: time_based(constant, label="time_constant"),
    "buy_hold": lambda model, config, constant: buy_and_hold(),
    "move": lambda model, config, constant: move_based(),
    "pasted": lambda model, config, constant: pasted_move_based(),
}


# Errors that mean a prediction's formula does not apply to the cell, which
# is then left blank; any other error is a fault and propagates.
_NOT_APPLICABLE = (AssumptionError, DegenerateTargetError, DomainError, DegenerateCovarianceError)


def _config_grid(model, config, pool=None):
    """The state grid of ``model``, or of a tuple of models as
    :func:`~rebalfreq.frequency._rate_grid` takes them, at ``config``'s settings."""
    return _rate_grid(model, config.gamma, config.horizon, config.y0, _GRID_PATHS, config.dt,
                      config.seed, config.allow_flagged, n_workers=config.n_workers, pool=pool)


def _predictions(cells, names, pool=None):
    """The ``time_constant`` rule and the predictions of the strategies ``names`` for each
    ``(model, config)`` cell, as :func:`_cell_predictions` forms them.

    Both time-based predictions, the constant rule and, for state-dependent models, the
    frictionless rate they are measured from come from the cell's state grid. Cells whose
    grids are provably the same (equal :func:`rebalfreq.simulate._state_key` and grid
    settings) share one pass of it; with ``n_workers > 1`` its path ranges run on ``pool``
    (or on a pool of their own). This is the one place where a failing grid becomes blank
    cells: a ``_NOT_APPLICABLE`` error of a pass leaves every cell of that pass without a
    grid, unless ``time_constant`` is among ``names``, whose strategy needs the grid's
    constant rule; then, as any other error, it propagates.
    """
    grids = {}
    if {"time_adaptive", "time_constant"} & set(names):
        passes = {}
        for i, (model, config) in enumerate(cells):
            key = _state_key(model, config.y0)
            settings = (config.gamma, config.horizon, config.dt, config.seed, config.allow_flagged)
            passes.setdefault(i if key is None else (key, settings), []).append(i)
        for members in passes.values():
            models, config = tuple(cells[i][0] for i in members), cells[members[0]][1]
            try:
                grids.update(zip(members, _config_grid(models, config, pool)))
            except _NOT_APPLICABLE:
                if "time_constant" in names:
                    raise
    return [_cell_predictions(model, config, names, grids.get(i))
            for i, (model, config) in enumerate(cells)]


def _cell_predictions(model, config, names, grid):
    """The ``time_constant`` rule and the prediction of each strategy, from the cell's
    :class:`~rebalfreq.frequency._RateGrid`, or ``None`` without a time-based strategy or
    where :func:`_predictions` found the grid's formula inapplicable. A prediction is
    ``None`` where its formula does not apply; the constant rule is ``None`` only when
    ``time_constant`` is not among ``names``.
    """
    # the exact frictionless rate of a constant-coefficient model, else None
    st = merton_state(model, np.zeros(0), config.gamma) if model.p == 0 else None
    fr = None if st is None else float(st.f_rate)
    eps23 = config.epsilon ** (2.0 / 3.0)
    preds = {"frictionless": fr}
    rule = None
    if grid is not None:
        base = fr if fr is not None else float(grid.f_rate.mean()) / config.horizon
        if "time_constant" in names:
            rule = grid.constant_rule()
        for name in ("time_adaptive", "time_constant"):
            if name in names:
                cost = grid.total_cost(rule if name == "time_constant" else None)
                preds[name] = base - eps23 * cost / config.horizon
    if "move" in names and model.p == 0 and model.m == 1 and config.epsilon > 0:
        try:
            forms = bs1d_closed_forms(float(st.mu[0]), float(np.sqrt(st.Sigma[0, 0])),
                                      config.gamma, config.epsilon)
            preds["move"] = fr - forms.move_based_loss_rate
        except _NOT_APPLICABLE:
            pass
    return rule, preds


def _cell_reports(model, config, names, rule, predictions, pool, record_paths=0):
    """The report rows of one cell, and its records, from its ``time_constant`` rule and
    predictions; the Monte Carlo blocks run on ``pool``."""
    if unknown := [n for n in names if n not in STRATEGIES]:
        raise InputError(f"unknown strategy name {unknown[0]!r}")
    if not names:
        raise InputError("no strategy names to run")
    sims = [
        STRATEGIES[n](model, config, rule)
        for n in names
        if n != "frictionless"
    ] or [buy_and_hold()]  # a frictionless row reads only the market pass
    outcomes, records = run_strategies(model, config, sims, record_paths, pool=pool)
    sample = outcomes[sims[0].label]
    fr_analytic = predictions["frictionless"]
    reports = []
    for name in names:
        if name == "frictionless":
            rep = frictionless_report(sample, config, analytic=fr_analytic)
        else:
            out = outcomes[name]
            rep = estimate_objective(
                out,
                config,
                frictionless_rate=fr_analytic,
                prediction=predictions.get(name),
            )
        reports.append(rep)
    return reports, records


def run_table_cell(model, config, strategy_names, record_paths=0):
    """Run one model's strategy battery and return report rows.

    With ``config.n_workers > 1`` one process pool, shut down before this returns or
    raises, serves the cell's prediction grid and then its Monte Carlo blocks. With
    ``record_paths > 0`` returns ``(reports, records)``, as :func:`run_strategy` does.
    """
    (reports, records), = _run_cells([(model, config)], strategy_names, config.n_workers,
                                     record_paths)
    return (reports, records) if record_paths else reports


def table_runner(
    table_id, n_paths=None, seed=_SEED, epsilon=_EPSILON, horizon=_HORIZON, n_workers=_N_WORKERS
):
    """Reproduce one of the four benchmark tables; returns report rows.

    ``n_paths=None`` runs the table's default path count, a desk-scale one
    (tens of thousands) rather than the million-path runs behind the
    published three-digit values; widen tolerances accordingly. Risk
    aversion 5, step 1/250 and antithetic draws are fixed; ``n_workers``
    never changes results. Tables 2 and 4 run with the no-leverage flag
    overridden, since the mean-reverting benchmark's default cutoffs leave
    the target leveraged in the far tails. One process pool, shut down
    before this returns or raises, serves every cell.
    """
    spec = _table_spec(int(table_id))
    n = spec["default_paths"] if n_paths is None else int(n_paths)
    cells = [(model, _run_config(n, seed, epsilon, horizon, n_workers, allow_flagged=model.p > 0))
             for _, model in spec["models"]]
    results = _run_cells(cells, spec["strategies"], n_workers)
    return [replace(rep, strategy=rep.strategy + suffix)
            for (suffix, _), (reports, _) in zip(spec["models"], results) for rep in reports]


def _run_cells(cells, names, n_workers, record_paths=0):
    """The report rows and records of each ``(model, config)`` cell. One process pool, shut
    down before this returns or raises, serves every cell's predictions and then the cells'
    Monte Carlo blocks in turn."""
    with _worker_pool(n_workers) as pool:
        predictions = _predictions(cells, names, pool)
        return [_cell_reports(model, config, names, rule, preds, pool, record_paths)
                for (model, config), (rule, preds) in zip(cells, predictions)]


def figure_rows(rho_grid=None, epsilon=_EPSILON, n_paths=0, seed=_SEED):
    """Waiting time and performance across correlations (table 3's two assets).

    Returns rows ``(rho, A_star_years, F_hat)``. ``F_hat`` is the
    asymptotic prediction of the optimal time-based rule (the
    ``time_adaptive`` prediction of a table cell) unless ``n_paths > 0``, in
    which case it is that cell's Monte Carlo estimate, on shared seeds
    across correlations. Risk aversion, step and horizon are the tables'.
    The sweep allows leveraged targets: the weights sum to
    ``1.25/(1+rho) > 1`` below ``rho = 0.25``.
    """
    if rho_grid is None:
        rho_grid = np.concatenate([np.arange(0.05, 0.96, 0.05), [0.999]])
    # with n_paths = 0 nothing is run; the config then only needs a valid count
    config = _run_config(n_paths or 2, seed, epsilon, _HORIZON, _N_WORKERS, allow_flagged=True)
    cells, names = [(_bs2d(rho), config) for rho in rho_grid], ["time_adaptive"]
    if n_paths:
        f_hats = [reports[0].F_hat for reports, _ in _run_cells(cells, names, _N_WORKERS)]
    else:
        f_hats = [preds["time_adaptive"] for _, preds in _predictions(cells, names)]
    rows = []
    for rho, (model, _), f_hat in zip(rho_grid, cells, f_hats):
        rule = optimal_rule(model, _GAMMA, allow_flagged=True)
        wait = float(rule.waiting_time(np.zeros(0), epsilon))
        rows.append({"rho": float(rho), "A_star_years": wait, "F_hat": f_hat})
    return rows


def rows_to_csv(reports):
    """Render report rows under the fixed strategy-CSV header."""
    lines = [CSV_HEADER]
    for r in reports:
        pred = "" if r.asymptotic_prediction is None else _fmt(r.asymptotic_prediction)
        values = (r.F_hat, r.stderr, r.mean_tac, r.mean_de, r.mean_trades)
        lines.append(",".join([r.strategy, *map(_fmt, values), pred]))
    return "\n".join(lines) + "\n"


def _fmt(x):
    return format(float(x), ".10g")
