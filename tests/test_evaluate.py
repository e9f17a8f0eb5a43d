import multiprocessing

import numpy as np
import pytest

from rebalfreq import (
    AssumptionError,
    BlackScholesModel,
    InputError,
    ParameterError,
    SimulationConfig,
    TruncatedKimOmbergModel,
    buy_and_hold,
    decomposition_check,
    estimate_objective,
    expansion_check,
    figure_rows,
    frictionless_report,
    optimal_rule,
    rows_to_csv,
    run_strategy,
    time_based,
)
from rebalfreq import evaluate, simulate
from rebalfreq.evaluate import CSV_HEADER, _table_spec, run_table_cell
from rebalfreq.markets import MarketModel

from conftest import EPS, GAMMA, KO_PARAMS


def config(**kw):
    base = dict(
        horizon=20.0, dt=1.0 / 250.0, n_paths=1024, epsilon=EPS, gamma=GAMMA,
        seed=9, antithetic=True,
    )
    base.update(kw)
    return SimulationConfig(**base)


def test_bookkeeping_identity(bs1d):
    cfg = config(n_paths=256)
    out = run_strategy(bs1d, cfg, buy_and_hold())
    rep = estimate_objective(out, cfg, frictionless_rate=0.025)
    assert rep.F_hat + rep.implied_loss == pytest.approx(rep.frictionless_rate, abs=0)
    assert rep.stderr > 0
    assert rep.n_paths == 256


def test_empty_outcomes_rejected(bs1d):
    cfg = config(n_paths=256)
    out = run_strategy(bs1d, cfg, buy_and_hold())
    out.failed[:] = True
    with pytest.raises(ParameterError):
        estimate_objective(out, cfg)


def test_zero_asset_objective_zero():
    model = BlackScholesModel(mu=[0.0], vol=[0.16])
    cfg = config(n_paths=128)
    out = run_strategy(model, cfg, buy_and_hold())
    rep = estimate_objective(out, cfg, frictionless_rate=0.0)
    assert rep.F_hat == 0.0 and rep.stderr == 0.0


def test_frictionless_report_exact(bs1d):
    cfg = config(n_paths=128)
    out = run_strategy(bs1d, cfg, buy_and_hold())
    rep = frictionless_report(out, cfg, analytic=0.025)
    assert rep.F_hat == 0.025 and rep.stderr == 0.0 and rep.implied_loss == 0.0


def test_no_strategy_beats_frictionless(bs1d):
    cfg = config(n_paths=2048)
    for strat in (buy_and_hold(), time_based(optimal_rule(bs1d, GAMMA))):
        out = run_strategy(bs1d, cfg, strat)
        rep = estimate_objective(out, cfg, frictionless_rate=0.025)
        assert rep.implied_loss >= -3.0 * rep.stderr


def test_decomposition_check_small(bs1d):
    cfg = config(n_paths=4096, n_workers=2)
    strat = time_based(optimal_rule(bs1d, GAMMA), label="time")
    res = decomposition_check(bs1d, cfg, strat)
    assert res["loss_sim"] > 0
    assert abs(res["residual"]) < 0.25 * res["loss_sim"]


def test_decomposition_zero_cost(bs1d):
    cfg = config(n_paths=1024, epsilon=0.0)
    strat = time_based(
        optimal_rule(bs1d, GAMMA).with_alpha(1.0), label="time"
    )
    # at eps = 0 the schedule collapses to every grid step, so the strategy
    # and the benchmark take identical trades: the loss and its
    # decomposition are both exactly zero
    res = decomposition_check(bs1d, cfg, strat)
    assert res["loss_decomposed"] == pytest.approx(0.0, abs=1e-12)
    assert abs(res["loss_sim"]) < 5e-6


def test_csv_rows_format(bs1d):
    cfg = config(n_paths=128)
    reports = run_table_cell(bs1d, cfg, ["frictionless", "time_adaptive", "buy_hold"])
    text = rows_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert lines[1].startswith("frictionless,0.025,0,")
    # deterministic: same seed, same text
    reports2 = run_table_cell(bs1d, cfg, ["frictionless", "time_adaptive", "buy_hold"])
    assert rows_to_csv(reports2) == text


def test_table2_cell_simulates_one_state_grid(monkeypatch):
    calls = []
    real = simulate.simulate_state_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_state_grid", counting)
    spec = _table_spec(2)
    (_, model), = spec["models"]
    cfg = config(horizon=0.2, n_paths=8, allow_flagged=True)
    reports = run_table_cell(model, cfg, spec["strategies"])
    assert len(calls) == 1
    preds = {r.strategy: r.asymptotic_prediction for r in reports}
    assert preds["time_adaptive"] is not None
    assert preds["time_constant"] is not None


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_prediction_fault_propagates(monkeypatch, bs1d):
    monkeypatch.setattr(evaluate, "_rate_grid", _raise(TypeError("a fault")))
    with pytest.raises(TypeError):
        run_table_cell(bs1d, config(horizon=0.2, n_paths=8), ["frictionless", "time_adaptive"])


def test_inapplicable_prediction_left_blank(monkeypatch, bs1d):
    monkeypatch.setattr(evaluate, "_rate_grid", _raise(AssumptionError("leveraged")))
    reports = run_table_cell(
        bs1d, config(horizon=0.2, n_paths=8), ["frictionless", "time_adaptive"]
    )
    assert reports[0].asymptotic_prediction == pytest.approx(0.025, abs=1e-15)
    assert reports[1].asymptotic_prediction is None
    assert rows_to_csv(reports).splitlines()[2].endswith(",")


def test_inapplicable_grid_raises_for_time_constant(monkeypatch, bs1d):
    # the constant rule is a strategy of the cell, so without a grid the cell cannot run
    monkeypatch.setattr(evaluate, "_rate_grid", _raise(AssumptionError("leveraged")))
    with pytest.raises(AssumptionError, match="leveraged"):
        run_table_cell(bs1d, config(horizon=0.2, n_paths=8), ["frictionless", "time_constant"])


def test_move_prediction_of_bs1d_cell(bs1d):
    from rebalfreq import bs1d_closed_forms

    names = ["frictionless", "move"]
    reports = run_table_cell(bs1d, config(horizon=0.2, n_paths=8), names)
    forms = bs1d_closed_forms(0.08, 0.16, GAMMA, EPS)
    expected = 0.025 - forms.move_based_loss_rate
    assert reports[1].asymptotic_prediction == pytest.approx(expected, abs=1e-15)
    assert rows_to_csv(reports).splitlines()[2].endswith(",0.02480762771")
    leveraged = BlackScholesModel(mu=[0.2], vol=[0.16])  # w* = 1.5625
    for model, cfg in ((bs1d, config(epsilon=0.0)), (leveraged, config())):
        (_, preds), = evaluate._predictions([(model, cfg)], names)
        assert preds.get("move") is None and preds["frictionless"] is not None


class ProtocolBS1d(MarketModel):
    """BS-1d through the coefficient methods of the MarketModel protocol alone."""

    m, d, p = 1, 1, 0

    def mu(self, y):
        return np.full((len(y), 1), 0.08)

    def sigma(self, y):
        return np.full((len(y), 1, 1), 0.16)

    def b(self, y):
        return np.zeros((len(y), 0))

    def g(self, y):
        return np.zeros((len(y), 0, 1))


def test_move_prediction_read_through_the_model_protocol(bs1d):
    # the closed forms take mu and the volatility from the model's coefficients, so a
    # model without BlackScholesModel's own attributes gets the same prediction
    cfg = config(horizon=0.2, n_paths=8)
    for model in (ProtocolBS1d(), bs1d):
        reports = run_table_cell(model, cfg, ["frictionless", "move"])
        assert reports[1].asymptotic_prediction == 0.024807627705998873


def test_unknown_strategy_name_rejected(bs1d):
    with pytest.raises(InputError, match="unknown strategy name 'hold'"):
        run_table_cell(bs1d, config(horizon=0.2, n_paths=8), ["time_adaptive", "hold"])


def test_cell_of_frictionless_alone_runs_the_simulated_benchmark(bs1d, ko1d):
    # its row reads a simulated path sample, which the lightest ledger, buy-and-hold, provides
    reports = run_table_cell(bs1d, config(horizon=0.2, n_paths=8), ["frictionless"])
    assert [(r.strategy, r.n_paths) for r in reports] == [("frictionless", 8)]
    assert reports[0].asymptotic_prediction == pytest.approx(0.025, abs=1e-15)
    cfg = config(horizon=0.2, n_paths=8, allow_flagged=True)
    alone, records = run_table_cell(ko1d, cfg, ["frictionless"], record_paths=2)
    assert list(records.wealth) == ["buy_hold"]
    # the plug-in row is the same bytes as beside a ledger that trades every step
    with_bench = run_table_cell(ko1d, cfg, ["frictionless", "frictionless_sim"])
    assert rows_to_csv(alone) == rows_to_csv(with_bench[:1])


@pytest.mark.parametrize("call, error", [
    (lambda model, cfg: simulate.run_strategies(model, cfg, []), ParameterError),
    (lambda model, cfg: run_table_cell(model, cfg, []), InputError),
    (lambda model, cfg: expansion_check(model, GAMMA, cfg, [], [0.01, 0.02]), ParameterError),
], ids=["run_strategies", "run_table_cell", "expansion_check"])
def test_empty_strategy_lists_rejected_before_running(bs1d, monkeypatch, call, error):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before refusing an empty list")

    monkeypatch.setattr(simulate, "_on_ranges", no_work)
    monkeypatch.setattr(evaluate, "lemma_constants", no_work)
    with pytest.raises(error):
        call(bs1d, config(horizon=0.2, n_paths=8))


def test_table_spec_validation():
    with pytest.raises(InputError):
        _table_spec(7)
    for tid in (1, 2, 3, 4):
        spec = _table_spec(tid)
        assert spec["strategies"][0] == "frictionless"


def table2_cell(n_workers):
    (_, model), = _table_spec(2)["models"]
    return model, config(horizon=0.2, n_paths=16, allow_flagged=True, n_workers=n_workers)


def test_table2_cell_same_csv_at_one_and_two_workers():
    csv = []
    for n_workers in (1, 2):
        model, cfg = table2_cell(n_workers)
        csv.append(rows_to_csv(run_table_cell(model, cfg, _table_spec(2)["strategies"])))
        assert not multiprocessing.active_children()
    assert csv[0] == csv[1]
    rows = {line.split(",")[0]: line for line in csv[1].splitlines()[1:]}
    assert not rows["time_adaptive"].endswith(",") and not rows["time_constant"].endswith(",")


def _raise_in_worker(real, exc):
    """``real``, except that in a worker process it raises ``exc``."""
    def fn(*args, **kwargs):
        if multiprocessing.parent_process() is not None:
            raise exc
        return real(*args, **kwargs)

    return fn


def test_pooled_grid_inapplicable_left_blank(monkeypatch):
    names = ["frictionless", "time_adaptive", "buy_hold"]
    model, cfg = table2_cell(1)
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "simulate_state_grid", _raise(AssumptionError("leveraged")))
        serial = rows_to_csv(run_table_cell(model, cfg, names))
    # patched before run_table_cell opens its pool, so the forked workers raise
    real = simulate.simulate_state_grid
    monkeypatch.setattr(simulate, "simulate_state_grid",
                        _raise_in_worker(real, AssumptionError("leveraged")))
    pooled = rows_to_csv(run_table_cell(model, table2_cell(2)[1], names))
    assert not multiprocessing.active_children()
    assert pooled == serial
    row = pooled.splitlines()[2]
    assert row.startswith("time_adaptive,") and row.endswith(",")


@pytest.mark.parametrize("target", ["simulate_state_grid", "_log_returns"])
def test_pooled_fault_propagates_and_pool_shuts_down(monkeypatch, target):
    # a grid task's fault or an engine block's: both run in the cell's pool
    monkeypatch.setattr(simulate, target,
                        _raise_in_worker(getattr(simulate, target), TypeError("a fault")))
    model, cfg = table2_cell(2)
    with pytest.raises(TypeError, match="a fault"):
        run_table_cell(model, cfg, _table_spec(2)["strategies"])
    assert not multiprocessing.active_children()


def _count_grids(monkeypatch):
    calls = []
    real = simulate.simulate_state_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_state_grid", counting)
    return calls


def test_table4_cells_share_one_grid_pass(monkeypatch):
    # the three correlations move the assets, not the state: one grid call serves all three
    # cells, and each cell's rows are the bytes of the cell run alone
    calls = _count_grids(monkeypatch)
    reports = evaluate.table_runner(4, n_paths=8, horizon=0.2, n_workers=1)
    assert len(calls) == 1
    spec = _table_spec(4)
    alone = []
    for suffix, model in spec["models"]:
        cfg = evaluate._run_config(8, horizon=0.2, allow_flagged=True)
        for rep in run_table_cell(model, cfg, spec["strategies"]):
            rep.strategy += suffix  # the cell's label, as table_runner gives it
            alone.append(rep)
    assert len(calls) == 4
    assert rows_to_csv(reports) == rows_to_csv(alone)
    for shared, own in zip(reports, alone):
        assert shared.asymptotic_prediction == own.asymptotic_prediction


def test_inapplicable_shared_pass_blanks_all_its_cells(monkeypatch):
    # one pass serves both cells, so its error leaves both without a time-based prediction
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise AssumptionError("leveraged")

    monkeypatch.setattr(simulate, "simulate_state_grid", fail)
    spec = _table_spec(4)
    cfg = evaluate._run_config(8, horizon=0.2, allow_flagged=True)
    cells = [(model, cfg) for _, model in spec["models"][:2]]
    found = evaluate._predictions(cells, spec["strategies"])
    assert len(calls) == 1
    for rule, preds in found:
        assert rule is None and preds.get("time_adaptive") is None


@pytest.mark.parametrize("change", [{"mean_reversion": 0.3}, {"state_vol": 0.04}])
def test_cells_of_other_state_processes_draw_their_own_pass(monkeypatch, ko2d, change):
    other = TruncatedKimOmbergModel(vol=[0.1428, 0.1428], **{**KO_PARAMS, **change})
    cfg = config(horizon=0.2, n_paths=8, allow_flagged=True)
    names = ["frictionless", "time_adaptive"]
    calls = _count_grids(monkeypatch)
    evaluate._predictions([(ko2d(0.3), cfg), (ko2d(0.9), cfg)], names)
    assert len(calls) == 1
    evaluate._predictions([(ko2d(0.3), cfg), (other, cfg)], names)
    assert len(calls) == 3


def test_figure_rows_analytic():
    rows = figure_rows(rho_grid=[0.3, 0.6, 0.999], n_paths=0)
    assert [r["rho"] for r in rows] == [0.3, 0.6, 0.999]
    waits = [r["A_star_years"] for r in rows]
    assert waits[0] == pytest.approx(2.4770, abs=2e-3)
    f = [r["F_hat"] for r in rows]
    assert f[0] > f[1] > f[2]


def test_figure_sweep_runs_on_one_pool(monkeypatch):
    # the sweep's cells share one pool, as a table's do, and each row is the cell run alone
    import concurrent.futures

    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(evaluate, "_HORIZON", 0.2)
    rhos = [0.3, 0.6, 0.9]
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        analytic = figure_rows(rho_grid=rhos, n_paths=0)
        assert opened == []
        rows = figure_rows(rho_grid=rhos, n_paths=8)
        assert opened == [{"max_workers": 2}]
    assert not multiprocessing.active_children()
    cfg = evaluate._run_config(8, horizon=0.2, n_workers=2)
    for row, first, rho in zip(rows, analytic, rhos):
        alone = run_table_cell(evaluate._bs2d(rho), cfg, ["time_adaptive"])
        assert row == dict(first, F_hat=alone[0].F_hat)


def test_expansion_check_quick(bs1d):
    cfg = config(n_paths=1024, n_workers=2)
    rows, summaries = expansion_check(
        bs1d, GAMMA, cfg, alphas=[2.0 / 3.0], epsilons=[0.02, 0.01, 0.005]
    )
    s = summaries[0]
    assert abs(s["tac_slope"] - s["tac_slope_expected"]) < 0.1
    assert abs(s["de_slope"] - s["de_slope_expected"]) < 0.1
    # scaled transaction costs approach the limiting constant
    last = [r for r in rows if r["epsilon"] == 0.005][0]
    assert abs(last["tac_scaled"] - s["tac_limit"]) / s["tac_limit"] < 0.1
    assert abs(last["de_scaled"] - s["de_limit"]) / s["de_limit"] < 0.1
    # the cost constant is twice gamma/2 times the tracking constant
    assert s["tac_limit"] == pytest.approx(GAMMA * s["de_limit"], rel=1e-12)


def test_expansion_check_rejects_runs_without_trades(bs1d):
    # at exponent 1/2 the first trade falls after a one-year horizon
    cfg = config(horizon=1.0, n_paths=64)
    with pytest.raises(ParameterError, match="alpha=0.5"):
        expansion_check(bs1d, GAMMA, cfg, alphas=[0.5], epsilons=[0.02, 0.01, 0.005])


@pytest.mark.parametrize("epsilons", [[0.01], [0.01, 0.01], [0.0, 0.01], [0.02, -0.01], []])
def test_expansion_check_needs_two_positive_cost_rates(bs1d, epsilons):
    cfg = config(horizon=1.0, n_paths=64)
    with pytest.raises(ParameterError, match="two distinct positive cost rates"):
        expansion_check(bs1d, GAMMA, cfg, alphas=[2.0 / 3.0], epsilons=epsilons)


def test_cells_of_unnamed_state_parameters_draw_a_pass_each(monkeypatch, ko1d):
    # a model that does not name the parameters of b and g has no state key, so equal cells
    # cannot be proved to share a grid; each draws its own, with the keyed model's bits
    class Unnamed(TruncatedKimOmbergModel):
        def _state_params(self):
            return None

    unnamed = Unnamed(vol=[0.1428], **KO_PARAMS)
    assert simulate._state_key(unnamed, None) is None
    assert simulate._state_key(ProtocolBS1d(), None) is None  # MarketModel's own default
    cfg = config(horizon=0.2, n_paths=8, allow_flagged=True)
    names = ["frictionless", "time_adaptive"]
    calls = _count_grids(monkeypatch)
    found = evaluate._predictions([(unnamed, cfg), (unnamed, cfg)], names)
    assert len(calls) == 2
    keyed = evaluate._predictions([(ko1d, cfg), (ko1d, cfg)], names)
    assert len(calls) == 3
    assert found == keyed and found[0][1]["time_adaptive"] is not None


def test_one_surviving_path_has_no_standard_error(bs1d):
    cfg = config(n_paths=2)
    out = run_strategy(bs1d, cfg, buy_and_hold())
    out.failed[:] = [False, True]
    rep = estimate_objective(out, cfg)
    assert rep.n_paths == 1 and rep.n_failed == 1
    assert np.isnan(rep.stderr) and np.isfinite(rep.F_hat)
    # nor has one antithetic pair: its mirrored paths are not independent, so the standard
    # error is over pair means
    values = np.array([0.03, 0.01])
    assert np.isnan(evaluate._stderr(values, True))
    assert evaluate._stderr(values, False) == pytest.approx(0.01, rel=1e-12)
