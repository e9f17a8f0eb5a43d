"""The benchmark's workloads: their inputs and the call that runs them.

Every workload is the work behind one of the package's tables, cut to a
horizon and path count at which one run takes one to three seconds on two
cores, so that a benchmark run repeats it many times and reports a median.
Cutting the horizon keeps the split between layers: the Monte Carlo engine
and the prediction grids both scale with the number of time steps. Models,
step size, costs, risk aversion and strategy sets stay the table's.

Why each workload is here is recorded with it in ``BENCHMARK.json``. A
workload run returns the strategy CSV (the program's output, checked by
the correctness gate) and the report rows behind it (whose path counts give
the operations attempted and failed).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Optional

from rebalfreq import cli, config, evaluate, frequency, markets, simulate

HERE = os.path.dirname(os.path.abspath(__file__))

# The seed of the package's tables; reference CSVs are stored at this seed.
REFERENCE_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    # simulated strategies (the frictionless row is not simulated)
    strategies: tuple
    build: Callable  # seed -> inputs (the config/cli layer)
    run: Callable  # (inputs, n_workers) -> (csv, reports)
    one_asset_model: Optional[Callable] = None  # inputs -> model for the 'move' probe

    @property
    def ops_per_run(self):
        """Operations in one run: one per (path, simulated strategy) pair."""
        return self.params["n_paths"] * len(self.strategies)

    def reference_path(self):
        return os.path.join(HERE, "reference", f"{self.name}.csv")


def _table(params):
    """CLI parse and table run for ``params`` (table id, path count, horizon)."""

    def build(seed):
        argv = ["table", "--table", str(params["table"]), "--paths", str(params["n_paths"])]
        return cli.build_parser().parse_args(argv + ["--seed", str(seed)])

    def run(args, n_workers):
        reports = evaluate.table_runner(
            args.table,
            n_paths=args.paths,
            seed=args.seed,
            horizon=params["horizon"],
            n_workers=n_workers,
        )
        return evaluate.rows_to_csv(reports), reports

    return {"build": build, "run": run}


_KO2D_CONFIG = os.path.join(HERE, "configs", "ko2d_engine.yaml")


def _ko2d_build(seed):
    run_cfg = config.load_config(_KO2D_CONFIG)
    return run_cfg, dataclasses.replace(run_cfg.simulation, seed=seed)


def strategy(name, model, sim):
    """The strategy a table names, from the package's public constructors.

    evaluate has a private helper for this; the benchmark does not lean on it,
    so that refactors of private code leave the benchmark unchanged.
    """
    if name == "move":
        return simulate.move_based()
    if name == "pasted":
        return simulate.pasted_move_based()
    if name == "time_adaptive":
        rule = frequency.optimal_rule(model, sim.gamma, allow_flagged=sim.allow_flagged)
        return simulate.time_based(rule, label="time_adaptive")
    if name == "buy_hold":
        return simulate.buy_and_hold()
    raise ValueError(f"no strategy {name!r}")


def _ko2d_run(inputs, n_workers):
    run_cfg, sim = inputs
    sim = dataclasses.replace(sim, n_workers=n_workers)
    strategies = [strategy(n, run_cfg.model, sim) for n in run_cfg.strategies]
    outcomes, _ = simulate.run_strategies(run_cfg.model, sim, strategies)
    reports = [evaluate.estimate_objective(outcomes[s.label], sim) for s in strategies]
    return evaluate.rows_to_csv(reports), reports


def _ko2d_one_asset(inputs):
    run_cfg, _ = inputs
    cfg = dict(run_cfg.model_cfg, vol=run_cfg.model_cfg["vol"][:1], correlation=None)
    return markets.model_from_config(cfg)


# Everything else is table_runner's default: dt 1/250, eps 0.01, gamma 5,
# antithetic draws, blocks of 2048 paths.
_T1 = {"table": 1, "n_paths": 4096, "horizon": 4.0, "n_workers": 2}
_T2 = {"table": 2, "n_paths": 4096, "horizon": 1.0, "n_workers": 2}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1_bs1d",
            params=_T1,
            strategies=("move", "time_adaptive", "buy_hold"),
            **_table(_T1),
        ),
        Workload(
            name="table2_ko1d",
            params=_T2,
            strategies=("move", "time_adaptive", "time_constant", "buy_hold"),
            **_table(_T2),
        ),
        Workload(
            name="ko2d_engine",
            # the rest of the settings are in the YAML file
            params={"config": "configs/ko2d_engine.yaml", "n_paths": 4096, "n_workers": 2},
            strategies=("pasted", "time_adaptive", "buy_hold"),
            build=_ko2d_build,
            run=_ko2d_run,
            one_asset_model=_ko2d_one_asset,
        ),
    )
}
