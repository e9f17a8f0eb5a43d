"""Command-line front end.

Subcommands: ``frequency`` (optimal waiting times and cost rates), ``tc`` (leading-order total
costs), ``simulate`` (Monte Carlo strategy comparison), ``table`` (built-in benchmark tables
1-4), ``figure`` (waiting time and performance across correlations), and ``validate`` (model
sanity checks). All output is CSV: each command returns its files as ``{path: text}``, where
``None`` is stdout, and :func:`main` writes them. Exit codes: 0 success, 1 input error, 2
numerical failure. Runs are pure functions of (config, seed): repeating an invocation
reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .config import load_config
from .errors import InputError, ParameterError, RebalfreqError
from .evaluate import (_config_grid, _fmt, _run_config, figure_rows, rows_to_csv, run_table_cell,
                       table_runner)
from .frequency import check_nondegeneracy, cost_breakdown, optimal_rule
from .markets import finite_difference_jacobians, jacobians
from .merton import l21_norm, merton_state
from .simulate import _default_y0, simulate_state_grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_checked(path):
    """``path``, a file to write or ``None``; :class:`InputError` if its directory is missing
    or it is itself a directory."""
    folder = os.path.dirname(path or "")
    if folder and not os.path.isdir(folder):
        raise InputError(f"output directory not found: {folder}")
    if path and os.path.isdir(path):
        raise InputError(f"output path is a directory: {path}")
    return path


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sample_states(run, n=100):
    """States drawn from simulated state paths (the measure the rules see)."""
    model = run.model
    if model.p == 0:
        return np.zeros((1, 0))
    sim = run.simulation
    _, states = simulate_state_grid(model, sim.horizon, sim.dt, 16, sim.y0, sim.seed)
    flat = states.reshape(-1, model.p)
    idx = np.linspace(0, len(flat) - 1, n).astype(int)
    return flat[idx]


def cmd_frequency(args):
    run, y0 = _load_run(args)
    sim = run.simulation
    rule = optimal_rule(run.model, sim.gamma, allow_flagged=sim.allow_flagged)
    a_star = float(np.asarray(rule.A_of(y0)))
    wait = float(rule.waiting_time(y0, sim.epsilon))
    parts = cost_breakdown(run.model, sim.gamma, y0, allow_flagged=sim.allow_flagged)
    eps23 = sim.epsilon ** (2.0 / 3.0)
    lines = ["quantity,value"]
    lines.append(f"A_star,{_fmt(a_star)}")
    lines.append(f"waiting_time_years,{format(wait, '.4g')}")
    lines.append(f"waiting_time_months,{format(12.0 * wait, '.4g')}")
    lines.append(f"tac_rate,{_fmt(parts.tac_rate)}")
    lines.append(f"de_rate,{_fmt(parts.de_rate)}")
    lines.append(f"tc_rate,{_fmt(parts.tc_rate)}")
    lines.append(f"loss_rate_annualized,{_fmt(eps23 * float(parts.tc_rate))}")
    lines.append(f"loss_rate_percent,{format(100 * eps23 * float(parts.tc_rate), '.4g')}")
    if run.model.p > 0:
        crule = _config_grid(run.model, sim).constant_rule()
        cwait = float(crule.waiting_time(y0, sim.epsilon))
        lines.append(f"constant_A_star,{_fmt(crule.A)}")
        lines.append(f"constant_waiting_time_years,{format(cwait, '.4g')}")
        lines.append(f"constant_waiting_time_months,{format(12.0 * cwait, '.4g')}")
    return {run.output: "\n".join(lines) + "\n"}


def cmd_tc(args):
    run, y0 = _load_run(args)
    sim = run.simulation
    grid = _config_grid(run.model, sim)
    tc_opt, tc_const = grid.total_cost(), grid.total_cost(grid.constant_rule())
    parts = cost_breakdown(run.model, sim.gamma, y0, allow_flagged=sim.allow_flagged)
    split = float(parts.tac_rate / parts.de_rate)
    eps23 = sim.epsilon ** (2.0 / 3.0)
    lines = [
        "quantity,value",
        f"tc_optimal,{_fmt(tc_opt)}",
        f"tc_constant,{_fmt(tc_const)}",
        f"loss_rate_optimal,{_fmt(eps23 * tc_opt / sim.horizon)}",
        f"loss_rate_constant,{_fmt(eps23 * tc_const / sim.horizon)}",
        f"tac_over_de_at_optimum,{_fmt(split)}",
        f"split_residual,{_fmt(abs(split - 2.0))}",
    ]
    return {run.output: "\n".join(lines) + "\n"}


def _given_flags(args, base, min_paths=1):
    """The run flags given on the command line, as ``n_paths``, ``seed`` and
    ``epsilon`` keyword arguments; flags not given are left out. A value that
    SimulationConfig rejects on ``base``, the config they override, is an input error."""
    names = {"paths": "n_paths", "seed": "seed", "epsilon": "epsilon"}
    kw = {key: getattr(args, flag, None) for flag, key in names.items()}
    kw = {key: value for key, value in kw.items() if value is not None}
    if kw.get("n_paths", min_paths) < min_paths:
        raise InputError(f"--paths must be at least {min_paths}, got {kw['n_paths']}")
    try:  # figure's --paths 0 runs no paths, so base's count stands in for it
        dataclasses.replace(base, **dict(kw, n_paths=kw.get("n_paths") or base.n_paths))
    except ParameterError as exc:
        raise InputError(f"invalid flag value: {exc}") from exc
    return kw


def _load_run(args):
    """``(run, start state)`` of the ``--config`` run, its simulation settings replaced by the
    run flags given (:func:`_given_flags`) and its ``output`` by ``--out`` if given, checked."""
    run = load_config(args.config)
    run.simulation = dataclasses.replace(run.simulation, **_given_flags(args, run.simulation))
    run.output = args.out or _out_checked(run.output)
    return run, _default_y0(run.model, run.simulation.y0)


def cmd_simulate(args):
    run, _ = _load_run(args)
    sim, k = run.simulation, args.dump_paths
    if not 0 <= k <= sim.n_paths:
        raise InputError(f"--dump-paths must lie in [0, {sim.n_paths}], the run's path count")
    if k and not run.output:
        raise InputError("--dump-paths requires --out (or config.output)")
    dump = k and _out_checked(run.output + ".paths.csv")
    if k and all(n == "frictionless" for n in run.strategies):
        raise InputError("path dumps need at least one simulated strategy")
    result = run_table_cell(run.model, sim, run.strategies, record_paths=k)
    if not k:
        return {run.output: rows_to_csv(result)}
    return {run.output: rows_to_csv(result[0]), dump: _dump_paths(run, result[1])}


def _dump_paths(run, records):
    """The per-step ledger of the recorded paths, as CSV text."""
    lines = ["strategy,path,time,wealth," + ",".join(f"weight_{i+1}" for i in range(run.model.m))]
    for label, w in records.wealth.items():
        ww = records.weights[label]
        for pi in range(w.shape[0]):
            for ti, t in enumerate(records.times):
                lines.append(f"{label},{pi}," + ",".join(map(_fmt, (t, w[pi, ti], *ww[pi, ti]))))
    return "\n".join(lines) + "\n"


def cmd_table(args):
    return {args.out: rows_to_csv(table_runner(args.table, **_given_flags(args, _run_config())))}


def cmd_figure(args):
    rows = figure_rows(**_given_flags(args, _run_config(), min_paths=0))  # 0 paths: analytic
    lines = ["rho,A_star_years,F_hat"]
    for r in rows:
        lines.append(f"{_fmt(r['rho'])},{_fmt(r['A_star_years'])},{_fmt(r['F_hat'])}")
    return {args.out: "\n".join(lines) + "\n"}


def cmd_validate(args):
    run, y0 = _load_run(args)
    model, sim = run.model, run.simulation
    lines = ["check,value,status"]

    states = _sample_states(run)
    jac_err = max(
        float(np.max(np.abs(a - f) / np.maximum(1.0, np.abs(f)))) if f.size else 0.0
        for a, f in zip(jacobians(model, states), finite_difference_jacobians(model, states))
    )
    lines.append(f"jacobian_fd_max_rel_err,{_fmt(jac_err)},{_status(jac_err < 1e-5)}")

    st = merton_state(model, states, sim.gamma)
    eigmin = float(np.min(np.linalg.eigvalsh(st.Sigma)))
    lines.append(f"sigma_min_eigenvalue,{_fmt(eigmin)},{_status(eigmin > 0)}")

    st0 = merton_state(model, y0, sim.gamma)
    for i, w in enumerate(np.atleast_1d(st0.w_star)):
        lines.append(f"w_star_{i+1},{_fmt(w)},ok")
    for i in range(model.m):
        for j in range(model.d):
            lines.append(f"sigma_tilde_{i+1}{j+1},{_fmt(st0.sigma_tilde[i, j])},ok")
            lines.append(f"beta_{i+1}{j+1},{_fmt(st0.beta[i, j])},ok")
    lines.append(f"beta_l21,{_fmt(l21_norm(st0.beta))},ok")
    lines.append(
        f"assumption_no_leverage_at_y0,{int(bool(st0.assumption_ok))},"
        f"{_status(bool(st0.assumption_ok))}"
    )
    frac_ok = float(np.mean(st.assumption_ok))
    lines.append(f"assumption_ok_fraction_sampled,{_fmt(frac_ok)},{_status(frac_ok == 1.0)}")

    nd = check_nondegeneracy(model, sim.gamma, states)
    lines.append(f"min_beta_l21_sampled,{_fmt(nd['min_beta_l21'])},{_status(nd['passes'])}")
    if nd["analytic_bound"] is not None:
        lines.append(
            f"beta_l21_analytic_bound,{_fmt(nd['analytic_bound'])},"
            f"{_status(nd['min_beta_l21'] >= nd['analytic_bound'] - 1e-12)}"
        )
    return {run.output: "\n".join(lines) + "\n"}


def _status(ok):
    return "pass" if ok else "fail"


def build_parser():
    parser = _Parser(
        prog="rebalfreq",
        description=(
            "Optimal time-based portfolio rebalancing frequencies under "
            "small proportional trading costs, with Monte Carlo validation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "config": dict(required=True, help="YAML run configuration"),
        "seed": dict(type=int, default=None, help="override RNG seed"),
        "paths": dict(type=int, default=None, help="override path count"),
        "epsilon": dict(type=float, default=None, help="override cost rate"),
        "out": dict(default=None, help="write CSV here instead of stdout"),
        "dump-paths": dict(type=int, default=0, metavar="K",
                           help="also write a per-step ledger for the first K paths"),
        "table": dict(type=int, required=True, choices=[1, 2, 3, 4]),
        "figure": dict(type=int, required=True, choices=[1]),
    }
    # each command's function, help text and flags, in the order --help lists them
    commands = {
        "frequency": (cmd_frequency, "optimal waiting time and cost rates",
                      "config seed epsilon out"),
        "tc": (cmd_tc, "leading-order total costs and the 2:1 split", "config seed epsilon out"),
        "simulate": (cmd_simulate, "Monte Carlo strategy comparison",
                     "config seed paths epsilon out dump-paths"),
        "table": (cmd_table, "run a built-in benchmark table", "table seed paths epsilon out"),
        "figure": (cmd_figure, "waiting time and performance vs correlation",
                   "figure seed paths epsilon out"),
        "validate": (cmd_validate, "model and assumption checks", "config seed out"),
    }
    for name, (func, text, names) in commands.items():
        p = sub.add_parser(name, help=text)
        for flag in names.split():
            p.add_argument(f"--{flag}", **flags[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _out_checked(args.out)  # before any work
        for path, text in args.func(args).items():
            _emit(text, path)
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except RebalfreqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
