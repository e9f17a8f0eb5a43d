import re

import numpy as np
import pytest

from rebalfreq import ParameterError, cli, evaluate, simulate

KO1D_CONFIG = """\
model:
  kind: kim_omberg
  vol: [0.1428]
  mean_reversion: 0.2712
  long_run_mean: 0.056
  state_vol: 0.0368
  state_correlation: -0.9351
simulation:
  horizon: 1.0
  dt: 0.004
  n_paths: 8
  epsilon: 0.01
  gamma: 5.0
  allow_flagged: true
"""


def ko1d_config(tmp_path):
    path = tmp_path / "ko1d.yaml"
    path.write_text(KO1D_CONFIG)
    return str(path)


def figure_waits(tmp_path, *extra):
    out = tmp_path / "figure.csv"
    assert cli.main(["figure", "--figure", "1", "--out", str(out), *extra]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,A_star_years,F_hat"
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def test_figure_epsilon_sets_waiting_time(tmp_path):
    default = figure_waits(tmp_path)
    smaller = figure_waits(tmp_path, "--epsilon", "0.001")
    # waiting times scale like eps^(2/3) (default cost rate 0.01); the CSV
    # carries ten significant digits
    np.testing.assert_allclose(smaller / default, 0.1 ** (2.0 / 3.0), rtol=1e-9)


def test_validate_seed_moves_sampled_states(tmp_path):
    config = ko1d_config(tmp_path)
    rows = []
    for seed in ("1", "2"):
        out = tmp_path / f"validate_{seed}.csv"
        assert cli.main(["validate", "--config", config, "--seed", seed, "--out", str(out)]) == 0
        rows.append(dict(line.split(",", 1) for line in out.read_text().splitlines()[1:]))
    assert rows[0]["w_star_1"] == rows[1]["w_star_1"]
    assert rows[0]["min_beta_l21_sampled"] != rows[1]["min_beta_l21_sampled"]


def test_unread_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tc", "--config", ko1d_config(tmp_path), "--paths", "10"])
    assert exc.value.code == 1


def test_dump_paths_reuses_table_run(tmp_path, monkeypatch):
    calls = {"simulate_state_grid": 0, "run_strategies": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapped

    for name in calls:
        real = getattr(simulate, name)
        for module in (simulate, evaluate, cli):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    path = tmp_path / "ko1d.yaml"
    path.write_text(KO1D_CONFIG + "strategies: [frictionless, time_constant, buy_hold]\n")
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--config", str(path), "--dump-paths", "3", "--out", str(out)]) == 0
    assert calls == {"simulate_state_grid": 1, "run_strategies": 1}
    lines = (tmp_path / "sim.csv.paths.csv").read_text().splitlines()
    assert lines[0] == "strategy,path,time,wealth,weight_1"
    # two simulated strategies, three paths, 251 grid times each
    assert len(lines) == 1 + 2 * 3 * 251


def test_negative_dump_paths_rejected(tmp_path):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--config", ko1d_config(tmp_path), "--dump-paths", "-1", "--out", str(out)]
    assert cli.main(argv) == 1
    assert not out.exists()


def spy_run_table_cell(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_table_cell",
                        lambda *args, **kw: calls.append(args) or ([], None))
    return calls


def test_dump_paths_without_output_rejected_before_running(tmp_path, monkeypatch, capsys):
    calls = spy_run_table_cell(monkeypatch)
    argv = ["simulate", "--config", ko1d_config(tmp_path), "--dump-paths", "2"]
    assert cli.main(argv) == 1
    assert calls == []
    out, err = capsys.readouterr()
    assert out == "" and "--dump-paths requires --out" in err


def test_dump_paths_above_path_count_rejected_before_running(tmp_path, monkeypatch, capsys):
    calls = spy_run_table_cell(monkeypatch)
    out = tmp_path / "sim.csv"
    config = ko1d_config(tmp_path)  # 8 paths
    for argv in (["--dump-paths", "9"], ["--paths", "4", "--dump-paths", "5"]):
        assert cli.main(["simulate", "--config", config, "--out", str(out), *argv]) == 1
    assert calls == [] and not out.exists()
    assert "--dump-paths must lie in [0, 4]" in capsys.readouterr().err
    monkeypatch.undo()  # every path may be dumped
    assert cli.main(["simulate", "--config", config, "--out", str(out), "--dump-paths", "8"]) == 0


def test_dump_paths_of_frictionless_only_rejected_before_running(tmp_path, monkeypatch, capsys):
    calls = spy_run_table_cell(monkeypatch)
    path = tmp_path / "ko1d.yaml"
    path.write_text(KO1D_CONFIG + "strategies: [frictionless]\n")
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--config", str(path), "--dump-paths", "2", "--out", str(out)]
    assert cli.main(argv) == 1
    assert calls == [] and not out.exists()
    assert "at least one simulated strategy" in capsys.readouterr().err


def test_tc_builds_one_state_grid(tmp_path, monkeypatch):
    calls = []
    real = simulate.simulate_state_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_state_grid", counting)
    out = tmp_path / "tc.csv"
    assert cli.main(["tc", "--config", ko1d_config(tmp_path), "--out", str(out)]) == 0
    assert len(calls) == 1
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["tc_optimal"]) <= float(rows["tc_constant"])


@pytest.mark.parametrize("paths", ["0", "-4"])
def test_simulate_rejects_nonpositive_paths(tmp_path, paths, capsys):
    argv = ["simulate", "--config", ko1d_config(tmp_path), "--paths", paths]
    assert cli.main(argv) == 1
    assert "--paths" in capsys.readouterr().err


def spy_table_runner(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "table_runner", lambda *args, **kw: calls.append((args, kw)) or [])
    return calls


def test_table_rejects_zero_paths_before_running(monkeypatch, capsys):
    calls = spy_table_runner(monkeypatch)
    assert cli.main(["table", "--table", "1", "--paths", "0"]) == 1
    assert calls == []
    assert "--paths" in capsys.readouterr().err


def test_table_passes_only_given_flags(monkeypatch):
    calls = spy_table_runner(monkeypatch)
    assert cli.main(["table", "--table", "2", "--paths", "6", "--seed", "0"]) == 0
    assert calls == [((2,), {"n_paths": 6, "seed": 0})]


def test_figure_rejects_negative_paths(tmp_path):
    out = tmp_path / "figure.csv"
    assert cli.main(["figure", "--figure", "1", "--paths", "-2", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--table", "1", "--paths", "4", "--epsilon", "0.7"], "epsilon"),
        (["table", "--table", "1", "--paths", "3"], "even n_paths"),
        (["figure", "--figure", "1", "--seed", "-1"], "seed"),
    ],
)
def test_table_flags_failing_config_checks_are_input_errors(monkeypatch, capsys, argv, message):
    calls = spy_table_runner(monkeypatch)
    monkeypatch.setattr(cli, "figure_rows", lambda **kw: calls.append(kw) or [])
    assert cli.main(argv) == 1
    assert calls == []
    assert message in capsys.readouterr().err


def test_infinite_horizon_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "inf.yaml"
    path.write_text(KO1D_CONFIG.replace("horizon: 1.0", "horizon: .inf"))
    assert cli.main(["simulate", "--config", str(path)]) == 1
    assert "horizon must be a whole number" in capsys.readouterr().err


def _nonfinite_call(entry, bad, tmp_path):
    """The name of the value that ``entry`` is given as ``bad``, and a call of ``entry``."""
    from rebalfreq import (BlackScholesModel, SimulationConfig, bs1d_closed_forms, merton_state,
                           pasted_halfwidths, rebalance_solve, total_cost)

    bs1d = BlackScholesModel(mu=[0.08], vol=[0.16])
    calls = {
        "SimulationConfig": ("gamma", lambda: SimulationConfig(1.0, 0.004, 4, 0.01, bad)),
        "merton_state": ("gamma", lambda: merton_state(bs1d, np.zeros(0), bad)),
        "total_cost": ("gamma", lambda: total_cost(bs1d, bad, horizon_T=1.0)),
        "bs1d_closed_forms": ("epsilon", lambda: bs1d_closed_forms(0.08, 0.16, 5.0, bad)),
        "pasted_halfwidths": ("epsilon", lambda: pasted_halfwidths(bs1d, np.zeros(0), 5.0, bad)),
        "rebalance_solve": ("epsilon", lambda: rebalance_solve([0.1], [0.5], bad)),
    }
    if entry in calls:
        return calls[entry]
    path = tmp_path / "bad.yaml"
    path.write_text(KO1D_CONFIG.replace("gamma: 5.0", f"gamma: {'.nan' if bad != bad else '.inf'}"))
    return "invalid simulation settings: gamma", lambda: cli.main([entry, "--config", str(path)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("entry", ["SimulationConfig", "merton_state", "total_cost",
                                   "bs1d_closed_forms", "pasted_halfwidths", "rebalance_solve",
                                   "frequency", "simulate"])
def test_nonfinite_gamma_and_cost_rate_rejected(tmp_path, capsys, entry, bad):
    # a parameter error naming the value, where NaN results or a rule-value error came out;
    # from a config file an input error (exit 1) naming the section and the key
    name, call = _nonfinite_call(entry, bad, tmp_path)
    message = f"{name} must be (positive|nonnegative) and finite, got {bad}"
    if name.startswith("invalid simulation settings"):
        assert call() == 1
        assert re.search(message, capsys.readouterr().err)
    else:
        with pytest.raises(ParameterError, match=message):
            call()


@pytest.mark.parametrize("command", ["frequency", "simulate", "validate"])
def test_config_flags_failing_config_checks_are_input_errors(tmp_path, capsys, command):
    for seed in ("-1", str(2**64)):  # a seed beyond the 64 bits of a Philox key word
        assert cli.main([command, "--config", ko1d_config(tmp_path), "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: invalid flag value: seed must be a nonnegative integer")


BS1D_CONFIG = """\
model:
  kind: black_scholes
  mu: [0.08]
  vol: [0.16]
simulation:
  horizon: 1.0
  dt: 0.004
  n_paths: 8
  epsilon: 0.01
  gamma: 5.0
"""


def frequency_rows(tmp_path, text):
    path, out = tmp_path / "run.yaml", tmp_path / "frequency.csv"
    path.write_text(text)
    assert cli.main(["frequency", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,value"
    return dict(line.split(",") for line in lines[1:])


def test_frequency_of_bs1d_prints_closed_forms(tmp_path):
    from rebalfreq import bs1d_closed_forms

    rows = frequency_rows(tmp_path, BS1D_CONFIG)
    forms = bs1d_closed_forms(0.08, 0.16, 5.0, 0.01)
    assert rows["A_star"] == evaluate._fmt(forms.A_star) == "47.99019852"
    assert rows["loss_rate_annualized"] == evaluate._fmt(forms.time_based_loss_rate)
    assert rows["loss_rate_annualized"] == "0.000300713539"
    assert not [key for key in rows if key.startswith("constant_")]


def test_frequency_of_ko1d_prints_the_constant_rule(tmp_path):
    from rebalfreq import constant_rule, load_config

    rows = frequency_rows(tmp_path, KO1D_CONFIG)
    model = load_config(str(tmp_path / "run.yaml")).model
    rule = constant_rule(model, 5.0, 1.0, dt=0.004, seed=0, allow_flagged=True)
    assert rows["constant_A_star"] == evaluate._fmt(rule.A)


def test_leveraged_target_is_a_numerical_failure(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(BS1D_CONFIG.replace("gamma: 5.0", "gamma: 1.0"))  # w* = 3.125
    assert cli.main(["frequency", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: target weights short or leverage")


def test_missing_output_directory_rejected_before_running(tmp_path, monkeypatch, capsys):
    calls = spy_table_runner(monkeypatch)
    out = tmp_path / "missing" / "table.csv"
    assert cli.main(["table", "--table", "1", "--paths", "8", "--out", str(out)]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("input error: output directory not found")
    runs = spy_run_table_cell(monkeypatch)
    path = tmp_path / "ko1d.yaml"
    path.write_text(KO1D_CONFIG + f"output: {tmp_path / 'missing' / 'sim.csv'}\n")
    assert cli.main(["simulate", "--config", str(path)]) == 1
    assert runs == [] and not (tmp_path / "missing").exists()
    assert "input error: output directory not found" in capsys.readouterr().err


def test_directory_as_output_file_rejected_before_running(tmp_path, monkeypatch, capsys):
    calls = spy_table_runner(monkeypatch)
    assert cli.main(["table", "--table", "1", "--paths", "8", "--out", str(tmp_path)]) == 1
    assert calls == []
    assert capsys.readouterr().err == f"input error: output path is a directory: {tmp_path}\n"
    runs = spy_run_table_cell(monkeypatch)
    path = tmp_path / "ko1d.yaml"
    path.write_text(KO1D_CONFIG + f"output: {tmp_path}\n")
    assert cli.main(["simulate", "--config", str(path)]) == 1
    assert "input error: output path is a directory" in capsys.readouterr().err
    # the path dump's own file, beside a CSV that may be written
    (tmp_path / "sim.csv.paths.csv").mkdir()
    argv = ["simulate", "--config", ko1d_config(tmp_path), "--dump-paths", "2",
            "--out", str(tmp_path / "sim.csv")]
    assert cli.main(argv) == 1
    assert runs == [] and not (tmp_path / "sim.csv").exists()
    assert "output path is a directory: " + str(tmp_path / "sim.csv.paths.csv") in (
        capsys.readouterr().err)


BS2D_CONFIG = BS1D_CONFIG.replace("[0.08]", "[0.08, 0.08]").replace(
    "[0.16]", "[0.16, 0.16]\n  correlation: [[1.0, 0.3], [0.3, 1.0]]")


@pytest.mark.parametrize("text", [BS1D_CONFIG, BS2D_CONFIG], ids=["bs1d", "bs2d"])
def test_validate_of_a_constant_coefficient_model(tmp_path, text):
    # the one state of a model without a state stands for every sample; two assets held
    # long add the analytic lower bound of ||beta||_{2,1}, w1 w2 sigma_22
    from rebalfreq import l21_norm, load_config, merton_state

    path, out = tmp_path / "run.yaml", tmp_path / "validate.csv"
    path.write_text(text)
    assert cli.main(["validate", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,value,status"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    st = merton_state(load_config(str(path)).model, np.zeros(0), 5.0)
    assert rows["min_beta_l21_sampled"] == [evaluate._fmt(l21_norm(st.beta)), "pass"]
    assert rows["assumption_ok_fraction_sampled"] == ["1", "pass"]
    if len(st.w_star) == 1:
        assert "beta_l21_analytic_bound" not in rows
    else:
        bound = st.w_star[0] * st.w_star[1] * 0.16 * np.sqrt(1 - 0.3**2)
        assert float(rows["beta_l21_analytic_bound"][0]) == pytest.approx(bound, rel=1e-9)
        assert rows["beta_l21_analytic_bound"][1] == "pass"


@pytest.mark.parametrize("command", ["frequency", "tc", "validate"])
def test_config_output_honoured_by_every_config_command(tmp_path, capsys, command):
    printed, written = tmp_path / "printed.yaml", tmp_path / "written.yaml"
    printed.write_text(BS1D_CONFIG)
    written.write_text(BS1D_CONFIG + f"output: {command}.csv\n")
    assert cli.main([command, "--config", str(printed)]) == 0
    expected = capsys.readouterr().out
    assert cli.main([command, "--config", str(written)]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / f"{command}.csv").read_text() == expected


@pytest.mark.parametrize("command", ["frequency", "tc", "validate", "simulate"])
def test_missing_config_output_directory_rejected_before_running(tmp_path, monkeypatch, capsys,
                                                                 command):
    calls = []
    for name in ("optimal_rule", "_config_grid", "_sample_states", "run_table_cell"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: calls.append(args))
    path = tmp_path / "ko1d.yaml"
    path.write_text(KO1D_CONFIG + "output: missing/out.csv\n")
    assert cli.main([command, "--config", str(path)]) == 1
    assert calls == [] and not (tmp_path / "missing").exists()
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: output directory not found: {tmp_path / 'missing'}\n"


def test_simulate_without_path_dump_writes_the_report_alone(tmp_path):
    path, out = tmp_path / "run.yaml", tmp_path / "sim.csv"
    path.write_text(BS1D_CONFIG + "strategies: [frictionless, move]\n")
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == evaluate.CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["frictionless", "move"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml", "sim.csv"]
