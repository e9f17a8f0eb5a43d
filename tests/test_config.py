import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from rebalfreq import InputError, ParameterError, SimulationConfig, cli, load_config

MODELS = {
    "black_scholes": "  kind: black_scholes\n  mu: [0.08]\n  vol: [0.16]\n",
    "kim_omberg": (
        "  kind: kim_omberg\n  vol: [0.1428]\n  mean_reversion: 0.2712\n"
        "  long_run_mean: 0.056\n  state_vol: 0.0368\n  state_correlation: -0.9351\n"
    ),
}
REQUIRED_SIM = "  horizon: 1.0\n  dt: 0.004\n  n_paths: 8\n  epsilon: 0.01\n  gamma: 5.0\n"


def write_config(tmp_path, kind="black_scholes", model_extra="", sim_extra=""):
    path = tmp_path / "run.yaml"
    path.write_text(
        "model:\n" + MODELS[kind] + model_extra + "simulation:\n" + REQUIRED_SIM + sim_extra
    )
    return str(path)


@pytest.mark.parametrize(
    "kind, extra, key",
    [
        ("kim_omberg", "  mu: [0.08]\n", "model.mu"),
        ("black_scholes", "  mean_reversion: 0.2712\n", "model.mean_reversion"),
        ("black_scholes", "  cutoff_low: 0.0\n", "model.cutoff_low"),
    ],
)
def test_model_key_the_kind_does_not_read_rejected(tmp_path, capsys, kind, extra, key):
    path = write_config(tmp_path, kind, model_extra=extra)
    with pytest.raises(InputError, match=key):
        load_config(path)
    assert cli.main(["validate", "--config", path]) == 1
    assert key in capsys.readouterr().err


def test_both_correlation_keys_rejected(tmp_path):
    (tmp_path / "corr.csv").write_text("1.0\n")
    extra = "  correlation: [[1.0]]\n  correlation_file: corr.csv\n"
    with pytest.raises(InputError, match="not both"):
        load_config(write_config(tmp_path, model_extra=extra))


def test_model_keys_of_each_kind_accepted(tmp_path):
    bs = load_config(write_config(tmp_path, "black_scholes", "  correlation: [[1.0]]\n"))
    assert bs.model.p == 0
    ko = load_config(write_config(tmp_path, "kim_omberg", "  cutoff_width: 0.005\n"))
    assert ko.model.p == 1


def test_lone_cutoff_level_kept(tmp_path):
    default = load_config(write_config(tmp_path, "kim_omberg")).model
    model = load_config(write_config(tmp_path, "kim_omberg", "  cutoff_low: 0.0\n")).model
    assert model.cutoff_low[0] == 0.0 and model.cutoff_high[0] == default.cutoff_high[0]


def test_omitted_simulation_keys_take_config_defaults(tmp_path):
    sim = load_config(write_config(tmp_path)).simulation
    expected = SimulationConfig(horizon=1.0, dt=0.004, n_paths=8, epsilon=0.01, gamma=5.0)
    assert dataclasses.asdict(sim) == dataclasses.asdict(expected)


def test_given_simulation_keys_read_with_their_types(tmp_path):
    extra = "  y0: 0.05\n  seed: 3\n  antithetic: true\n  n_workers: 2\n  allow_flagged: true\n"
    sim = load_config(write_config(tmp_path, "kim_omberg", sim_extra=extra)).simulation
    assert (sim.seed, sim.antithetic, sim.n_workers, sim.allow_flagged) == (3, True, 2, True)
    np.testing.assert_array_equal(sim.y0, [0.05])


def test_nonpositive_worker_count_rejected(tmp_path, capsys):
    path = write_config(tmp_path, sim_extra="  n_workers: 0\n")
    with pytest.raises(InputError, match="n_workers must be >= 1"):
        load_config(path)
    assert cli.main(["simulate", "--config", path]) == 1
    assert "n_workers" in capsys.readouterr().err


def test_unknown_simulation_key_rejected(tmp_path):
    with pytest.raises(InputError, match=r"simulation\.block_size"):
        load_config(write_config(tmp_path, sim_extra="  block_size: 64\n"))


def test_missing_simulation_key_named(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("model:\n" + MODELS["black_scholes"] + "simulation:\n  horizon: 1.0\n")
    with pytest.raises(InputError, match=r"simulation\.dt, simulation\.n_paths"):
        load_config(str(path))


@pytest.mark.parametrize(
    "kind, old, new",
    [
        ("black_scholes", "n_paths: 8", "n_paths: many"),
        ("black_scholes", "gamma: 5.0", "gamma: [5.0, 6.0]"),
        ("kim_omberg", "state_vol: 0.0368", "state_vol: high"),
    ],
)
def test_wrongly_typed_value_rejected(tmp_path, kind, old, new):
    path = write_config(tmp_path, kind)
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new))
    with pytest.raises(InputError, match="invalid"):
        load_config(path)


def test_wrongly_typed_initial_state_rejected(tmp_path):
    with pytest.raises(InputError, match="invalid"):
        load_config(write_config(tmp_path, "kim_omberg", sim_extra="  y0: [a, b]\n"))


@pytest.mark.parametrize(
    "line",
    [
        "n_paths: 63.9",
        "n_paths: true",
        "seed: 7.0",
        "n_workers: '2'",
        'antithetic: "no"',
        "antithetic: 1",
        "allow_flagged: yes please",
    ],
)
def test_integer_and_boolean_keys_not_coerced(tmp_path, line):
    key = line.split(":")[0]
    sim = REQUIRED_SIM if key != "n_paths" else REQUIRED_SIM.replace("  n_paths: 8\n", "")
    path = tmp_path / "run.yaml"
    path.write_text("model:\n" + MODELS["black_scholes"] + "simulation:\n" + sim + f"  {line}\n")
    with pytest.raises(InputError, match=rf"simulation\.{key}"):
        load_config(str(path))


@pytest.mark.parametrize(
    "line", ["horizon: true", "epsilon: '0.01'", 'gamma: "5"', "dt: false", "epsilon: 1e-2"]
)
def test_float_keys_not_coerced(tmp_path, line):
    key = line.split(":")[0]
    sim = "".join(f"{s}\n" for s in REQUIRED_SIM.splitlines() if not s.startswith(f"  {key}:"))
    path = tmp_path / "run.yaml"
    path.write_text("model:\n" + MODELS["black_scholes"] + "simulation:\n" + sim + f"  {line}\n")
    with pytest.raises(InputError, match=rf"simulation\.{key}"):
        load_config(str(path))


def test_float_keys_take_integers(tmp_path):
    path = tmp_path / "run.yaml"
    sim = "  horizon: 2\n  dt: 0.004\n  n_paths: 8\n  epsilon: 1.0e-2\n  gamma: 5\n"
    path.write_text("model:\n" + MODELS["black_scholes"] + "simulation:\n" + sim)
    got = load_config(str(path)).simulation
    assert (got.horizon, got.epsilon, got.gamma) == (2.0, 0.01, 5.0)
    assert all(type(v) is float for v in (got.horizon, got.epsilon, got.gamma))


def test_repeated_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, "kim_omberg", model_extra="  mean_reversion: 5.0\n")
    with pytest.raises(InputError, match=r"repeated key 'mean_reversion'.*line 8"):
        load_config(path)
    assert cli.main(["validate", "--config", path]) == 1
    assert "mean_reversion" in capsys.readouterr().err


@pytest.mark.parametrize(
    "names, repeated",
    [("[move, move]", "'move'"), ("[frictionless, frictionless, buy_hold]", "'frictionless'")],
)
def test_repeated_strategy_rejected(tmp_path, capsys, names, repeated):
    path = write_config(tmp_path)
    with open(path, "a") as fh:
        fh.write(f"strategies: {names}\n")
    with pytest.raises(InputError, match=f"repeated strategy {repeated} in config.strategies"):
        load_config(path)
    assert cli.main(["simulate", "--config", path]) == 1
    err = capsys.readouterr()
    assert repeated in err.err and err.out == ""


@pytest.mark.parametrize("value", ["true", "12345", "[a.csv]"])
def test_non_string_output_rejected(tmp_path, capsys, value):
    path = write_config(tmp_path)
    with open(path, "a") as fh:
        fh.write(f"output: {value}\n")
    with pytest.raises(InputError, match=r"config\.output"):
        load_config(path)
    assert cli.main(["simulate", "--config", path]) == 1
    assert "config.output" in capsys.readouterr().err


@pytest.mark.parametrize("kind, y0", [("black_scholes", "[0.05, 0.06]"),
                                      ("kim_omberg", "[0.05, 0.06]"), ("kim_omberg", "[]"),
                                      ("kim_omberg", "[.nan]"), ("kim_omberg", "[.inf]"),
                                      ("kim_omberg", "[5.0]")])
def test_initial_state_of_wrong_length_rejected(tmp_path, capsys, kind, y0):
    path = write_config(tmp_path, kind, sim_extra=f"  y0: {y0}\n")
    with pytest.raises(InputError, match=r"simulation\.y0"):
        load_config(path)
    assert cli.main(["frequency", "--config", path]) == 1
    assert "simulation.y0" in capsys.readouterr().err


def test_move_for_several_assets_rejected(tmp_path, capsys):
    path = tmp_path / "ko2d.yaml"
    two = MODELS["kim_omberg"].replace("vol: [0.1428]", "vol: [0.1428, 0.1428]\n"
                                       "  correlation: [[1.0, 0.6], [0.6, 1.0]]")
    path.write_text("model:\n" + two + "simulation:\n" + REQUIRED_SIM
                    + "strategies: [move, buy_hold]\n")
    with pytest.raises(InputError, match=r"config\.strategies: .*'move'.*m == 1"):
        load_config(str(path))
    assert cli.main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr()
    assert "config.strategies" in err.err and err.out == ""
    path.write_text(path.read_text().replace("[move, buy_hold]", "[pasted, buy_hold]"))
    assert load_config(str(path)).strategies == ["pasted", "buy_hold"]


def test_simulation_keys_are_the_config_fields():
    from rebalfreq import config

    assert list(config._SIM_TYPES) == [f.name for f in dataclasses.fields(SimulationConfig)]


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.9), ("seed", 2**64), ("seed", True), ("n_paths", 4.0), ("n_workers", 2.0),
     ("n_paths", np.float64(8.0))],
)
def test_integer_keys_must_be_integers_in_range(key, value):
    base = dict(horizon=1.0, dt=0.004, n_paths=8, epsilon=0.01, gamma=5.0)
    with pytest.raises(ParameterError, match=key):
        SimulationConfig(**{**base, key: value})


def test_numpy_integer_keys_accepted():
    cfg = SimulationConfig(horizon=1.0, dt=0.004, n_paths=np.int64(8), epsilon=0.01, gamma=5.0,
                           seed=np.uint64(2**64 - 1), n_workers=np.int32(2))
    assert (cfg.n_paths, cfg.seed, cfg.n_workers) == (8, 2**64 - 1, 2)


def test_seed_beyond_64_bits_rejected_in_config(tmp_path, capsys):
    path = write_config(tmp_path, sim_extra=f"  seed: {2**64}\n")
    with pytest.raises(InputError, match="invalid simulation settings: seed"):
        load_config(path)
    assert cli.main(["simulate", "--config", path]) == 1
    assert "input error:" in capsys.readouterr().err
    assert load_config(write_config(tmp_path, sim_extra=f"  seed: {2**64 - 1}\n")).simulation.seed


SIM = "simulation:\n" + REQUIRED_SIM
BS = "model:\n" + MODELS["black_scholes"]


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "config file not found: "),
        (BS + SIM.replace("dt: 0.004", "dt: : 0.004"),
         r"config parse error in .*run\.yaml \(line 7, column 7\)"),
        ("- model\n- simulation\n", "config root must be a mapping"),
        (SIM, "config requires 'model' and 'simulation' sections"),
        (BS, "config requires 'model' and 'simulation' sections"),
        (BS + "simulation: [1, 2]\n", "config.simulation must be a mapping"),
        (BS + SIM + "strategies: []\n", "config.strategies must be a nonempty list"),
        (BS + SIM + "strategies: move\n", "config.strategies must be a nonempty list"),
        (BS + SIM + "strategies: [move, hold]\n", "unknown strategy 'hold' in config.strategies"),
        (BS + SIM + "strategies: [[move]]\n", r"unknown strategy \['move'\] in config\.strategies"),
        (BS + SIM + "strategies: [{move: 1}]\n",
         r"unknown strategy \{'move': 1\} in config\.strategies"),
    ],
)
def test_loader_messages(tmp_path, text, message):
    path = tmp_path / "run.yaml"
    if text is not None:
        path.write_text(text)
    with pytest.raises(InputError, match=message):
        load_config(str(path))


@pytest.mark.parametrize(
    "case, message",
    [
        ("directory", "config file cannot be read: .*run\\.yaml: .*Is a directory"),
        ("not UTF-8", "config file cannot be read: .*run\\.yaml: 'utf-8' codec can't decode"),
        ("correlation file a directory", "correlation matrix file cannot be read: .*corr"),
    ],
)
def test_unreadable_files_are_input_errors(tmp_path, capsys, case, message):
    # test_loader_messages writes each case as a text file, which these cases are not
    path = tmp_path / "run.yaml"
    if case == "directory":
        path.mkdir()
    elif case == "not UTF-8":
        path.write_bytes(b"model: \xff\n")
    else:
        (tmp_path / "corr").mkdir()
        write_config(tmp_path, model_extra="  correlation_file: corr\n")
    with pytest.raises(InputError, match=message):
        load_config(str(path))
    assert cli.main(["simulate", "--config", str(path)]) == 1
    assert re.match("input error: " + message, capsys.readouterr().err)


def test_relative_output_resolves_against_the_config_directory(tmp_path, monkeypatch):
    # as model.correlation_file does, whatever the working directory
    (tmp_path / "configs").mkdir()
    (tmp_path / "elsewhere").mkdir()
    path = tmp_path / "configs" / "run.yaml"
    path.write_text(Path(write_config(tmp_path)).read_text() + "output: result.csv\n")
    monkeypatch.chdir(tmp_path / "elsewhere")
    config = str(Path("..") / "configs" / "run.yaml")
    assert load_config(config).output == str(tmp_path / "configs" / "result.csv")
    assert cli.main(["simulate", "--config", config]) == 0
    assert (tmp_path / "configs" / "result.csv").read_text().startswith("strategy,F_hat")
    assert not any((tmp_path / "elsewhere").iterdir())
