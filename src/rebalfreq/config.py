"""YAML run-configuration parsing with strict key validation."""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, fields
from functools import cache
from typing import Optional

import numpy as np

from .errors import DomainError, InputError, ParameterError
from .evaluate import STRATEGIES
from .markets import model_from_config
from .simulate import SimulationConfig, _default_y0, _move_fault


def _vector(value):
    return None if value is None else np.atleast_1d(np.asarray(value, dtype=float))


# Each simulation key and the type it is read as; SimulationConfig states
# which keys are required and the defaults of the others.
_SIM_TYPES = {
    "horizon": float,
    "dt": float,
    "n_paths": int,
    "epsilon": float,
    "gamma": float,
    "y0": _vector,
    "seed": int,
    "antithetic": bool,
    "n_workers": int,
    "allow_flagged": bool,
}
_TOP_KEYS = {"model", "simulation", "strategies", "output"}


@dataclass
class RunConfig:
    """A parsed run: the market model, simulation settings, strategy list."""

    model: object
    model_cfg: dict
    simulation: SimulationConfig
    strategies: list
    output: Optional[str]


@cache
def _unique_key_loader():
    """The safe loader, except that a key repeated in one mapping is an error. Built on
    first use, so that importing the package leaves PyYAML out."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            keys = [k for k, _ in node.value if isinstance(k, yaml.ScalarNode)]
            for i, k in enumerate(keys):
                if any((k.tag, k.value) == (j.tag, j.value) for j in keys[:i]):
                    where = f"{k.start_mark.name} (line {k.start_mark.line + 1})"
                    raise InputError(f"repeated key {k.value!r} in {where}")
            return super().construct_mapping(node, deep)

    return UniqueKeyLoader


def _reject_unknown(mapping, allowed, where):
    unknown = sorted(set(mapping).difference(allowed))
    if unknown:
        raise InputError(
            f"unknown key{'s' if len(unknown) > 1 else ''} in {where}: "
            + ", ".join(f"{where}.{k}" for k in unknown)
        )


def load_config(path):
    """Parse and validate a YAML run configuration.

    The ``model`` section is read by :func:`~rebalfreq.markets.model_from_config`,
    which owns the keys of each model kind. Each ``simulation`` key is read
    with its type from one table; the required keys and the defaults of the
    others are those of :class:`~rebalfreq.simulate.SimulationConfig`.
    Integer and boolean keys take only integers and ``true``/``false``, float
    keys only numbers (``horizon: 2`` is 2.0; ``1e-2`` is a string in YAML 1.1).
    Unknown keys, missing keys and values of the wrong type are
    :class:`InputError`, with their dotted location; YAML syntax errors and
    a key repeated in one mapping report the line number. Relative paths
    (``output``, ``model.correlation_file``) resolve against the file's directory.
    """
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_unique_key_loader())
    except FileNotFoundError as exc:
        raise InputError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"config file cannot be read: {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise InputError(f"config parse error in {path}{loc}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("config root must be a mapping")
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "model" not in raw or "simulation" not in raw:
        raise InputError("config requires 'model' and 'simulation' sections")
    if not isinstance(raw["simulation"], dict):
        raise InputError("config.simulation must be a mapping")
    _reject_unknown(raw["simulation"], _SIM_TYPES, "simulation")

    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        model = model_from_config(raw["model"], base_dir=base_dir)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        # bad parameter values in the file are input errors, not runtime ones
        raise InputError(f"invalid model settings: {exc}") from exc

    sim_raw = raw["simulation"]
    required = [f.name for f in fields(SimulationConfig) if f.default is MISSING]
    missing = [k for k in required if k not in sim_raw]
    if missing:
        raise InputError(
            "simulation section missing keys: "
            + ", ".join(f"simulation.{k}" for k in missing)
        )
    try:
        for key, value in sim_raw.items():
            kind = _SIM_TYPES[key]
            taken = {int: (int,), bool: (bool,), float: (int, float)}.get(kind)
            if taken and type(value) not in taken:  # taken as is, never coerced
                raise TypeError(f"simulation.{key} must be {kind.__name__}, got {value!r}")
        sim = SimulationConfig(**{k: _SIM_TYPES[k](v) for k, v in sim_raw.items()})
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid simulation settings: {exc}") from exc
    if sim.y0 is not None:
        try:
            _default_y0(model, sim.y0)
        except (ParameterError, DomainError) as exc:
            raise InputError(f"simulation.y0 {raw['simulation']['y0']!r}: {exc}") from exc

    strategies = raw.get("strategies", ["time_adaptive"])
    if not isinstance(strategies, list) or not strategies:
        raise InputError("config.strategies must be a nonempty list")
    for s in strategies:
        if not isinstance(s, str) or s not in STRATEGIES:
            raise InputError(
                f"unknown strategy {s!r} in config.strategies; known: {', '.join(STRATEGIES)}"
            )
    repeated = sorted({s for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise InputError(f"repeated strategy {', '.join(map(repr, repeated))} in config.strategies")
    if fault := _move_fault(strategies, model.m):
        raise InputError(f"config.strategies: {fault}")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise InputError(f"config.output must be a file path string, got {output!r}")
    return RunConfig(
        model=model,
        model_cfg=raw["model"],
        simulation=sim,
        strategies=list(strategies),
        output=output and os.path.join(base_dir, output),
    )
