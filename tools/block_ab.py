"""Time one engine block of two checkouts against each other, alternating, in one process.

On a shared two-core machine, ``perfbench/run.py``'s ``wall_s`` on two workers can drift by
tens of percent from run to run, so it cannot show a change of a few percent. This script
loads ``src/rebalfreq`` of two checkouts side by side, as the packages ``rebalfreq_parent``
and ``rebalfreq_change``, and alternates one ``simulate.run_strategies`` call per side on
one block of a table's market, so that the machine's drift falls on both sides alike. The
run's settings are ``evaluate._run_config(PATHS, ...)``: one worker, so the run is one
engine block, run in this process. The side that goes first alternates from pair to pair.
Going through ``run_strategies``, not the block itself, keeps the comparison independent of
the shape of a block's return. It prints:

* whether the two sides' outcomes, field by field, and joined path records are bit-identical;
* each side's median and quartiles of the call time;
* in how many pairs the change's call was the faster one.

Run from anywhere, on two extractions made with ``tools/archive_checkout.py``::

    python3 tools/archive_checkout.py HEAD~1 ../parent
    python3 tools/archive_checkout.py HEAD ../change
    python3 tools/block_ab.py ../parent ../change
    python3 tools/block_ab.py ../parent ../change --market ko2d --pairs 20

``--market table1`` (default) is table 1's one constant-coefficient asset, with its
simulated set ``move``, ``time_adaptive`` and ``buy_hold``; ``--market ko2d`` is table 4's
two mean-reverting assets at rho = 0.6, with ``pasted``, ``time_adaptive`` and
``buy_hold``. The run holds ``PATHS`` paths, the engine's largest block, over ``HORIZON``
years at the tables' dt, seed and cost rate; the identity check also compares the full
records of its first ``RECORDS`` paths. It exits 1 if the two sides' results differ in any
bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import os
import statistics
import sys
import time

import numpy as np

MARKETS = {"table1": (1, 0), "ko2d": (4, 1)}  # table id, index of its model
SIDES = ("parent", "change")
PATHS, HORIZON, RECORDS = 2048, 1.0, 8  # one full engine block of 250 steps


def load_package(checkout, name):
    """Import ``checkout``'s ``src/rebalfreq`` as the package ``name``; return its
    ``simulate`` and ``evaluate`` modules."""
    src = os.path.join(os.path.abspath(checkout), "src", "rebalfreq")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.simulate"), importlib.import_module(f"{name}.evaluate")


def block_call(checkout, name, market):
    """A function that runs ``PATHS`` paths of ``market``, one block in one worker, through
    ``checkout``'s ``run_strategies`` with the table's simulated strategy set, and records its
    first ``upto`` paths."""
    simulate, evaluate = load_package(checkout, name)
    table, index = MARKETS[market]
    spec = evaluate._table_spec(table)
    _, model = spec["models"][index]
    config = evaluate._run_config(PATHS, horizon=HORIZON, allow_flagged=model.p > 0)
    strategies = [evaluate.STRATEGIES[n](model, config, None)
                  for n in spec["strategies"] if n != "frictionless"]
    return lambda upto=0: simulate.run_strategies(model, config, strategies, upto)


def differences(a, b, where="result"):
    """The places where two results differ in any bit: arrays by their bytes, and outcomes and
    records (dataclasses of either package) field by field."""
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        if type(a).__name__ != type(b).__name__:
            return [where]
        a, b = vars(a), vars(b)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        same = (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
        return [] if same else [where]
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [d for k in a for d in differences(a[k], b[k], f"{where}[{k!r}]")]
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in differences(x, y, f"{where}[{i}]")]
    return [] if type(a) is type(b) and a == b else [where]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the checkout to compare against")
    parser.add_argument("change", help="the checkout with the change")
    parser.add_argument("--market", choices=sorted(MARKETS), default="table1")
    parser.add_argument("--pairs", type=int, default=10, help="timed pairs of calls (>= 2)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    calls = {side: block_call(checkout, f"rebalfreq_{side}", args.market)
             for side, checkout in zip(SIDES, (args.parent, args.change))}
    found = differences(*(calls[side](RECORDS) for side in SIDES))
    times = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            start = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - start)

    print(f"market {args.market}, {PATHS} paths, {HORIZON:g} years, {args.pairs} pairs")
    print("results: bit-identical" if not found else
          f"results: DIFFERENT in {len(found)} places, first {', '.join(found[:5])}")
    for side in SIDES:
        q1, q2, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        print(f"{side:<7} median {q2:.4f} s  quartiles {q1:.4f} .. {q3:.4f} s")
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    ratio = statistics.median(times["change"]) / statistics.median(times["parent"])
    print(f"change faster in {won} of {args.pairs} pairs; median ratio change/parent {ratio:.3f}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
