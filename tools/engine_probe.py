"""Engine cost per time step, by strategy kind, at a small and a full block.

The gated perfbench workloads time whole table runs. This probe times
``run_strategies`` alone on table 2's one-asset and table 4's two-asset
(rho = 0.6) mean-reverting markets, with one block of ``B`` paths and one
worker, and prints microseconds per time step for each strategy kind run
alone and for the table's simulated set. Each (market, B) pair runs in a
fresh interpreter; a figure is the median of ``--repeats`` runs after one
warm-up. ``traced_mib`` is the ``tracemalloc`` peak of one more run of the
table's set, made after the timed runs so that tracing slows none of them.
It is not gated. Run from the root of a checkout::

    python3 tools/engine_probe.py
    python3 tools/engine_probe.py --paths 128 --repeats 9
    python3 tools/engine_probe.py --horizon 4 --paths 2048

``--horizon YEARS`` (default 1, 250 steps at the tables' dt) sets the run's
length; a longer one spans more of the normal draws' step chunks.

``buy_hold`` alone is the shared market work plus the lightest ledger; the
``above_buy_hold`` column is a set's cost beyond it. ``time_constant`` waits
``eps^(2/3) A*`` at the long-run mean.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARKETS = {"ko1d": (2, 0), "ko2d": (4, 1)}  # table id, index of its model


def run_market(name, paths, repeats, horizon):
    """Time every strategy set on one market in this process: ``{set: us per step}``, and
    the traced peak of the table's set in MiB."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from rebalfreq import simulate
    from rebalfreq.evaluate import _run_config, _table_spec
    from rebalfreq.frequency import DiscretizationRule, optimal_rule

    table, index = MARKETS[name]
    spec = _table_spec(table)
    _, model = spec["models"][index]
    simulate._BLOCK = paths  # one block of B paths
    config = _run_config(paths, horizon=horizon)
    adaptive = optimal_rule(model, config.gamma, allow_flagged=True)
    a_mean = float(np.asarray(adaptive.A_of(np.array([model.long_run_mean]))))
    kinds = {
        "buy_hold": simulate.buy_and_hold(),
        "time_adaptive": simulate.time_based(adaptive, label="time_adaptive"),
        "time_constant": simulate.time_based(DiscretizationRule("constant", a_mean), "time_constant"),
        "band": simulate.move_based() if model.m == 1 else simulate.pasted_move_based(),
        "frictionless_sim": simulate.frictionless_benchmark(),
    }
    names = [n for n in spec["strategies"] if n != "frictionless"]
    table_set = [kinds["band" if n in ("move", "pasted") else n] for n in names]
    sets = {k: [s] for k, s in kinds.items()}
    sets["table"] = table_set
    out = {}
    for label, strategies in sets.items():
        simulate.run_strategies(model, config, strategies)  # warm-up
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            simulate.run_strategies(model, config, strategies)
            times.append(time.perf_counter() - start)
        out[label] = statistics.median(times) / config.n_steps * 1e6
    tracemalloc.start()
    try:
        simulate.run_strategies(model, config, table_set)
        traced = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return out, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paths", type=int, action="append", help="block sizes (default 128, 2048)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--horizon", type=float, default=1.0, metavar="YEARS",
                        help="run length in years (default 1.0)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.horizon <= 0 or any(p < 2 or p % 2 for p in args.paths or ()):
        parser.error("--repeats must be >= 1, --horizon positive and --paths even and >= 2")
    if args.child:
        name, paths = args.child.split(":")
        print(json.dumps(run_market(name, int(paths), args.repeats, args.horizon)))
        return 0
    print(f"{'market':<6} {'B':>5} {'set':<17} {'us_per_step':>12} {'above_buy_hold':>15} "
          f"{'traced_mib':>11}")
    for name in MARKETS:
        for paths in args.paths or (128, 2048):
            cmd = [sys.executable, os.path.abspath(__file__), "--child", f"{name}:{paths}",
                   "--repeats", str(args.repeats), "--horizon", repr(args.horizon)]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            rec, traced = json.loads(out)
            for label, us in rec.items():
                mib = f"{traced:.2f}" if label == "table" else "-"
                print(f"{name:<6} {paths:>5} {label:<17} {us:>12.1f} {us - rec['buy_hold']:>15.1f} "
                      f"{mib:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
