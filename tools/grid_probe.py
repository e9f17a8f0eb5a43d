"""Wall time and peak memory of table cells' asymptotic predictions at T = 20.

The gated perfbench workloads run at short horizons, so none of them sees the
prediction grid of the tables themselves: 2000 state paths of 20 years at
steps of 1/250. This probe runs the predictions of table 2's cell, of table
4's rho = 0.6 cell, and of table 4's three cells together, as ``table_runner``
forms them before any Monte Carlo run, with the tables' settings (seed 7, eps
0.01, risk aversion 5), each in a fresh interpreter so that ``ru_maxrss`` is
its own high-water mark, and prints one line per cell. It is not gated. Run
from the root of a checkout::

    python3 tools/grid_probe.py
    python3 tools/grid_probe.py --cell table4 --workers 2

``--workers N`` runs the grid's path ranges on N worker processes, as a table
with ``n_workers = N`` does. ``peak_rss_mib`` is the interpreter's own peak,
``child_mib`` the largest worker's (0 with one worker), ``import_mib`` the
peak after importing the package, before the predictions run, and
``grid_calls`` the number of ``simulate_state_grid`` calls in all processes.
On a source tree that forms predictions one cell at a time
(``_cell_predictions(model, config, names, pool)``), the cells run one after
another on one pool.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# table id and the indices of its models
CELLS = {"table2": (2, [0]), "table4_rho0.6": (4, [1]), "table4": (4, [0, 1, 2])}


def peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cells(name, n_workers):
    """Run the predictions of one entry of ``CELLS`` on ``n_workers`` and return its record."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import multiprocessing

    from rebalfreq import evaluate, simulate

    table, indices = CELLS[name]
    spec = evaluate._table_spec(table)
    config = evaluate._run_config(256, n_workers=n_workers, allow_flagged=True)
    cells = [(spec["models"][i][1], config) for i in indices]
    calls, real = multiprocessing.Value("i", 0), simulate.simulate_state_grid

    def counted(*args, **kwargs):  # installed before any worker is forked
        with calls.get_lock():
            calls.value += 1
        return real(*args, **kwargs)

    simulate.simulate_state_grid = counted
    before = peak_mib()
    start = time.perf_counter()
    with simulate._worker_pool(n_workers) as pool:
        if hasattr(evaluate, "_predictions"):
            evaluate._predictions(cells, spec["strategies"], pool)
        else:
            for model, cfg in cells:
                evaluate._cell_predictions(model, cfg, spec["strategies"], pool)
    wall = time.perf_counter() - start
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"cell": name, "wall_s": round(wall, 3), "peak_rss_mib": round(peak_mib(), 1),
            "child_mib": round(child, 1), "import_mib": round(before, 1),
            "grid_calls": calls.value}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cell", choices=sorted(CELLS), action="append")
    parser.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument("--child", choices=sorted(CELLS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.child:
        print(json.dumps(run_cells(args.child, args.workers)))
        return 0
    print(f"{'cell':<15} {'workers':>7} {'wall_s':>8} {'peak_rss_mib':>13} {'child_mib':>10} "
          f"{'import_mib':>11} {'grid_calls':>10}")
    for name in args.cell or list(CELLS):
        argv = [os.path.abspath(__file__), "--child", name, "--workers", str(args.workers)]
        out = subprocess.run([sys.executable, *argv], check=True, capture_output=True,
                             text=True).stdout
        rec = json.loads(out)
        print(f"{name:<15} {args.workers:>7} {rec['wall_s']:>8.3f} {rec['peak_rss_mib']:>13.1f} "
              f"{rec['child_mib']:>10.1f} {rec['import_mib']:>11.1f} {rec['grid_calls']:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
