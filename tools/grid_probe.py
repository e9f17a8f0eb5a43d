"""Wall time and peak memory of one table cell's asymptotic predictions at T = 20.

The gated perfbench workloads run at short horizons, so none of them sees the
prediction grid of the tables themselves: 2000 state paths of 20 years at
steps of 1/250. This probe runs ``_cell_predictions`` for table 2's cell and
table 4's rho = 0.6 cell with the tables' settings (seed 7, eps 0.01, risk
aversion 5), each in a fresh interpreter so that ``ru_maxrss`` is that cell's
own high-water mark, and prints one line per cell. It is not gated. Run from
the root of a checkout::

    python3 tools/grid_probe.py
    python3 tools/grid_probe.py --cell table2

``import_mib`` is the peak after importing the package, before the cell runs.
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
CELLS = {"table2": (2, 0), "table4_rho0.6": (4, 1)}  # table id, index of its model


def peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cell(name):
    """Run one cell's predictions in this process and return its record."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rebalfreq.evaluate import _cell_predictions, _run_config, _table_spec

    table, index = CELLS[name]
    spec = _table_spec(table)
    _, model = spec["models"][index]
    config = _run_config(256, allow_flagged=True)
    before = peak_mib()
    start = time.perf_counter()
    _cell_predictions(model, config, spec["strategies"])
    wall = time.perf_counter() - start
    return {"cell": name, "wall_s": round(wall, 3), "peak_rss_mib": round(peak_mib(), 1),
            "import_mib": round(before, 1)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cell", choices=sorted(CELLS), action="append")
    parser.add_argument("--child", choices=sorted(CELLS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_cell(args.child)))
        return 0
    print(f"{'cell':<15} {'wall_s':>8} {'peak_rss_mib':>13} {'import_mib':>11}")
    for name in args.cell or list(CELLS):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name],
                             check=True, capture_output=True, text=True).stdout
        rec = json.loads(out)
        print(f"{name:<15} {rec['wall_s']:>8.3f} {rec['peak_rss_mib']:>13.1f} {rec['import_mib']:>11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
