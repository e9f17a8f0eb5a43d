"""Run the package's commands in two checkouts and compare their output files byte for byte.

Run from anywhere, on two extractions made with ``tools/archive_checkout.py``::

    python3 tools/archive_checkout.py HEAD~1 ../parent
    python3 tools/archive_checkout.py HEAD ../change
    python3 tools/compare_outputs.py ../parent ../change

In each checkout it runs, with ``PYTHONPATH`` set to the checkout's ``src``:

* ``table --table N --paths 256`` for N = 1 to 4;
* ``figure --figure 1``, analytic and with ``--paths 8``;
* ``frequency``, ``tc``, ``validate`` and ``simulate --paths 64 --dump-paths 6`` on the
  checkout's ``perfbench/configs/ko2d_engine.yaml``.

Each command writes its CSV with ``--out`` into a temporary directory, one per checkout. The
script prints one line per output file, ``identical`` or ``DIFFERENT`` (or ``missing`` on one
side), and one line for each command that exited non-zero. It exits 1 on any difference,
missing file or failed command, and then keeps the outputs and prints where they are; else it
removes them and exits 0.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile

CONFIG = os.path.join("perfbench", "configs", "ko2d_engine.yaml")
# output file name and the command's arguments after ``python -m rebalfreq.cli``
RUNS = [(f"table{n}.csv", ["table", "--table", str(n), "--paths", "256"]) for n in (1, 2, 3, 4)]
RUNS += [
    ("figure1.csv", ["figure", "--figure", "1"]),
    ("figure1_paths8.csv", ["figure", "--figure", "1", "--paths", "8"]),
    ("frequency.csv", ["frequency", "--config", CONFIG]),
    ("tc.csv", ["tc", "--config", CONFIG]),
    ("validate.csv", ["validate", "--config", CONFIG]),
    ("simulate.csv", ["simulate", "--config", CONFIG, "--paths", "64", "--dump-paths", "6"]),
]


def run_all(checkout, out_dir):
    """Run every command of ``RUNS`` in ``checkout``, writing into ``out_dir``; return the
    failed commands as ``(name, exit code, stderr)``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    failed = []
    for name, args in RUNS:
        cmd = [sys.executable, "-m", "rebalfreq.cli", *args, "--out", os.path.join(out_dir, name)]
        done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        if done.returncode:
            failed.append((name, done.returncode, done.stderr.strip()))
    return failed


def compare(parent, change, work):
    """Run both checkouts into ``work/parent`` and ``work/change``; print the comparison and
    return the number of differences, missing files and failed commands."""
    dirs = {}
    problems = 0
    for side, checkout in (("parent", parent), ("change", change)):
        dirs[side] = os.path.join(work, side)
        os.makedirs(dirs[side], exist_ok=True)
        for name, code, err in run_all(checkout, dirs[side]):
            print(f"{side}: {name} exited {code}: {err}")
            problems += 1
    names = sorted(set(os.listdir(dirs["parent"])) | set(os.listdir(dirs["change"])))
    for name in names:
        a, b = (os.path.join(dirs[side], name) for side in ("parent", "change"))
        if not (os.path.exists(a) and os.path.exists(b)):
            status = "missing in " + ("parent" if not os.path.exists(a) else "change")
        else:
            status = "identical" if filecmp.cmp(a, b, shallow=False) else "DIFFERENT"
        problems += status != "identical"
        print(f"{name}: {status}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the checkout to compare against")
    parser.add_argument("change", help="the checkout with the change")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, CONFIG)):
            parser.error(f"{checkout} is not a checkout of this repository (no {CONFIG})")
    work = tempfile.mkdtemp(prefix="compare_outputs_")
    if compare(args.parent, args.change, work):
        print(f"outputs kept in {work}")
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
