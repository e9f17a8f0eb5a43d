"""Run the package's commands in two checkouts and compare their outputs byte for byte.

Run from anywhere, on two extractions made with ``tools/archive_checkout.py``::

    python3 tools/archive_checkout.py HEAD~1 ../parent
    python3 tools/archive_checkout.py HEAD ../change
    python3 tools/compare_outputs.py ../parent ../change

In each checkout it runs, with ``PYTHONPATH`` set to the checkout's ``src``:

* ``table --table N --paths 256`` for N = 1 to 4;
* ``figure --figure 1``, analytic and with ``--paths 8``;
* ``frequency``, ``tc``, ``validate`` and ``simulate --paths 64 --dump-paths 6`` on three
  configs: the checkout's ``perfbench/configs/ko2d_engine.yaml``, and a one-asset and a
  two-asset Black-Scholes config (``bs1d.yaml``, ``bs2d.yaml``) that the script writes into
  its temporary directory;
* ``simulate --dump-paths 4`` on a one-asset Black-Scholes config whose relative ``output:``
  key names the CSV, without ``--out``. This config is written into each checkout's output
  directory, where its commands run, so the CSV lands there whether a checkout resolves
  ``output:`` against the working directory or against the config's directory;
* ``table --table 1 --paths 8`` on stdout.

Every command runs in its own checkout's output directory, under a temporary directory. The
stdout run's captured bytes are saved there as a file; every other command writes its CSV
with ``--out`` or through the config's ``output:`` key. The script prints one line per output
file, ``identical`` or ``DIFFERENT`` (or ``missing`` on one side), and one line for each
command that exited non-zero. It exits 1 on any difference, missing file or failed command,
and then keeps the outputs and prints where they are; else it removes them and exits 0.
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
SIMULATION = ("simulation:\n  horizon: 1.0\n  dt: 0.004\n  n_paths: 64\n  epsilon: 0.01\n"
              "  gamma: 5.0\n")
BS1D = "model:\n  kind: black_scholes\n  mu: [0.08]\n  vol: [0.16]\n" + SIMULATION
# config file name and text, written into the temporary directory
CONFIGS = {
    "bs1d.yaml": BS1D + "strategies: [frictionless, frictionless_sim, time_adaptive, "
                        "time_constant, buy_hold, move, pasted]\n",
    "bs2d.yaml": "model:\n  kind: black_scholes\n  mu: [0.08, 0.06]\n  vol: [0.16, 0.2]\n"
                 "  correlation: [[1.0, 0.3], [0.3, 1.0]]\n" + SIMULATION
                 + "strategies: [frictionless, time_adaptive, time_constant, pasted]\n",
}
# the config with an ``output:`` key, written into each checkout's output directory
OUTPUT_CONFIG = "bs1d_output.yaml"
OUTPUT_TEXT = (BS1D + "strategies: [frictionless, time_adaptive, move]\n"
               "output: simulate_output.csv\n")


def runs(checkout, configs):
    """Every run in ``checkout``, as ``(output file, the command's arguments after ``python -m
    rebalfreq.cli``, where it writes)``: ``"out"`` adds ``--out <file>``, ``"stdout"`` saves
    the captured stdout as the file, and ``None`` leaves the file to the config's ``output:``
    key. ``configs`` is the directory of :data:`CONFIGS`."""
    todo = [(f"table{n}.csv", ["table", "--table", str(n), "--paths", "256"], "out")
            for n in (1, 2, 3, 4)]
    todo += [
        ("figure1.csv", ["figure", "--figure", "1"], "out"),
        ("figure1_paths8.csv", ["figure", "--figure", "1", "--paths", "8"], "out"),
    ]
    for suffix, config in (("", os.path.join(os.path.abspath(checkout), CONFIG)),
                           ("_bs1d", os.path.join(configs, "bs1d.yaml")),
                           ("_bs2d", os.path.join(configs, "bs2d.yaml"))):
        todo += [(f"{cmd}{suffix}.csv", [cmd, "--config", config], "out")
                 for cmd in ("frequency", "tc", "validate")]
        todo.append((f"simulate{suffix}.csv",
                     ["simulate", "--config", config, "--paths", "64", "--dump-paths", "6"], "out"))
    todo += [
        ("simulate_output.csv",
         ["simulate", "--config", OUTPUT_CONFIG, "--dump-paths", "4"], None),
        ("table1_paths8.stdout", ["table", "--table", "1", "--paths", "8"], "stdout"),
    ]
    return todo


def run_all(checkout, out_dir, configs):
    """Run every command of :func:`runs` in ``checkout``, in ``out_dir``; return the failed
    commands as ``(name, exit code, stderr)``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    failed = []
    for name, args, dest in runs(checkout, configs):
        cmd = [sys.executable, "-m", "rebalfreq.cli", *args, *(["--out", name] * (dest == "out"))]
        done = subprocess.run(cmd, cwd=out_dir, env=env, capture_output=True)
        if done.returncode:
            failed.append((name, done.returncode, done.stderr.decode().strip()))
        elif dest == "stdout":
            with open(os.path.join(out_dir, name), "wb") as fh:
                fh.write(done.stdout)
    return failed


def compare(parent, change, work):
    """Run both checkouts into ``work/parent`` and ``work/change``; print the comparison and
    return the number of differences, missing files and failed commands."""
    configs = os.path.join(work, "configs")
    os.makedirs(configs)
    for name, text in CONFIGS.items():
        with open(os.path.join(configs, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    dirs = {}
    problems = 0
    for side, checkout in (("parent", parent), ("change", change)):
        dirs[side] = os.path.join(work, side)
        os.makedirs(dirs[side], exist_ok=True)
        with open(os.path.join(dirs[side], OUTPUT_CONFIG), "w", encoding="utf-8") as fh:
            fh.write(OUTPUT_TEXT)
        for name, code, err in run_all(checkout, dirs[side], configs):
            print(f"{side}: {name} exited {code}: {err}")
            problems += 1
    names = sorted((set(os.listdir(dirs["parent"])) | set(os.listdir(dirs["change"])))
                   - {OUTPUT_CONFIG})
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
