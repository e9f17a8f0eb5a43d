"""Collect benchmark records of one or more checkouts into one ``BENCH_<n>.json``.

``perfbench/run.py`` writes one record per workload, seed and trace level to
the git-ignored ``.bench_out/`` of its checkout. This script gathers the
trace-0 and trace-1 records of every workload in ``BENCHMARK.json`` at one
seed, so that a speed claim can cite a committed file. Run from the root of
a checkout, after both trace levels have run in each checkout named::

    python3 perfbench/run.py --workload all --seed 7 --trace 0 --seconds 10
    python3 perfbench/run.py --workload all --seed 7 --trace 1 --seconds 10
    python3 tools/bench_snapshot.py BENCH_9.json change=. parent=../parent-checkout

Each ``label=path`` names a checkout root. A record whose ``source_sha256``
differs from the checkout's ``src/`` today is stale and stops the script
(exit 1), as does a missing record. The traced spans are left out; every
other field of a record is kept, with the machine the records ran on and a
summary of each workload's metrics per checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE_KEYS = ("nproc", "cpus_usable", "python", "numpy", "scipy", "platform")


def source_sha256(root):
    """The digest ``perfbench/run.py`` records for the files under ``root/src``."""
    src = os.path.join(root, "src")
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def collect(label, root, workloads, seed):
    """The records of one checkout, by workload and trace level, without spans."""
    sha = source_sha256(root)
    records, git_shas = {}, set()
    for name in workloads:
        for trace in (0, 1):
            path = os.path.join(root, ".bench_out", f"{name}-seed{seed}-trace{trace}.json")
            if not os.path.isfile(path):
                raise SystemExit(f"{label}: no record {path}; run perfbench/run.py first")
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            ran_on = rec["provenance"]["source_sha256"]
            if ran_on != sha:
                raise SystemExit(f"{label}: {path} ran on source {ran_on[:12]}, "
                                 f"the checkout's src/ is {sha[:12]}")
            git_shas.add(rec["provenance"]["git_sha"])
            rec.pop("spans", None)
            records.setdefault(name, {})[f"trace{trace}"] = rec
    if len(git_shas) != 1:
        raise SystemExit(f"{label}: records of several commits: {sorted(map(str, git_shas))}")
    return {"git_sha": git_shas.pop(), "source_sha256": sha, "records": records}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="file to write, e.g. BENCH_9.json")
    parser.add_argument("checkouts", nargs="+", metavar="label=path")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    checkouts = {}
    for item in args.checkouts:
        label, sep, root = item.partition("=")
        if not sep or not label or label in checkouts:
            parser.error(f"expected distinct label=path pairs, got {item!r}")
        checkouts[label] = collect(label, root, workloads, args.seed)

    first = next(iter(checkouts.values()))["records"][workloads[0]]["trace0"]["provenance"]
    summary = {
        name: {
            label: {
                metric: v["value"]
                for trace in ("trace0", "trace1")
                for metric, v in c["records"][name][trace]["result"]["metrics"].items()
            }
            for label, c in checkouts.items()
        }
        for name in workloads
    }
    snapshot = {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "machine": {"cpu": cpu_model(), **{k: first[k] for k in MACHINE_KEYS}},
        "summary": summary,
        "checkouts": checkouts,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    shas = ", ".join(f"{label} {c['git_sha']}" for label, c in checkouts.items())
    print(f"wrote {args.out}: {shas}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
