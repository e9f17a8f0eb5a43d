"""Benchmark of rebalfreq: end-to-end metrics per workload, or one traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table2_ko1d --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # each workload in turn

``--trace 0`` runs the workload once with one worker (warm-up, and the
reference for the correctness gate), then for ``--seconds`` repeats it with
two workers, timing the set-up of a fresh interpreter now and then in
between, and reports medians of the end-to-end metrics named in
``BENCHMARK.json``.

``--trace 1`` makes the same warm-up run, then repeats a cycle for
``--seconds`` (at least twice) and reports the per-layer metrics. A cycle is
a traced run with one worker, so every span stays in this process; the same
run untraced, which is the serial baseline and the base of the tracing
overhead; a two-worker run for the engine speed-up; each strategy kind run
alone; and one fresh-interpreter set-up. Counts must repeat exactly from
cycle to cycle.

Correctness gate: every run's CSV must be byte-identical to the first
(one-worker) run of the invocation, and at the reference seed the first run
is compared field by field with the stored CSV under ``reference/`` (equal
within 1e-12 relative; blank cells stay blank). The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
an operation is one (path, simulated strategy) pair. A record with
provenance, every sample and the spans of the last traced run is written to
``.bench_out/``. Exit codes: 0 success, 1 gate failure or a run that raised,
2 when the package sources are not in ``src/``.

``--write-reference`` rewrites the stored CSV of a workload (or ``all``) from
a one-worker run at the reference seed; only a change that is meant to move
results does that.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

import numpy as np

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 10  # fresh-interpreter set-ups per untraced window
MIN_REPS = 3
MIN_CYCLES = 2  # so that every traced run checks that its counts repeat
PROBE_PATHS = 2048  # paths of each strategy-kind probe: one block
# strategy kinds probed alone, and the table strategy that runs each
KINDS = {"move": "move", "pasted": "pasted", "time": "time_adaptive", "buy_hold": "buy_hold"}
RTOL = 1e-12  # largest relative difference from a reference CSV field

# Public functions timed in the traced run, by defining module.
TRACED = [
    ("rebalfreq.evaluate", "table_runner"),
    ("rebalfreq.evaluate", "run_table_cell"),
    ("rebalfreq.evaluate", "estimate_objective"),
    ("rebalfreq.evaluate", "frictionless_report"),
    ("rebalfreq.evaluate", "rows_to_csv"),
    ("rebalfreq.frequency", "total_cost"),
    ("rebalfreq.frequency", "constant_rule"),
    ("rebalfreq.frequency", "rate_parts"),
    ("rebalfreq.merton", "merton_state"),
    ("rebalfreq.markets", "evaluate_coefficients"),
    ("rebalfreq.simulate", "simulate_state_grid"),
    ("rebalfreq.simulate", "run_strategies"),
]
AGGREGATE = ("evaluate.estimate_objective", "evaluate.frictionless_report", "evaluate.rows_to_csv")


def import_package():
    """Import rebalfreq from this checkout's ``src/``, or return None."""
    if not os.path.isfile(os.path.join(SRC, "rebalfreq", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import rebalfreq

    if os.path.dirname(os.path.dirname(os.path.abspath(rebalfreq.__file__))) != SRC:
        return None
    return rebalfreq


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def compare_csv(got, ref, rtol=RTOL):
    """Field-by-field comparison of two strategy CSVs.

    Text fields and blank cells must match exactly; numbers may differ by
    ``rtol`` relative. Returns ``byte_identical``, ``max_rel_diff`` and the
    list of ``problems`` (empty when the gate passes).
    """
    problems = []
    max_rel = 0.0
    got_rows, ref_rows = got.splitlines(), ref.splitlines()
    if len(got_rows) != len(ref_rows):
        problems.append(f"{len(got_rows)} lines, reference has {len(ref_rows)}")
    for i, (g_line, r_line) in enumerate(zip(got_rows, ref_rows), start=1):
        g_fields, r_fields = g_line.split(","), r_line.split(",")
        if len(g_fields) != len(r_fields):
            problems.append(f"line {i}: {len(g_fields)} fields, reference has {len(r_fields)}")
            continue
        for j, (g, r) in enumerate(zip(g_fields, r_fields), start=1):
            if g == r:
                continue
            try:
                a, b = float(g), float(r)
            except ValueError:
                problems.append(f"line {i} field {j}: {g!r} != {r!r}")
                continue
            rel = abs(a - b) / max(abs(a), abs(b))
            if not rel <= rtol:
                problems.append(f"line {i} field {j}: {g} vs {r} (rel {rel:.3g})")
            if rel > max_rel:
                max_rel = rel
    return {"byte_identical": got == ref, "max_rel_diff": max_rel, "problems": problems}


class WorkloadRuns:
    """Runs of one workload in one invocation: operation counts and the gate."""

    def __init__(self, workload, seed, reference_seed):
        self.workload = workload
        self.seed = seed
        self.reference_seed = reference_seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_csv = None
        self.reference = None

    def run(self, inputs, n_workers):
        """Run the workload once; return its wall time to the finished CSV."""
        wl = self.workload
        ops = wl.ops_per_run
        self.attempted += ops
        try:
            t0 = time.perf_counter()
            csv, reports = wl.run(inputs, n_workers)
            seconds = time.perf_counter() - t0
            for r in reports:
                if r.n_paths + r.n_failed != wl.params["n_paths"]:
                    raise RuntimeError(f"row {r.strategy} accounts for the wrong path count")
        except Exception:
            self.failed += ops
            raise
        if self.check(csv, f"{n_workers}-worker run"):
            self.failed += sum(r.n_failed for r in reports)
        else:
            self.failed += ops
        return seconds

    def check(self, csv, what):
        """Gate one run's CSV; True when it passes."""
        if self.first_csv is None:
            self.first_csv = csv
            if self.seed == self.reference_seed:
                with open(self.workload.reference_path(), encoding="utf-8") as fh:
                    self.reference = compare_csv(csv, fh.read())
                self.problems += [f"reference: {p}" for p in self.reference["problems"]]
        elif csv != self.first_csv:
            self.problems.append(f"{what}: CSV differs from the first one-worker run")
            return False
        return not (self.reference and self.reference["problems"])


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def setup_time(workload, seed):
    """(setup, import, build) seconds of one fresh interpreter."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name, str(seed)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    imported, built = (float(x) for x in proc.stdout.split())
    return built - t0, imported - t0, built - imported


def peak_rss_mib():
    """High-water RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(runs, seconds, record):
    wl, seed = runs.workload, runs.seed
    inputs = wl.build(seed)
    record["warmup_s"] = runs.run(inputs, 1)
    times, setups = [], []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < seconds:
        times.append(runs.run(inputs, wl.params["n_workers"]))
        # set-up probes are spread over the window, so both medians see the
        # same machine conditions
        if len(setups) < SETUP_PROBES * (time.perf_counter() - start) / seconds:
            setups.append(setup_time(wl, seed))
    while len(setups) < MIN_REPS:
        setups.append(setup_time(wl, seed))
    record["samples"] = {"wall_s": times, "setup": setups}
    ok = (runs.attempted - runs.failed) / runs.attempted
    return {
        "wall_s": (statistics.median(times), len(times)),
        "peak_rss_mib": (peak_rss_mib(), 1),
        "setup_s": (statistics.median(s[0] for s in setups), len(setups)),
        "ok_frac": (ok, runs.attempted),
    }


def _rows(y):
    """Number of states in a state argument (a single state counts one)."""
    shape = np.shape(y)
    return int(np.prod(shape[:-1])) if len(shape) >= 2 else 1


def _probes(captured):
    def run_strategies(a, result):
        model, config = a["model"], a["config"]
        captured.setdefault("model_config", (model, config))
        outcomes = result[0]
        steps = config.n_paths * config.n_steps
        return {
            "path_steps": steps,
            "normals": steps * model.d // (2 if config.antithetic else 1),
            "trades": int(sum(int(o.n_trades.sum()) for o in outcomes.values())),
        }

    def state_grid(a, result):
        fields = (a["model"], a["horizon"], a["dt"], a["n_paths"], a["y0"], a["seed"])
        key = hashlib.sha256(pickle.dumps(fields)).hexdigest()
        n_steps = len(result[0]) - 1
        return {"state_steps": a["n_paths"] * n_steps, "key": key}

    def states(a, result):
        return {"states": _rows(a["y"])}

    return {
        "simulate.run_strategies": run_strategies,
        "simulate.simulate_state_grid": state_grid,
        "merton.merton_state": states,
        "markets.evaluate_coefficients": states,
    }


def phases(spans_, root_start, root_end):
    """Evaluate phases from span order inside each table cell.

    A cell is a ``run_table_cell`` span, or the whole workload run when
    there is none. ``build`` runs up to the cell's first ``run_strategies``
    call, ``mc`` is the time in ``run_strategies``, ``aggregate`` the time in
    the report and CSV functions, and ``predict`` whatever else the cell
    spends after its last ``run_strategies`` call.
    """
    cells = [(s.start, s.end) for s in spans_ if s.name == "evaluate.run_table_cell"]
    cells = cells or [(root_start, root_end)]
    engine = [s for s in spans_ if s.name == "simulate.run_strategies"]
    aggs = [s for s in spans_ if s.name in AGGREGATE]
    build = mc = predict = 0.0
    for lo, hi in cells:
        inside = [s for s in engine if lo <= s.start and s.end <= hi]
        build += inside[0].start - lo
        mc += sum(s.duration for s in inside)
        tail = inside[-1].end
        predict += hi - tail - sum(s.duration for s in aggs if tail <= s.start and s.end <= hi)
    return {
        "evaluate.build_s": build,
        "evaluate.mc_s": mc,
        "evaluate.predict_s": predict,
        "evaluate.predict_s_per_cell": predict / len(cells),
        "evaluate.aggregate_s": sum(s.duration for s in aggs),
    }


def kind_rate(workload, inputs, model, config, kind):
    """Path-steps per second of one strategy kind run alone with one worker."""
    import workloads
    from rebalfreq import simulate

    if kind == "move" and model.m != 1:
        model = workload.one_asset_model(inputs)
    cfg = dataclasses.replace(config, n_paths=PROBE_PATHS, n_workers=1)
    strategy = workloads.strategy(KINDS[kind], model, cfg)
    t0 = time.perf_counter()
    simulate.run_strategies(model, cfg, [strategy])
    return cfg.n_paths * cfg.n_steps / (time.perf_counter() - t0)


def traced_cycle(runs, inputs):
    wl = runs.workload
    captured = {}
    with spans.Recorder(TRACED, probes=_probes(captured)) as rec:
        root_start = time.perf_counter()
        traced_s = runs.run(inputs, 1)
        root_end = time.perf_counter()
    rs_only = [("rebalfreq.simulate", "run_strategies")]
    with spans.Recorder(rs_only) as serial:
        serial_s = runs.run(inputs, 1)
    with spans.Recorder(rs_only) as parallel:
        runs.run(inputs, wl.params["n_workers"])
    model, config = captured["model_config"]

    table = spans.summarize(rec.spans)

    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    grid = row("simulate.simulate_state_grid")
    keys = {s.attrs["key"] for s in rec.spans if s.name == "simulate.simulate_state_grid"}
    rs = row("simulate.run_strategies")
    counts = {
        "frequency.total_cost.calls": row("frequency.total_cost")["calls"],
        "frequency.constant_rule.calls": row("frequency.constant_rule")["calls"],
        "frequency.rate_parts.calls": row("frequency.rate_parts")["calls"],
        "merton.merton_state.calls": row("merton.merton_state")["calls"],
        "merton.merton_state.states": row("merton.merton_state").get("states", 0),
        "markets.evaluate_coefficients.calls": row("markets.evaluate_coefficients")["calls"],
        "markets.evaluate_coefficients.states": row("markets.evaluate_coefficients").get("states", 0),
        "simulate.state_grid.calls": grid["calls"],
        "simulate.state_grid.unique": len(keys),
        "simulate.state_grid.state_steps": grid.get("state_steps", 0),
        "simulate.run_strategies.calls": rs["calls"],
        "simulate.run_strategies.path_steps": rs["path_steps"],
        "simulate.trades": rs["trades"],
        "simulate.rng.normals": rs["normals"],
    }
    times = {
        **phases(rec.spans, root_start, root_end),
        "frequency.total_cost.s": row("frequency.total_cost")["s"],
        "frequency.constant_rule.s": row("frequency.constant_rule")["s"],
        "frequency.rate_parts.self_s": row("frequency.rate_parts")["self_s"],
        "merton.merton_state.self_s": row("merton.merton_state")["self_s"],
        "markets.evaluate_coefficients.self_s": row("markets.evaluate_coefficients")["self_s"],
        "simulate.state_grid.s": grid["s"],
        "simulate.run_strategies.s": rs["s"],
        "simulate.run_strategies.path_steps_per_s": rs["path_steps"] / rs["s"],
        "simulate.run_strategies.speedup": (
            sum(s.duration for s in serial.spans) / sum(s.duration for s in parallel.spans)
        ),
        "workload.serial_wall_s": serial_s,
        "workload.trace_overhead_frac": traced_s / serial_s - 1.0,
    }
    for kind in KINDS:
        times[f"simulate.{kind}.path_steps_per_s"] = kind_rate(wl, inputs, model, config, kind)
    return {"counts": counts, "times": times, "spans": rec.spans}


def per_layer(runs, seconds, record):
    wl, seed = runs.workload, runs.seed
    inputs = wl.build(seed)
    record["warmup_s"] = runs.run(inputs, 1)
    cycles, setups = [], []
    deadline = time.perf_counter() + seconds
    while len(cycles) < MIN_CYCLES or time.perf_counter() < deadline:
        cycles.append(traced_cycle(runs, inputs))
        setups.append(setup_time(wl, seed))
    first = cycles[0]["counts"]
    for i, c in enumerate(cycles[1:], start=2):
        if c["counts"] != first:
            diff = sorted(k for k in first if first[k] != c["counts"][k])
            runs.problems.append(f"traced cycle {i}: counts differ from cycle 1: {diff}")
    n = len(cycles)
    out = {k: (v, n) for k, v in first.items()}
    calls = first["simulate.state_grid.calls"]
    # with no grid built, nothing is rebuilt
    out["simulate.state_grid.reuse"] = (
        first["simulate.state_grid.unique"] / calls if calls else 1.0, n
    )
    for key in cycles[0]["times"]:
        out[key] = (statistics.median(c["times"][key] for c in cycles), n)
    out["config.import_s"] = (statistics.median(s[1] for s in setups), n)
    out["config.build_s"] = (statistics.median(s[2] for s in setups), n)
    record["samples"] = {
        "cycles": [{"counts": c["counts"], "times": c["times"]} for c in cycles],
        "setup": setups,
    }
    record["spans"] = [s.as_dict() for s in cycles[-1]["spans"]]
    return out


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def git_sha():
    """Commit of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of every file under ``src/``, so runs of one source tree match."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(workload, why, args):
    return {
        "workload": workload.name,
        "why": why,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def bench_one(args):
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[wl.name]
    runs = WorkloadRuns(wl, args.seed, workloads.REFERENCE_SEED)
    record = {"provenance": provenance(wl, why, args)}
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {why}", flush=True)
    measured = {}
    try:
        measure = per_layer if args.trace else end_to_end
        measured = measure(runs, args.seconds, record)
        if set(measured) != set(units):
            raise RuntimeError(
                f"metrics differ from BENCHMARK.json: {sorted(set(measured) ^ set(units))}"
            )
    except Exception:
        traceback.print_exc()
        runs.problems.append("a run raised: " + traceback.format_exc().splitlines()[-1])
        measured = {}
    correct = not runs.problems
    if runs.reference is not None:
        ref = runs.reference
        print(
            f"# reference {os.path.relpath(wl.reference_path(), ROOT)}: "
            f"byte-identical={ref['byte_identical']} max_rel_diff={ref['max_rel_diff']:.3g}"
        )
    for p in runs.problems:
        print(f"# GATE FAILED: {p}")
    for name in sorted(measured):
        value, samples = measured[name]
        print(f"{name:44s} {value:>16.6g} {units[name]:9s} n={samples}")
    result = {
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in sorted(measured.items())
        },
    }
    record.update(result=result, gate={"reference": runs.reference,
                                       "problems": runs.problems})
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def bench_all(args):
    """Run every workload in its own process, strictly one after another."""
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def write_reference(args):
    """Store the one-worker CSV of the workload(s) at the reference seed."""
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        wl = workloads.WORKLOADS[name]
        csv, _ = wl.run(wl.build(workloads.REFERENCE_SEED), 1)
        with open(wl.reference_path(), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv)
        print(f"wrote {os.path.relpath(wl.reference_path(), ROOT)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the workload's CSV at the reference seed and exit")
    args = parser.parse_args(argv)

    if import_package() is None:
        print(f"rebalfreq sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.write_reference:
        return write_reference(args)
    if args.workload == "all":
        return bench_all(args)
    return bench_one(args)


if __name__ == "__main__":
    sys.exit(main())
