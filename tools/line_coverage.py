"""Run pytest under a line tracer and print the lines of ``src/rebalfreq`` that never ran.

Run from the repository root; every argument goes to pytest as is::

    python3 tools/line_coverage.py                 # the whole suite, as Tier-1 runs it
    python3 tools/line_coverage.py tests/test_cli.py -q

The tracer is the standard library's ``sys.settrace`` (no coverage package is needed), set
before the package is imported and limited to the files under ``src/rebalfreq``. Forked pool
workers inherit it and write the lines they ran at ``os._exit``; the calling process adds them
to its own. A module's executable lines are the line numbers of its compiled code objects,
a function's ``def`` line included. For each module with lines that never ran the script
prints ``module: line ranges (count)``, then the total, and exits with pytest's exit code.
On 2 cores with Python 3.11.7 the whole suite took 115 s traced against 69 s untraced.
"""

from __future__ import annotations

import glob
import os
import pickle
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "rebalfreq")


def executable_lines(path):
    """The line numbers of every code object compiled from the module at ``path``."""
    with open(path, encoding="utf-8") as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines):
    """``"3-5, 9"`` for the line numbers ``lines``, in order."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def main(argv):
    ran, traced = set(), {}  # (path, line) that ran; file name -> its path, or None if untraced

    def local(frame, event, arg):
        if event == "line":
            ran.add((traced[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            path = os.path.abspath(name)
            traced[name] = path if path.startswith(PACKAGE + os.sep) else None
        if traced[name] is None:
            return None
        ran.add((traced[name], frame.f_code.co_firstlineno))
        return local

    out_dir, real_exit = tempfile.mkdtemp(prefix="line_coverage_"), os._exit

    def exit_with_lines(code):  # a forked worker's last step
        with open(os.path.join(out_dir, f"{os.getpid()}.pickle"), "wb") as fh:
            pickle.dump(ran, fh)
        real_exit(code)

    os._exit = exit_with_lines
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = real_exit
    for path in glob.glob(os.path.join(out_dir, "*.pickle")):
        with open(path, "rb") as fh:
            ran.update(pickle.load(fh))
        os.remove(path)
    os.rmdir(out_dir)
    total = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        missed = {line for line in executable_lines(path) if (path, line) not in ran}
        total += len(missed)
        if missed:
            print(f"{os.path.basename(path)}: {ranges(missed)} ({len(missed)})")
    print(f"total: {total} executable lines never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
