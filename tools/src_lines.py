"""Count the lines of ``src/rebalfreq/*.py``, split into code, docstring, blank and comment.

Run from anywhere::

    python3 tools/src_lines.py            # this checkout
    python3 tools/src_lines.py ../parent  # another checkout's src/rebalfreq

A docstring line is a line of the first string statement of a module, class or
function; a comment line starts with ``#`` once stripped; a blank line is empty
once stripped; every other line is code. A line of a docstring counts as a
docstring line even when it is blank. Prints one row per module and the total.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("code", "docstring", "blank", "comment")


def docstring_lines(tree):
    """The line numbers of the docstrings of a module and of its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(source):
    """``{kind: lines}`` of one module's source."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=ROOT, help="checkout holding src/rebalfreq")
    args = parser.parse_args(argv)
    paths = sorted(glob.glob(os.path.join(args.root, "src", "rebalfreq", "*.py")))
    if not paths:
        raise SystemExit(f"no src/rebalfreq/*.py under {args.root}")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<14}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts = split(fh.read())
        for k in KINDS:
            total[k] += counts[k]
        name = os.path.basename(path)[:-3]
        print(f"{name:<14}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<14}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main()
