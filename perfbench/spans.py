"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps named functions of a package from the outside, so the
package itself carries no tracing code. A function imported with ``from .x
import f`` is a separate binding in every importing module, so each target
is replaced at every module of the package that binds the same object;
imports done inside a function body (``from .simulate import
simulate_state_grid``) read the module attribute at call time and see the
wrapper too. Spans are kept in memory and the original bindings are put
back when the recorder is closed.

Spans nest by call order in one thread: a span's parent is the innermost
wrapped call still open when it starts. The traced run is therefore made
with one worker process, so that no span is recorded in another process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Span:
    """One call of a wrapped function: name, interval, parent and counts."""

    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id, name, start, end=None, parent=None, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
        }


class Recorder:
    """Wrap ``(module, function)`` targets for the life of a ``with`` block.

    ``probes`` maps a span name to ``probe(arguments, result) -> dict``; the
    dict of counts it returns is stored on the span. ``arguments`` holds the
    call's arguments by parameter name, defaults applied. Span names are
    ``<last module component>.<function>``, e.g. ``merton.merton_state``.
    """

    def __init__(self, targets, package="rebalfreq", probes=None):
        self.targets = list(targets)
        self.package = package
        self.probes = dict(probes or {})
        self.spans = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == self.package or name.startswith(self.package + "."))
        ]
        try:
            for module_name, attr in self.targets:
                original = getattr(sys.modules[module_name], attr)
                name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
                wrapper = self._wrap(name, original)
                for mod in modules:
                    if vars(mod).get(attr) is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, name, fn):
        probe = self.probes.get(name)
        signature = inspect.signature(fn) if probe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, 0.0, parent=stack[-1].id if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = probe(bound.arguments, result)
            return result

        return wrapper


def covered_length(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id to its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - covered_length(clipped)
    return out


def summarize(spans):
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` and summed counts."""
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += own[s.id]
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[key] = row.get(key, 0) + value
    return table
