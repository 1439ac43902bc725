"""In-memory spans recorded from outside the program under test.

The benchmark never edits the library.  To see one layer it replaces the
layer's public function *in the namespace of the module that calls it*
(``repro.sta.interconnect.route_net``, ``repro.sta.timing.elaborate_net``,
...) with a wrapper that records a span around the original call, and
puts the original back afterwards.  Spans are plain tuples
``(id, parent, name, start, end, thread)`` kept in a list and written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float, int]


class Recorder:
    """Collects spans; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._next_id = 1

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end",
                                  "thread"],
                       "spans": self.spans}, fh)


class _SpanContext:
    __slots__ = ("rec", "name", "sid", "parent", "start")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_SpanContext":
        rec = self.rec
        stack = rec._stack()
        self.parent = stack[-1] if stack else 0
        self.sid = rec._next_id
        rec._next_id += 1
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        self.rec._stack().pop()
        self.rec.spans.append((self.sid, self.parent, self.name,
                               self.start, end, threading.get_ident()))
        return False


class Patch:
    """Wrap ``module.attr`` in spans while the patch is installed.

    ``observe(rec, args, kwargs, result)`` may add counts after each call.
    """

    def __init__(self, target: str, span: str,
                 observe: Optional[Callable] = None) -> None:
        self.module_name, _, self.attr = target.rpartition(".")
        self.span = span
        self.observe = observe
        self.original = None

    def install(self, rec: Recorder) -> None:
        module = importlib.import_module(self.module_name)
        original = self.original = getattr(module, self.attr)
        name, observe = self.span, self.observe

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        setattr(module, self.attr, wrapper)

    def remove(self) -> None:
        module = importlib.import_module(self.module_name)
        setattr(module, self.attr, self.original)


class Traced:
    """Context manager: install every patch, remove them on exit."""

    def __init__(self, rec: Recorder, patches: Sequence[Patch]) -> None:
        self.rec = rec
        self.patches = list(patches)

    def __enter__(self) -> Recorder:
        for patch in self.patches:
            patch.install(self.rec)
        return self.rec

    def __exit__(self, *exc) -> bool:
        for patch in reversed(self.patches):
            patch.remove()
        return False


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def layer_totals(spans: Sequence[Span], root: int) -> Dict[str, Dict]:
    """Per span name under ``root`` (inclusive): total and self seconds.

    A span's self time is its duration minus the part of its interval its
    direct children cover.
    """
    children: Dict[int, List[Span]] = {}
    by_id = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
        by_id[span[0]] = span
    out: Dict[str, Dict] = {}
    pending = [by_id[root]]
    while pending:
        span = pending.pop()
        kids = children.get(span[0], [])
        pending.extend(kids)
        covered = _union_length([(k[3], k[4]) for k in kids])
        entry = out.setdefault(span[2], {"total": 0.0, "self": 0.0})
        entry["total"] += span[4] - span[3]
        entry["self"] += (span[4] - span[3]) - covered
    return out
