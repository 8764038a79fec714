"""In-memory call spans for the traced run, and the arithmetic over them.

A span is (name, start, end, parent). The tracer keeps spans in flat arrays
while the workload runs and writes them out once at the end; the parent
process reads them back and derives self times and per-command attribution.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np


class Spans(NamedTuple):
    names: list[str]
    name: np.ndarray  # index into names, per span
    parent: np.ndarray  # index of the enclosing span, -1 for a root
    start: np.ndarray  # perf_counter seconds
    end: np.ndarray


class Tracer:
    """Records one span per call of each wrapped function.

    Single-threaded by design: the open-span stack is shared by every wrapper,
    so a span's parent is whichever wrapped call was open when it started.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(args, result) runs outside it."""

        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets, hooks=None):
        """Replace each (namespace, attribute, span name) target by its traced
        wrapper for the duration of the block, then restore the originals.
        Targets whose attribute does not exist are skipped and yielded."""
        hooks = hooks or {}
        replaced, missing = [], []
        try:
            for namespace, attr, name in targets:
                original = getattr(namespace, attr, None)
                if original is None:
                    missing.append(f"{namespace.__name__}.{attr}")
                    continue
                setattr(namespace, attr, self.wrap(name, original, hooks.get(name)))
                replaced.append((namespace, attr, original))
            yield missing
        finally:
            for namespace, attr, original in reversed(replaced):
                setattr(namespace, attr, original)

    def spans(self) -> Spans:
        return Spans(
            list(self.names),
            np.frombuffer(self._name, dtype=np.int32).copy(),
            np.frombuffer(self._parent, dtype=np.int32).copy(),
            np.frombuffer(self._start, dtype=np.float64).copy(),
            np.frombuffer(self._end, dtype=np.float64).copy(),
        )

    def save(self, path) -> None:
        s = self.spans()
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(s.names, dtype=str), name=s.name,
                     parent=s.parent, start=s.start, end=s.end)


def load(path) -> Spans:
    with np.load(path) as f:
        return Spans([str(n) for n in f["names"]], f["name"], f["parent"], f["start"], f["end"])


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap in a single-threaded trace, so the
    time they cover is the sum of their durations.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def root_of(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root)."""
    root = np.arange(len(parent))
    up = parent.astype(np.int64)
    while True:
        open_ = up >= 0
        if not open_.any():
            return root
        root[open_] = up[open_]
        up[open_] = parent[up[open_]]
