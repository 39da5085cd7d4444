"""Wall-clock spans recorded from outside the program.

The traced run replaces chosen functions and methods with wrappers that
open a span on entry and close it on exit.  Spans live in compact arrays
in memory (name, start, end, parent) and are written out once the run
ends.  Because the program is single-threaded and every wrapper closes
its span in ``finally``, spans nest like the call stack; a layer's self
time is its span time minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import math
from array import array
from time import perf_counter
from typing import Callable, Optional

import numpy as np


class SpanRecorder:
    """Append-only span store with an explicit open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Open a span of name id ``nid`` under the innermost open span."""
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays (plus the name table), for analysis and
        for writing out."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "names": np.asarray(self.names)}


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once (their union), so the result holds for
    spans that overlap as well as for strictly nested ones.
    """
    duration = end - start
    child = np.flatnonzero(parent >= 0)
    if not len(child):
        return duration.copy()
    par = parent[child]
    c_start = np.maximum(start[child], start[par])
    c_end = np.minimum(end[child], end[par])
    order = np.lexsort((c_start, par))
    par, c_start, c_end = par[order], c_start[order], c_end[order]
    c_end = np.maximum(c_end, c_start)
    covered = np.zeros_like(duration)
    same = par[1:] == par[:-1]
    if not np.any(same & (c_start[1:] < c_end[:-1])):
        # Siblings are disjoint (the call-stack case): coverage is the
        # sum of clipped child durations.
        np.add.at(covered, par, c_end - c_start)
    else:
        _union_cover(par, c_start, c_end, covered)
    return duration - covered


def _union_cover(par, c_start, c_end, covered) -> None:
    """Union length of each parent's (sorted) child intervals."""
    current = -1
    run_start = run_end = 0.0
    for p, s, e in zip(par.tolist(), c_start.tolist(), c_end.tolist()):
        if p != current:
            if current >= 0:
                covered[current] += run_end - run_start
            current, run_start, run_end = p, s, e
        elif s > run_end:
            covered[current] += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    covered[current] += run_end - run_start


def timed(recorder: SpanRecorder, name: str, fn: Callable,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span named ``name``.

    ``before(args, kwargs)`` runs ahead of the span and its return value
    is handed to ``after(args, kwargs, result, token)``, which runs once
    the span closed; hooks count work without being timed as the layer.
    """
    nid = recorder.name_index(name)
    open_span, close_span = recorder.open, recorder.close
    if before is None and after is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)
        return wrapper

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        token = before(args, kwargs) if before is not None else None
        index = open_span(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(index)
        if after is not None:
            after(args, kwargs, result, token)
        return result
    return hooked


class _TimedContext:
    """Context manager whose enter and exit are each timed as a span."""

    __slots__ = ("_recorder", "_nid", "_factory", "_args", "_kwargs",
                 "_inner")

    def __init__(self, recorder, nid, factory, args, kwargs) -> None:
        self._recorder = recorder
        self._nid = nid
        self._factory = factory
        self._args = args
        self._kwargs = kwargs
        self._inner = None

    def __enter__(self):
        index = self._recorder.open(self._nid)
        try:
            self._inner = self._factory(*self._args, **self._kwargs)
            return self._inner.__enter__()
        finally:
            self._recorder.close(index)

    def __exit__(self, *exc):
        index = self._recorder.open(self._nid)
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._recorder.close(index)


def timed_context(recorder: SpanRecorder, name: str,
                  factory: Callable) -> Callable:
    """A context-manager factory whose enter/exit are timed as ``name``;
    the body of the ``with`` block is not part of the span."""
    nid = recorder.name_index(name)

    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        return _TimedContext(recorder, nid, factory, args, kwargs)
    return wrapper


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    _ABSENT = object()

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        own = vars(owner).get(attr, self._ABSENT)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is self._ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
