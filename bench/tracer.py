"""In-memory span tracer that wraps catsim functions from the outside.

``Tracer.patch`` replaces a function in every loaded catsim module that
binds it (``catsim.hilbert.fidelity`` and ``catsim.catfit.fidelity`` are
the same object under two names), so a call is seen however its caller
looks the function up.  Each call records a span: name, parent span,
start and end.  A span's self time is its duration minus the time its
child spans cover.  ``unpatch`` restores every original binding.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list = []
        self.clear()

    def clear(self):
        """Drop recorded spans and counts; keep the installed patches."""
        self._name = array("i")
        self._parent = array("i")
        self._outer = array("b")  # no enclosing span of the same name
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._t1)
        depth = self._depth.get(nid, 0)
        self._depth[nid] = depth + 1
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._outer.append(depth == 0)
        self._t1.append(0.0)
        self._stack.append(idx)
        self._t0.append(perf_counter())
        return idx

    def _close(self, idx: int, nid: int):
        self._t1[idx] = perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    @contextmanager
    def span(self, name: str):
        nid = self._id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    def count(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, func, name, on_result=None):
        """Wrapper recording one span per call of ``func``.

        ``name`` is a span name or a callable of the call's positional
        arguments returning one; ``on_result(tracer, result, name, args)``
        runs after the span closes.
        """
        fixed = None if callable(name) else name

        def wrapper(*args, **kwargs):
            span_name = fixed if fixed is not None else name(args)
            nid = self._id(span_name)
            idx = self._open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if on_result is not None:
                on_result(self, result, span_name, args)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, on_result=None):
        """Wrap ``owner.attr``; for a module, also every catsim binding of it."""
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, on_result)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [mod for key, mod in list(sys.modules.items())
                       if mod is not None and key.split(".")[0] == "catsim"]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._patches.append((target, key, original))

    def unpatch(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls and seconds of the outermost spans, and the
        self seconds of all its spans."""
        n = len(self._t1)
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        outer = np.asarray(self._outer, dtype=bool)
        dur = np.asarray(self._t1) - np.asarray(self._t0)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_s = dur - child
        out = {}
        for nid, span_name in enumerate(self.names):
            sel = name == nid
            top = sel & outer
            out[span_name] = {"calls": int(top.sum()), "s": float(dur[top].sum()),
                              "self_s": float(self_s[sel].sum())}
        return out
