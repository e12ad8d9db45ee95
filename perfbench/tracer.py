"""In-memory span tracing around mrpdiff's public functions.

A ``Tracer`` records one span per wrapped call: name, start, end, parent
span and the operation id (answer or optimizer step) current at the call.
``patched`` swaps each function for a tracing wrapper at the place where its
caller looks it up (``training.backward`` and ``mrp.transformer_layer`` are
imported by name, so those names are patched in the importing module) and
puts every original back on exit, also when the traced code raises.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Spans kept in flat typed arrays, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self.mask_keys: set = set()

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())  # last, so bookkeeping stays outside
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write every span and the name table as one ``.npz`` file."""
        np.savez(path, names=np.asarray(self.names, dtype=str), **self.arrays())


def span_totals(name, start, end, parent, n_names: int):
    """Per-name (calls, inclusive seconds, self seconds) and root coverage.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap. The sum
    of all self times equals the summed duration of the root spans, which
    is returned as the fourth value.
    """
    name = np.asarray(name, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    calls = np.bincount(name, minlength=n_names)
    incl = np.bincount(name, weights=dur, minlength=n_names)
    self_t = np.bincount(name, weights=dur - child, minlength=n_names)
    return calls, incl, self_t, float(dur[~has_parent].sum())


def _wrap(tracer: Tracer, span: str, fn, hook=None):
    nid = tracer.name_id(span)
    begin, finish = tracer.begin, tracer.finish

    def traced(*args, **kwargs):
        idx = begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(idx)
        if hook is not None:
            hook(tracer, idx, args, out)
        return out

    traced.__wrapped__ = fn
    return traced


@contextlib.contextmanager
def patched(tracer: Tracer, sites):
    """Install tracing wrappers for ``sites`` and restore the originals.

    Each site is ``(owner, attribute, span_name, hook)``; ``owner`` is a
    module or class, and ``hook(tracer, span_index, args, result)`` (or None)
    runs after the call. ``span_name`` None installs only the hook, with no
    span, for functions too hot to time one by one.
    """
    saved = []
    try:
        for owner, attr, span, hook in sites:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if span is None:
                setattr(owner, attr, _hook_only(tracer, original, hook))
            else:
                setattr(owner, attr, _wrap(tracer, span, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _hook_only(tracer: Tracer, fn, hook):
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook(tracer, -1, args, out)
        return out

    counted.__wrapped__ = fn
    return counted
