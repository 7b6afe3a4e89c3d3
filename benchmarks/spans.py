"""Span records and call hooks for the benchmark's traced run.

A span is one timed call: its name, start and end (``time.perf_counter``
seconds), the index of the enclosing span in the same trace, and the id of
the run that recorded it. Spans are kept in memory and written out once the
run ends. A hook replaces a function at the place the program looks it up
(``snapflow.evalkit.ot_distance``, not ``snapflow.otcore.ot_distance``,
because evalkit imports the name), so a call made anywhere through that
name opens a span. A hook whose target no longer exists is recorded as
absent rather than raising.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: str = ""
    child_s: float = 0.0              # time covered by direct child spans
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_seconds(self):
        return self.seconds - self.child_s

    def record(self):
        rec = {"name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "run_id": self.run_id}
        if self.attrs:
            rec["attrs"] = self.attrs
        return rec


class Tracer:
    """In-memory span recorder; single-threaded, so spans nest as a stack."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self.absent = {}          # hook target -> reason
        self._open = []           # indices of spans not yet closed
        self._patched = []        # (module, attr, original)

    def open(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               run_id=self.run_id))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.seconds

    def inside(self, name):
        """True when an open span of this name encloses the current point."""
        return any(self.spans[i].name == name for i in self._open)

    @contextmanager
    def span(self, name):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    def hook(self, module, attr, name, before=None, after=None):
        """Wrap ``module.attr`` so each call records a span called ``name``.

        ``before(span, args, kwargs)`` runs before the call and
        ``after(span, args, kwargs, result)`` after it; either may rename
        the span or add attrs.
        """
        fn = self._original(module, attr)
        if fn is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            sp = tracer.open(name)
            if before is not None:
                before(sp, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            if after is not None:
                after(sp, args, kwargs, result)
            return result

        self._patch(module, attr, fn, wrapper)

    def hook_count(self, module, attr, counter):
        """Wrap ``module.attr`` to count calls only (no span)."""
        fn = self._original(module, attr)
        if fn is None:
            return
        counters = self.counters
        counters.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, fn, wrapper)

    def _original(self, module, attr):
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent[f"{module.__name__}.{attr}"] = "not found"
            return None
        return fn

    def _patch(self, module, attr, fn, wrapper):
        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def unhook(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def summary(self):
        """Per span name: calls, busy seconds, self seconds, p50 ms."""
        by_name = {}
        for sp in self.spans:
            by_name.setdefault(sp.name, []).append(sp)
        out = {}
        for name, spans in sorted(by_name.items()):
            out[name] = {
                "calls": len(spans),
                "busy_s": sum(s.seconds for s in spans),
                "self_s": sum(s.self_seconds for s in spans),
                "ms_p50": 1e3 * statistics.median(s.seconds for s in spans),
                "self_ms_p50": 1e3 * statistics.median(s.self_seconds for s in spans),
            }
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.record(), sort_keys=True) + "\n")

