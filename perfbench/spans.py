"""In-memory span tracing around calls into a program's modules.

A :class:`Tracer` replaces named module attributes with timing wrappers for
the duration of a ``with`` block and puts every original back on exit, even
when the block raises.  Each call becomes one span
``[id, parent, trial, name, start, end, error]``: ``parent`` is the id of the
enclosing span (-1 at the root), ``trial`` is the id of the enclosing span
named :data:`TRIAL_SPAN` (-1 outside one), so every span of one Monte Carlo
trial shares it, and ``error`` is 1 when the call raised.

:func:`summarize` reduces a span list to per-name busy time, self time (busy
time minus the part covered by child spans), call and error counts.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

ID, PARENT, TRIAL, NAME, START, END, ERROR = range(7)
TRIAL_SPAN = "harness.run_trial"


class Tracer:
    """Wrap ``module.attr`` callables and record one span per call.

    ``targets`` maps a layer name to ``(module, [attribute names])``; the span
    name is ``"<layer>.<attribute>"``.  Attributes the module lacks are
    skipped, so the tracer keeps working when a function is removed.
    ``observers`` maps a span name to ``fn(counters, result)``, called after
    each successful call to record counts taken from the result.
    """

    def __init__(self, targets, observers=None):
        self.targets = targets
        self.observers = observers or {}
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._trial = -1
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for layer, (module, names) in self.targets.items():
            for attr in names:
                fn = getattr(module, attr, None)
                if callable(fn):
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observer = self.observers.get(name)
        is_trial = name == TRIAL_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            outer_trial = self._trial
            if is_trial:
                self._trial = sid
            span = [sid, stack[-1] if stack else -1, self._trial, name, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(sid)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = 1
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                self._trial = outer_trial
            if observer is not None:
                observer(self.counters, result)
            return result

        return wrapper


def summarize(spans) -> dict[str, dict]:
    """Per span name: busy ``s``, ``self_s``, ``calls``, ``errors`` and the
    list of call ``durations`` in seconds."""
    covered = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    stats: dict[str, dict] = {}
    for span in spans:
        dur = span[END] - span[START]
        entry = stats.setdefault(
            span[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0, "durations": []}
        )
        entry["s"] += dur
        entry["self_s"] += dur - covered[span[ID]]
        entry["calls"] += 1
        entry["errors"] += span[ERROR]
        entry["durations"].append(dur)
    return stats


def root_seconds(spans) -> float:
    """Total duration of the root spans (those without a parent)."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
