"""Spans and counters recorded around calls into the ``repro`` layers.

The traced run wraps public functions of each layer from the benchmark's
own code: nothing under ``src/`` knows it is being traced.  A span
records ``(id, parent, op, name, start, end)``.  The parent is the span
open in the caller's context (a ``contextvars`` variable, so asyncio
tasks and executor threads each see their own), and ``op`` identifies
the benchmark operation (one discovery, one revision cycle, one served
request) the span belongs to.  Spans stay in memory until the benchmark
writes them out at the end of the run.

A layer's self time is the time its spans cover minus the time their
child spans cover.  ``TableBuilder.add_sample`` runs thousands of times
per streamed batch, so it is *aggregated*: each call adds its duration
to its parent span's tally, but leaves no span record of its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

_clock = time.perf_counter
_FAILED = object()  # result placeholder when the wrapped call raised


def layer_of(name: str) -> str:
    """Span name ``"maxent.fit_ipf"`` -> layer ``"maxent"``."""
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        # parent span id -> aggregated leaf name -> [calls, seconds]
        self.aggregated: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._op = contextvars.ContextVar("perfbench_op", default=None)
        self.paused = False
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def set_op(self, op) -> None:
        """Tag spans opened from this context onwards with ``op``."""
        self._op.set(op)

    def _open(self):
        parent = self._current.get()
        span_id = next(self._ids)
        return span_id, parent, self._current.set(span_id), _clock()

    def _close(self, name, state) -> None:
        end = _clock()
        span_id, parent, token, start = state
        self._current.reset(token)
        self.spans.append((span_id, parent, self._op.get(), name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` block."""
        state = self._open()
        try:
            yield
        finally:
            self._close(name, state)

    def wrap(
        self, owner, attribute: str, name: str, count=None, before=None
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``before(args)`` runs before the span opens; its result reaches
        ``count(counts, result, args, before_result)``, which runs after
        the call to record per-boundary counts into :attr:`counts`.
        """
        original = getattr(owner, attribute)
        tracer = self

        def finish(state, result, args, prepared) -> None:
            tracer._close(name, state)
            if count is not None and result is not _FAILED:
                with tracer._lock:
                    count(tracer.counts, result, args, prepared)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if tracer.paused:
                    return await original(*args, **kwargs)
                prepared = before(args) if before is not None else None
                state = tracer._open()
                result = _FAILED
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    finish(state, result, args, prepared)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return original(*args, **kwargs)
                prepared = before(args) if before is not None else None
                state = tracer._open()
                result = _FAILED
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    finish(state, result, args, prepared)

        setattr(owner, attribute, wrapper)

    def wrap_aggregated(self, owner, attribute: str, name: str) -> None:
        """Like :meth:`wrap`, for hot leaf calls: tallies, no span records."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            start = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                with tracer._lock:
                    tally = tracer.aggregated[tracer._current.get()][name]
                    tally[0] += 1
                    tally[1] += elapsed

        setattr(owner, attribute, wrapper)

    # -- export ----------------------------------------------------------------

    def export(self) -> dict:
        """Plain, picklable copy of everything recorded."""
        return {
            "spans": list(self.spans),
            "counts": dict(self.counts),
            "aggregated": {
                parent: {name: list(tally) for name, tally in leaves.items()}
                for parent, leaves in self.aggregated.items()
            },
        }

    @classmethod
    def from_export(cls, data: dict) -> "Tracer":
        """A tracer holding an exported recording, for analysis."""
        tracer = cls()
        tracer.spans = list(data["spans"])
        tracer.counts.update(data["counts"])
        for parent, leaves in data["aggregated"].items():
            for name, tally in leaves.items():
                tracer.aggregated[parent][name] = list(tally)
        return tracer

    # -- analysis ------------------------------------------------------------

    def layer_self_by_op(self) -> dict:
        """op -> layer -> self seconds, aggregated leaves included."""
        by_id = {span[0]: span for span in self.spans}
        selfs = {span_id: span[5] - span[4] for span_id, span in by_id.items()}
        for _, parent, _, _, start, end in self.spans:
            if parent in selfs:
                selfs[parent] -= end - start
        for parent, leaves in self.aggregated.items():
            if parent in selfs:
                selfs[parent] -= sum(seconds for _, seconds in leaves.values())
        by_op: dict = defaultdict(Counter)
        for span_id, span in by_id.items():
            by_op[span[2]][layer_of(span[3])] += selfs[span_id]
        for parent, leaves in self.aggregated.items():
            if parent in by_id:
                for name, (_, seconds) in leaves.items():
                    by_op[by_id[parent][2]][layer_of(name)] += seconds
        return by_op

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, seconds) of every span or aggregated leaf called ``name``."""
        calls = 0
        seconds = 0.0
        for span in self.spans:
            if span[3] == name:
                calls += 1
                seconds += span[5] - span[4]
        for leaves in self.aggregated.values():
            if name in leaves:
                calls += leaves[name][0]
                seconds += leaves[name][1]
        return calls, seconds

