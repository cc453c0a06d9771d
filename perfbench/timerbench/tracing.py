"""Per-layer spans, recorded from outside the program.

A :class:`LayerProxy` sits between two layers of a stack and forwards
everything to the object it wraps. Only the timer routines (start, stop,
update, and the clock-advance family) are timed; every other attribute,
``hasattr`` probe and assignment passes through unchanged, so a layer
that inspects what it wraps (``DurableScheduler`` looks for
``set_ledger``, ``recover()`` for ``adopt_timer``) behaves exactly as it
does without the proxy. :func:`trace_backend` wraps a shard backend
object's protocol methods the same way.

Spans nest through one stack: a span's *self time* is its duration minus
the time its child spans cover. Aggregates are kept for every span;
individual spans are kept in memory (up to a cap) and written out when
the run ends, never during it.
"""

from __future__ import annotations

import inspect
import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Routine name -> the op it is counted as.
ROUTINES: Dict[str, str] = {
    "start_timer": "start",
    "start_many": "start",
    "restart_timer": "start",
    "stop_timer": "stop",
    "stop_many": "stop",
    "update_timer": "update",
    "update_many": "update",
    "advance_to": "advance",
    "advance": "advance",
    "tick": "advance",
    "sync_clock": "advance",
    "run_until_idle": "advance",
    "advance_clock": "advance",
}

#: Shard-level methods whose batches count as a clock advance.
_ADVANCE_CALLS = frozenset({"advance_to", "advance", "tick", "sync_clock", "run_until_idle"})

BACKEND = "sharding.backends"


class Tracer:
    """Span stack plus per-span-name aggregates.

    ``enabled`` gates recording so set-up and recovery stay out of the
    per-layer figures. Spans are tuples ``(span, name, start, end,
    parent, op)``; ``op`` is the id of the outermost (client) span, which
    every span of one client call shares.
    """

    def __init__(self, keep_spans: int = 50_000) -> None:
        self.enabled = False
        self.keep_spans = keep_spans
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: shard submissions made by outermost backend calls.
        self.crossings = 0
        #: outermost (client) spans.
        self.client_calls = 0
        self._stack: List[list] = []
        self._span = 0
        self._op = 0

    # ------------------------------------------------------------ recording

    def enter(self, name: str) -> None:
        self._span += 1
        stack = self._stack
        if stack:
            parent = stack[-1][3]
        else:
            parent = 0
            self._op += 1
            self.client_calls += 1
        stack.append([name, perf_counter(), 0.0, self._span, parent])

    def exit(self) -> None:
        end = perf_counter()
        stack = self._stack
        name, start, child, span, parent = stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if stack:
            stack[-1][2] += duration
        if len(self.spans) < self.keep_spans:
            self.spans.append((span, name, start, end, parent, self._op))

    def in_backend(self) -> bool:
        return bool(self._stack) and self._stack[-1][0].startswith(BACKEND)

    def wrap(self, name: str, fn):
        """A sync or async wrapper recording one span per call of ``fn``."""
        tracer = self
        if inspect.iscoroutinefunction(fn):

            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                tracer.enter(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.exit()

            return traced_async

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    # ------------------------------------------------------------ reading

    def self_us(self, name: str) -> float:
        """Mean self time per call in microseconds (0 when never called)."""
        calls = self.calls.get(name, 0)
        return self.self_s.get(name, 0.0) / calls * 1e6 if calls else 0.0

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as out:
            for span, name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {
                            "span": span,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                )
                out.write("\n")
        return len(self.spans)


class LayerProxy:
    """Pass-through stand-in for one layer object, timing its routines."""

    def __init__(self, target, tracer: Tracer, layer: str) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_layer", layer)
        for method, op in ROUTINES.items():
            bound = getattr(target, method, None)
            if callable(bound):
                object.__setattr__(
                    self, method, tracer.wrap(f"{layer}.{op}", bound)
                )

    def __getattr__(self, name: str):
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name: str, value) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)

    def __delattr__(self, name: str) -> None:
        delattr(object.__getattribute__(self, "_target"), name)

    def __repr__(self) -> str:
        return f"LayerProxy({self._layer!r}, {self._target!r})"


def layer(target, tracer: Optional[Tracer], name: str):
    """``target`` behind a :class:`LayerProxy`, or itself when untraced."""
    return target if tracer is None else LayerProxy(target, tracer, name)


def _is_advance_batch(ops) -> bool:
    return any(
        op[0] == "call" and op[1] in _ADVANCE_CALLS for op in ops
    )


def trace_backend(backend, tracer: Tracer) -> None:
    """Wrap a shard backend object's protocol methods in place.

    Batches that carry a clock advance (``sync_clock`` scattered to every
    shard) are counted as ``advance`` spans, everything else submitted as
    ``submit``. Only outermost backend calls count crossings: one per
    shard a call reaches.
    """
    shards = backend.shard_count
    submit_batch = backend.submit_batch
    scatter = backend.scatter
    advance_to = backend.advance_to
    drain_expired = backend.drain_expired

    def call(name: str, fn, crossings: int, *args):
        if not tracer.enabled:
            return fn(*args)
        if not tracer.in_backend():
            tracer.crossings += crossings
        tracer.enter(name)
        try:
            return fn(*args)
        finally:
            tracer.exit()

    def kind(ops) -> str:
        return f"{BACKEND}.{'advance' if _is_advance_batch(ops) else 'submit'}"

    def traced_submit(index, ops, stop_on_error=True):
        return call(kind(ops), submit_batch, 1, index, ops, stop_on_error)

    def traced_scatter(ops, stop_on_error=True):
        return call(kind(ops), scatter, shards, ops, stop_on_error)

    def traced_advance(deadline):
        return call(f"{BACKEND}.advance", advance_to, shards, deadline)

    def traced_drain():
        return call(f"{BACKEND}.advance", drain_expired, 0)

    backend.submit_batch = traced_submit
    backend.scatter = traced_scatter
    backend.advance_to = traced_advance
    backend.drain_expired = traced_drain
