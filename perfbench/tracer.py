"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces a public function or method at the attribute
its caller looks it up through (``repro.core.pipeline.prematching``,
``repro.core.backends.build_all_subgraphs``, ...) with a wrapper that
records one span per call: layer name, start, end and parent span.  The
program itself is untouched; :meth:`Tracer.uninstall` puts every
original back.

A span's *self time* is its duration minus the time covered by its
direct children, so the self times of all spans under one op span add
up to that op span's duration exactly.  Spans are kept in memory and
written out once, in the Trace Event Format that ``chrome://tracing``
and Perfetto open.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s")

    def __init__(self, name: str, op: int, parent: int, start: float) -> None:
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._op = -1
        self._ops = 0
        #: ``{span name: [(op, on_result(value)), ...]}``
        self.results: Dict[str, list] = defaultdict(list)

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, self._op, parent, self.clock()))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration_s

    def op(self, name: str = "op"):
        """Context manager for one benchmark op: a root span whose
        descendants are attributed to it."""
        tracer = self

        class _Op:
            def __enter__(self):
                if tracer._stack:
                    raise RuntimeError("ops must not nest")
                tracer._op = tracer._ops
                tracer._ops += 1
                self.index = tracer.begin(name)
                return self

            def __exit__(self, *exc):
                tracer.end(self.index)
                tracer._op = -1
                return False

        return _Op()

    def wrap(self, name: str, function: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            parent = tracer.spans[index].parent
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(index)
            # A call nested in a span of the same layer (a union blocker
            # calling its parts) is part of the outer call's result.
            if on_result is not None and (
                parent < 0 or tracer.spans[parent].name != name
            ):
                tracer.results[name].append((tracer._op, on_result(result)))
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attribute: str, name: str,
              on_result: Optional[Callable] = None) -> None:
        """Wrap ``owner.attribute`` (a module function or a class's
        method) so every call through that attribute is a span."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, on_result))
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading -------------------------------------------------------------

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
        return dict(counts)

    def self_by_op(self) -> Dict[int, Dict[str, float]]:
        """``{op: {layer: summed self seconds}}`` over spans inside ops."""
        table: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span in self.spans:
            if span.op >= 0:
                table[span.op][span.name] += span.self_s
        return {op: dict(layers) for op, layers in table.items()}

    def op_seconds(self) -> Dict[int, float]:
        return {
            span.op: span.duration_s
            for span in self.spans
            if span.op >= 0 and span.parent < 0
        }

    def self_outside_ops(self) -> Dict[str, float]:
        """Summed self seconds of spans recorded outside any op (set-up)."""
        table: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.op < 0:
                table[span.name] += span.self_s
        return dict(table)

    def trace_events(self) -> List[dict]:
        """Complete ("X") events in microseconds, Trace Event Format."""
        pid = os.getpid()
        tid = threading.get_ident() % (1 << 31)
        origin = min((span.start for span in self.spans), default=0.0)
        return [
            {
                "name": span.name,
                "cat": "op" if span.parent < 0 and span.op >= 0 else "layer",
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"op": span.op, "self_us": round(span.self_s * 1e6, 3)},
            }
            for span in self.spans
        ]


def write_trace(path, events: List[dict], metadata: Dict[str, object]) -> None:
    """Write a Trace Event Format JSON object file."""
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": metadata,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
