"""Lightweight span tracing with a bounded in-memory buffer.

A :class:`Span` is one timed region of the pipeline — a suite phase, a job
execution stage, a chain — with free-form string attributes. Spans nest
through a thread-local stack, so a span opened inside another records its
parent id and post-hoc tooling can rebuild the tree.

The tracer keeps a bounded ring of finished spans (oldest evicted first) so
a long-lived server cannot grow without bound. :meth:`Span.to_dict` is a
span's JSON form, the schema documented in ``docs/telemetry.md``:

``{"name", "span_id", "parent_id", "start_s", "duration_s", "attrs"}``

``start_s`` is wall-clock (``time.time``); durations are measured on the
monotonic clock.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

#: Default ring capacity: generous for a suite run, bounded for a server.
DEFAULT_CAPACITY = 4096


@dataclass
class Span:
    """One finished timed region."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    duration_s: float
    attrs: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }


class Tracer:
    """Bounded recorder of :class:`Span` regions."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._stack = threading.local()
        self._lock = threading.Lock()
        #: Spans evicted from the ring since construction (observability of
        #: the observability layer: a non-zero value means the buffer was
        #: too small for the run).
        self.evicted = 0

    def _parent(self) -> Optional[int]:
        stack = getattr(self._stack, "ids", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, str]]:
        """Time a region; yields the attrs dict so callers can annotate
        results discovered mid-span (e.g. ``converged`` kept-iteration)."""
        span_id = next(self._ids)
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = []
            self._stack.ids = stack
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        start_wall = time.time()
        start = time.monotonic()
        span_attrs = {key: str(value) for key, value in attrs.items()}
        try:
            yield span_attrs
        finally:
            duration = time.monotonic() - start
            stack.pop()
            with self._lock:
                if len(self._spans) == self._spans.maxlen:
                    self.evicted += 1
                self._spans.append(
                    Span(
                        name=name,
                        span_id=span_id,
                        parent_id=parent_id,
                        start_s=start_wall,
                        duration_s=duration,
                        attrs=span_attrs,
                    )
                )

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        **attrs: object,
    ) -> None:
        """Record an externally timed region (e.g. measured in a worker)."""
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.evicted += 1
            self._spans.append(
                Span(
                    name=name,
                    span_id=next(self._ids),
                    parent_id=self._parent(),
                    start_s=start_s,
                    duration_s=duration_s,
                    attrs={key: str(value) for key, value in attrs.items()},
                )
            )

    def spans(self, name: Optional[str] = None) -> List[Span]:
        with self._lock:
            spans = list(self._spans)
        if name is not None:
            spans = [span for span in spans if span.name == name]
        return spans

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.evicted = 0
