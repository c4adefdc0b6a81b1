"""Job progress events: the pub/sub layer behind ``GET /v1/jobs/{id}/events``.

The gateway publishes every lifecycle step of a job — ``state`` events for
QUEUED/RUNNING/RETRYING/terminal transitions, ``rhat`` events for each
online convergence checkpoint (fed by the :class:`~repro.serve.server.
InferenceServer` ``on_progress`` seam) — into an :class:`EventBroker`.
Subscribers get the job's full history first (a late subscriber misses
nothing) and then live events until the terminal one, after which the
stream is closed with a ``None`` sentinel.

Wire format is Server-Sent Events (``text/event-stream``)::

    event: rhat
    data: {"job_id": "ab12", "kept": 40, "rhat": 1.52}

The schema of each event type is documented in ``docs/gateway.md``.
"""

from __future__ import annotations

import json
import math
import queue
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Per-job history cap. R-hat checkpoints dominate and are bounded by
#: budget/check_interval; the cap only guards against pathological specs.
DEFAULT_HISTORY_LIMIT = 1024

#: Per-subscriber mailbox cap. A subscriber that stops reading (a stalled
#: proxy, a laptop asleep mid-``repro watch``) must not buffer events
#: without bound inside the gateway; past this, the oldest events are
#: dropped and the connection is told how many it missed.
DEFAULT_SUBSCRIBER_LIMIT = 256


def json_safe(value):
    """A copy with non-finite floats replaced by ``None``.

    Strict JSON has no Infinity/NaN token (``json.dumps`` would emit the
    Python-only ``Infinity``), and an R-hat before the chains mix *is*
    ``inf``. Internal state keeps the real floats; this runs only at the
    wire boundary (:meth:`JobEvent.render`, the handler's JSON writer).
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


@dataclass(frozen=True)
class JobEvent:
    """One progress event of one job."""

    event: str
    data: Dict
    #: Terminal events end the stream for every subscriber.
    terminal: bool = False

    def render(self) -> bytes:
        """The SSE wire form (``event:`` + single-line ``data:`` + blank)."""
        payload = json.dumps(json_safe(self.data), sort_keys=True)
        return f"event: {self.event}\ndata: {payload}\n\n".encode("utf-8")


#: SSE comment line used as a keep-alive between events.
KEEPALIVE = b": keep-alive\n\n"


class Subscriber:
    """Bounded mailbox for one SSE connection.

    ``put`` never blocks the publisher: when the mailbox is full — the
    subscriber is slow or gone — the *oldest* queued event is discarded and
    counted, so the connection keeps the freshest view of the job and the
    handler can emit a ``dropped`` notice. The ``None`` close sentinel is
    always the final event published to a stream; if drop-oldest ever meets
    it, the sentinel is kept (the stream is over) and the newcomer is the
    one discarded.
    """

    def __init__(self, limit: int = DEFAULT_SUBSCRIBER_LIMIT) -> None:
        if limit < 1:
            raise ValueError("subscriber limit must be positive")
        self.limit = limit
        self._queue: "queue.Queue" = queue.Queue(maxsize=limit)
        self._lock = threading.Lock()
        self._dropped = 0

    def put(self, event: Optional[JobEvent]) -> None:
        with self._lock:  # serialize publishers; the consumer needs no lock
            while True:
                try:
                    self._queue.put_nowait(event)
                    return
                except queue.Full:
                    try:
                        oldest = self._queue.get_nowait()
                    except queue.Empty:
                        continue  # consumer drained it; retry the put
                    if oldest is None:
                        self._queue.put_nowait(None)
                        return
                    self._dropped += 1

    def get(self, timeout: Optional[float] = None) -> Optional[JobEvent]:
        """Next event (blocking); raises ``queue.Empty`` on timeout."""
        return self._queue.get(timeout=timeout)

    def take_dropped(self) -> int:
        """Drop count since the last call, resetting it to zero."""
        with self._lock:
            dropped, self._dropped = self._dropped, 0
        return dropped


@dataclass
class _JobStream:
    history: List[JobEvent] = field(default_factory=list)
    subscribers: List[Subscriber] = field(default_factory=list)
    closed: bool = False
    dropped: int = 0


class EventBroker:
    """Per-job event history plus live fan-out to SSE subscribers."""

    def __init__(self, history_limit: int = DEFAULT_HISTORY_LIMIT) -> None:
        if history_limit < 1:
            raise ValueError("history_limit must be positive")
        self.history_limit = history_limit
        self._lock = threading.Lock()
        self._streams: Dict[str, _JobStream] = {}

    def _stream(self, job_id: str) -> _JobStream:
        stream = self._streams.get(job_id)
        if stream is None:
            stream = self._streams[job_id] = _JobStream()
        return stream

    def publish(self, job_id: str, event: JobEvent) -> int:
        """Record an event and deliver it to live subscribers.

        Returns the number of subscribers the event was delivered to.
        Publishing to a closed stream is a no-op (a late RETRYING callback
        racing a terminal event cannot reopen the stream).
        """
        with self._lock:
            stream = self._stream(job_id)
            if stream.closed:
                return 0
            if len(stream.history) < self.history_limit:
                stream.history.append(event)
            else:
                stream.dropped += 1
            subscribers = list(stream.subscribers)
            if event.terminal:
                stream.closed = True
                stream.subscribers = []
        for sub in subscribers:
            sub.put(event)
            if event.terminal:
                sub.put(None)
        return len(subscribers)

    def subscribe(
        self, job_id: str, limit: int = DEFAULT_SUBSCRIBER_LIMIT
    ) -> Subscriber:
        """A mailbox preloaded with the job's history; ``None`` ends the
        stream. The mailbox is bounded (``limit``): a subscriber that stops
        reading loses oldest events, counted via
        :meth:`Subscriber.take_dropped`, instead of growing the gateway."""
        sub = Subscriber(limit=limit)
        with self._lock:
            stream = self._stream(job_id)
            history = list(stream.history)
            closed = stream.closed
            if not closed:
                stream.subscribers.append(sub)
        for event in history:
            sub.put(event)
        if closed:
            sub.put(None)
        return sub

    def unsubscribe(self, job_id: str, sub: Subscriber) -> None:
        with self._lock:
            stream = self._streams.get(job_id)
            if stream is not None and sub in stream.subscribers:
                stream.subscribers.remove(sub)

    def history(self, job_id: str) -> List[JobEvent]:
        """The recorded events of one job (status displays, tests)."""
        with self._lock:
            stream = self._streams.get(job_id)
            return list(stream.history) if stream is not None else []

    def rhat_trace(self, job_id: str) -> List[Tuple[int, float]]:
        """(kept, rhat) pairs published so far — the live convergence view."""
        return [
            (int(event.data["kept"]), float(event.data["rhat"]))
            for event in self.history(job_id)
            if event.event == "rhat"
        ]

    def discard(self, job_id: str) -> None:
        """Drop a job's history (long-lived deployments GC old jobs)."""
        with self._lock:
            stream = self._streams.pop(job_id, None)
        if stream is not None:
            for sub in stream.subscribers:
                sub.put(None)


def parse_sse(lines) -> "Optional[Tuple[str, Dict]]":
    """Consume one SSE event from an iterator of text or bytes lines.

    Returns ``(event, data)`` or None at end of stream. Comment lines
    (keep-alives) are skipped; multi-line ``data:`` fields are joined per
    the SSE spec before JSON decoding. :meth:`repro.client.GatewayClient.
    stream` calls it again and again on one iterator over the response's
    bytes lines, one event per call.
    """
    event: Optional[str] = None
    data_lines: List[str] = []
    for raw in lines:
        line = raw.rstrip("\r\n") if isinstance(raw, str) else raw.decode(
            "utf-8"
        ).rstrip("\r\n")
        if not line:
            if data_lines:
                return (
                    event or "message",
                    json.loads("\n".join(data_lines)),
                )
            event, data_lines = None, []
            continue
        if line.startswith(":"):
            continue
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:"):].strip())
    return None
