"""Circuit breakers for the serving stack's failure-prone dependencies.

A :class:`CircuitBreaker` guards one named dependency (GuideStore training,
ResultStore disk I/O, compiled-tape validation, the gateway's durable job
log). It is a small three-state machine:

* **closed** — calls flow through; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the breaker
  trips: :meth:`allow` answers ``False`` so callers skip the dependency and
  take their degradation path *immediately* instead of paying the failure
  latency again (an ENOSPC loop, a hung disk) on every job.
* **half-open** — once ``reset_timeout`` has elapsed, exactly one probe call
  is let through. Success closes the breaker; failure re-opens it for
  another full timeout.

Breakers never raise by themselves — callers check :meth:`allow` (or use
:meth:`call`) and decide what degraded behaviour means for them. State is
mirrored into telemetry (``repro_resilience_breaker_state`` gauge, 0 closed /
0.5 half-open / 1 open, plus a trip counter) so an operator can see which
dependency is unhealthy from ``/metrics`` alone.

All methods are thread-safe: gateway handler threads and the drain thread
share the same board.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, TypeVar

from repro.telemetry.instrument import (
    RESILIENCE_BREAKER_STATE,
    RESILIENCE_BREAKER_TRIPS,
)

T = TypeVar("T")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding of each state (documented in docs/resilience.md).
_STATE_VALUES = {CLOSED: 0.0, HALF_OPEN: 0.5, OPEN: 1.0}


class CircuitOpenError(RuntimeError):
    """Raised by :meth:`CircuitBreaker.call` when the circuit is open."""

    def __init__(self, name: str) -> None:
        super().__init__(f"circuit breaker {name!r} is open")
        self.breaker = name


class CircuitBreaker:
    """One dependency's trip-and-probe state machine."""

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        registry=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        # ``registry`` is the registry to mirror into — both series exist
        # from here on, so a healthy breaker reads 0 rather than absent — or
        # a callable naming the one to mirror into *now* (``None``: nowhere),
        # for a breaker that must follow a switch flipped after it was built.
        self._registry = registry if callable(registry) else lambda: registry
        self._publish()

    # -- state ------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        """Current state, promoting open -> half-open once the timeout ran."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = HALF_OPEN
            self._probing = False
            self._publish()
        return self._state

    def _publish(self, trips: int = 0) -> None:
        registry = self._registry()
        if registry is None:
            return
        labels = {"breaker": self.name}
        registry.gauge(
            RESILIENCE_BREAKER_STATE, labels,
        ).set(_STATE_VALUES[self._state])
        registry.counter(RESILIENCE_BREAKER_TRIPS, labels).inc(trips)

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._probing = False
        self._publish(trips=1)

    # -- caller API --------------------------------------------------------

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In half-open state only the first caller gets ``True`` (the probe);
        concurrent callers are held off until the probe resolves via
        :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probing = False
            if self._state != CLOSED:
                self._state = CLOSED
                self._opened_at = None
                self._publish()

    def record_failure(self) -> None:
        with self._lock:
            state = self._effective_state()
            if state == HALF_OPEN:
                self._trip()
                return
            if state == OPEN:
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._trip()

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the breaker; raise :class:`CircuitOpenError`
        when open, record the outcome otherwise."""
        if not self.allow():
            raise CircuitOpenError(self.name)
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


class BreakerBoard:
    """A named collection of breakers sharing one telemetry registry."""

    def __init__(
        self,
        registry=None,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def get(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    name,
                    failure_threshold=self.failure_threshold,
                    reset_timeout=self.reset_timeout,
                    registry=self.registry,
                    clock=self._clock,
                )
                self._breakers[name] = breaker
            return breaker

    def snapshot(self) -> Dict[str, str]:
        """Breaker name -> current state (for health views and tests)."""
        with self._lock:
            breakers = list(self._breakers.values())
        return {b.name: b.state for b in breakers}
