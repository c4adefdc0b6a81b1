"""Cost-aware admission control: load shedding by expected wait + brownout.

The queue bound from PR 1 (``JobQueue(max_pending=...)``) limits *count*;
this controller limits *time*. It keeps an EWMA of measured service seconds
per job family — ``(workload, engine, mode)``, the same axes the telemetry
histograms use — and prices an incoming submission as::

    expected_wait = (sum(remaining(in-flight jobs))
                     + sum(estimate(queued jobs))) / capacity

where ``capacity`` is how many jobs the server runs at once (its worker
pool's size; the server passes it in).

Two shedding rules, both answered with HTTP 503 + ``Retry-After``:

* **deadline-infeasible** — the job carries a ``deadline_s`` it provably
  cannot meet (``expected_wait + estimate(job) > deadline``). Rejecting at
  the front door is strictly better than admitting work destined to expire.
* **overload** — ``max_expected_wait`` is configured and the queue's
  expected wait already exceeds it.

Unknown families estimate at ``default_service_s`` (0 by default): the
controller *fails open* until it has measurements, so a cold server never
rejects the traffic that would have taught it the costs.

**Brownout**: when the expected wait stays above ``brownout_wait`` for
``brownout_hold_s`` consecutive seconds, the controller declares sustained
overload and the server downgrades ``checked``-tier escalations to the fast
surrogate answer (PSIS k̂ is still computed and recorded; only the expensive
exact run is suppressed, and provenance records ``degraded: brownout``).
The mode exits symmetrically after the wait stays below the threshold for
the hold time.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.resilience.errors import AdmissionError
from repro.telemetry.instrument import (
    RESILIENCE_BROWNOUT,
    RESILIENCE_SERVICE_SECONDS,
    RESILIENCE_SHED,
)
from repro.telemetry.metrics import log_buckets

#: Service times from sub-millisecond (fast tier) to hours.
SERVICE_SECONDS_BUCKETS = log_buckets(1e-4, 1e4, per_decade=1)

FamilyKey = Tuple[str, str, str]


class LoadSheddedError(AdmissionError):
    """Submission rejected by cost-aware shedding (HTTP 503).

    Subclasses :class:`~repro.resilience.errors.AdmissionError` so callers
    that only know about queue-full admission still treat it as a rejection.
    """

    def __init__(
        self, message: str, retry_after: float = 1.0, reason: str = "overload"
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason


def family_key(spec) -> FamilyKey:
    return (spec.workload, spec.engine, spec.mode)


class AdmissionController:
    """Expected-wait estimator + shedding/brownout policy. Thread-safe."""

    def __init__(
        self,
        max_expected_wait: Optional[float] = None,
        brownout_wait: Optional[float] = None,
        brownout_hold_s: float = 5.0,
        default_service_s: float = 0.0,
        ewma_alpha: float = 0.3,
        registry=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_expected_wait is not None and max_expected_wait <= 0:
            raise ValueError("max_expected_wait must be positive")
        if brownout_wait is not None and brownout_wait <= 0:
            raise ValueError("brownout_wait must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.max_expected_wait = max_expected_wait
        self.brownout_wait = brownout_wait
        self.brownout_hold_s = brownout_hold_s
        self.default_service_s = default_service_s
        self.ewma_alpha = ewma_alpha
        self.registry = registry
        self._clock = clock
        self._lock = threading.Lock()
        self._estimates: Dict[FamilyKey, float] = {}
        #: ticket -> (spec, started_at) of every job executing now.
        self._inflight: Dict[int, Tuple[object, float]] = {}
        self._tickets = itertools.count()
        self._brownout = False
        self._over_since: Optional[float] = None
        self._under_since: Optional[float] = None

    # -- service-time model ------------------------------------------------

    def observe(self, spec, seconds: float) -> None:
        """Fold one measured successful attempt into the family EWMA."""
        seconds = max(float(seconds), 0.0)
        key = family_key(spec)
        with self._lock:
            prev = self._estimates.get(key)
            if prev is None:
                self._estimates[key] = seconds
            else:
                alpha = self.ewma_alpha
                self._estimates[key] = alpha * seconds + (1 - alpha) * prev
        if self.registry is not None:
            self.registry.histogram(
                RESILIENCE_SERVICE_SECONDS,
                {"workload": spec.workload, "mode": spec.mode},
                buckets=SERVICE_SECONDS_BUCKETS,
            ).observe(seconds)

    def estimate(self, spec) -> float:
        """Expected service seconds for one job of this family."""
        with self._lock:
            return self._estimates.get(family_key(spec), self.default_service_s)

    # -- in-flight tracking (called by the drain loops) --------------------

    def job_started(self, spec) -> int:
        """Count one job in flight; returns the ticket that ends it."""
        with self._lock:
            ticket = next(self._tickets)
            self._inflight[ticket] = (spec, self._clock())
        return ticket

    def job_finished(self, ticket: int, seconds: float, success: bool) -> None:
        with self._lock:
            spec, _ = self._inflight.pop(ticket)
        if success:
            self.observe(spec, seconds)

    # -- expected wait -----------------------------------------------------

    def expected_wait(self, queued_specs: Iterable, capacity: int = 1) -> float:
        """Seconds a new arrival waits before *starting*: the time left on
        every job in flight plus everything already queued ahead of it,
        shared by the ``capacity`` jobs the server runs at once."""
        total = 0.0
        with self._lock:
            now = self._clock()
            for spec, started_at in self._inflight.values():
                est = self._estimates.get(
                    family_key(spec), self.default_service_s
                )
                total += max(est - (now - started_at), 0.0)
            for spec in queued_specs:
                total += self._estimates.get(
                    family_key(spec), self.default_service_s
                )
        return total / max(capacity, 1)

    # -- shedding ----------------------------------------------------------

    def check(self, spec, expected_wait: float) -> None:
        """Admit or raise :class:`LoadSheddedError`. Also feeds brownout."""
        self.note_wait(expected_wait)
        estimate = self.estimate(spec)
        deadline = getattr(spec, "deadline_s", None)
        if deadline is not None and expected_wait + estimate > deadline:
            retry_after = max(expected_wait + estimate - deadline, 1.0)
            self._count_shed("deadline_infeasible")
            raise LoadSheddedError(
                f"deadline {deadline:g}s cannot be met: expected wait "
                f"{expected_wait:.3g}s + estimated service {estimate:.3g}s",
                retry_after=round(retry_after, 3),
                reason="deadline_infeasible",
            )
        if (
            self.max_expected_wait is not None
            and expected_wait > self.max_expected_wait
        ):
            retry_after = max(expected_wait - self.max_expected_wait, 1.0)
            self._count_shed("overload")
            raise LoadSheddedError(
                f"expected queue wait {expected_wait:.3g}s exceeds the "
                f"{self.max_expected_wait:g}s admission bound",
                retry_after=round(retry_after, 3),
                reason="overload",
            )

    def _count_shed(self, reason: str) -> None:
        if self.registry is not None:
            self.registry.counter(RESILIENCE_SHED, {"reason": reason}).inc()

    # -- brownout ----------------------------------------------------------

    def note_wait(self, expected_wait: float) -> None:
        """Feed one expected-wait observation to the brownout machine."""
        if self.brownout_wait is None:
            return
        now = self._clock()
        with self._lock:
            if expected_wait > self.brownout_wait:
                self._under_since = None
                if self._over_since is None:
                    self._over_since = now
                if (
                    not self._brownout
                    and now - self._over_since >= self.brownout_hold_s
                ):
                    self._brownout = True
                    self._publish_brownout()
            else:
                self._over_since = None
                if self._under_since is None:
                    self._under_since = now
                if (
                    self._brownout
                    and now - self._under_since >= self.brownout_hold_s
                ):
                    self._brownout = False
                    self._publish_brownout()

    def brownout_active(self) -> bool:
        with self._lock:
            return self._brownout

    def _publish_brownout(self) -> None:
        if self.registry is not None:
            self.registry.gauge(
                RESILIENCE_BROWNOUT
            ).set(1.0 if self._brownout else 0.0)
