"""Per-token token-bucket rate limiting for the gateway.

Each tenant (bearer token, or the single anonymous identity when auth is
off) gets an independent bucket holding up to ``burst`` tokens, refilled
continuously at ``rate`` tokens per second. A request spends one token;
a request finding the bucket empty is rejected with the seconds until the
next token accrues — the gateway surfaces that as ``Retry-After`` on the
429 response and publishes the rejection to telemetry
(:data:`~repro.telemetry.instrument.GATEWAY_RATELIMITED`, labelled by the
hashed token), so shed load is visible on the same dashboard as admission
rejections.

The limiter protects the *gateway* (parsing, queue admission, status
reads); the queue's own ``max_pending`` admission control remains the
backstop on accepted work.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, Optional

from repro.gateway.auth import token_label
from repro.telemetry.instrument import GATEWAY_RATELIMITED


class TokenBucket:
    """Continuous-refill token bucket (single tenant)."""

    __slots__ = ("rate", "capacity", "tokens", "updated")

    def __init__(self, rate: float, capacity: float, now: float) -> None:
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.updated = now

    def acquire(self, now: float) -> float:
        """Spend one token; 0.0 on success, else seconds until one accrues."""
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Keyed token buckets with telemetry on rejection.

    ``rate`` is requests per second per token; ``burst`` (default
    ``ceil(rate)``, at least 1) is the bucket capacity — the number of
    back-to-back requests a quiet tenant may fire before pacing kicks in.
    ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[int] = None,
        registry=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive (requests per second)")
        if burst is not None and burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else max(1, math.ceil(rate)))
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self._registry = registry

    def check(self, token: Optional[str]) -> Optional[float]:
        """None when the request is allowed, else the retry-after seconds."""
        key = token_label(token)
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = TokenBucket(
                    self.rate, self.burst, now
                )
            wait = bucket.acquire(now)
        if wait <= 0.0:
            return None
        if self._registry is not None:
            self._registry.counter(GATEWAY_RATELIMITED, {"token": key}).inc()
        return wait
