"""repro.client — the typed Python client for the gateway.

:class:`GatewayClient` speaks the ``repro.gateway`` HTTP API over
``urllib`` (stdlib only, like everything else in the repo): submit a
:class:`~repro.serve.job.JobSpec`, poll or stream its progress, download
the result, scrape metrics.

Transient transport failures (connection refused/reset, timeouts, 5xx)
are retried with the same exponential-backoff semantics the server applies
to failed jobs — the client takes a :class:`~repro.serve.server.
RetryPolicy` and calls :meth:`~repro.serve.server.RetryPolicy.backoff`
with kind ``"transient"``. Definitive rejections (4xx) are "poison" in the
server's taxonomy: retrying cannot change a deterministic answer, so they
raise immediately as typed exceptions (:class:`InvalidRequestError`,
:class:`UnauthorizedError`, :class:`RateLimitedError`,
:class:`MisdirectedError`, :class:`GatewayError`). Retry sleeps are
jittered downward so a crowd of clients that all saw the same 503 does not
retry in lockstep. :class:`FleetClient` spreads work over several gateway
replicas, following the fleet's ``wrong_replica`` redirects.

Quick start::

    from repro.client import GatewayClient

    client = GatewayClient("http://127.0.0.1:8080", token="s3cret")
    job = client.submit("12cities", n_iterations=400, scale=0.25)
    for event, data in client.stream(job["job_id"]):
        print(event, data)          # state/rhat events, ends at terminal
    result = client.result(job["job_id"], include_draws=True)
    print(result["summary"][0], client.draws(result).shape)
"""

from __future__ import annotations

import base64
import json
import random
import socket
import time
from typing import Dict, Iterator, List, Optional, Tuple, Union
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

import numpy as np

from repro.serve.job import JobSpec
from repro.serve.server import RetryPolicy


class GatewayError(RuntimeError):
    """A definitive (non-retryable) error response from the gateway."""

    def __init__(self, status: int, message: str, payload: Optional[Dict] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}


class UnauthorizedError(GatewayError):
    """401 — missing or invalid bearer token."""


class InvalidRequestError(GatewayError):
    """400 — the gateway rejected the request body.

    Carries the structured error the server attaches: ``code`` is a stable
    slug (``unknown_field``, ``invalid_mode``, ``invalid_spec``, ...) and
    ``detail`` names the offending fields/values and the accepted ones —
    enough for a caller to branch on (or to fix a typo) without string
    matching the message.
    """

    def __init__(self, status, message, payload=None):
        super().__init__(status, message, payload)
        self.code: Optional[str] = self.payload.get("code")
        self.detail: Dict = self.payload.get("detail") or {}


class RateLimitedError(GatewayError):
    """429 — the rate limiter or admission control shed this request."""

    def __init__(self, status, message, payload=None, retry_after=None):
        super().__init__(status, message, payload)
        self.retry_after = retry_after


class MisdirectedError(GatewayError):
    """421 — the spec's queue shard is drained by another fleet replica.

    Carries the redirect the server attached: ``shard`` is the spec's ring
    placement, ``owner`` the replica currently holding that shard's lease,
    and ``owner_url`` where to resubmit. :class:`FleetClient` follows this
    automatically; a single-replica :class:`GatewayClient` surfaces it.
    """

    def __init__(self, status, message, payload=None):
        super().__init__(status, message, payload)
        detail = self.payload.get("detail") or {}
        self.shard: Optional[int] = detail.get("shard")
        self.owner: Optional[str] = detail.get("owner")
        self.owner_url: Optional[str] = detail.get("owner_url")


class GatewayUnavailable(GatewayError):
    """The gateway stayed unreachable (or 5xx) through every retry.

    ``retry_after`` carries the last 503's ``Retry-After`` header (load
    shedding, drain) when the server sent one.
    """

    retry_after: Optional[float] = None


def _error_for(status: int, message: str, payload, retry_after) -> GatewayError:
    if status == 400:
        return InvalidRequestError(status, message, payload)
    if status == 401:
        return UnauthorizedError(status, message, payload)
    if status == 421:
        return MisdirectedError(status, message, payload)
    if status == 429:
        return RateLimitedError(status, message, payload, retry_after=retry_after)
    return GatewayError(status, message, payload)


class GatewayClient:
    """Typed HTTP client with transient-failure retry and SSE streaming."""

    def __init__(
        self,
        base_url: str,
        token: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        timeout: float = 30.0,
        poll_interval: float = 0.25,
        backoff_jitter: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_backoff=0.2, max_backoff=5.0
        )
        self.timeout = timeout
        self.poll_interval = poll_interval
        #: Fraction of each retry sleep randomized away (see ``_request``).
        self.backoff_jitter = backoff_jitter
        self._rng = rng if rng is not None else random.Random()

    # -- transport -------------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _open(self, method: str, path: str, body: Optional[Dict], timeout: float):
        data = None
        headers = self._headers()
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        return urlopen(request, timeout=timeout)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        timeout: Optional[float] = None,
    ):
        """One API call with transient retry; returns the open response.

        4xx raises immediately (poison: a deterministic rejection recurs on
        replay); connection errors, timeouts, and 5xx retry with the
        policy's transient backoff until ``max_attempts`` is spent.
        """
        timeout = self.timeout if timeout is None else timeout
        policy = self.retry_policy
        attempt = 0
        last: Optional[BaseException] = None
        retry_after: Optional[float] = None
        while attempt < max(1, policy.max_attempts):
            attempt += 1
            retry_after = None
            try:
                return self._open(method, path, body, timeout)
            except HTTPError as err:
                payload = self._json_body(err)
                message = payload.get("error", err.reason)
                header = err.headers.get("Retry-After")
                retry_after = float(header) if header else None
                if err.code < 500:
                    raise _error_for(
                        err.code, message, payload, retry_after
                    ) from None
                last = GatewayUnavailable(err.code, message, payload)
                last.retry_after = retry_after
            except (URLError, ConnectionError, socket.timeout, TimeoutError) as err:
                last = err
            if attempt < policy.max_attempts:
                # A 503 Retry-After (load shedding, drain) is the server's
                # own wait estimate; honor it when it exceeds our backoff,
                # capped so a wild header cannot park the client for hours.
                delay = policy.backoff("transient", attempt)
                if retry_after is not None:
                    delay = min(
                        max(delay, retry_after), policy.max_backoff
                    )
                # Jitter down into [(1 - j) * delay, delay]: N clients that
                # saw the same 503 (a replica restarting, a shed burst)
                # must not retry in lockstep — synchronized retries are a
                # thundering herd that re-sheds itself forever. Jittering
                # strictly downward keeps every sleep within the server's
                # Retry-After estimate and the policy cap.
                delay *= 1.0 - self.backoff_jitter * self._rng.random()
                time.sleep(delay)
        if isinstance(last, GatewayError):
            raise last
        raise GatewayUnavailable(
            503, f"gateway unreachable after {attempt} attempt(s): {last}"
        ) from last

    @staticmethod
    def _json_body(response) -> Dict:
        try:
            return json.loads(response.read().decode("utf-8"))
        except Exception:
            return {}

    def _json(self, method: str, path: str, body: Optional[Dict] = None) -> Dict:
        with self._request(method, path, body) as response:
            return json.loads(response.read().decode("utf-8"))

    # -- API surface -----------------------------------------------------------

    def submit(
        self, spec: Union[JobSpec, Dict, str], **overrides
    ) -> Dict:
        """Submit a job; returns its status view (with ``job_id``).

        Accepts a :class:`JobSpec`, a plain dict of spec fields, or a
        workload name plus fields — the same shapes
        :meth:`InferenceServer.submit` takes.
        """
        if isinstance(spec, str):
            payload = JobSpec(workload=spec, **overrides).to_dict()
        elif isinstance(spec, JobSpec):
            if overrides:
                raise TypeError("pass either a JobSpec or a name + fields")
            payload = spec.to_dict()
        elif isinstance(spec, dict):
            if overrides:
                raise TypeError("pass either a dict or a name + fields")
            payload = dict(spec)
        else:
            raise TypeError(f"cannot submit {type(spec).__name__}")
        return self._json("POST", "/v1/jobs", payload)

    def job(self, job_id: str) -> Dict:
        """The current status view of one job."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict]:
        return self._json("GET", "/v1/jobs")["jobs"]

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        """Poll until the job is terminal; returns the final status view."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["terminal"]:
                return view
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['state']} after {timeout:.1f}s"
                )
            time.sleep(self.poll_interval)

    def stream(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[Tuple[str, Dict]]:
        """Yield ``(event, data)`` SSE tuples until the terminal event.

        The server keep-alives every ``sse_keepalive`` seconds, so the
        socket timeout only fires if the gateway truly went silent.
        """
        response = self._request(
            "GET", f"/v1/jobs/{job_id}/events", timeout=timeout or self.timeout
        )
        event: Optional[str] = None
        data_lines: List[str] = []
        try:
            for raw in response:
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line:
                    if data_lines:
                        yield (
                            event or "message",
                            json.loads("\n".join(data_lines)),
                        )
                    event, data_lines = None, []
                elif line.startswith(":"):
                    continue
                elif line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
        finally:
            response.close()

    def result(self, job_id: str, include_draws: bool = False) -> Dict:
        """The result document of a terminal job (409 → GatewayError)."""
        suffix = "?include_draws=1" if include_draws else ""
        return self._json("GET", f"/v1/jobs/{job_id}/result{suffix}")

    @staticmethod
    def draws(result: Dict) -> np.ndarray:
        """The downloaded draws as a (n_chains, n_kept, dim) array."""
        if "draws" not in result:
            raise KeyError("result has no draws; fetch with include_draws=True")
        draws = result["draws"]
        return np.frombuffer(
            base64.b64decode(draws["data"]), dtype=draws["dtype"]
        ).reshape(draws["shape"]).astype(float)

    def metrics(self) -> str:
        """The gateway's live Prometheus text exposition."""
        with self._request("GET", "/metrics") as response:
            return response.read().decode("utf-8")

    def healthz(self) -> Dict:
        return self._json("GET", "/healthz")


class FleetClient:
    """A client for several gateway replicas sharing one sharded queue.

    Submissions start at a rotating replica and follow ``421
    wrong_replica`` redirects to the shard's live drainer (at most
    ``max_redirects`` hops — routing is one level deep, so the second hop
    already lands unless a takeover races the submit). The accepting
    replica is remembered per job, so :meth:`wait`/:meth:`stream`/
    :meth:`result` go straight to the process that holds the job state.
    """

    def __init__(
        self,
        urls: List[str],
        token: Optional[str] = None,
        max_redirects: int = 4,
        **client_kwargs,
    ) -> None:
        if not urls:
            raise ValueError("FleetClient needs at least one replica URL")
        self.max_redirects = max_redirects
        self._token = token
        self._client_kwargs = client_kwargs
        self.clients: Dict[str, GatewayClient] = {}
        for url in urls:
            self.client_for(url)
        self._rotation = 0
        #: Which replica accepted each job (job_id -> base_url).
        self._home: Dict[str, str] = {}

    def client_for(self, url: str) -> GatewayClient:
        """The (cached) single-replica client for one base URL."""
        key = url.rstrip("/")
        client = self.clients.get(key)
        if client is None:
            client = GatewayClient(
                key, token=self._token, **self._client_kwargs
            )
            self.clients[key] = client
        return client

    def _next_client(self) -> GatewayClient:
        urls = list(self.clients)
        url = urls[self._rotation % len(urls)]
        self._rotation += 1
        return self.clients[url]

    def _home_client(self, job_id: str) -> GatewayClient:
        url = self._home.get(job_id)
        if url is not None:
            return self.clients[url]
        # Unknown job (submitted elsewhere): probe every replica.
        last: Optional[GatewayError] = None
        for client in self.clients.values():
            try:
                client.job(job_id)
            except GatewayError as err:
                last = err
                continue
            self._home[job_id] = client.base_url
            return client
        raise last if last is not None else KeyError(job_id)

    # -- API surface -----------------------------------------------------------

    def submit(self, spec: Union[JobSpec, Dict, str], **overrides) -> Dict:
        """Submit to the fleet, following wrong-replica redirects."""
        client = self._next_client()
        for _ in range(max(1, self.max_redirects)):
            try:
                view = client.submit(spec, **overrides)
            except MisdirectedError as err:
                if err.owner_url is None:
                    raise
                client = self.client_for(err.owner_url)
                continue
            self._home[view["job_id"]] = client.base_url
            return view
        raise GatewayError(
            421,
            f"still misdirected after {self.max_redirects} redirect(s)",
        )

    def job(self, job_id: str) -> Dict:
        return self._home_client(job_id).job(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        return self._home_client(job_id).wait(job_id, timeout=timeout)

    def stream(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[Tuple[str, Dict]]:
        return self._home_client(job_id).stream(job_id, timeout=timeout)

    def result(self, job_id: str, include_draws: bool = False) -> Dict:
        return self._home_client(job_id).result(
            job_id, include_draws=include_draws
        )

    def healthz(self) -> Dict[str, Dict]:
        """Per-replica health, keyed by base URL; unreachable replicas
        report ``{"status": "unreachable", "error": ...}`` instead of
        raising (a fleet status must not die with its first dead box)."""
        view: Dict[str, Dict] = {}
        for url, client in self.clients.items():
            try:
                view[url] = client.healthz()
            except (GatewayError, OSError) as err:
                view[url] = {"status": "unreachable", "error": str(err)}
        return view
