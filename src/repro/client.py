"""repro.client — the typed Python client for the gateway.

:class:`GatewayClient` speaks the ``repro.gateway`` HTTP API over
``http.client`` (stdlib only, like everything else in the repo): submit a
:class:`~repro.serve.job.JobSpec`, poll or stream its progress, download
the result, scrape metrics. Each thread keeps one HTTP/1.1 connection per
replica for the JSON routes, so a call pays no TCP connect; an event
stream opens its own and reads it with :func:`repro.gateway.sse.parse_sse`,
the one SSE parser. A kept connection the server closed while it idled
is found on the next call and that request is sent again, once, on a
fresh connection, spending no retry attempt.

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
replicas, sending each spec to the replica that drains its shard.

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
import threading
import time
import weakref
from http.client import (
    HTTPConnection,
    HTTPException,
    HTTPResponse,
    HTTPSConnection,
)
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union
from urllib.parse import urlsplit

import numpy as np

from repro.fleet.placement import FleetPlacement, FleetTopology
from repro.gateway.sse import parse_sse
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


def _payload(spec: Union[JobSpec, Dict, str], overrides: Dict) -> Dict:
    """A submit's request body, from any shape ``submit`` takes."""
    if isinstance(spec, str):
        return JobSpec(workload=spec, **overrides).to_dict()
    if isinstance(spec, JobSpec):
        if overrides:
            raise TypeError("pass either a JobSpec or a name + fields")
        return spec.to_dict()
    if isinstance(spec, dict):
        if overrides:
            raise TypeError("pass either a dict or a name + fields")
        return dict(spec)
    raise TypeError(f"cannot submit {type(spec).__name__}")


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
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ValueError(f"not an http(s) URL: {base_url!r}")
        self._connection_class = (
            HTTPSConnection if split.scheme == "https" else HTTPConnection
        )
        self._netloc = split.netloc
        self._path = split.path
        self.token = token
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_backoff=0.2, max_backoff=5.0
        )
        self.timeout = timeout
        self.poll_interval = poll_interval
        #: Fraction of each retry sleep randomized away (see ``_request``).
        self.backoff_jitter = backoff_jitter
        self._rng = rng if rng is not None else random.Random()
        #: Each thread's kept connection (``_local.connection``); the weak
        #: set lets :meth:`close` reach them without outliving a thread.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._kept: "weakref.WeakSet[HTTPConnection]" = weakref.WeakSet()

    # -- transport -------------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _connect(self, timeout: float) -> HTTPConnection:
        return self._connection_class(self._netloc, timeout=timeout)

    def _kept_connection(self) -> HTTPConnection:
        """This thread's kept connection (``http.client`` reconnects it
        after a close)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect(self.timeout)
            with self._lock:
                self._kept.add(connection)
        return connection

    def close(self) -> None:
        """Close every thread's kept connection; a later call reconnects."""
        with self._lock:
            for connection in list(self._kept):
                connection.close()

    def _exchange(
        self,
        connection: HTTPConnection,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> HTTPResponse:
        """Send one request and read its status line and headers.

        A *reused* connection that the server closed while it idled (its
        idle timeout, a restart) fails before any response byte arrives.
        Nothing of the request was answered, so it is sent once more on a
        fresh connection, spending no retry attempt; a re-sent submit folds
        onto its twin (dedup).
        """
        reused = connection.sock is not None
        try:
            connection.request(method, self._path + path, body, headers)
            return connection.getresponse()
        except ConnectionError:
            if not reused:
                raise
        connection.close()
        connection.request(method, self._path + path, body, headers)
        return connection.getresponse()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        stream: Optional[HTTPConnection] = None,
    ) -> Tuple[HTTPResponse, Optional[bytes]]:
        """One API call with transient retry; returns (response, body).

        On this thread's kept connection the body is read in full, freeing
        the connection for the next call. A ``stream`` connection is the
        caller's own: its response comes back unread (body ``None``).

        4xx raises immediately (poison: a deterministic rejection recurs on
        replay); connection errors, timeouts, and 5xx retry with the
        policy's transient backoff until ``max_attempts`` is spent.
        """
        connection = stream if stream is not None else self._kept_connection()
        data = None
        headers = self._headers()
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        policy = self.retry_policy
        attempt = 0
        last: Optional[BaseException] = None
        retry_after: Optional[float] = None
        while attempt < max(1, policy.max_attempts):
            attempt += 1
            retry_after = None
            try:
                response = self._exchange(
                    connection, method, path, data, headers
                )
                content = (
                    response.read()
                    if stream is None or response.status >= 400 else None
                )
            except (OSError, HTTPException) as err:
                connection.close()
                last = err
            else:
                if response.status < 400:
                    return response, content
                payload = self._json_body(content)
                message = payload.get("error", response.reason)
                header = response.getheader("Retry-After")
                retry_after = float(header) if header else None
                if response.status < 500:
                    raise _error_for(
                        response.status, message, payload, retry_after
                    )
                last = GatewayUnavailable(response.status, message, payload)
                last.retry_after = retry_after
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
    def _json_body(content: bytes) -> Dict:
        try:
            return json.loads(content.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return {}

    def _json(self, method: str, path: str, body: Optional[Dict] = None) -> Dict:
        _, content = self._request(method, path, body)
        return json.loads(content.decode("utf-8"))

    # -- API surface -----------------------------------------------------------

    def submit(
        self, spec: Union[JobSpec, Dict, str], **overrides
    ) -> Dict:
        """Submit a job; returns its status view (with ``job_id``).

        Accepts a :class:`JobSpec`, a plain dict of spec fields, or a
        workload name plus fields — the same shapes
        :meth:`InferenceServer.submit` takes.
        """
        return self._json("POST", "/v1/jobs", _payload(spec, overrides))

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
        connection = self._connect(timeout or self.timeout)
        response: Optional[HTTPResponse] = None
        try:
            response, _ = self._request(
                "GET", f"/v1/jobs/{job_id}/events", stream=connection
            )
            lines = iter(response)
            while (event := parse_sse(lines)) is not None:
                yield event
        finally:
            if response is not None:
                response.close()
            connection.close()

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
        _, content = self._request("GET", "/metrics")
        return content.decode("utf-8")

    def healthz(self) -> Dict:
        return self._json("GET", "/healthz")


#: 421 hops one :meth:`FleetClient.submit` follows per replica it asks.
MAX_REDIRECTS = 4


class FleetClient:
    """A client for several gateway replicas sharing one sharded queue.

    The ring is a pure function of (topology, spec), so the client routes
    as the replicas do. On its first submit it reads the topology from a
    replica's ``/healthz`` and from then on sends each spec straight to the
    replica that drains its shard. A takeover can move a shard's lease off
    the topology's box. If that box is alive it answers ``421
    wrong_replica``, which is followed (at most :data:`MAX_REDIRECTS` hops); if
    it is dead, the other replicas are asked in turn. Either way the
    replica that accepts is remembered for that shard. Without a topology
    (plain gateways) every submit starts at the first replica. The
    accepting replica is remembered per job, so :meth:`wait`/
    :meth:`stream`/:meth:`result` go straight to the process that holds the
    job state.
    """

    def __init__(
        self,
        urls: List[str],
        token: Optional[str] = None,
        **client_kwargs,
    ) -> None:
        if not urls:
            raise ValueError("FleetClient needs at least one replica URL")
        self._token = token
        self._client_kwargs = client_kwargs
        self.clients: Dict[str, GatewayClient] = {}
        for url in urls:
            self.client_for(url)
        self._lock = threading.Lock()
        #: The ring, once a replica's ``/healthz`` answered (``_ring_read``);
        #: None when it serves no topology.
        self._ring: Optional[FleetPlacement] = None
        self._ring_read = False
        #: Which replica last accepted each shard's submit (shard -> base
        #: URL), so a takeover is found once. It names a replica, never a
        #: shard: the ring stays the topology's.
        self._owners: Dict[int, str] = {}
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

    def close(self) -> None:
        """Close every replica client's kept connections."""
        for client in list(self.clients.values()):
            client.close()

    def _placement(self) -> Optional[FleetPlacement]:
        """The fleet's ring, read once from the first replica whose
        ``/healthz`` answers."""
        with self._lock:
            if not self._ring_read:
                for client in list(self.clients.values()):
                    try:
                        topology = client.healthz().get("topology")
                    except GatewayError:
                        continue
                    if topology is not None:
                        self._ring = FleetPlacement(
                            FleetTopology.from_dict(topology)
                        )
                    self._ring_read = True
                    break
            return self._ring

    def _owner_client(
        self, payload: Dict
    ) -> Tuple[Optional[int], GatewayClient]:
        """``payload``'s shard (None without a ring) and the replica that
        drains it, else the first replica."""
        placement = self._placement()
        shard: Optional[int] = None
        url: Optional[str] = None
        if placement is not None:
            try:
                shard = placement.shard_for(JobSpec.from_dict(payload))
            except (TypeError, ValueError):
                pass  # an invalid spec: any replica answers its 400
            else:
                url = self._owners.get(shard)
                if url is None:
                    box = placement.topology.box_for_shard(shard)
                    url = box.url if box is not None else None
        if url is None:
            return shard, next(iter(self.clients.values()))
        return shard, self.client_for(url)

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
        """Submit to the spec's shard owner, following a 421 redirect.

        A dead owner cannot answer 421: when it stays unreachable, the
        other replicas are asked in turn. The one holding the shard's
        adopted lease accepts; any other redirects, and a redirect to a
        replica already found unreachable is not followed again. The
        accepting replica is remembered for the shard.
        """
        payload = _payload(spec, overrides)
        shard, owner = self._owner_client(payload)
        others = [c for c in self.clients.values() if c is not owner]
        unreachable: Set[str] = set()
        last: Optional[GatewayUnavailable] = None
        for client in [owner] + others:
            for _ in range(MAX_REDIRECTS):
                if client.base_url in unreachable:
                    break
                try:
                    view = client.submit(payload)
                except MisdirectedError as err:
                    if err.owner_url is None:
                        raise
                    client = self.client_for(err.owner_url)
                    continue
                except GatewayUnavailable as err:
                    unreachable.add(client.base_url)
                    last = err
                    break
                if shard is not None:
                    self._owners[shard] = client.base_url
                self._home[view["job_id"]] = client.base_url
                return view
            else:
                raise GatewayError(
                    421,
                    f"still misdirected after {MAX_REDIRECTS} "
                    "redirect(s)",
                )
        raise last

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
