"""Span recording from outside the program, and what the spans add up to.

The traced run wraps the public callables at each layer boundary of the
serving stack (see :func:`boundary_patches`) with shims that record a span
— ``(name, start, end, parent, job id)`` — into one in-memory
:class:`Recorder`. Parents come from a per-thread stack; the spans of one
job are joined across the client, HTTP-handler and drain threads by job id
(:func:`job_trees`). Per-call-hot boundaries (``BatchedEvaluator.evaluate``,
``ConvergenceMonitor.observe``) are not spans: they accumulate
``(count, total seconds, ...)`` under whatever span is open, so a
5 000-round job costs two clock reads per round, not a list append.

A layer is a module; a span's layer is its name up to the last dot
(``serve.store.put`` belongs to ``serve.store``). A span's *self time* is
its duration minus the part of that interval its children cover
(:func:`self_times`), and a job's latency is decomposed into the self
times of the spans on its blocking path (:func:`decompose`).

Everything here measures from outside: no file under ``src/`` changes, and
time spent *inside* worker processes or inside one tape replay stays
invisible until the program carries its own spans (ROADMAP item 5).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: The harness's own span around one job: its duration is the latency.
ROOT_SPAN = "client.job"
#: The client's wait on the event stream. Its self time is wait that no
#: server-side span explains — the residual, not work of the client layer.
WAIT_SPAN = "client.stream"
RUN_SPAN = "serve.server.run_next"
#: Synthesised: admitted -> the job's ``run_next`` begins.
QUEUE_WAIT = "serve.server.queue_wait"
#: Synthesised: the job is terminal and published -> the stream has ended.
SSE_DELIVER = "gateway.sse_deliver"
#: What the client's stream wait is blocked on (the drain thread's side).
DRAIN_SIDE = (QUEUE_WAIT, RUN_SPAN, SSE_DELIVER)

TERMINAL_STATES = ("done", "converged", "failed", "expired")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[str] = None
    thread: int = 0
    error: bool = False
    #: Hot boundaries called under this span: name -> [count, seconds, ...].
    hot: Dict[str, List[float]] = field(default_factory=dict)
    #: Numbers noted at the boundary (bytes, hit, route, ...).
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return layer_of(self.name)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Recorder:
    """In-memory span sink shared by every shim of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Finished spans, in order of completion.
        self.spans: List[Span] = []
        #: Instants: (name, job id, time).
        self.events: List[Tuple[str, str, float]] = []
        #: Hot calls made with no span open (probes outside any job).
        self.unparented_hot: Dict[str, List[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, job: Optional[str] = None) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids), name=name, start=self.clock(), job=job,
            parent=stack[-1].id if stack else None,
            thread=threading.get_ident(),
        )
        stack.append(span)
        return span

    def end(self, span: Span, keep: bool = True) -> None:
        span.end = self.clock()
        stack = self._stack()
        # A generator shim can be closed out of order; pop by identity.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                break
        if keep:
            self.spans.append(span)

    def event(self, name: str, job: str) -> None:
        self.events.append((name, job, self.clock()))

    def add_hot(
        self, name: str, seconds: float, extra: Tuple[float, ...] = ()
    ) -> None:
        stack = self._stack()
        table = stack[-1].hot if stack else self.unparented_hot
        row = table.get(name)
        if row is None:
            table[name] = [1, seconds, *extra]
            return
        row[0] += 1
        row[1] += seconds
        for index, value in enumerate(extra, 2):
            row[index] += value

    def resolved_spans(self) -> List[Span]:
        """Copies of the finished spans with missing job ids filled in
        (copies: the analysis re-parents and labels, the record stays)."""
        spans = [dataclasses.replace(span) for span in self.spans]
        resolve_jobs(spans)
        return spans

    def write_jsonl(self, path) -> int:
        """One JSON object per line: every span, then every instant."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
            for name, job, at in self.events:
                handle.write(json.dumps(
                    {"event": name, "job": job, "time": at}
                ) + "\n")
        return len(self.spans)


# -- shims ---------------------------------------------------------------------


def span_shim(
    recorder: Recorder,
    name: str,
    fn: Callable,
    job_of: Optional[Callable] = None,
    note: Optional[Callable] = None,
    keep: Optional[Callable] = None,
    on_error: Optional[Callable] = None,
) -> Callable:
    """``fn`` wrapped to record one span per call.

    ``job_of(args, kwargs, result)`` names the job (read after the call, so
    a submit can be labelled by the job it created); ``note(span, args,
    kwargs, result)`` attaches numbers; ``keep(result)`` returning False
    drops the span (the drain loop's idle polls); ``on_error(span, exc)``
    sees what the call raised.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        kept = True
        try:
            result = fn(*args, **kwargs)
            if job_of is not None:
                span.job = job_of(args, kwargs, result)
            if note is not None:
                note(span, args, kwargs, result)
            if keep is not None:
                kept = bool(keep(result))
            return result
        except BaseException as exc:
            span.error = True
            if on_error is not None:
                on_error(span, exc)
            raise
        finally:
            recorder.end(span, keep=kept)

    return wrapper


def hot_shim(
    recorder: Recorder,
    name: str,
    fn: Callable,
    measure: Optional[Callable] = None,
) -> Callable:
    """``fn`` wrapped to accumulate (count, seconds, *measure(args))."""
    clock = recorder.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add_hot(
                name, clock() - start,
                measure(args) if measure is not None else (),
            )

    return wrapper


def stream_shim(recorder: Recorder, fn: Callable) -> Callable:
    """``GatewayClient.stream`` is a generator: span its whole iteration
    and note when the terminal state event reached the client."""

    @functools.wraps(fn)
    def wrapper(self, job_id, *args, **kwargs):
        span = recorder.begin(WAIT_SPAN, job=job_id)
        span.attrs["events"] = 0
        try:
            for event, data in fn(self, job_id, *args, **kwargs):
                span.attrs["events"] += 1
                if event == "state" and data.get("state") in TERMINAL_STATES:
                    recorder.event("terminal_seen", job_id)
                yield event, data
        except BaseException:
            span.error = True
            raise
        finally:
            recorder.end(span)

    return wrapper


@dataclass
class Patch:
    """One attribute to replace, where the caller looks the name up."""

    owner: object
    attr: str
    make: Callable[[Callable], Callable]


class Patches:
    """Install a set of shims; restore the exact originals on exit."""

    def __init__(self, patches: Iterable[Patch]) -> None:
        self.patches = list(patches)
        self._originals: List[Tuple[object, str, object]] = []

    def install(self) -> "Patches":
        for patch in self.patches:
            original = vars(patch.owner)[patch.attr]
            self._originals.append((patch.owner, patch.attr, original))
            setattr(patch.owner, patch.attr, patch.make(original))
        return self

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()


def boundary_patches(recorder: Recorder) -> List[Patch]:
    """The shim set of the traced run: one entry per layer boundary.

    Module-level functions are patched in the namespace of the module that
    *calls* them (``repro.serve.server`` imported ``psis`` by name, so that
    binding is the one replaced); methods are patched on their class.
    """
    import repro.suite
    from repro.amortize.guides import GuideStore
    from repro.batch.engine import BatchedEvaluator
    from repro.client import GatewayClient, MisdirectedError
    from repro.fleet.member import FleetMember
    from repro.gateway import routes
    from repro.gateway.app import Gateway
    from repro.gateway.sse import EventBroker
    from repro.serve import server as serve_server
    from repro.serve.checkpoint import CheckpointStore
    from repro.serve.filequeue import FileJobQueue
    from repro.serve.monitor import ConvergenceMonitor
    from repro.serve.store import ResultStore
    from repro.serve.workers import ChainWorkerPool

    def span(owner, attr, name, **options) -> Patch:
        return Patch(
            owner, attr,
            lambda fn: span_shim(recorder, name, fn, **options),
        )

    def job_arg(index):
        return lambda args, kwargs, result: args[index]

    def job_of_result(args, kwargs, result):
        return getattr(result, "job_id", None)

    def job_of_view(args, kwargs, result):
        view = result if isinstance(result, dict) else args[0]
        return view.get("job_id") if isinstance(view, dict) else None

    def redirect(span_, exc):
        # A submit answered 421 is a round trip the ring cost the client,
        # not work of the client layer.
        if isinstance(exc, MisdirectedError):
            span_.name = "fleet.redirect"

    def note_publish(span_, args, kwargs, result):
        if args[2].terminal:
            recorder.event("terminal_published", args[1])

    def note_hit(span_, args, kwargs, result):
        span_.attrs["hit"] = result is not None

    def note_record_bytes(span_, args, kwargs, result):
        store, key = args[0], args[1]
        if store.directory is not None:
            span_.attrs["bytes"] = (
                store.directory / f"{key}.pkl"
            ).stat().st_size

    def note_log_bytes(span_, args, kwargs, result):
        span_.attrs["log_bytes"] = args[0].path.stat().st_size

    def note_trained(span_, args, kwargs, result):
        span_.attrs["trained"] = bool(result[1])

    def discard_shim(fn):
        """``discard_job`` deletes the evidence; weigh the job's directory
        first (the one place both execution paths leave their bytes)."""

        @functools.wraps(fn)
        def wrapper(self, job_id):
            span_ = recorder.begin("serve.checkpoint.discard_job", job=job_id)
            span_.attrs["bytes"] = sum(
                path.stat().st_size
                for path in (self.directory / job_id).glob("chain-*.npz")
            )
            try:
                return fn(self, job_id)
            finally:
                recorder.end(span_)

        return wrapper

    def request_shim(fn):
        """``do_GET``/``do_POST``: the whole handler — except on the SSE
        route, where the span would swallow the wait it should explain."""

        @functools.wraps(fn)
        def wrapper(self):
            path = self.path.split("?", 1)[0]
            if path.endswith("/events"):
                return fn(self)
            span_ = recorder.begin("gateway.request")
            parts = [part for part in path.split("/") if part]
            if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
                span_.job = parts[2]
            span_.attrs["route"] = f"{self.command} {path}"
            try:
                return fn(self)
            finally:
                recorder.end(span_)

        return wrapper

    return [
        # client
        span(GatewayClient, "submit", "client.submit", job_of=job_of_view,
             on_error=redirect),
        Patch(GatewayClient, "stream", lambda fn: stream_shim(recorder, fn)),
        span(GatewayClient, "result", "client.result", job_of=job_arg(1)),
        # gateway
        Patch(routes.GatewayRequestHandler, "do_GET", request_shim),
        Patch(routes.GatewayRequestHandler, "do_POST", request_shim),
        span(Gateway, "submit", "gateway.submit", job_of=job_of_result),
        span(routes, "result_view", "gateway.result_view",
             job_of=lambda args, kwargs, result: args[0].job_id),
        span(routes, "json_safe", "gateway.json_safe", job_of=job_of_view),
        span(EventBroker, "publish", "gateway.publish", job_of=job_arg(1),
             note=note_publish),
        # fleet
        span(FleetMember, "route", "fleet.route"),
        # serve.server
        span(serve_server.InferenceServer, "submit", "serve.server.submit",
             job_of=job_of_result),
        span(serve_server.InferenceServer, "run_next", RUN_SPAN,
             job_of=job_of_result, keep=lambda result: result is not None),
        # serve.filequeue
        span(FileJobQueue, "submit", "serve.filequeue.submit",
             note=note_log_bytes),
        span(FileJobQueue, "mark_running", "serve.filequeue.mark_running",
             note=note_log_bytes),
        span(FileJobQueue, "mark_finished", "serve.filequeue.mark_finished",
             note=note_log_bytes),
        # serve.store
        span(ResultStore, "get", "serve.store.get", note=note_hit),
        span(ResultStore, "put", "serve.store.put", note=note_record_bytes),
        # suite / arch: ``load_workload`` is imported from the package at
        # call time, ``profile_workload`` by name into the server module.
        span(repro.suite, "load_workload", "suite.load_workload"),
        span(serve_server, "profile_workload", "arch.profile_workload"),
        # amortize
        span(GuideStore, "get_or_train", "amortize.get_or_train",
             note=note_trained),
        span(serve_server, "surrogate_result", "amortize.surrogate_result"),
        span(serve_server, "surrogate_log_ratios",
             "amortize.surrogate_log_ratios"),
        span(serve_server, "psis", "amortize.psis"),
        # serve.workers / batch / serve.monitor / serve.checkpoint
        span(ChainWorkerPool, "run_job", "serve.workers.run_job",
             job_of=lambda args, kwargs, result: args[1][0].job_id),
        Patch(BatchedEvaluator, "evaluate", lambda fn: hot_shim(
            recorder, "batch.evaluate", fn,
            measure=lambda args: (len(args[1]), args[0].width))),
        Patch(ConvergenceMonitor, "observe", lambda fn: hot_shim(
            recorder, "serve.monitor.observe", fn)),
        span(CheckpointStore, "save_chain", "serve.checkpoint.save_chain",
             job_of=job_arg(1)),
        Patch(CheckpointStore, "discard_job", discard_shim),
    ]


# -- analysis ------------------------------------------------------------------


def covered(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    reach = lo
    for start, end in clipped:
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping children
    (work on another thread) are counted once, so a self time is never
    negative. Hot boundaries count as children of the span they
    accumulated under. A span that sticks out of its parent is itself
    clipped: only the part inside the parent is on the parent's path.
    """
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent in by_id:
            children.setdefault(span.parent, []).append(span)

    bounds: Dict[int, Tuple[float, float]] = {}

    def clip(span: Span) -> Tuple[float, float]:
        if span.id not in bounds:
            lo, hi = span.start, span.end
            if span.parent in by_id:
                parent_lo, parent_hi = clip(by_id[span.parent])
                lo, hi = max(lo, parent_lo), min(hi, parent_hi)
            bounds[span.id] = (lo, max(lo, hi))
        return bounds[span.id]

    result: Dict[int, float] = {}
    for span in spans:
        lo, hi = clip(span)
        cover = covered(
            ((kid.start, kid.end) for kid in children.get(span.id, ())),
            lo, hi,
        )
        hot = sum(row[1] for row in span.hot.values())
        result[span.id] = max(0.0, (hi - lo) - cover - hot)
    return result


def resolve_jobs(spans: List[Span]) -> None:
    """Fill in missing job ids: from the parent, else from below.

    A store write inside ``run_next`` learns its job from the ``run_next``
    span above it; the HTTP ``POST`` handler learns it from the
    ``Gateway.submit`` it contains (when everything below names one job).
    """
    by_id = {span.id: span for span in spans}
    ordered = sorted(spans, key=lambda span: span.id)  # parents first

    def inherit() -> None:
        for span in ordered:
            if span.job is None and span.parent in by_id:
                span.job = by_id[span.parent].job

    inherit()
    below: Dict[int, set] = {}
    for span in reversed(ordered):
        jobs = below.get(span.id, set())
        if span.job is None and len(jobs) == 1:
            (span.job,) = jobs
        if span.job is not None:
            jobs = jobs | {span.job}
        if span.parent in by_id and jobs:
            below.setdefault(span.parent, set()).update(jobs)
    inherit()


def first_instants(spans: Iterable[Span], events) -> Dict[Tuple[str, str], float]:
    """``(instant name, job id) -> time`` of its first occurrence.

    Recorded instants (``job_started``, ``terminal_published``,
    ``terminal_seen``) plus ``admitted``: the moment ``InferenceServer
    .submit`` returned the job (spans must have their jobs resolved).
    """
    first: Dict[Tuple[str, str], float] = {}
    for span in spans:
        if span.name == "serve.server.submit" and span.job is not None:
            first.setdefault(("admitted", span.job), span.end)
    for name, job, at in events:
        first.setdefault((name, job), at)
    return first


def gaps(first, start: str, end: str, jobs: Iterable[str]) -> List[float]:
    """``end - start`` for every job that has both instants."""
    return [
        first[(end, job)] - first[(start, job)]
        for job in jobs
        if (start, job) in first and (end, job) in first
    ]


def synthesize_waits(spans: List[Span], events, next_id: int) -> List[Span]:
    """Queue-wait and SSE-delivery spans for every streamed job.

    Between being admitted and its ``run_next`` a job waits in the queue;
    between being terminal-and-published and the end of the client's
    stream the answer is in the SSE path. Neither is a call, so neither
    has a shim: they are built from the spans and instants around them.
    """
    first = first_instants(spans, events)
    last_run_end: Dict[str, float] = {}
    first_run_start: Dict[str, float] = {}
    for span in spans:
        if span.name == RUN_SPAN and span.job is not None:
            first_run_start.setdefault(span.job, span.start)
            last_run_end[span.job] = max(
                span.end, last_run_end.get(span.job, span.end)
            )

    waits: List[Span] = []
    for stream in spans:
        if stream.name != WAIT_SPAN or stream.job is None:
            continue
        job = stream.job
        admitted = first.get(("admitted", job))
        if admitted is not None and job in first_run_start:
            waits.append(Span(
                next_id, QUEUE_WAIT, admitted,
                max(admitted, first_run_start[job]), job=job,
            ))
            next_id += 1
        published = first.get(("terminal_published", job))
        if published is not None:
            start = max(published, last_run_end.get(job, published))
            waits.append(Span(
                next_id, SSE_DELIVER, start, max(start, stream.end), job=job,
            ))
            next_id += 1
    return waits


def job_trees(recorder: Recorder) -> Dict[str, List[Span]]:
    """Per job id, the spans on its blocking path, joined across threads.

    The client thread's ``client.job`` span is the root (its duration *is*
    the job's latency). While the client is inside ``submit`` or ``result``
    it is blocked on an HTTP handler thread, so a handler-side span of the
    same job is adopted by the client call that contains its start. While
    it is inside ``stream`` it is blocked on the drain thread, so the
    job's queue wait, ``run_next`` and SSE delivery are adopted by the
    stream span and clipped to it — the part of ``run_next`` that ran
    before the client started waiting was not waited for.
    """
    spans = recorder.resolved_spans()
    next_id = max((span.id for span in spans), default=0) + 1
    spans.extend(synthesize_waits(spans, recorder.events, next_id))

    by_job: Dict[str, List[Span]] = {}
    for span in spans:
        if span.job is not None:
            by_job.setdefault(span.job, []).append(span)

    trees: Dict[str, List[Span]] = {}
    for job, members in by_job.items():
        roots = [span for span in members if span.name == ROOT_SPAN]
        if len(roots) != 1:
            continue
        root = roots[0]
        ids = {span.id for span in members}
        client_side = [s for s in members if s.thread == root.thread]
        streams = [s for s in client_side if s.name == WAIT_SPAN]
        for span in members:
            if span is root or span.parent in ids:
                continue
            if span.name in DRAIN_SIDE:
                hosts = streams
            else:
                hosts = [
                    host for host in client_side
                    if host.start <= span.start < host.end
                ]
            # Innermost: the latest start, then the earliest end.
            host = max(hosts, key=lambda h: (h.start, -h.end), default=None)
            span.parent = host.id if host is not None else None

        kids: Dict[int, List[Span]] = {}
        for span in members:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        tree, frontier = [], [root]
        while frontier:
            span = frontier.pop()
            tree.append(span)
            frontier.extend(kids.get(span.id, ()))
        trees[job] = tree
    return trees


def decompose(tree: List[Span]) -> Dict:
    """One job's latency split into self time per layer.

    Returns ``{"latency", "layers": {layer: seconds}, "queue_wait",
    "residual"}``; the parts sum to the latency. The residual is the self
    time of the client's stream wait: waiting that no queue wait,
    ``run_next`` or SSE delivery accounts for.
    """
    own = self_times(tree)
    root = next(span for span in tree if span.name == ROOT_SPAN)
    layers: Dict[str, float] = {}
    queue_wait = residual = 0.0
    for span in tree:
        seconds = own[span.id]
        if span.name == WAIT_SPAN:
            residual += seconds
        elif span.name == QUEUE_WAIT:
            queue_wait += seconds
        else:
            layers[span.layer] = layers.get(span.layer, 0.0) + seconds
        for name, row in span.hot.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + row[1]
    return {
        "latency": root.duration,
        "layers": layers,
        "queue_wait": queue_wait,
        "residual": residual,
    }
