"""Self time, the cross-thread join, the residual, and the shims' hygiene."""

import threading

import trace as ledger_trace
from trace import Recorder, Span


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_nested_and_sibling_spans():
    spans = [
        Span(1, "a.root", 0.0, 10.0),
        Span(2, "b.child", 1.0, 4.0, parent=1),
        Span(3, "b.sibling", 5.0, 7.0, parent=1),
        Span(4, "c.grandchild", 2.0, 3.0, parent=2),
    ]
    own = ledger_trace.self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0}
    assert sum(own.values()) == spans[0].duration


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        Span(1, "a.root", 0.0, 10.0),
        # Work on two other threads at once, one sticking out of the parent.
        Span(2, "b.one", 2.0, 6.0, parent=1),
        Span(3, "b.two", 4.0, 12.0, parent=1),
    ]
    own = ledger_trace.self_times(spans)
    assert own[1] == 2.0  # [0,2) only: [2,10] is covered once
    assert own[3] == 6.0  # clipped to its parent's [4,10]


def test_hot_boundaries_count_as_children():
    span = Span(1, "w.run_job", 0.0, 10.0, hot={"batch.evaluate": [5, 6.0, 20, 20]})
    assert ledger_trace.self_times([span])[1] == 4.0


def test_recorder_parents_come_from_a_per_thread_stack():
    clock = FakeClock()
    recorder = Recorder(clock)
    outer = recorder.begin("a.outer")
    seen = {}

    def other_thread():
        span = recorder.begin("b.elsewhere")
        seen["parent"] = span.parent
        recorder.end(span)

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=5)
    inner = recorder.begin("a.inner")
    recorder.end(inner)
    recorder.end(outer)
    assert seen["parent"] is None  # another thread's stack is not ours
    assert inner.parent == outer.id
    assert [s.name for s in recorder.spans] == ["b.elsewhere", "a.inner", "a.outer"]


def _job_recorder():
    """One job as the three threads see it (client 1, handler 2, drain 3)."""
    recorder = Recorder()
    recorder.spans = [
        Span(1, "client.job", 0.0, 20.0, job="J", thread=1),
        Span(2, "client.submit", 0.0, 2.0, parent=1, job="J", thread=1),
        Span(3, "client.stream", 2.0, 16.0, parent=1, job="J", thread=1),
        Span(4, "client.result", 16.0, 19.0, parent=1, job="J", thread=1),
        # Handler thread: the POST learns its job from the submit below it.
        Span(5, "gateway.request", 0.5, 1.5, thread=2),
        Span(6, "gateway.submit", 0.6, 1.4, parent=5, job="J", thread=2),
        Span(7, "serve.server.submit", 0.7, 1.0, parent=6, job="J", thread=2),
        # Drain thread: queued behind another job until t=6.
        Span(8, "serve.server.run_next", 6.0, 14.0, job="J", thread=3),
        Span(9, "serve.store.put", 13.0, 13.5, parent=8, thread=3),
        Span(10, "gateway.request", 16.5, 18.5, job="J", thread=4),
        # A 421 answered for somebody: no job, must join nothing.
        Span(11, "gateway.request", 3.0, 3.2, thread=5),
    ]
    recorder.events = [
        ("job_started", "J", 6.1),
        ("terminal_published", "J", 13.9),
        ("terminal_seen", "J", 15.0),
    ]
    return recorder


def test_job_tree_joins_threads_and_closes():
    trees = ledger_trace.job_trees(_job_recorder())
    assert set(trees) == {"J"}
    tree = {span.name: span for span in trees["J"] if span.name != "gateway.request"}
    assert tree["serve.server.run_next"].parent == 3  # waited for in the stream
    assert tree[ledger_trace.QUEUE_WAIT].start == 1.0  # admitted
    assert tree[ledger_trace.QUEUE_WAIT].end == 6.0
    assert tree[ledger_trace.SSE_DELIVER].start == 14.0
    assert 11 not in {span.id for span in trees["J"]}

    parts = ledger_trace.decompose(trees["J"])
    assert parts["latency"] == 20.0
    assert parts["residual"] == 0.0
    assert parts["queue_wait"] == 4.0  # [2,6): the part the client waited
    total = sum(parts["layers"].values()) + parts["queue_wait"] + parts["residual"]
    assert abs(total - parts["latency"]) < 1e-9
    assert parts["layers"]["serve.store"] == 0.5
    assert parts["layers"]["serve.server"] == 7.5 + 0.3  # run_next self + submit
    assert parts["layers"]["gateway"] == (16.0 - 14.0) + 0.2 + 0.5 + 2.0


def test_residual_is_the_wait_nothing_explains():
    recorder = _job_recorder()
    # Lose the drain thread's span: the stream wait is now unexplained.
    recorder.spans = [s for s in recorder.spans if s.id not in (8, 9)]
    parts = ledger_trace.decompose(ledger_trace.job_trees(recorder)["J"])
    # Only SSE delivery [13.9, 16] still accounts for part of the wait.
    assert abs(parts["residual"] - (14.0 - 2.1)) < 1e-9


def test_shims_install_and_restore_identically():
    recorder = Recorder()
    patches = ledger_trace.boundary_patches(recorder)
    before = [vars(p.owner)[p.attr] for p in patches]
    with ledger_trace.Patches(patches):
        during = [vars(p.owner)[p.attr] for p in patches]
        assert all(a is not b for a, b in zip(before, during))
    after = [vars(p.owner)[p.attr] for p in patches]
    assert all(a is b for a, b in zip(before, after))


def test_span_shim_labels_drops_and_flags():
    recorder = Recorder()
    made = ledger_trace.span_shim(
        recorder, "x.make", lambda n: {"job_id": n} if n else None,
        job_of=lambda args, kwargs, result: (result or {}).get("job_id"),
        keep=lambda result: result is not None,
    )
    assert made("J1") == {"job_id": "J1"}
    assert made(None) is None  # an idle poll: dropped
    assert [(s.name, s.job) for s in recorder.spans] == [("x.make", "J1")]

    def boom():
        raise ValueError("no")

    def rename(span, exc):
        span.name = f"x.{type(exc).__name__}"

    try:
        ledger_trace.span_shim(recorder, "x.boom", boom, on_error=rename)()
    except ValueError:
        pass
    assert recorder.spans[-1].error
    assert recorder.spans[-1].name == "x.ValueError"
