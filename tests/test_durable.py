"""``repro.durable`` — one battery, every call site an input.

The package has one way to put bytes on disk (:func:`atomic_write`), one way
to read a pickle that may be torn (:func:`load_pickle`) and one cross-process
lock (:class:`FileLock`: its fork and peer-process cases are at the bottom,
its callers' in ``tests/test_fleet_lease.py``, ``tests/test_serve_filequeue.py``
and ``tests/test_queue_fence.py``). Each writer is driven here through its
public entry point, so a private copy of the pattern growing back under any
of them fails the same four properties; the ast guard at the bottom keeps a
ninth copy from appearing anywhere else.
"""

import ast
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest

from repro import durable
from repro.amortize.guides import GuideRecord, GuideStore
from repro.core.pipeline import SuiteRunner
from repro.fleet.lease import LeaseState, ShardLease, lease_path, read_lease
from repro.inference.advi import AdviResult
from repro.inference.results import ChainResult, SamplingResult
from repro.resilience import chaos
from repro.serve import FileJobQueue, JobSpec
from repro.serve.checkpoint import CheckpointStore
from repro.serve.store import ResultStore, StoredResult
from repro.telemetry import (
    MetricsRegistry,
    read_snapshot,
    write_metrics_file,
    write_snapshot,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PARENT = Path(__file__).resolve().parent / "data" / "parent_artifacts"

SPEC = JobSpec(workload="votes", engine="mh", n_iterations=30, n_chains=2,
               seed=0, scale=0.25, elide=False)


def stored_result() -> StoredResult:
    chain = ChainResult(
        samples=np.zeros((4, 2)), logps=np.zeros(4),
        work_per_iteration=np.ones(4), n_warmup=2, accept_rate=1.0,
    )
    return StoredResult(
        spec=SPEC, result=SamplingResult(model_name="m", chains=[chain])
    )


def guide_record() -> GuideRecord:
    return GuideRecord(
        guide_id="g", family="toy",
        advi=AdviResult(mu=np.zeros(2), log_sigma=np.zeros(2)),
    )


@dataclass
class Writer:
    """One persisted artefact: where it lands, how a process writes it
    through the public API, and how a reader proves the file is whole."""

    path: Callable[[Path], Path]
    #: ``root -> put``: a fresh writer object per call, as two replicas
    #: (or a hung worker and its replacement) would each have their own.
    open: Callable[[Path], Callable[[], None]]
    load: Callable[[Path], object]
    chaos_target: Optional[str] = None
    #: False for the suite cache, which writes only on a miss.
    overwrites: bool = True
    #: Where a writer that serializes through :class:`durable.FileLock`
    #: keeps its lock file, which persists beside the artefact.
    lock: Optional[Callable[[Path], Path]] = None


def _store(root):
    store, record = ResultStore(str(root)), stored_result()
    return lambda: store.put("k", record)


def _guide(root):
    store, record = GuideStore(directory=str(root)), guide_record()
    return lambda: store.put(record)


def _checkpoint(root):
    store = CheckpointStore(str(root))
    return lambda: store.save_chain(
        "job", 0, np.zeros((5, 2)), 4, 2, 10, sampler_state={"rng": 1}
    )


def _lease(root):
    # One owner id on both handles: each acquire is a self-re-acquire.
    lease = ShardLease(root, 0, "a", clock=lambda: 1000.0)
    return lambda: lease.acquire() or pytest.fail("lease not acquired")


def _queue(root):
    queue = FileJobQueue(root / "queue.jsonl")
    if not queue.path.exists():
        queue.submit(SPEC)
    return queue.compact


def _suite_cache(root):
    runner = SuiteRunner(cache_dir=str(root))
    path = runner._cache_path("kind", ("key",))

    def put():
        path.unlink(missing_ok=True)  # a hit would not write
        assert runner._cached("kind", ("key",), lambda: {"value": 1})

    return put


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("c_total").inc()
    return registry


def _plan(root):
    faults = [chaos.ChaosFault(kind="delay", target="/nowhere", seconds=0.0)]
    return lambda: chaos.write_plan(str(root / "plan.json"), faults)


WRITERS = {
    "store": Writer(
        lambda root: root / "k.pkl", _store,
        lambda root: ResultStore(str(root)).get("k").spec, "store",
    ),
    "guide": Writer(
        lambda root: root / "g.pkl", _guide,
        lambda root: GuideStore(directory=str(root)).get("g").guide_id,
        "guide",
    ),
    "checkpoint": Writer(
        lambda root: root / "job" / "chain-000.npz", _checkpoint,
        lambda root: CheckpointStore(str(root)).load_chain("job", 0)[
            "sampler_state"
        ],
        "checkpoint",
    ),
    "lease": Writer(
        lambda root: lease_path(root, 0), _lease,
        lambda root: read_lease(root, 0).owner,
        lock=lambda root: lease_path(root, 0).with_suffix(".lock"),
    ),
    "filequeue": Writer(
        lambda root: root / "queue.jsonl", _queue,
        lambda root: FileJobQueue(root / "queue.jsonl").load().pending[0],
        "filequeue",
        lock=lambda root: root / "queue.jsonl.lock",
    ),
    "suite-cache": Writer(
        lambda root: SuiteRunner(cache_dir=str(root))._cache_path(
            "kind", ("key",)
        ),
        _suite_cache,
        lambda root: pickle.loads(next(root.glob("kind-*.pkl")).read_bytes()),
        overwrites=False,
    ),
    "snapshot": Writer(
        lambda root: root / "metrics.json",
        lambda root: lambda: write_snapshot(
            str(root / "metrics.json"), _registry()
        ),
        lambda root: read_snapshot(str(root / "metrics.json"))["counters"],
    ),
    "metrics-file": Writer(
        lambda root: root / "metrics.prom",
        lambda root: lambda: write_metrics_file(
            str(root / "metrics.prom"), _registry()
        ),
        lambda root: (root / "metrics.prom").read_text().index("c_total 1"),
    ),
    "chaos-plan": Writer(
        lambda root: root / "plan.json", _plan,
        lambda root: chaos.read_plan(str(root / "plan.json"))[0],
    ),
}


def files_under(root: Path):
    return sorted(p for p in root.rglob("*") if p.is_file())


def artefact_files(writer: Writer, root: Path):
    """What ``files_under`` must find once ``writer`` has written: the
    artefact and its lock file, if it has one; never a ``*.tmp-*``."""
    locks = [writer.lock(root)] if writer.lock is not None else []
    return sorted([writer.path(root)] + locks)


# -- (i) two writers, one path ------------------------------------------------


def _hammer(name: str, root: Path, start=None) -> None:
    put = WRITERS[name].open(root)
    if start is not None:
        start.wait(timeout=10)
    for _ in range(30):
        put()


def assert_concurrent_puts_are_whole(name: str, root: Path) -> None:
    """Two writer objects × 30 interleaved puts of one path from threads:
    nothing raises (a fixed temp name lets one writer rename the other's
    file away — ``FileNotFoundError`` — or onto the final name half
    written), the final file loads, no temp is left."""
    writer = WRITERS[name]
    errors = []
    barrier = threading.Barrier(2)

    def run():
        try:
            _hammer(name, root, start=barrier)
        except BaseException as exc:  # the collision this exists for
            errors.append(exc)

    writer.open(root)()  # both threads replace an existing file
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert writer.load(root) is not None
    assert files_under(root) == artefact_files(writer, root)


# ``store`` runs under the id it has had since PR 20, in
# tests/test_serve_server.py (test_two_stores_on_one_directory_put_...).
@pytest.mark.parametrize("name", [n for n in WRITERS if n != "store"])
def test_two_writers_of_one_path_never_tear_it(name, tmp_path):
    assert_concurrent_puts_are_whole(name, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(WRITERS))
def test_two_processes_of_one_path_never_tear_it(name, tmp_path):
    WRITERS[name].open(tmp_path)()
    fork = multiprocessing.get_context("fork")
    workers = [
        fork.Process(target=_hammer, args=(name, tmp_path)) for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert [worker.exitcode for worker in workers] == [0, 0]
    assert WRITERS[name].load(tmp_path) is not None
    assert files_under(tmp_path) == artefact_files(WRITERS[name], tmp_path)


# -- (ii) a failed write changes nothing --------------------------------------


@pytest.mark.parametrize("name", list(WRITERS))
def test_failed_write_keeps_the_previous_file_and_no_temp(
    name, tmp_path, monkeypatch
):
    writer = WRITERS[name]
    put = writer.open(tmp_path)
    put()
    before = writer.path(tmp_path).read_bytes()

    def dying_disk(fd):
        raise OSError("injected: fsync failed")

    # Every byte is in the temp file when the sync fails: the widest window.
    monkeypatch.setattr(durable.os, "fsync", dying_disk)
    with pytest.raises(OSError, match="fsync failed"):
        put()
    monkeypatch.undo()
    if writer.overwrites:
        assert writer.path(tmp_path).read_bytes() == before
        assert files_under(tmp_path) == artefact_files(writer, tmp_path)
    else:
        assert files_under(tmp_path) == []
    put()  # and nothing (a held lock, a stray temp) blocks the next write
    assert writer.load(tmp_path) is not None


def test_payload_raising_mid_write_keeps_the_previous_file(tmp_path):
    target = tmp_path / "sub" / "file.bin"
    durable.atomic_write(target, b"whole")

    def half_then_die(handle):
        handle.write(b"ha")
        raise KeyboardInterrupt  # cleanup must not be `except Exception`

    with pytest.raises(KeyboardInterrupt):
        durable.atomic_write(target, half_then_die)
    assert target.read_bytes() == b"whole"
    assert files_under(tmp_path) == [target]


# -- (iii) enospc fires before any byte ---------------------------------------


@pytest.mark.parametrize(
    "name", [n for n, w in WRITERS.items() if w.chaos_target]
)
def test_enospc_fires_before_any_byte_is_written(name, tmp_path, monkeypatch):
    writer = WRITERS[name]
    root = tmp_path / "root"
    put = writer.open(root)
    put()
    before = writer.path(root).read_bytes()
    plan = chaos.write_plan(
        str(tmp_path / "plan.json"),
        [chaos.ChaosFault(kind="enospc", target=writer.chaos_target)],
    )
    written = []
    real_open = Path.open

    def spy(self, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            written.append(self)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy)
    with chaos.installed(plan):
        with pytest.raises(OSError, match="injected chaos"):
            put()
    assert written == []
    assert writer.path(root).read_bytes() == before
    assert files_under(root) == artefact_files(writer, root)


# -- (iv) the three torn-pickle readers ---------------------------------------


def _cached_or_none(root):
    return SuiteRunner(cache_dir=str(root))._cached(
        "kind", ("key",), lambda: None
    )


READERS = {
    "store": (lambda root: ResultStore(str(root)).get("k"), "recomputed"),
    "guide": (
        lambda root: GuideStore(directory=str(root)).get("g"), "retrained",
    ),
    "suite-cache": (_cached_or_none, "recomputed"),
}


@pytest.mark.parametrize("name,damage", [
    (name, damage)
    for name in READERS
    for damage in ("missing", "truncated", "wrong-type")
    if (name, damage) != ("suite-cache", "wrong-type")  # it holds any type
])
def test_unreadable_pickle_warns_once_and_reads_as_none(
    name, damage, tmp_path
):
    read, consequence = READERS[name]
    path = WRITERS[name].path(tmp_path)
    WRITERS[name].open(tmp_path)()
    if damage == "missing":
        path.unlink()
    elif damage == "truncated":
        path.write_bytes(path.read_bytes()[:10])
    else:
        path.write_bytes(pickle.dumps({"not": "the record"}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert read(tmp_path) is None
    if damage == "missing":
        assert caught == []
    else:
        (warning,) = caught
        assert warning.category is RuntimeWarning
        assert str(path) in str(warning.message)
        assert consequence in str(warning.message)


# -- compatibility: artefacts written at the parent commit --------------------
# (tests/data/make_parent_artifacts.py, run against the parent's src/)


class TestParentCommitArtefactsStillLoad:
    def test_result_pickle(self):
        record = ResultStore(str(PARENT / "results")).get("parent-result")
        assert record.spec == SPEC
        np.testing.assert_array_equal(
            record.result.chains[0].samples, np.arange(8.0).reshape(4, 2)
        )

    def test_result_pickled_with_a_placement_is_recomputed(self):
        """Results stored while the service still placed jobs pickle a
        ``Placement``, a class that is gone: the record reads as a miss
        with one warning, so the job is recomputed instead of wedged."""
        store = ResultStore(str(PARENT / "results"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store.get("parent-placed-result") is None
        (warning,) = caught
        assert warning.category is RuntimeWarning
        assert "the job will be recomputed" in str(warning.message)
        assert store.get("parent-result") is not None

    def test_guide_pickle(self):
        record = GuideStore(directory=str(PARENT / "guides")).get(
            "parent-guide"
        )
        np.testing.assert_array_equal(record.advi.mu, [1.0, 2.0])

    def test_v2_checkpoint_resumes_bit_identically(self, tmp_path):
        import dataclasses

        from repro.serve.workers import ChainTask, execute_chain

        store = CheckpointStore(str(PARENT / "checkpoints"))
        resume_from = store.resume_path("parent-job", 0)
        assert resume_from is not None
        assert CheckpointStore._read(Path(resume_from))["iteration"] == 24
        task = ChainTask(
            job_id="fresh", chain_index=0, workload="votes", scale=0.25,
            dataset_seed=None, engine="mh", engine_options={},
            n_iterations=40, n_warmup=20, seed=5, initial_jitter=1.0,
            report_interval=10, checkpoint_interval=10,
            checkpoint_dir=str(tmp_path),
        )
        full = execute_chain(task)
        resumed = execute_chain(dataclasses.replace(
            task, job_id="resumed", resume_from=resume_from
        ))
        np.testing.assert_array_equal(resumed.samples, full.samples)
        np.testing.assert_array_equal(resumed.logps, full.logps)

    def test_lease_state(self):
        assert read_lease(PARENT, 3) == LeaseState(
            shard=3, owner="replica-a", epoch=1, expires_at=1010.0
        )

    def test_queue_log(self):
        recovery = FileJobQueue(PARENT / "queue.jsonl").load(compact=False)
        assert [e.spec.seed for e in recovery.orphaned] == [0]
        assert [e.spec.seed for e in recovery.pending] == [1]


# -- tmp-then-replace is written once -----------------------------------------


def private_replace_patterns(source: str) -> list:
    """Renames and temp-file names in ``source``: ``os.replace`` /
    ``os.rename``, ``Path.replace`` / ``Path.rename`` (one positional
    argument — ``str.replace`` takes two, ``dataclasses.replace`` keywords)
    and string constants naming a ``.tmp`` file. Glob patterns (they sweep
    strays of earlier layouts) and docstrings are not writers."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("replace", "rename")
        ):
            on_os = (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            )
            if on_os or (len(node.args) == 1 and not node.keywords):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and ".tmp" in node.value
            and "*" not in node.value
            and id(node) not in docstrings
        ):
            found.append(f"line {node.lineno}: {node.value!r}")
    return found


def test_the_guard_sees_what_it_should():
    source = (
        '"""Docstring naming chain-000.npz.tmp."""\n'
        "os.replace(a, b)\n"
        "os.rename(a, b)\n"
        "tmp.replace(path)\n"
        "text.replace('a', 'b')\n"
        "dataclasses.replace(task, resume_from=None)\n"
        "tmp = path.with_suffix('.tmp')\n"
        "name = f'{path.name}.tmp-{token}'\n"
        "job_dir.glob('chain-*.npz.tmp')\n"
    )
    assert [line.split(":")[0] for line in private_replace_patterns(source)] \
        == ["line 2", "line 3", "line 4", "line 7", "line 8"]


def test_tmp_then_replace_is_written_in_durable_only():
    offenders = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "durable.py"
        and (found := private_replace_patterns(path.read_text()))
    }
    assert offenders == {}
    assert private_replace_patterns((SRC / "durable.py").read_text())


def test_chaos_write_hook_has_two_callers():
    callers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "check_write(" in path.read_text()
        and path.name != "chaos.py"
    )
    assert callers == ["durable.py", "serve/filequeue.py"]


# -- FileLock: a record lock the kernel holds ---------------------------------

LOCK_PEER = """
import sys, time
from repro import durable
durable.LOCK_TIMEOUT_SECONDS = float(sys.argv[2])
with durable.FileLock(sys.argv[1]):
    print("held", flush=True)
    time.sleep(float(sys.argv[3]))
"""


def _peer(path, timeout: float, hold: float) -> subprocess.Popen:
    """Another process that takes ``FileLock(path)`` and holds it."""
    pythonpath = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    return subprocess.Popen(
        [sys.executable, "-c", LOCK_PEER, str(path), str(timeout), str(hold)],
        stdout=subprocess.PIPE, text=True, env=env,
    )


@contextmanager
def lock_held_by_a_peer(path):
    """A live peer process holding ``FileLock(path)``; yields its
    ``Popen`` (the caller may SIGKILL it) and kills it on the way out."""
    peer = _peer(path, timeout=10.0, hold=60.0)
    try:
        assert peer.stdout.readline() == "held\n"
        yield peer
    finally:
        peer.kill()
        peer.wait()
        peer.stdout.close()


def a_peer_takes_the_lock(path) -> bool:
    """Whether another process takes ``FileLock(path)`` within 0.5 s."""
    peer = _peer(path, timeout=0.5, hold=0.0)
    out, _ = peer.communicate(timeout=60)
    return peer.returncode == 0 and out == "held\n"


class NoWait:
    """``repro.durable.time`` where the lock must be free: any wait fails."""

    monotonic = staticmethod(time.monotonic)

    @staticmethod
    def sleep(seconds):
        raise AssertionError("waited for a lock that nothing holds")


def test_a_held_lock_excludes_other_processes_until_released(tmp_path):
    path = tmp_path / "x.lock"
    with durable.FileLock(path):
        assert not a_peer_takes_the_lock(path)
    assert path.exists()  # persistent: never unlinked
    assert a_peer_takes_the_lock(path)


def test_a_child_forked_while_the_lock_is_held_never_blocks_it(
    tmp_path, monkeypatch
):
    """The child is forked while a thread of the parent holds the lock. It
    inherits neither the record lock nor a locked mutex: once the parent
    releases, the child takes the lock, and while it lives on past its
    critical section a peer process and the parent take it at once."""
    path = tmp_path / "x.lock"
    fork = multiprocessing.get_context("fork")
    go, took, leave = fork.Event(), fork.Event(), fork.Event()

    def child():
        assert go.wait(timeout=30)
        with durable.FileLock(path):
            took.set()
        assert leave.wait(timeout=30)

    with durable.FileLock(path):
        forked = fork.Process(target=child)
        forked.start()
    go.set()
    try:
        assert took.wait(timeout=30), "the child could not take the lock"
        assert forked.is_alive()
        assert a_peer_takes_the_lock(path)
        monkeypatch.setattr(durable, "time", NoWait)
        with durable.FileLock(path):
            pass
    finally:
        leave.set()
        forked.join(timeout=30)
    assert forked.exitcode == 0


def test_one_lock_file_under_two_names_is_one_lock(tmp_path, monkeypatch):
    """Threads of one process that name one lock file two ways share its
    mutex: a second fd, closed when its wait gave up, would drop the
    process's record lock under the holder."""
    monkeypatch.setattr(durable, "LOCK_TIMEOUT_SECONDS", 0.05)
    (tmp_path / "link").symlink_to(tmp_path)
    with durable.FileLock(tmp_path / "x.lock"):
        with pytest.raises(TimeoutError, match="mutation lock"):
            with durable.FileLock(tmp_path / "link" / "x.lock"):
                pass
        assert not a_peer_takes_the_lock(tmp_path / "x.lock")


def _count_under_the_lock(counter: Path, times: int) -> None:
    for _ in range(times):
        with durable.FileLock(counter.with_name("count.lock")):
            counter.write_text(str(int(counter.read_text()) + 1))


def test_no_increment_is_lost_between_threads_and_processes(tmp_path):
    """Two forked processes and four threads (more than this box's cores)
    read-modify-write one file under the lock; a lost update shows as a
    short count."""
    counter = tmp_path / "count"
    counter.write_text("0")
    fork = multiprocessing.get_context("fork")
    processes = [
        fork.Process(target=_count_under_the_lock, args=(counter, 40))
        for _ in range(2)
    ]
    for process in processes:
        process.start()
    threads = [
        threading.Thread(target=_count_under_the_lock, args=(counter, 40))
        for _ in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for process in processes:
        process.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert [process.exitcode for process in processes] == [0, 0]
    assert int(counter.read_text()) == 6 * 40
