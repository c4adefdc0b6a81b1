"""``repro.durable`` — one battery, every call site an input.

The package has one way to put bytes on disk (:func:`atomic_write`), one way
to read a pickle that may be torn (:func:`load_pickle`) and one cross-process
lock (:class:`FileLock`, exercised in ``tests/test_fleet_lease.py`` and
``tests/test_serve_filequeue.py``). Each writer is driven here through its
public entry point, so a private copy of the pattern growing back under any
of them fails the same four properties; the ast guard at the bottom keeps a
ninth copy from appearing anywhere else.
"""

import ast
import multiprocessing
import pickle
import sys
import threading
import warnings
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
        guide_id="g", family="toy", data_shape=(("y", (4,)),),
        model_version="v0",
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
    ),
    "filequeue": Writer(
        lambda root: root / "queue.jsonl", _queue,
        lambda root: FileJobQueue(root / "queue.jsonl").load().pending[0],
        "filequeue",
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
    assert files_under(root) == [writer.path(root)]


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
    assert files_under(tmp_path) == [WRITERS[name].path(tmp_path)]


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
        assert files_under(tmp_path) == [writer.path(tmp_path)]
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
    assert files_under(root) == [writer.path(root)]


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

    def test_guide_pickle(self):
        record = GuideStore(directory=str(PARENT / "guides")).get(
            "parent-guide"
        )
        np.testing.assert_array_equal(record.advi.mu, [1.0, 2.0])

    def test_v2_checkpoint_resumes_bit_identically(self, tmp_path):
        import dataclasses

        from repro.serve.workers import ChainTask, execute_chain

        store = CheckpointStore(str(PARENT / "checkpoints"))
        assert store.latest_iteration("parent-job", 0) == 24
        resume_from = store.resume_path("parent-job", 0)
        assert resume_from is not None
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
