"""One job lifecycle: every ending settles in one place, every durable mark
goes through one journal, and a job in flight runs once."""

import ast
import importlib
import inspect
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.fleet import FleetMember, FleetTopology
from repro.gateway import Gateway
from repro.resilience.errors import MutationFencedError
from repro.serve import (
    FileJobQueue,
    InferenceServer,
    JobSpec,
    JobState,
    RetryPolicy,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def spec(**overrides):
    fields = dict(workload="votes", engine="mh", n_iterations=30,
                  n_warmup=15, n_chains=2, scale=0.25, elide=False)
    fields.update(overrides)
    return JobSpec(**fields)


#: Fails as poison in every attempt: the sampler cannot be built.
FAILING = spec(seed=9, engine_options={"not_a_sampler_option": 1})


def make_server(**kwargs):
    kwargs.setdefault("n_workers", 1)
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("tracer", Tracer())
    kwargs.setdefault(
        "retry_policy", RetryPolicy(max_attempts=2, base_backoff=0.0)
    )
    return InferenceServer(**kwargs)


def calls_by_function(path, attribute):
    """{function name: [call nodes]} for calls of ``*.attribute(...)`` or
    ``attribute(...)`` in ``path``."""
    found = {}
    for function in ast.walk(ast.parse(path.read_text())):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None
            )
            if name == attribute:
                found.setdefault(function.name, []).append(node)
    return found


class TestOnePlace:
    SERVER = SRC / "serve" / "server.py"

    def test_a_job_changes_state_only_in_settle_or_to_start_an_attempt(self):
        transitions = calls_by_function(self.SERVER, "transition")
        assert set(transitions) == {"_settle", "run_next"}
        (start,) = transitions["run_next"]
        assert ast.unparse(start.args[0]) == "JobState.RUNNING"

    def test_answers_are_stored_only_in_settle(self):
        for call in ("_store_put", "StoredResult"):
            assert set(calls_by_function(self.SERVER, call)) == {"_settle"}

    def test_queue_marks_are_written_only_by_the_journal(self):
        writers = set()
        for path in SRC.rglob("*.py"):
            for mark in ("mark_running", "mark_finished"):
                if mark in path.read_text() and path.name != "filequeue.py":
                    writers.add(path.relative_to(SRC).as_posix())
        assert writers == set()


def imported_modules(path):
    """Every module ``path`` imports from, lazy imports included: the
    module each import names, and the module defining each imported name
    (a package's re-export resolves to its source)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
            module = importlib.import_module(node.module)
            for alias in node.names:
                found.add(f"{node.module}.{alias.name}")
                value = getattr(module, alias.name, None)
                found.add(getattr(value, "__name__", None)
                          if inspect.ismodule(value)
                          else getattr(value, "__module__", None))
    return found


class TestNoPlatformScheduler:
    """The paper's Section V predictor and platform scheduler drive the
    figures from ``core/`` and ``arch/``. Every served job runs on the
    same pool, so the service carries no copy of them."""

    PAPER_MODEL = {
        "repro.core.predictor", "repro.core.scheduler",
        "repro.arch.machine", "repro.arch.platforms",
    }

    def test_the_service_imports_no_platform_model(self):
        importers = {
            path.relative_to(SRC).as_posix(): imported & self.PAPER_MODEL
            for package in ("serve", "gateway")
            for path in sorted((SRC / package).rglob("*.py"))
            if (imported := imported_modules(path)) & self.PAPER_MODEL
        }
        assert importers == {}

    def test_the_server_binds_profile_workload_but_never_calls_it(self):
        from repro.serve import server

        assert "profile_workload" in vars(server)
        for package in ("serve", "gateway"):
            for path in (SRC / package).rglob("*.py"):
                assert calls_by_function(path, "profile_workload") == {}, path


def log_history(log):
    """Each entry's records in order: ``submit``, ``running``,
    ``finished:<state>``."""
    history = {}
    for line in log.path.read_text().splitlines():
        record = json.loads(line)
        op = record["op"]
        if op == "finished":
            op = f"finished:{record['state']}"
        history.setdefault(record["id"], []).append(op)
    return history


class TestJournal:
    def test_every_ending_is_marked_finished_once(self, tmp_path):
        log = FileJobQueue(tmp_path / "queue.jsonl")
        with make_server() as server:
            journal = server.journal
            done = journal.record(server.submit(spec(seed=1)), log)
            failed = journal.record(server.submit(FAILING), log)
            expired = journal.record(
                server.submit(spec(seed=2, deadline_s=1e-3)), log
            )
            twin = server.submit(spec(seed=3))
            folded = [journal.record(twin, log),
                      journal.record(server.submit(spec(seed=3)), log)]
            time.sleep(0.01)  # the deadline lapses before the drain
            server.run_until_drained()
            hit = journal.record(server.submit(spec(seed=1)), log)
            assert journal._entries == {}  # finished jobs are forgotten
        history = log_history(log)
        assert history[done] == ["submit", "running", "finished:done"]
        assert history[failed] == [
            "submit", "running", "running", "finished:failed"
        ]
        assert history[expired] == ["submit", "finished:expired"]
        for entry in folded:
            assert history[entry] == ["submit", "running", "finished:done"]
        assert history[hit] == ["submit", "finished:done"]
        assert log.load().entries == []

    def test_recovered_entries_keep_their_ids(self, tmp_path):
        log = FileJobQueue(tmp_path / "queue.jsonl")
        entry = log.submit(spec(seed=4))
        with make_server() as server:
            job = server.submit(spec(seed=4))
            assert server.journal.record(job, log, entry) == entry
            server.run_until_drained()
        assert log_history(log) == {
            entry: ["submit", "running", "finished:done"]
        }


class TestInFlightDuplicates:
    def test_a_duplicate_of_a_running_job_folds_onto_it(self):
        duplicates = []

        def on_start(job):
            if not duplicates:
                duplicates.append(server.submit(job.spec))

        server = make_server(on_job_start=on_start)
        with server:
            job = server.submit(spec(seed=5))
            finished = server.run_until_drained()
        assert duplicates == [job]
        assert finished == [job]
        assert job.attempts == 1

    def test_a_duplicate_of_a_retrying_job_folds_onto_it(self):
        duplicates = []

        def on_finish(job):
            if job.state is JobState.RETRYING and not duplicates:
                duplicates.append(server.submit(job.spec))

        server = make_server(on_job_finish=on_finish)
        with server:
            job = server.submit(FAILING)
            finished = server.run_until_drained()
            assert duplicates == [job]
            assert finished == [job]
            assert (job.state, job.attempts) == (JobState.FAILED, 2)
            # Settled: the next submission is a job of its own.
            assert server.submit(FAILING) is not job

    def test_a_retry_is_parked_after_its_ending_is_announced(self):
        parked_early = []

        def on_finish(job):
            if job.state is JobState.RETRYING:
                parked_early.append(
                    any(retry is job for _, _, retry in server._retries)
                )

        server = make_server(on_job_finish=on_finish)
        with server:
            server.submit(FAILING)
            server.run_until_drained()
        assert parked_early == [False]


def test_concurrent_duplicates_run_once_and_finish_every_entry(tmp_path):
    """Six submitters and two drain threads on one server, switching every
    10 µs: each spec runs exactly once, and each journalled entry reads
    ``submit`` … one ``finished`` — a lost update in the in-flight index or
    the journal breaks one or the other."""
    log = FileJobQueue(tmp_path / "queue.jsonl")
    specs = [spec(seed=seed, n_iterations=20, n_warmup=10)
             for seed in (11, 12, 13)]
    stop = threading.Event()
    interval = sys.getswitchinterval()
    with make_server(n_workers=2) as server:

        def drain():
            while not stop.is_set():
                if server.run_next() is None:
                    time.sleep(0.001)

        def submitter():
            for _ in range(4):
                for job_spec in specs:
                    server.journal.record(server.submit(job_spec), log)

        drains = [threading.Thread(target=drain) for _ in range(2)]
        submitters = [threading.Thread(target=submitter) for _ in range(6)]
        sys.setswitchinterval(1e-5)
        try:
            for thread in drains + submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=120)
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and not all(
                job.state.terminal for job in list(server.jobs.values())
            ):
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in drains:
                thread.join(timeout=120)
        assert not any(t.is_alive() for t in drains + submitters)
        runs = {}
        for job in server.jobs.values():
            assert job.state is JobState.DONE
            runs[job.key] = runs.get(job.key, 0) + job.attempts
        assert runs == {job_spec.key(): 1 for job_spec in specs}
    history = log_history(log)
    assert len(history) == 6 * 4 * len(specs)
    for ops in history.values():
        assert ops[0] == "submit"
        assert ops[-1] == "finished:done"
        assert ops.count("finished:done") == 1
    assert log.load().entries == []


def test_recovery_outlives_entries_the_queue_refuses(tmp_path):
    """More recovered entries than the queue admits: the surplus is warned
    about and stays in the log for the next start, and start-up goes on
    (`repro serve --http` recovers through this method)."""
    log = FileJobQueue(tmp_path / "queue.jsonl")
    for seed in (21, 22, 23):
        log.submit(spec(seed=seed))
    with make_server(max_pending=1) as server:
        gateway = Gateway(server, port=0, file_queue=log)
        try:
            with pytest.warns(RuntimeWarning, match="could not resubmit"):
                assert gateway.recover(log.load().entries) == 1
        finally:
            gateway.http.server_close()
    assert len(log.load().entries) == 3


def test_a_shard_log_fences_each_write_by_the_lease_held_then(tmp_path):
    """The journal keeps a job's shard log across lease changes; each
    mark is fenced by whichever lease the replica holds when it lands."""
    member = FleetMember(
        tmp_path, FleetTopology.single_box(1, replica_id="r0"), "r0"
    )
    assert member.acquire_preferred() == [0]
    log = member.consumer(0)
    entry = log.submit(spec())
    log.mark_running(entry)
    member.release_all()
    with pytest.raises(MutationFencedError):
        log.mark_finished(entry)
    assert member.acquire_preferred() == [0]
    log.mark_finished(entry)
    assert log.load().entries == []
