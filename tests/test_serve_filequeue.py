"""The durable JSONL submit queue and `repro serve` restart recovery."""

import json
import os
import threading
import time

import pytest

from repro import durable
from repro.serve import FileJobQueue, JobSpec
from repro.serve import filequeue as filequeue_mod

SPEC_A = JobSpec(workload="votes", engine="mh", n_iterations=30, n_chains=2,
                 seed=0, scale=0.25, elide=False)
SPEC_B = JobSpec(workload="votes", engine="mh", n_iterations=30, n_chains=2,
                 seed=1, scale=0.25, elide=False)


SPEC_LATE = JobSpec(workload="votes", engine="mh", n_iterations=30,
                    n_chains=2, seed=2, scale=0.25, elide=False)


def submit_inside_the_next_rewrite(monkeypatch, path, spec=SPEC_LATE):
    """Arrange for a second thread to ``submit`` at the instant the next
    compaction of ``path`` has read the log but not yet replaced it.

    No sleep decides the interleaving: the rewrite waits until the producer
    has either appended (there is no lock: the append is about to be
    erased) or is seen waiting on the held lock. Returns the producer
    thread; join it, then ``load()``.
    """
    arrived = threading.Event()

    def produce():
        try:
            FileJobQueue(path).submit(spec)
        finally:
            arrived.set()

    producer = threading.Thread(target=produce)
    rewrite = FileJobQueue._rewrite
    contended = durable.FileLock._maybe_break_stale

    def note_contention(lock):
        arrived.set()
        return contended(lock)

    def rewrite_once_a_submit_arrives(self, recovery):
        if not producer.ident:
            producer.start()
            assert arrived.wait(timeout=10)
        return rewrite(self, recovery)

    monkeypatch.setattr(
        durable.FileLock, "_maybe_break_stale", note_contention
    )
    monkeypatch.setattr(
        FileJobQueue, "_rewrite", rewrite_once_a_submit_arrives
    )
    return producer


class TestCompactionWindow:
    """An append can no longer land between a compaction's read and its
    replace (PR 19's stated residual): both take the log's lock."""

    def _finished_history(self, fq, n=4):
        for _ in range(n):
            entry = fq.submit(SPEC_A)
            fq.mark_running(entry)
            fq.mark_finished(entry)

    @pytest.mark.parametrize("compaction", ["compact", "load"])
    def test_submit_landing_mid_compaction_is_kept(
        self, tmp_path, monkeypatch, compaction
    ):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        self._finished_history(fq)  # 12 records, 0 live: load() compacts
        producer = submit_inside_the_next_rewrite(monkeypatch, fq.path)
        getattr(fq, compaction)()
        producer.join(timeout=10)
        assert not producer.is_alive()
        assert [e.spec for e in fq.load().pending] == [SPEC_LATE]
        assert not fq.path.with_name("queue.jsonl.lock").exists()

    def test_truncate_waits_for_an_append_in_flight(self, tmp_path):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        fq.submit(SPEC_A)
        with fq._lock():
            clearer = threading.Thread(target=fq.truncate)
            clearer.start()
            clearer.join(timeout=0.05)
            assert clearer.is_alive()  # parked on the lock, log untouched
            assert fq.path.read_text() != ""
        clearer.join(timeout=10)
        assert fq.path.read_text() == ""

    def test_lock_left_by_a_killed_process_is_broken_within_the_timeout(
        self, tmp_path
    ):
        """SIGKILL inside the critical section leaves the lock file behind;
        the next start-up ``load()`` must break it, not time out."""
        assert (filequeue_mod.LOCK_BREAK_SECONDS
                < filequeue_mod.LOCK_TIMEOUT_SECONDS)
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        fq.submit(SPEC_A)
        lock = fq.path.with_name("queue.jsonl.lock")
        lock.touch()
        abandoned = time.time() - filequeue_mod.LOCK_BREAK_SECONDS - 0.1
        os.utime(lock, (abandoned, abandoned))
        assert [e.spec for e in fq.load().pending] == [SPEC_A]
        fq.submit(SPEC_B)
        assert not lock.exists()

    def test_held_lock_degrades_the_append_instead_of_failing_the_job(
        self, tmp_path, monkeypatch
    ):
        from repro.telemetry import MetricsRegistry
        from repro.telemetry.instrument import RESILIENCE_DURABILITY_ERRORS

        monkeypatch.setattr(filequeue_mod, "LOCK_TIMEOUT_SECONDS", 0.02)
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        registry = MetricsRegistry()
        with fq._lock():  # a live peer mid-compaction
            with pytest.warns(RuntimeWarning, match="append failed"):
                assert filequeue_mod.append_or_degrade(
                    registry, fq.mark_running, "entry"
                ) is None
        assert registry.counter_value(
            RESILIENCE_DURABILITY_ERRORS, {"target": "filequeue"}
        ) == 1


class TestFileJobQueue:
    def test_submit_then_load_pending(self, tmp_path):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        a = fq.submit(SPEC_A)
        b = fq.submit(SPEC_B)
        recovery = fq.load()
        assert [e.entry_id for e in recovery.pending] == [a, b]
        assert [e.spec for e in recovery.pending] == [SPEC_A, SPEC_B]
        assert recovery.orphaned == []
        assert recovery.entries == recovery.pending

    def test_running_without_finished_is_orphaned(self, tmp_path):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        a = fq.submit(SPEC_A)
        b = fq.submit(SPEC_B)
        fq.mark_running(a)
        recovery = fq.load()
        assert [e.entry_id for e in recovery.orphaned] == [a]
        assert recovery.orphaned[0].spec == SPEC_A
        assert [e.entry_id for e in recovery.pending] == [b]
        # Orphans run first on recovery: they were admitted earlier.
        assert [e.entry_id for e in recovery.entries] == [a, b]

    def test_finished_entries_drop_out(self, tmp_path):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        a = fq.submit(SPEC_A)
        b = fq.submit(SPEC_B)
        fq.mark_running(a)
        fq.mark_finished(a, state="done")
        recovery = fq.load()
        assert [e.entry_id for e in recovery.entries] == [b]

    def test_legacy_bare_spec_lines_load_as_pending(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text(
            json.dumps(SPEC_A.to_dict()) + "\n"
            + json.dumps(SPEC_B.to_dict()) + "\n"
        )
        recovery = FileJobQueue(path).load()
        assert [e.spec for e in recovery.pending] == [SPEC_A, SPEC_B]

    def test_corrupt_lines_are_skipped_with_warning(self, tmp_path):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        a = fq.submit(SPEC_A)
        with fq.path.open("a") as handle:
            handle.write('{"op": "submit", "id": "torn-wr\n')
            handle.write(json.dumps({"op": "submit", "id": "bad",
                                     "spec": {"workload": "votes",
                                              "not_a_field": 1}}) + "\n")
        with pytest.warns(RuntimeWarning):
            recovery = fq.load()
        assert [e.entry_id for e in recovery.pending] == [a]

    def test_load_compacts_finished_history(self, tmp_path):
        """A long-lived queue accumulates submit/running/finished triples;
        once they dwarf the live entries, load() rewrites the log."""
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        for seed in range(4):
            spec = JobSpec(workload="votes", engine="mh", n_iterations=30,
                           n_chains=2, seed=seed, scale=0.25, elide=False)
            entry = fq.submit(spec)
            fq.mark_running(entry)
            fq.mark_finished(entry)
        live = fq.submit(SPEC_A)
        # 13 records, 1 live entry: past the 4× ratio, so load() compacts.
        recovery = fq.load()
        assert [e.entry_id for e in recovery.pending] == [live]
        lines = fq.path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record == {"op": "submit", "id": live,
                          "spec": SPEC_A.to_dict()}
        # The compacted log replays to the same state.
        assert [e.entry_id for e in fq.load().pending] == [live]

    def test_compaction_preserves_orphan_markers(self, tmp_path):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        orphan = fq.submit(SPEC_A)
        fq.mark_running(orphan)
        pending = fq.submit(SPEC_B)
        for _ in range(10):  # pad with finished history to cross the ratio
            entry = fq.submit(SPEC_A)
            fq.mark_finished(entry)
        recovery = fq.load()
        assert [e.entry_id for e in recovery.orphaned] == [orphan]
        assert [e.entry_id for e in recovery.pending] == [pending]
        # After the rewrite the orphan is *still* an orphan: its running
        # marker survived, so crash recovery semantics are unchanged.
        replayed = fq.load(compact=False)
        assert [e.entry_id for e in replayed.orphaned] == [orphan]
        assert [e.entry_id for e in replayed.pending] == [pending]
        assert len(fq.path.read_text().splitlines()) == 3

    def test_healthy_in_flight_queue_not_rewritten(self, tmp_path):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        a = fq.submit(SPEC_A)
        fq.submit(SPEC_B)
        fq.mark_running(a)
        before = fq.path.read_text()
        fq.load()  # 3 records, 2 live: under the ratio, no rewrite
        assert fq.path.read_text() == before

    def test_explicit_compact_is_unconditional(self, tmp_path):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        entry = fq.submit(SPEC_A)
        fq.mark_finished(entry)
        live = fq.submit(SPEC_B)
        fq.compact()
        lines = fq.path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["id"] == live

    def test_missing_file_and_truncate(self, tmp_path):
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        assert fq.load().entries == []
        fq.truncate()  # no file: no error
        fq.submit(SPEC_A)
        fq.truncate()
        assert fq.path.read_text() == ""
        assert fq.load().entries == []


class TestServeRestartRecovery:
    def test_drain_requeues_jobs_interrupted_mid_run(self, tmp_path, capsys):
        """Simulate a server killed mid-job: the queue log records the job
        as running but never finished; the next `repro serve` re-runs it."""
        from repro.cli import main

        for seed in (0, 1):
            assert main([
                "submit", "votes", "--engine", "mh", "--iterations", "30",
                "--chains", "2", "--seed", str(seed), "--scale", "0.25",
                "--no-elide", "--queue-dir", str(tmp_path),
            ]) == 0
        fq = FileJobQueue(tmp_path / "queue.jsonl")
        recovery = fq.load()
        # The "crashed" server started the first job but never finished it.
        fq.mark_running(recovery.pending[0].entry_id)
        capsys.readouterr()

        code = main([
            "serve", "--drain", "--queue-dir", str(tmp_path),
            "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovering 1 job(s)" in out
        assert "draining 2 job(s)" in out
        assert out.count(" done ") >= 2
        # Everything reached a terminal state, so the log compacts to empty.
        assert (tmp_path / "queue.jsonl").read_text() == ""
        assert len(list((tmp_path / "results").glob("*.pkl"))) == 2

    def test_submission_during_a_drain_survives_for_the_next(
        self, tmp_path, capsys, monkeypatch
    ):
        """`repro submit` racing a `--drain`: a late entry is in neither
        the drain's start-of-run snapshot nor (the log is compacted rather
        than cleared, and under the lock appends take) lost — the next
        drain runs it."""
        from repro.cli import main

        def submit(seed):
            return main([
                "submit", "votes", "--engine", "mh", "--iterations", "30",
                "--chains", "2", "--seed", str(seed), "--scale", "0.25",
                "--no-elide", "--queue-dir", str(tmp_path),
            ])

        assert submit(0) == 0
        mark_running = FileJobQueue.mark_running
        late = []

        def mark_running_then_submit(self, entry_id):
            # The first job's on_job_start window: a producer appends now.
            if not late:
                late.append(submit(1))
            return mark_running(self, entry_id)

        monkeypatch.setattr(
            FileJobQueue, "mark_running", mark_running_then_submit
        )
        # ... and a third appends while the drain's closing compaction has
        # read the log but not yet replaced it.
        closing = submit_inside_the_next_rewrite(
            monkeypatch, tmp_path / "queue.jsonl"
        )
        drain = ["serve", "--drain", "--queue-dir", str(tmp_path),
                 "--workers", "2"]
        assert main(drain) == 0
        closing.join(timeout=10)
        assert late == [0] and not closing.is_alive()
        assert "draining 1 job(s)" in capsys.readouterr().out
        # The finished entry dropped out; both late submissions are live.
        survivors = FileJobQueue(tmp_path / "queue.jsonl").load().entries
        assert [entry.spec.seed for entry in survivors] == [1, 2]

        assert main(drain) == 0
        assert "draining 2 job(s)" in capsys.readouterr().out
        assert (tmp_path / "queue.jsonl").read_text() == ""
        assert len(list((tmp_path / "results").glob("*.pkl"))) == 3
