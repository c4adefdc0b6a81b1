"""The one way this package puts bytes on disk.

Every persisted artefact — stored results, guides, chain checkpoints, shard
leases, the compacted queue log, suite caches, metrics files, chaos plans —
goes through :func:`atomic_write`; every pickle that may have been torn by a
writer predating it comes back through :func:`load_pickle`; every
read-verify-write transition shared by processes or threads is serialized
by :class:`FileLock`, a record lock the kernel holds. A stdlib-only leaf
(the chaos hook is imported at call time), so any layer may import it.
The contract is in ``docs/resilience.md`` ("Durable writes").
"""

from __future__ import annotations

import fcntl
import os
import pickle
import threading
import time
import uuid
import warnings
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Optional, Union

__all__ = ["FileLock", "atomic_write", "load_pickle"]

#: How long :class:`FileLock` waits before ``TimeoutError`` (an
#: ``OSError``, which the queue's journal degrades to "no durability for
#: this entry"). Liveness only: no lock is ever broken.
LOCK_TIMEOUT_SECONDS = 2.0

#: One mutex per lock file, taken by this process's threads before the
#: record lock (process-wide, as the record lock is), under its resolved
#: path and under each name it was asked for by. A forked child starts
#: with none: the parent's threads, which may hold some, do not run there.
_mutexes: Dict[str, threading.Lock] = {}
os.register_at_fork(after_in_child=_mutexes.clear)


def atomic_write(
    path,
    payload: Union[bytes, Callable[[BinaryIO], None]],
    chaos_target: Optional[str] = None,
) -> None:
    """Replace ``path`` with ``payload``, all of it or none of it.

    ``payload`` is the bytes themselves or a ``callable(handle)`` that
    writes them (``pickle.dump``, ``np.savez``). A named ``chaos_target``
    lets an ``enospc`` fault of a ``REPRO_CHAOS`` plan fail the write
    before any byte lands. The temp name is writer-unique, so two writers
    of one path never rename each other's file away, and carries no
    ``.npz``/``.pkl`` suffix, so no recovery glob can match it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if chaos_target is not None:
        from repro.resilience import chaos

        chaos.check_write(chaos_target)
    tmp = path.with_name(f"{path.name}.tmp-{uuid.uuid4().hex[:8]}")
    try:
        with tmp.open("wb") as handle:
            if callable(payload):
                payload(handle)
            else:
                handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_pickle(path, expected_type: type, consequence: str):
    """The ``expected_type`` instance pickled at ``path``, or None.

    A missing file is silently None. A torn, unpicklable or wrong-typed
    one is None with one ``RuntimeWarning`` naming the path and the
    ``consequence`` ("the job will be recomputed"): determinism makes
    recomputation always safe, while an exception here would wedge every
    future request for that key.
    """
    try:
        with open(path, "rb") as handle:
            value = pickle.load(handle)
    except FileNotFoundError:
        return None
    except Exception as exc:  # truncated/corrupt pickle, bad import
        problem = str(exc)
    else:
        if isinstance(value, expected_type):
            return value
        problem = f"unexpected payload ({type(value).__name__})"
    warnings.warn(
        f"skipping unreadable {path}: {problem}; {consequence}",
        RuntimeWarning,
        stacklevel=3,
    )
    return None


class FileLock:
    """Cross-process lock for short read-verify-write transitions.

    A POSIX record lock (``fcntl.lockf``) on a persistent ``<name>.lock``
    file, polled until :data:`LOCK_TIMEOUT_SECONDS` and then
    ``TimeoutError``. The kernel holds it for the process: a forked child
    does not inherit it, a holder that dies releases it at once, and a
    live holder's lock is never broken, however long it pauses. Record
    locks do not exclude the threads of one process, so a per-path mutex
    goes in front of it, keyed by the resolved path: a process that held
    two fds on one lock file would drop its lock by closing either, so a
    holder that keeps state in the lock file does its I/O on ``fd``.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def __enter__(self) -> "FileLock":
        deadline = time.monotonic() + LOCK_TIMEOUT_SECONDS
        name = str(self.path)
        self._mutex = _mutexes.get(name)
        if self._mutex is None:  # resolve once: realpath stats each part
            self._mutex = _mutexes.setdefault(
                os.path.realpath(name), threading.Lock()
            )
            _mutexes[name] = self._mutex
        while not self._mutex.acquire(blocking=False):
            self._wait(deadline)
        self.fd = -1
        try:
            try:
                self.fd = os.open(name, os.O_RDWR | os.O_CREAT, 0o644)
            except FileNotFoundError:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self.fd = os.open(name, os.O_RDWR | os.O_CREAT, 0o644)
            while True:
                try:
                    fcntl.lockf(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    return self
                except (BlockingIOError, PermissionError):  # another process
                    self._wait(deadline)
        except BaseException:
            self.__exit__()
            raise

    def _wait(self, deadline: float) -> None:
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"could not take mutation lock {self.path} "
                f"within {LOCK_TIMEOUT_SECONDS:.1f}s"
            )
        time.sleep(0.005)

    def __exit__(self, *exc_info) -> None:
        if self.fd >= 0:
            os.close(self.fd)  # releases the record lock
        self._mutex.release()
