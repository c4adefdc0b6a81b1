"""The one way this package puts bytes on disk.

Every persisted artefact — stored results, guides, chain checkpoints, shard
leases, the compacted queue log, suite caches, metrics files, chaos plans —
goes through :func:`atomic_write`; every pickle that may have been torn by a
writer predating it comes back through :func:`load_pickle`; every
read-verify-write transition shared by several processes is serialized by
:class:`FileLock`. A stdlib-only leaf (the chaos hook is imported at call
time), so any layer may import it. The contract is in ``docs/resilience.md``
("Durable writes").
"""

from __future__ import annotations

import os
import pickle
import time
import uuid
import warnings
from pathlib import Path
from typing import BinaryIO, Callable, Optional, Union

__all__ = ["FileLock", "atomic_write", "load_pickle"]


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
    """Cross-process ``O_CREAT | O_EXCL`` lock for short state transitions.

    Whoever creates the lock file holds the lock; ``__exit__`` unlinks it.
    A lock left behind by a crashed process is broken by age: whoever finds
    it older than ``break_after`` renames it aside (exactly one renamer
    wins) and competition resumes. Not ``fcntl.flock``: the worker pool
    forks at arbitrary times, and a forked child inherits the open file
    description and with it the lock.
    """

    def __init__(self, path, timeout: float, break_after: float) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.break_after = break_after

    def __enter__(self) -> "FileLock":
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.close(fd)
                return self
            except FileExistsError:
                self._maybe_break_stale()
            except FileNotFoundError:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                continue
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"could not take mutation lock {self.path} "
                    f"within {self.timeout:.1f}s"
                )
            time.sleep(0.005)

    def _maybe_break_stale(self) -> None:
        """Rename an abandoned lock aside; at most one breaker succeeds."""
        try:
            age = time.time() - self.path.stat().st_mtime
        except FileNotFoundError:
            return
        if age < self.break_after:
            return
        stale = self.path.with_name(
            f"{self.path.name}.stale-{uuid.uuid4().hex[:8]}"
        )
        try:
            os.rename(self.path, stale)
        except FileNotFoundError:
            return  # another breaker won the rename
        try:
            os.unlink(stale)
        except OSError:
            pass

    def __exit__(self, *exc_info) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
