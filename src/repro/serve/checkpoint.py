"""Chain checkpointing for running jobs.

Each worker periodically snapshots its chain's draws-so-far to one ``.npz``
file per ``(job, chain)``; writes go through
:func:`repro.durable.atomic_write`, so a superseded hung worker and its
replacement writing one chain cannot tear the file. A crashed or killed
job therefore leaves a usable partial posterior behind — the same prefix a
completed run would have produced, by the determinism guarantee — which
:func:`CheckpointStore.load_job` reassembles into per-chain arrays.

Checkpoint format (npz), schema version 2:

* ``version`` — checkpoint schema version (files without it are v1);
* ``samples`` — (t+1, dim) draws so far, warmup included;
* ``iteration`` — last completed iteration ``t`` (0-based);
* ``n_warmup``, ``n_iterations``, ``chain_index`` — run geometry;
* ``logps``, ``work``, ``tree_depths`` — per-iteration traces (optional,
  v2);
* ``sampler_state`` — a pickled sampler state snapshot (optional, v2): the
  RNG bit-generator state, current position and cached log-density/gradient,
  step size and adaptation state. With it present, :mod:`repro.serve.workers`
  can resume the chain mid-run and produce draws bit-identical to an
  uninterrupted run. Pickle is required to round-trip the RNG's big-int
  state and nested adaptation dicts exactly; it is stored as a raw ``uint8``
  array so the surrounding npz needs no ``allow_pickle``.

The archive is written through an open file handle (``np.savez`` against a
*path* silently appends ``.npz``, which would make the temp name match the
``chain-*.npz`` recovery glob — the v1 bug). Corrupt or truncated
checkpoints (e.g. from a crash mid-write of an older layout) are skipped
with a warning rather than poisoning recovery.
"""

from __future__ import annotations

import pickle
import warnings
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.durable import atomic_write

#: Current checkpoint schema version.
CHECKPOINT_VERSION = 2


def _pack_state(sampler_state: dict) -> np.ndarray:
    """Pickle a sampler state snapshot into a raw byte array."""
    blob = pickle.dumps(sampler_state, protocol=pickle.HIGHEST_PROTOCOL)
    return np.frombuffer(blob, dtype=np.uint8)


def _unpack_state(buffer: np.ndarray) -> dict:
    return pickle.loads(np.asarray(buffer, dtype=np.uint8).tobytes())


class CheckpointStore:
    """Per-(job, chain) draw snapshots under one directory."""

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)

    def _path(self, job_id: str, chain_index: int) -> Path:
        return self.directory / job_id / f"chain-{chain_index:03d}.npz"

    def save_chain(
        self,
        job_id: str,
        chain_index: int,
        samples: np.ndarray,
        iteration: int,
        n_warmup: int,
        n_iterations: int,
        logps: Optional[np.ndarray] = None,
        work: Optional[np.ndarray] = None,
        tree_depths: Optional[np.ndarray] = None,
        sampler_state: Optional[dict] = None,
    ) -> Path:
        path = self._path(job_id, chain_index)
        payload = {
            "version": np.int64(CHECKPOINT_VERSION),
            "samples": np.asarray(samples),
            "iteration": np.int64(iteration),
            "n_warmup": np.int64(n_warmup),
            "n_iterations": np.int64(n_iterations),
            "chain_index": np.int64(chain_index),
        }
        if logps is not None:
            payload["logps"] = np.asarray(logps)
        if work is not None:
            payload["work"] = np.asarray(work)
        if tree_depths is not None:
            payload["tree_depths"] = np.asarray(tree_depths)
        if sampler_state is not None:
            payload["sampler_state"] = _pack_state(sampler_state)

        # np.savez on a *path* appends ".npz"; a handle's name is verbatim.
        atomic_write(
            path,
            lambda handle: np.savez(handle, **payload),
            chaos_target="checkpoint",
        )
        return path

    @staticmethod
    def _read(path: Path) -> Optional[Dict]:
        """Load one checkpoint file; None (with a warning) when unreadable."""
        try:
            with np.load(path) as payload:
                record = {name: payload[name] for name in payload.files}
        except FileNotFoundError:
            return None
        except Exception as exc:  # truncated/corrupt npz, bad zip, ...
            warnings.warn(
                f"skipping corrupt checkpoint {path}: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        if "sampler_state" in record:
            try:
                record["sampler_state"] = _unpack_state(record["sampler_state"])
            except Exception as exc:
                warnings.warn(
                    f"checkpoint {path}: unreadable sampler state ({exc}); "
                    "draws kept, resume disabled",
                    RuntimeWarning,
                    stacklevel=3,
                )
                del record["sampler_state"]
        return record

    def load_chain(self, job_id: str, chain_index: int) -> Optional[Dict]:
        path = self._path(job_id, chain_index)
        if not path.exists():
            return None
        return self._read(path)

    def load_job(self, job_id: str) -> Dict[int, Dict]:
        """All checkpointed chains of a job, keyed by chain index.

        Corrupt files are skipped (with a warning), so one bad checkpoint
        degrades recovery for that chain only.
        """
        job_dir = self.directory / job_id
        if not job_dir.exists():
            return {}
        chains: Dict[int, Dict] = {}
        for path in sorted(job_dir.glob("chain-*.npz")):
            record = self._read(path)
            if record is None:
                continue
            chains[int(record["chain_index"])] = record
        return chains

    def latest_iteration(self, job_id: str, chain_index: int) -> int:
        """Last checkpointed iteration, or -1 when none exists."""
        record = self.load_chain(job_id, chain_index)
        if record is None:
            return -1
        return int(record["iteration"])

    def resume_path(self, job_id: str, chain_index: int) -> Optional[str]:
        """Path to a resumable checkpoint (one carrying sampler state)."""
        record = self.load_chain(job_id, chain_index)
        if record is None or "sampler_state" not in record:
            return None
        return str(self._path(job_id, chain_index))

    def discard_job(self, job_id: str) -> None:
        """Remove a job's checkpoints, including stray temp files.

        Tolerates concurrent deletion: a file that vanishes between the glob
        and the unlink (e.g. another recovery pass) is not an error.
        """
        job_dir = self.directory / job_id
        if not job_dir.exists():
            return
        # The last two patterns are temp names of earlier layouts.
        for pattern in (
            "chain-*.npz", "chain-*.npz.tmp-*",
            "chain-*.npz.tmp", "chain-*.tmp.npz",
        ):
            for path in job_dir.glob(pattern):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
        try:
            job_dir.rmdir()
        except OSError:
            pass
