"""Result store — the service's memoization layer.

Results are keyed by :meth:`JobSpec.key`, the digest of everything that
determines the draws. Because execution is deterministic (per-chain seeded
RNG streams), a stored result is *the* answer for that key: repeat
submissions are served from the store without sampling, which is what lets
the service absorb duplicate traffic cheaply.

The store is in-memory by default; give it a directory and every record is
also pickled to disk, surviving server restarts.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.amortize.policy import Provenance
from repro.durable import atomic_write, load_pickle
from repro.inference.results import SamplingResult
from repro.serve.job import ElisionSummary, JobSpec, Placement


@dataclass
class StoredResult:
    """One completed job's durable record."""

    spec: JobSpec
    result: SamplingResult
    placement: Optional[Placement] = None
    elision: Optional[ElisionSummary] = None
    #: Tier/diagnostic record of how the result was produced. Records
    #: pickled before this field existed load without it — read through
    #: :func:`stored_provenance` instead of the attribute.
    provenance: Optional[Provenance] = None
    metadata: Dict[str, Any] = field(default_factory=dict)


def stored_provenance(record: "StoredResult") -> Optional[Provenance]:
    """``record.provenance``, tolerating records pickled before the field
    existed (pickle restores ``__dict__`` as-written, so the attribute may
    simply be absent)."""
    return getattr(record, "provenance", None)


class ResultStore:
    """Keyed result cache with optional on-disk persistence."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = Path(directory) if directory else None
        self._records: Dict[str, StoredResult] = {}

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self):
        keys = set(self._records)
        if self.directory is not None and self.directory.exists():
            keys.update(p.stem for p in self.directory.glob("*.pkl"))
        return sorted(keys)

    def get(self, key: str) -> Optional[StoredResult]:
        """The stored record, or None — including for corrupt files.

        A torn or truncated pickle (a copy interrupted mid-transfer) is
        skipped with a warning instead of raised
        (:func:`repro.durable.load_pickle`).
        """
        record = self._records.get(key)
        if record is None and self.directory is not None:
            record = load_pickle(
                self._path(key), StoredResult, "the job will be recomputed"
            )
            if record is not None:
                self._records[key] = record
        return record

    def put(self, key: str, record: StoredResult) -> None:
        # Memory first: even if the disk write below fails (ENOSPC, a dying
        # volume), this process keeps serving the result — the server's
        # breaker wrapper degrades durability, not the answer.
        self._records[key] = record
        if self.directory is not None:
            atomic_write(
                self._path(key),
                lambda handle: pickle.dump(record, handle),
                chaos_target="store",
            )
