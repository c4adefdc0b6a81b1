"""GuideStore — trained, reusable ADVI guides for amortized serving.

The amortization bet (ROADMAP item 11, "Amortized Bayesian Workflow"): at
traffic scale, most requests re-fit a handful of model families on
same-shape data, so the expensive part of an approximate answer — fitting
the variational guide — can be paid once per *family* and reused across
requests. The store keys guides by

    (model family, data-shape signature, model-code version)

deliberately excluding the dataset seed and the request seed: a guide
trained on one dataset is a *candidate* answer for fresh same-shape data,
and the PSIS gate (:mod:`repro.amortize.psis`) decides per request whether
the candidate is close enough. The model-code version is a digest of the
model's ``log_joint`` bytecode and parameter declarations, so editing a
model silently invalidates every guide trained against the old density —
the stale guide's key simply never matches again.

Persistence mirrors :class:`~repro.serve.store.ResultStore`: pickled
records under a directory, written and read back through
:mod:`repro.durable` — a crash mid-write never leaves a torn guide, corrupt
files are skipped with a warning (training again is always safe).

Training is deterministic — the training RNG is derived from the guide key
and :data:`TRAIN_SEED` — so every replica that trains the same
guide gets bit-identical parameters, and a retrained guide after a cache
wipe reproduces exactly: a guide's bits depend on its key alone, never on
which guides the store held before.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro import batch
from repro.durable import atomic_write, load_pickle
from repro.inference.advi import ADVI, AdviResult


def model_version(model) -> str:
    """Digest of the model *code* a guide was trained against.

    Covers the ``log_joint`` bytecode (nested code objects included), the
    parameter declarations (name, size, transform class), and the model
    class name. Editing any of those changes the density the guide
    approximates, so the digest is part of the guide key: stale guides are
    invalidated by never being looked up again.
    """
    hasher = hashlib.sha256()
    hasher.update(type(model).__name__.encode())

    def feed(code) -> None:
        hasher.update(code.co_code)
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                feed(const)
            else:
                hasher.update(repr(const).encode())

    feed(type(model).log_joint.__code__)
    for spec in model.params:
        hasher.update(
            f"{spec.name}:{spec.size}:{type(spec.transform).__name__}".encode()
        )
    return hasher.hexdigest()[:16]


def shape_signature(model) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """Canonical (name, shape) signature of the model's observed data."""
    return tuple(
        (name, tuple(arr.shape))
        for name, arr in sorted(model.data_arrays.items())
    )


#: The training seed of every stored guide; part of its key.
TRAIN_SEED = 0


def guide_key(model, train_seed: int = TRAIN_SEED) -> str:
    """Stable identity of the guide serving ``model``'s family and shape."""
    signature = ";".join(
        f"{name}{list(shape)}" for name, shape in shape_signature(model)
    )
    blob = f"{model.name}|{signature}|{model_version(model)}|{train_seed}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class GuideRecord:
    """One trained guide plus the metadata that scopes its reuse."""

    guide_id: str
    family: str
    advi: AdviResult
    #: Wall seconds spent fitting (0.0 for injected/synthetic guides).
    train_seconds: float = 0.0
    #: ADVI iterations used for the fit.
    train_iterations: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return int(self.advi.mu.size)


class GuideStore:
    """Trains, caches, and persists ADVI guides keyed by family and shape."""

    def __init__(
        self,
        directory: Optional[str] = None,
        advi: Optional[ADVI] = None,
    ) -> None:
        self.directory = Path(directory) if directory else None
        #: Hyperparameters every trained guide uses. The default budget is
        #: deliberately modest: training is the amortized cost, but the
        #: first request for a family still waits on it.
        self.advi = advi if advi is not None else ADVI(n_iterations=2000)
        self._records: Dict[str, GuideRecord] = {}
        self._scanned_disk = False
        #: One lock per guide key, so concurrent jobs of a family that has
        #: no guide yet pay its fit once (``_locks_lock`` guards the map).
        self._key_locks: Dict[str, threading.Lock] = {}
        self._locks_lock = threading.Lock()

    # -- lookup ----------------------------------------------------------------

    def key_for(self, model) -> str:
        return guide_key(model, TRAIN_SEED)

    def __len__(self) -> int:
        self._scan_disk()
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def get(self, key: str) -> Optional[GuideRecord]:
        """The cached record, or None (corrupt disk files are skipped)."""
        record = self._records.get(key)
        if record is None and self.directory is not None:
            record = load_pickle(
                self._path(key), GuideRecord, "the guide will be retrained"
            )
            if record is not None:
                self._records[key] = record
        return record

    # -- training --------------------------------------------------------------

    def get_or_train(self, model) -> Tuple[GuideRecord, bool]:
        """The guide for ``model``'s (family, shape, version), training on
        first use. Returns ``(record, trained)`` — ``trained`` is True when
        this call paid the fit. Safe from several threads: one of them
        trains a missing guide, the others wait for it and reuse it."""
        key = self.key_for(model)
        record = self.get(key)
        if record is not None:
            return record, False
        with self._locks_lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            record = self.get(key)
            if record is not None:
                return record, False
            return self.train(model), True

    def train(self, model) -> GuideRecord:
        """Fit a fresh guide for ``model`` and persist it.

        Deterministic: the training RNG is seeded from the guide key, so
        any process that trains this guide produces identical parameters,
        whatever else the store holds. A step's Monte Carlo draws are one group of lanes, answered as
        :func:`repro.batch.lane_evaluator` decides — one batched round when
        the batch switch is on and there are at least two of them, with
        the evaluator's counters kept in ``metadata["batch"]`` — the same
        bits either way.
        """
        key = self.key_for(model)
        rng = np.random.default_rng(
            np.random.SeedSequence((TRAIN_SEED, int(key, 16)))
        )
        evaluator = batch.lane_evaluator(model, self.advi.n_mc_samples)
        started = time.perf_counter()
        fitted = self.advi.fit(model, rng, evaluate=evaluator.evaluate)
        record = GuideRecord(
            guide_id=key,
            family=model.name,
            advi=fitted,
            train_seconds=time.perf_counter() - started,
            train_iterations=self.advi.n_iterations,
        )
        counters = evaluator.counters()
        if counters:
            record.metadata["batch"] = counters
        self.put(record)
        return record

    def put(self, record: GuideRecord) -> None:
        """Cache (and atomically persist) a record under its guide_id."""
        self._records[record.guide_id] = record
        if self.directory is not None:
            atomic_write(
                self._path(record.guide_id),
                lambda handle: pickle.dump(record, handle),
                chaos_target="guide",
            )

    # -- internals -------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def _scan_disk(self) -> None:
        """Load persisted records once (guides are dim-sized, i.e. tiny)."""
        if self._scanned_disk or self.directory is None:
            return
        if self.directory.exists():
            for path in self.directory.glob("*.pkl"):
                if path.stem not in self._records:
                    self.get(path.stem)
        self._scanned_disk = True
