"""The shared ``--check`` of the benches that commit a ``BENCH_*.json``.

Each such ``bench_*.py`` describes its regression gate as one
:class:`BaselineCheck` — where its baseline lives, which field is compared,
how a baseline value becomes a floor, which per-row flags must hold and
which gates it adds over the whole measurement — and hands its entry
points to :func:`main`, which is the common ``__main__`` tail: measure,
report, then either ``--check`` against the committed baseline or rewrite
it.

This box changes speed under a run, in states that outlast a timing block:
two blocks timed one after the other differ by that before they differ by
what they run. :func:`interleaved` times the sides of a comparison in
adjacent blocks, order alternating, so each repeat yields one ratio taken
in one machine state, and the quartiles of those ratios say how far they
spread. A row that carries ``<metric>_iqr`` is gated on it: below its floor
only when its upper quartile is — a median under the floor with the
quartile over it is printed ``unresolved`` and does not fail.
"""

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def interleaved(
    blocks: Sequence[Callable[[], None]], repeats: int
) -> List[List[float]]:
    """Seconds per call of each block, ``repeats`` times over.

    One repeat times every block once, back to back; every other repeat
    runs them in reverse order, so no block is always the one that follows
    a warm cache or meets a slow spell first. Returns one list of
    ``repeats`` timings per block; ``zip`` of them is the repeats.
    """
    samples: List[List[float]] = [[] for _ in blocks]
    order = list(range(len(blocks)))
    for _ in range(repeats):
        for index in order:
            start = time.perf_counter()
            blocks[index]()
            samples[index].append(time.perf_counter() - start)
        order.reverse()
    return samples


def _by_workload(row: dict) -> str:
    return row["workload"]


@dataclass(frozen=True)
class BaselineCheck:
    """One bench's regression gate against its committed baseline."""

    path: Path
    #: Names the measurement in the closing line.
    what: str
    #: Baseline value (None: the baseline has no such row) -> the floor the
    #: row must hold, or None to skip the row.
    floor: Callable[[Optional[float]], Optional[float]]
    #: The compared field, of a measured row and of its baseline entry.
    metric: str = "speedup"
    #: Measured row -> its key in the baseline.
    key: Callable[[dict], str] = _by_workload
    #: Baseline document -> ``{key: value}``; the default reads
    #: ``doc["workloads"][key][metric]``.
    values: Optional[Callable[[dict], Dict[str, float]]] = None
    #: ``(row field, message)``: the row fails when the field is falsy.
    require: Sequence[Tuple[str, str]] = ()
    #: ``(row field, message)``: the row fails when the field is truthy.
    forbid: Sequence[Tuple[str, str]] = ()
    #: ``rows -> (failure name, message)`` pairs: gates over the whole run.
    gates: Sequence[Callable[[list], Iterable[Tuple[str, str]]]] = ()
    #: Measured rows -> the rows to gate, when the gated number is derived
    #: from the measurement rather than one of its rows.
    derive: Optional[Callable[[list], list]] = None

    def __call__(self, rows: list) -> int:
        """Print one line per row; 0 when everything holds, else 1."""
        if self.derive is not None:
            rows = self.derive(rows)
        doc = json.loads(self.path.read_text())
        if self.values is not None:
            baseline = self.values(doc)
        else:
            baseline = {
                key: entry[self.metric]
                for key, entry in doc["workloads"].items()
            }
        failures: List[str] = []
        for row in rows:
            key = self.key(row)
            base = baseline.get(key)
            floor = self.floor(base)
            if floor is None:
                continue
            value = row[self.metric]
            # Quartiles of the row's own repeats, when it measured them: a
            # regression is one the spread resolves.
            spread = row.get(f"{self.metric}_iqr")
            held = (value if spread is None else spread[1]) >= floor
            verdict = (
                "ok" if value >= floor else
                "unresolved" if held else "REGRESSED"
            )
            quartile = (
                "" if spread is None
                else f" [{spread[0]:.2f}, {spread[1]:.2f}]"
            )
            against = "" if base is None else f"baseline {base:.2f}x, "
            print(
                f"{key:14s} {self.metric} {value:8.2f}x{quartile} "
                f"({against}floor {floor:.2f}x) {verdict}"
            )
            flagged = [
                message for field, message in self.require if not row[field]
            ] + [message for field, message in self.forbid if row[field]]
            for message in flagged:
                print(f"{key:14s} {message}")
            if flagged or not held:
                failures.append(key)
        for gate in self.gates:
            for name, message in gate(rows):
                print(message)
                failures.append(name)
        if failures:
            print(f"perf regression: {sorted(set(failures))}")
            return 1
        print(f"{self.what} hold against the baseline")
        return 0


def main(
    measure: Callable[[], list],
    report: Callable[[list], None],
    check: BaselineCheck,
    write_baseline: Callable[[list], None],
    healthy: Callable[[list], bool] = lambda rows: True,
) -> None:
    """The benches' ``__main__``: ``--check`` gates, otherwise the baseline
    is rewritten and the exit code says whether the run was ``healthy``."""
    rows = measure()
    report(rows)
    if "--check" in sys.argv:
        sys.exit(check(rows))
    write_baseline(rows)
    sys.exit(0 if healthy(rows) else 1)
