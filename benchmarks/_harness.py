"""The shared ``--check`` of the benches that commit a ``BENCH_*.json``.

Each such ``bench_*.py`` describes its regression gate as one
:class:`BaselineCheck` — where its baseline lives, which field is compared,
how a baseline value becomes a floor, which per-row flags must hold and
which gates it adds over the whole measurement — and hands its entry
points to :func:`main`, which is the common ``__main__`` tail: measure,
report, then either ``--check`` against the committed baseline or rewrite
it.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


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
            held = value >= floor
            against = "" if base is None else f"baseline {base:.2f}x, "
            print(
                f"{key:14s} {self.metric} {value:8.2f}x "
                f"({against}floor {floor:.2f}x) {'ok' if held else 'REGRESSED'}"
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
