"""Nothing under ``src/repro`` is read by tests alone, unargued.

``benchmarks/census.py`` lists, on seven surfaces, what of ``src/repro``
(the paper artefact ``suite/``, ``arch/`` and ``core/`` included) no
non-test reader reaches: definitions, keyword parameters, CLI flags,
metric series, dataclass fields, gateway routes and ``REPRO_*``
variables. It carries a keep-list with one reason per row. The static
report must equal that list, surface by surface: new test-only surface has
to be argued onto it (or deleted), and a kept name that gains a real
reader, or goes, has to come off it.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "census.py"
_spec = importlib.util.spec_from_file_location("census", PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


@pytest.fixture(scope="module")
def survey():
    return census.survey()


def test_static_report_is_the_keep_list(survey):
    rows, scanned = survey
    static_keep = set(census.KEEP) - set(census.DYNAMIC_ONLY)
    for kind in census.SURFACES:
        assert scanned[kind] > 0, f"{kind}: the scan found nothing to count"
        reported = {key for key, row in rows.items() if row.kind == kind}
        kept = {key for key in static_keep if census.kind_of(key) == kind}
        assert (reported - kept, kept - reported) == (set(), set()), (
            f"{kind}: (rows to argue or delete, stale keep-list entries)")


def test_every_kept_row_has_a_reason():
    assert all(reason.strip() for reason in census.KEEP.values())
