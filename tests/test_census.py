"""Nothing under the service layers is reached by tests alone, unargued.

``benchmarks/census.py`` lists every definition and keyword parameter of
``src/repro`` (the paper artefact aside) that no non-test
caller reaches, and carries a keep-list with one reason per row. The static
report must equal that list: new test-only code has to be argued onto it
(or deleted), and a kept name that gains a real caller, or goes, has to
come off it.
"""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "census.py"
_spec = importlib.util.spec_from_file_location("census", PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def test_static_report_is_the_keep_list():
    reported = set(census.static_report())
    static_keep = set(census.KEEP) - set(census.DYNAMIC_ONLY)
    assert reported - static_keep == set(), "argue these or delete them"
    assert static_keep - reported == set(), "stale keep-list entries"


def test_every_kept_row_has_a_reason():
    assert all(reason.strip() for reason in census.KEEP.values())
