"""The environment surface of ``src/repro`` is five documented switches.

Every independently settable value doubles the configurations the tests
and benchmarks must cover, so the set of ``REPRO_*`` names the package
reads is pinned to the "Environment switches" table of ``docs/API.md``:
a new knob has to be added to the table — and argued for — to get past
this test, and a documented one that nothing reads has to be removed.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"\bREPRO_[A-Z_]+\b")


def _names_read_in_src():
    return {
        name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in NAME.findall(path.read_text())
    }


def _names_in_api_table():
    text = (ROOT / "docs" / "API.md").read_text()
    section = text.split("## Environment switches", 1)[1].split("\n## ", 1)[0]
    return {
        name
        for line in section.splitlines() if line.startswith("| `REPRO_")
        for name in NAME.findall(line.split("|")[1])
    }


def test_src_reads_exactly_the_documented_switches():
    documented = _names_in_api_table()
    assert documented == {
        "REPRO_COMPILED_TAPE", "REPRO_SUFFSTATS", "REPRO_BATCH",
        "REPRO_TELEMETRY", "REPRO_CHAOS",
    }
    assert _names_read_in_src() == documented
