"""The environment surface of ``src/repro`` is five documented variables.

Every independently settable value doubles the configurations the tests
and benchmarks must cover, so the set of ``REPRO_*`` names the package
reads is pinned to the "Environment switches" table of ``docs/API.md``:
a new knob has to be added to the table — and argued for — to get past
this test, and a documented one that nothing reads has to be removed. The
names are found by ``benchmarks/census.py``'s scanner, the one that also
reports the benches' variables nothing outside the tests sets.

Four of them are on/off switches, each a ``repro.switch.Switch``: a value
outside the documented spellings stops the import instead of silently
leaving the default.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "census", ROOT / "benchmarks" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def test_src_reads_exactly_the_documented_switches():
    documented = census.api_env_table()
    assert documented == {
        "REPRO_COMPILED_TAPE", "REPRO_SUFFSTATS", "REPRO_BATCH",
        "REPRO_TELEMETRY", "REPRO_CHAOS",
    }
    assert census.env_names("src") == documented


@pytest.mark.parametrize("name, module, value", [
    ("REPRO_BATCH", "repro.batch", "disabled"),
    ("REPRO_TELEMETRY", "repro.telemetry", "enabled"),
    ("REPRO_COMPILED_TAPE", "repro.autodiff.compile", "none"),
    ("REPRO_SUFFSTATS", "repro.autodiff.suffstats", "2"),
])
def test_an_undocumented_spelling_stops_the_import(name, module, value):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env[name] = value
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert f"ValueError: {name}={value!r}" in done.stderr
