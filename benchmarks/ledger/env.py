"""The environment a workload run is allowed to see, and a record of it.

``prepare()`` must run before numpy is imported: BLAS reads its thread
count once, and two pool workers on two cores must not each start two
more threads. Every ``REPRO_*`` switch is removed so the stack boots in
its default configuration whatever shell launched the benchmark.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parents[2]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Reference-loop means of the set-up and the timed phase further apart than
#: this mark a run noisy: the machine changed speed under it.
NOISY_SENTINEL_DRIFT = 0.10


def prepare() -> None:
    """Scrub switches, pin BLAS threads, put ``src/`` on the path."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: the program under test is missing ({src}/repro)")
    sys.path.insert(0, str(src))


def assert_defaults() -> None:
    """The three replay switches must be where a fresh install has them."""
    from repro import batch
    from repro.autodiff import compile as tape_compile
    from repro.autodiff import suffstats

    for module in (tape_compile, suffstats, batch):
        if not module.enabled():
            raise RuntimeError(f"{module.__name__}.enabled() is off by default")


def filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and str(path).startswith(parts[1]) and \
                len(parts[1]) > len(best):
            best, fstype = parts[1], parts[2]
    return fstype


def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    if not (REPO_ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def header(temp_root: Path) -> Dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "filesystem": filesystem_of(temp_root),
        "commit": commit(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }
