"""Reference posteriors: long multi-chain NUTS runs a served answer is judged by.

Every identity battery compares one of our paths with another; this file
is what says the paths sample the right posterior. For each shape below it
runs four long NUTS chains and writes ``tests/data/reference_posteriors.npz``
holding, per shape and in the sampler's unconstrained space, the mean,
covariance, sd, 5/50/95 % quantiles and per-parameter ``mcse_mean`` of the
kept draws, with their max split R-hat, min ESS, seed, budget and the
numpy version that wrote them. A shape that misses R-hat < ``RHAT_MAX`` or
ESS >= ``ESS_FLOOR`` is refused: nothing is written.
``tests/test_reference_band.py`` judges served answers against the file
with :func:`repro.diagnostics.mcse.posterior_band` (``docs/reference.md``).

The draws are seeded, so on the same numpy build a rerun writes the same
bytes. ``--check`` regenerates in memory, asserts the floors and compares
the result with the committed file: byte for byte under the numpy that
wrote it, and otherwise -- bits do not carry across numpy builds -- says
``skipped: numpy X vs Y`` and holds every shape inside the band of its
committed twin instead.

``tickets@1.0`` (the ``data-exact`` shape) is left out: it has 404
parameters, NUTS 4 x 400 reached R-hat 1.19 and ESS 9, and its served
answer has 400 pooled draws, too few to fit a 404-dimensional covariance.

Usage::

    python benchmarks/reference_posteriors.py          # rewrite the file
    python benchmarks/reference_posteriors.py --check  # regenerate, compare
"""

import argparse
import io
import sys
import time
import zipfile
from pathlib import Path
from typing import Dict

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.batch import run_chains_batched  # noqa: E402
from repro.diagnostics import max_rhat, min_ess  # noqa: E402
from repro.diagnostics.mcse import posterior_band, posterior_moments  # noqa: E402
from repro.inference.engines import build_engine  # noqa: E402
from repro.suite import load_workload  # noqa: E402

PATH = ROOT / "tests" / "data" / "reference_posteriors.npz"
RHAT_MAX = 1.01
#: Bulk ESS over all chains: 100 per chain for four chains.
ESS_FLOOR = 400.0
N_CHAINS = 4
N_WARMUP = 1000
SEED = 0
QUANTILES = (0.05, 0.5, 0.95)


#: ``workload@scale`` -> iterations per chain, warmup included: one per
#: served ``BENCHMARK.json`` shape it can cover (``small-exact``,
#: ``pool-mh`` and the ``tier-fast`` families).
SHAPES: Dict[str, int] = {
    "12cities@0.5": 2000,
    # 4 x 2000 reaches R-hat 1.011 here: three times the kept draws.
    "votes@0.5": 4000,
    "ad@0.5": 2000,
    "survival@0.5": 2000,
}


def reference(shape: str) -> Dict[str, np.ndarray]:
    """One shape's arrays, as the file stores them."""
    workload, scale = shape.split("@")
    model = load_workload(workload, scale=float(scale))
    result = run_chains_batched(
        model, build_engine("nuts"), SHAPES[shape], n_chains=N_CHAINS,
        seed=SEED, n_warmup=N_WARMUP,
    )
    draws = result.stacked()
    flat = draws.reshape(-1, draws.shape[-1])
    return {
        **posterior_moments(draws),
        "cov": np.cov(flat, rowvar=False),
        "quantiles": np.quantile(flat, QUANTILES, axis=0),
        "max_rhat": np.float64(max_rhat(draws)),
        "min_ess": np.float64(min_ess(draws)),
        "seed": np.int64(SEED),
        "n_chains": np.int64(N_CHAINS),
        "n_iterations": np.int64(SHAPES[shape]),
        "n_warmup": np.int64(N_WARMUP),
    }


def floor_misses(entry: Dict[str, np.ndarray]) -> list:
    misses = []
    if not entry["max_rhat"] < RHAT_MAX:
        misses.append(f"R-hat {float(entry['max_rhat']):.4f} >= {RHAT_MAX}")
    if not entry["min_ess"] >= ESS_FLOOR:
        misses.append(f"ESS {float(entry['min_ess']):.0f} < {ESS_FLOOR:.0f}")
    return misses


def npz_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    """``np.savez`` without the clock: each member's zip timestamp is fixed,
    so the same arrays always give the same bytes."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for key in sorted(arrays):
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asarray(arrays[key]),
                                      allow_pickle=False)
            info = zipfile.ZipInfo(f"{key}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, member.getvalue())
    return buffer.getvalue()


def load(path: Path = PATH) -> Dict[str, Dict[str, np.ndarray]]:
    """The committed file as ``{shape: {field: array}}`` plus its
    ``numpy_version``."""
    with np.load(path, allow_pickle=False) as archive:
        out: Dict = {"numpy_version": str(archive["numpy_version"])}
        for key in archive.files:
            if "/" in key:
                shape, field = key.split("/", 1)
                out.setdefault(shape, {})[field] = archive[key]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate in memory and compare with the committed file",
    )
    args = parser.parse_args(argv)

    arrays = {"numpy_version": np.asarray(np.__version__)}
    entries = {}
    failed = False
    for name, n_iterations in SHAPES.items():
        start = time.perf_counter()
        entry = entries[name] = reference(name)
        wall = time.perf_counter() - start
        misses = floor_misses(entry)
        failed |= bool(misses)
        print(
            f"{name:<14s} {N_CHAINS} x {n_iterations} "
            f"(warmup {N_WARMUP}): R-hat {float(entry['max_rhat']):.4f}, "
            f"min ESS {float(entry['min_ess']):.0f}, {wall:.1f} s"
            + (f"  REFUSED: {'; '.join(misses)}" if misses else "")
        )
        arrays.update({f"{name}/{field}": value for field, value in entry.items()})
    if failed:
        print("a shape misses its floor: nothing written")
        return 1
    payload = npz_bytes(arrays)
    if not args.check:
        PATH.write_bytes(payload)
        print(f"wrote {PATH.relative_to(ROOT)} ({len(payload)} bytes, "
              f"numpy {np.__version__})")
        return 0

    committed = load()
    if committed["numpy_version"] == np.__version__:
        same = PATH.read_bytes() == payload
        print("identity against the committed file: "
              + ("bytes equal" if same else "BYTES DIFFER"))
        return 0 if same else 1
    print(f"skipped: numpy {np.__version__} vs {committed['numpy_version']} "
          "(identity); judging each shape by the band instead")
    for name, entry in entries.items():
        band = posterior_band(entry, committed[name])
        failed |= not band.passed
        print(f"{name:<14s} band: max |z| {band.max_z:.2f} (bound {band.z:.2f})"
              + ("" if band.passed else "  OUTSIDE"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
