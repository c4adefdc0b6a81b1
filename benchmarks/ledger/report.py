"""Generate ``LEDGER.md`` from the reports of one full ledger run.

The ledger is never written by hand: every number in it is read from the
per-run JSON reports, and every "which layer moves which metric where"
prediction below is marked confirmed or refuted by a stated rule. A
refuted prediction is a finding about the system, not a failure of the run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "LEDGER.md"

#: A layer "moves" a workload when it holds at least this share of what the
#: prediction is measured against (work on the blocking path, or set-up).
MOVES = 0.05
#: An optimisation "shows" when the ablation cell with it is this much
#: faster than the cell without.
SHOWS = 1.05


def _work_share(layer: str) -> Callable[[Dict], float]:
    """Share of the blocking path's *work* (queue wait left out: it is
    another job's service, already counted under that job's layers)."""

    def measure(traced: Dict) -> float:
        shares = traced["layer_shares"]
        work = 1.0 - shares.get("(queue wait)", 0.0)
        return shares.get(layer, 0.0) / work if work else 0.0

    return measure


def _setup_share(metric: str, per_second: float) -> Callable[[Dict], float]:
    def measure(traced: Dict) -> float:
        return (
            traced["per_layer"][metric] * per_second
            / traced["end_to_end"]["setup_s"]
        )

    return measure


def _ablation_gain(cell: str, base: str) -> Callable[[Dict], float]:
    def measure(traced: Dict) -> float:
        layer = traced["per_layer"]
        return layer[cell] / layer[base] if layer[base] else 0.0

    return measure


def _dispatch_share(traced: Dict) -> float:
    layer = traced["per_layer"]
    if not layer["autodiff.replay_us"]:
        return 0.0
    return layer["autodiff.replay_fixed_us"] / layer["autodiff.replay_us"]


def _kernel_share(traced: Dict) -> float:
    replayed = traced["per_layer"]["autodiff.replay_us"]
    return 1.0 - _dispatch_share(traced) if replayed else 0.0


EXACT = ("small-exact", "data-exact", "pool-mh")
ALL = EXACT + ("tier-fast",)


class Prediction(NamedTuple):
    """Which end-to-end metric a layer should move, and where.

    Everywhere but ``where`` the prediction is no change, i.e. ``measure``
    stays under ``threshold``.
    """

    layer: str
    moves: str
    where: Tuple[str, ...]
    what: str
    measure: Callable[[Dict], float]
    threshold: float = MOVES


def _work(layer, label, moves, where) -> Prediction:
    return Prediction(label, moves, where, "share of work", _work_share(layer))


def _setup(metric, per_second, where) -> Prediction:
    return Prediction(
        metric, "setup_s", where, "share of set-up",
        _setup_share(metric, per_second),
    )


PREDICTIONS = [
    _work("client", "client.*", "latency_p50_s", ("tier-fast",)),
    _work("gateway", "gateway.* (result_view_ms on data-exact)",
          "latency_p50_s, jobs_per_s", ("tier-fast", "data-exact")),
    _work("fleet", "fleet.*", "latency_p50_s", ("tier-fast",)),
    _work("serve.server", "serve.server.self_ms", "jobs_per_s", ("tier-fast",)),
    _work("serve.filequeue", "serve.filequeue.*", "latency_p50_s", ("tier-fast",)),
    _work("serve.store", "serve.store.*", "jobs_per_s", ("tier-fast",)),
    _work("serve.workers", "serve.workers.self_s, pool_efficiency",
          "jobs_per_s", ("small-exact", "pool-mh")),
    _work("serve.monitor", "serve.monitor.*", "jobs_per_s, ess_per_s",
          ("small-exact", "pool-mh")),
    _work("serve.checkpoint", "serve.checkpoint.*",
          "jobs_per_s (cpu_s_per_job on pool-mh)", ("small-exact", "pool-mh")),
    _work("amortize", "amortize.guide_get_ms, surrogate_ms", "jobs_per_s",
          ("tier-fast",)),
    _setup("amortize.guide_train_s", 1.0, ("tier-fast",)),
    _setup("arch.profile_s", 1.0, EXACT),
    _setup("suite.load_ms", 1e-3, ALL),
    _setup("autodiff.record_ms", 1e-3, EXACT),
    Prediction(
        "batch.* (batching on)", "jobs_per_s", ("small-exact",),
        "compiled_batch / compiled",
        _ablation_gain("ablation.compiled_batch", "ablation.compiled"), SHOWS,
    ),
    Prediction(
        "autodiff.suffstats_folded_ops (folding on)", "jobs_per_s",
        ("data-exact",), "compiled_suff / compiled",
        _ablation_gain("ablation.compiled_suff", "ablation.compiled"), SHOWS,
    ),
    Prediction(
        "autodiff.replay_fixed_us", "jobs_per_s", ("small-exact", "pool-mh"),
        "dispatch share of a replay", _dispatch_share, 0.5,
    ),
    Prediction(
        "autodiff.replay_us_per_kpt", "jobs_per_s", ("data-exact",),
        "kernel share of a replay", _kernel_share, 0.5,
    ),
]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or float(value).is_integer():
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _top_layer(shares: Dict[str, float]) -> str:
    real = {k: v for k, v in shares.items() if not k.startswith("(")}
    return max(real, key=real.get)


def ledger_text(
    untraced: Dict[str, List[Dict]],
    traced: Dict[str, Dict],
    contract: Dict,
    summarize: Callable,
    aa_lines: Optional[List[str]] = None,
) -> str:
    names = [w["name"] for w in contract["workloads"]]
    any_run = traced[names[0]]
    env = any_run["env"]
    lines = [
        "# The performance ledger",
        "",
        "Generated by `python benchmarks/ledger/run.py --trace` — do not edit;"
        " see `README.md` for what every name means. This file claims no"
        " gain: it is the baseline later changes are measured against.",
        "",
        f"- commit `{env['commit']}`, seed {any_run['seed']}, "
        f"`--seconds {any_run['seconds']:g}`, "
        f"{len(untraced[names[0]])} untraced run(s) + 1 traced run per workload",
        f"- nproc {env['nproc']}, Python {env['python']}, numpy "
        f"{env['numpy']}, scipy {env['scipy']}, temp root on "
        f"{env['filesystem']}, BLAS threads pinned to 1",
        "- closed loop, 2 clients; every `REPRO_*` switch unset",
        "- every time (and rate) is in reference seconds: wall clock divided"
        " by what a fixed loop, timed all through the run, read over the same"
        " interval (`README.md`, *Reference seconds*)",
        "",
        "## End to end (untraced runs)",
        "",
        "| workload | timed jobs | " + " | ".join(
            f"{m['name']} ({m['unit']})" for m in contract["end_to_end"]
        ) + " | failed_ratio | tail is | machine_ref_ms set-up/timed |",
        "|---|---|" + "---|" * (len(contract["end_to_end"]) + 3),
    ]
    for name in names:
        runs = untraced[name]
        summary = summarize(runs, contract)
        cells = []
        for metric in contract["end_to_end"]:
            row = summary[metric["name"]]
            cell = _fmt(row["median"])
            if len(runs) > 1:
                cell += f" [{_fmt(row['min'])}..{_fmt(row['max'])}]"
            cells.append(cell)
        e2e = runs[0]["end_to_end"]
        sentinel = "; ".join(
            f"{r['machine_ref_ms'][0]:.2f}/{r['machine_ref_ms'][1]:.2f}"
            + (" noisy" if r["noisy"] else "")
            for r in runs
        )
        lines.append(
            f"| {name} | {runs[0]['jobs']['timed']} | " + " | ".join(cells)
            + f" | {_fmt(summary['failed_ratio']['median'])} | "
            f"{e2e['latency_tail_rule']} of {e2e['latency_n']} | {sentinel} |"
        )

    lines += ["", "## Where a job's latency goes (traced runs)", ""]
    for name in names:
        shares = traced[name]["layer_shares"]
        layer = traced[name]["per_layer"]
        lines += [
            f"### {name} — top layer: `{_top_layer(shares)}`",
            "",
            "| layer | share of summed job latency |",
            "|---|---|",
        ]
        for key, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share >= 0.0005:
                lines.append(f"| {key} | {share:.1%} |")
        plain = summarize(untraced[name], contract)["latency_p50_s"]["median"]
        lines += [
            "",
            f"residual {layer['trace.residual_ratio']:.2%}; shim cost "
            f"{layer['trace.overhead_ratio']:.3%} of traced latency; "
            f"`latency_p50_s` traced / untraced = "
            f"{traced[name]['end_to_end']['latency_p50_s'] / plain:.3f} "
            f"(against the untraced median: includes run-to-run noise); "
            f"`inference.grad_evals` {_fmt(layer['inference.grad_evals'])} "
            f"traced, {_fmt(untraced[name][0]['grad_evals'])} untraced.",
            "",
        ]

    lines += [
        "## Which layer moves which metric, where",
        "",
        f"A layer moves a workload when its measured share is at least "
        f"{MOVES:.0%}; an optimisation shows when its ablation cell is at "
        f"least {SHOWS:.2f}x the cell without it. Each prediction names the "
        "workloads where the layer should move the metric; on every other "
        "workload the prediction is no change. **bold** = predicted to move.",
        "",
        "| layer metric | should move | measured as | "
        + " | ".join(names) + " | verdict |",
        "|---|---|---|" + "---|" * len(names) + "---|",
    ]
    for row in PREDICTIONS:
        cells, wrong = [], []
        for name in names:
            value = row.measure(traced[name])
            predicted = name in row.where
            if (value >= row.threshold) != predicted:
                wrong.append(name)
            cell = f"{value:.1%}" if row.threshold < 1 else f"{value:.2f}x"
            cells.append(f"**{cell}**" if predicted else cell)
        verdict = "confirmed" if not wrong else "refuted on " + ", ".join(wrong)
        lines.append(
            f"| `{row.layer}` | {row.moves} | {row.what} | "
            + " | ".join(cells) + f" | {verdict} |"
        )

    lines += [
        "", "## Every per-layer metric (traced runs)", "",
        "| metric | unit | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for metric in contract["per_layer"]:
        lines.append(
            f"| `{metric['name']}` | {metric['unit']} | " + " | ".join(
                _fmt(traced[name]["per_layer"][metric["name"]])
                for name in names
            ) + " |"
        )
    if aa_lines:
        lines += ["", "## A/A: two sets of the same code", "", "```"]
        lines += aa_lines
        lines += ["```"]
    return "\n".join(lines) + "\n"


def write_ledger(untraced, traced, contract, summarize, aa_lines=None) -> None:
    LEDGER.write_text(
        ledger_text(untraced, traced, contract, summarize, aa_lines)
    )
