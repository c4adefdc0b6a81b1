"""Reachability census of the service layers: what only tests reach.

Lists what under ``src/repro/`` nothing but the tests reads, on seven
surfaces: definitions, keyword parameters, ``cli.py`` flags, the metric
series of ``telemetry/instrument.py``, fields of dataclasses, the gateway's
routes and the ``REPRO_*`` variables ``src/`` and ``benchmarks/`` read. The
paper artefact (``suite/``, ``arch/``, ``core/``) is out of scope, since
the figure benches are its callers. Three modes:

* **static** (default): an AST scan of ``src/``, ``examples/``,
  ``benchmarks/`` and ``tests/``, and a text scan of ``README.md``,
  ``docs/``, the benchmarks' Markdown, ``.github/workflows/`` and
  ``.claude/skills/verify/``. Every reference is classed by where it sits:
  ``src``, ``examples``, ``benchmarks``, ``ledger``
  (``benchmarks/ledger/``), ``docs`` (``README.md`` and ``docs/``), ``ci``,
  ``skills`` or ``tests``. A row is reported when ``tests`` is its only
  class, or it has none. What counts as a reference, by surface:

  - *definition*: a name, an attribute or an identifier-like string with
    its name, outside its own body; import lines and ``__all__`` strings
    do not count;
  - *keyword parameter*: a call to a function of that name that passes it
    by keyword, reaches its position, forwards ``*args``, or passes a
    ``**`` mapping that carries it: a function's own ``**kwargs`` is
    followed to that function's callers, any other mapping counts when
    its file names the parameter;
  - *flag*: its ``--name`` anywhere outside ``cli.py``, which declares it;
  - *series*: its constant or its ``repro_*`` name outside
    ``instrument.py``, except as the name a ``counter``/``gauge``/
    ``histogram`` call registers (a write);
  - *field*: an attribute load or an identifier-like string with its name
    (a keyword argument sets it), or the word in the text files;
  - *route*: its method and path on one line outside ``routes.py``, any
    segment standing for ``{id}``;
  - *variable*: its name in the text files or ``examples/``: something
    sets it or tells a reader to (the Python that reads it is the writer
    side). Its rows are the names ``src/`` and ``benchmarks/`` mention.

* **dynamic** (``--dynamic``): runs tier-1 (``pytest -x -q``) under a
  ``sys.setprofile`` call tracer, installed in every Python process of the
  run (through a ``sitecustomize`` on ``PYTHONPATH``), the forked pool
  workers included.
  A function is reached when any call to it came from a frame outside
  ``tests/``; a row is reported for each function tier-1 calls from tests
  only. (Everything tier-1 runs is test-driven, so reach cannot be asked
  of whole call chains: a helper that only a test-only function calls
  shows up once that function is gone.) Functions tier-1 never calls are
  counted, not listed.
* **ledger** (``--ledger``): runs one ``benchmarks/ledger/run.py --smoke
  --trace 1`` pass (two jobs per workload, its traced leg and probes
  included) under the same tracer, in a scratch copy of ``src/`` and
  ``benchmarks/`` so that no ledger file changes, and checks every kept
  definition whose reason starts ``ledger:`` (the ledger reaches it): one
  the pass never calls fails the run.

Matching is by name, so a definition that shares its name with a reached
one hides from the static scan; the dynamic mode is the second opinion.
Every reported row must be on :data:`KEEP` with its reason; the census
prints the table and exits 1 on a row that is not, and the static mode
also on a ``KEEP`` entry that it no longer reports (the entry is stale:
the name gained a reader or is gone). ``tests/test_census.py`` pins the
static report to the list, surface by surface.

Usage::

    python benchmarks/census.py            # a few seconds
    python benchmarks/census.py --dynamic  # tier-1, traced: ~13 min
    python benchmarks/census.py --ledger   # the ledger smoke, traced
"""

import argparse
import ast
import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "examples", "benchmarks", "tests")
#: Readers beside the Python: the docs, CI and the verify recipe.
TEXTS = ("README.md", "docs/*.md", "benchmarks/**/*.md",
         ".github/workflows/*.yml", ".claude/skills/verify/*.md")
SKIPPED = ("suite", "arch", "core")
NON_TEST = ("src", "examples", "benchmarks", "ledger", "docs", "ci", "skills")
SURFACES = ("def", "param", "flag", "series", "field", "route", "env")
if str(SRC.parent) not in sys.path:
    sys.path.insert(0, str(SRC.parent))  # the static scan imports repro

_REFERENCE = "reference implementation the tests compare against"
_READER = "registry reader the tests assert through"
_CLOCK = "test seam: a fake clock"
_TIMING = "test seam: timing, so fault and timeout tests run in seconds"

_GUIDE = ("format: a guide record pickled into the guide directory, which "
          "a later server loads")
_PSIS = ("PSIS's own result: the smoothed weights ess is computed from, and "
         "the tail they were fitted on; the PSIS tests check the smoothing "
         "by them")
_LOAD_BENCH = ("sizes the emulated-floor fleet bench, which item 4's open "
               "loop on real jobs replaces (ROADMAP)")

#: Every row the census reports, with the reason it stays. A definition is
#: ``module:Qual.name``; a keyword parameter is ``module:Qual.name(param)``;
#: a flag ``cli:--name``; a series its ``repro_*`` name; a dataclass field
#: ``module:Class[field]``; a route ``METHOD /path``; a variable its name.
KEEP: Dict[str, str] = {
    "autodiff.functional:check_grad": _REFERENCE,
    "autodiff.suffstats:force_override":
        "test seam: rewrites past the cost model, so the identity "
        "batteries cover every rewritable graph",
    **{
        f"models.distributions:{name}_np": _REFERENCE
        for name in (
            "bernoulli_logit_logpmf", "beta_logpdf", "binomial_logpmf",
            "cauchy_logpdf", "gamma_logpdf", "lognormal_logpdf",
            "normal_logpdf", "poisson_logpmf", "student_t_logpdf",
        )
    },
    "models.transforms:Interval":
        "modelling language (docs/API.md): Stan's bounded constraint; no "
        "suite model declares one yet",
    "models.transforms:Ordered":
        "modelling language (docs/API.md): Stan's ordered constraint; no "
        "suite model declares one yet",
    "resilience.chaos:installed":
        "chaos harness: arms REPRO_CHAOS around pool startup in drills",
    "resilience.chaos:write_plan": "chaos harness: writes a fault plan",
    "serve.workers:ChainWorkerPool.clear_halt":
        "undoes request_halt, so a test reuses one pool after a drain",
    "telemetry.metrics:MetricsRegistry.counter_value": _READER,
    "telemetry.metrics:MetricsRegistry.histograms_named": _READER,
    # -- parameters only tests set ----------------------------------------
    "client:GatewayClient(backoff_jitter)":
        "test seam: jitter-free or seeded backoff",
    "client:GatewayClient(retry_policy)":
        "test seam: one attempt, or fast retries",
    "client:GatewayClient(rng)": "test seam: seeded backoff jitter",
    "fleet.lease:ShardLease(clock)": _CLOCK,
    "gateway.app:Gateway(sse_keepalive)": _TIMING,
    "gateway.app:Gateway(sse_subscriber_limit)":
        "test seam: a small limit to reach the 503",
    "gateway.ratelimit:RateLimiter(clock)": _CLOCK,
    "gateway.sse:EventBroker(history_limit)":
        "test seam: a small cap to reach the overflow",
    "inference.adaptation:WelfordVariance.variance(regularize)":
        "test seam: the raw estimate, before Stan's shrinkage",
    "inference.chain:ChainSampler.sample_chain(resume_state)":
        "sequential resume, the reference the served resume is compared "
        "against",
    "inference.chain:ChainSampler.sample_chain(state_capture)":
        "sequential snapshots, the reference the served checkpoints are "
        "compared against",
    "resilience.admission:AdmissionController(brownout_hold_s)": _TIMING,
    "resilience.admission:AdmissionController(clock)": _CLOCK,
    "resilience.admission:AdmissionController(ewma_alpha)":
        "test seam: an estimate that follows one sample",
    "resilience.admission:AdmissionController(registry)":
        "test seam: a private registry (the server lends its own)",
    "resilience.breakers:BreakerBoard(failure_threshold)":
        "test seam: trips on the first failure",
    "resilience.breakers:CircuitBreaker(clock)": _CLOCK,
    "serve.server:InferenceServer(breakers)":
        "test seam: a board the test trips",
    "serve.server:InferenceServer(escalation_policy)":
        "test seam: a threshold that forces or forbids escalation",
    "serve.server:InferenceServer(max_pending)":
        "test seam: a small queue to reach the 429",
    "serve.server:InferenceServer(on_job_finish)":
        "test seam: observes attempt endings",
    "serve.server:InferenceServer(pool)":
        "test seam: a pool with test timings",
    "serve.workers:ChainWorkerPool(heartbeat_interval)": _TIMING,
    "serve.workers:ChainWorkerPool(heartbeat_timeout)": _TIMING,
    "serve.workers:ChainWorkerPool(job_timeout)": _TIMING,
    "serve.workers:ChainWorkerPool(max_chain_restarts)":
        "test seam: a restart budget to exhaust",
    "serve.workers:ChainWorkerPool(poll_interval)": _TIMING,
    "serve.workers:chain_tasks(metrics_interval)":
        "test seam: a flush per iteration",
    "serve.workers:execute_chain(emit)":
        "test seam: collects the events a worker would send",
    "serve.workers:execute_chain(stop_iteration)":
        "test seam: interrupts a chain to resume it",
    "telemetry.tracing:Tracer(capacity)": "test seam: a ring to evict from",
    "fleet.member:FleetMember(ttl)": _TIMING,
    # -- the service's surface --------------------------------------------
    "repro_fleet_wrong_replica_total":
        "the replica side of a misroute (421); the fleet tests assert by it "
        "that a ring-routed fleet answers none",
    **{f"amortize.guides:GuideRecord[{name}]": _GUIDE for name in (
        "data_shape", "model_version", "train_iterations",
        "warm_started_from",
    )},
    "amortize.psis:PsisDiagnostic[log_weights]": _PSIS,
    "amortize.psis:PsisDiagnostic[n_tail]": _PSIS,
    "diagnostics.mcse:Band[sd_ratio]":
        "which way a failing answer's spread is off; the reference-band "
        "test reads it and stays unmodified",
    "REPRO_BENCH_CACHE":
        "deployment setting: the figure benches' cache directory (a path)",
    **{f"REPRO_BENCH_FLEET_{name}": _LOAD_BENCH for name in (
        "DUPS", "ITERS", "JOBS", "STREAM", "THREADS",
    )},
}

_OP = "modelling language: an autodiff op no model tier-1 records uses"
_DENSITY = "modelling language: a density of workloads tier-1 does not record"
_CONSTRAINT = "modelling language: a constraint no model tier-1 records has"
_CLIENT = "ledger: its client loop calls it (client API)"
_CLIENT_DOC = "client API (docs/gateway.md): the call for a documented route"
_CLI = "the CLI's path (`repro serve --http`, `repro fleet`)"
_REPORT = "the report's path (`repro report`), run by the slow tests only"
_BENCH = "read by benchmarks/bench_batch_replay.py"
_ORACLE = ("the oracle (docs/reference.md): "
           "benchmarks/reference_posteriors.py judges its regenerated "
           "posteriors by it")

#: The rows only ``--dynamic`` reports: the static scan finds a non-test
#: reference to their name, but tier-1 reaches them from tests alone.
#: ``tests/test_census.py`` leaves them out of the static comparison.
DYNAMIC_ONLY: Dict[str, str] = {
    **{f"autodiff.ops:{name}": _OP for name in (
        "absolute", "arctan", "cholesky_lower", "cos", "erf", "expm1",
        "mean", "outer", "reshape", "sin", "sqrt", "tanh", "where",
    )},
    **{f"models.distributions:{name}": _DENSITY for name in (
        "beta_lpdf", "categorical_logit_lpmf", "dirichlet_lpdf",
        "gamma_lpdf", "inv_gamma_lpdf", "multi_normal_chol_lpdf",
        "neg_binomial_2_lpmf", "poisson_lpmf", "student_t_lpdf",
        "uniform_lpdf",
    )},
    **{f"models.transforms:{name}": _CONSTRAINT for name in (
        "Interval.constrain", "Interval.constrain_np", "Interval.unconstrain",
        "Ordered.constrain", "Ordered.constrain_np", "Ordered.unconstrain",
        "Simplex.unconstrain",
    )},
    **{f"client:{name}": _CLIENT for name in (
        "FleetClient.result", "FleetClient.submit", "GatewayClient.draws",
        "GatewayClient.stream",
    )},
    "client:GatewayClient.jobs": _CLIENT_DOC,
    "client:GatewayClient.metrics": _CLIENT_DOC,
    "client:FleetClient.close":
        "client API (docs/gateway.md): releases every replica's kept "
        "connection",
    "client:FleetClient.wait":
        "client API: the fleet load bench (bench_gateway_load.py) waits "
        "through it",
    **{name: _CLI for name in (
        "fleet.member:FleetMember.owned_shards",
        "fleet.placement:FleetTopology.load",
        "fleet.placement:FleetTopology.single_box",
        "gateway.app:Gateway.begin_drain", "gateway.app:Gateway.url",
    )},
    **{f"report:{name}": _REPORT for name in (
        "_amortize_section", "_batch_section", "_platform_table",
        "_suffstats_section", "_telemetry_section", "_workload_table",
    )},
    "telemetry.instrument:TelemetrySnapshot.capture": _REPORT,
    "batch.engine:BatchedEvaluator.engine":
        "ledger: its probes read it, as bench_batch_replay.py does",
    "batch.engine:BatchedEvaluator.stable": _BENCH,
    "batch.engine:BatchedTape.n_lane": _BENCH,
    "batch.engine:BatchedTape.n_vector": _BENCH,
    "cli:main": "the `repro` console script and `python -m repro`",
    "fleet.lease:ShardLease.held": "read by benchmarks/_harness.py",
    "inference.results:SamplingResult.chain_work": "examples/quickstart.py",
    "inference.results:SamplingResult.constrained": "examples/ call it",
    "resilience.admission:AdmissionController.observe":
        "job_finished folds each successful attempt in with it",
    "serve.job:JobSpec.build_sampler": "ledger: it patches and calls it",
    "serve.workers:execute_chain":
        "the one-chain run the serve tests compare against; "
        "benchmarks/ledger/probes.py imports it, so it may not go (the "
        "pool-efficiency probe there returns before calling it)",
    "telemetry.metrics:Gauge.inc":
        "moves the suffstats-active gauge by a delta",
    "telemetry:reset":
        "clears the global registry and tracer (docs/telemetry.md)",
    **{f"diagnostics.mcse:{name}": _ORACLE for name in (
        "Band.passed", "posterior_band", "posterior_moments",
    )},
    "switch:Switch.enable":
        "library switch (docs/API.md): `telemetry.enable()` opts library "
        "runs in, as the overhead bench does",
    "switch:Switch.disable":
        "library switch (docs/API.md): `repro run --no-suffstats` turns the "
        "rewrite off with it",
}
KEEP.update(DYNAMIC_ONLY)


# -- where a reference sits ------------------------------------------------


def caller_class(path: Path) -> str:
    """``src``, ``examples``, ``benchmarks``, ``ledger``, ``docs``, ``ci``,
    ``skills`` or ``tests``."""
    parts = path.relative_to(ROOT).parts
    if parts[0] == "tests" or "tests" in parts[:-1]:
        return "tests"
    if parts[0] == "benchmarks":
        return "ledger" if parts[1:2] == ("ledger",) else "benchmarks"
    return {"README.md": "docs", ".github": "ci", ".claude": "skills"}.get(
        parts[0], parts[0])


def scanned_files() -> Iterator[Path]:
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != Path(__file__).resolve():
                yield path


@lru_cache(maxsize=None)
def corpus() -> Tuple[Tuple[Path, str, str], ...]:
    """(path, caller class, text) of every scanned Python and text file."""
    paths = list(scanned_files()) + sorted(
        path for pattern in TEXTS for path in ROOT.glob(pattern))
    return tuple(
        (path, caller_class(path), path.read_text()) for path in paths)


def text_readers(pattern: str, writer: Optional[Path] = None,
                 python: Tuple[str, ...] = NON_TEST + ("tests",)) -> Counter:
    """Matches of ``pattern`` by caller class: in every text file, and in
    the Python files of the ``python`` classes but ``writer``."""
    regex = re.compile(pattern)
    return Counter(
        where for path, where, text in corpus()
        if path != writer and (path.suffix != ".py" or where in python)
        for _ in regex.finditer(text))


def module_name(path: Path) -> str:
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts)


def in_scope(path: Path) -> bool:
    rel = path.relative_to(SRC).parts
    return not (len(rel) > 1 and rel[0] in SKIPPED)


# -- definitions -----------------------------------------------------------


@dataclass
class Definition:
    module: str
    qualname: str
    path: Path
    first: int
    last: int
    params: List[Tuple[str, int]] = field(default_factory=list)
    owner: Optional[str] = None  # class name, for a method

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def key(self) -> str:
        return f"{self.module.removeprefix('repro.')}:{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _span(node: ast.AST) -> Tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in getattr(
        node, "decorator_list", [])])
    return first, node.end_lineno


def _keyword_params(node: ast.AST, method: bool) -> List[Tuple[str, int]]:
    """(name, positional index or -1) of each parameter with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    if method and positional and not _is_static(node):
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    params = [
        (arg.arg, index) for index, arg in enumerate(positional)
        if index >= first_default
    ]
    params += [
        (arg.arg, -1)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return params


def _is_static(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list
    )


def _overrides_foreign(module: str, owner: str, name: str) -> bool:
    """Does the method override one of a base class outside ``repro``?

    The framework calls those (``do_GET``, ``log_message``, ``default``),
    so no reference in this tree names them.
    """
    cls = getattr(importlib.import_module(module), owner, None)
    if not inspect.isclass(cls):
        return False
    return any(
        name in vars(base) and not base.__module__.startswith("repro")
        for base in cls.__mro__[1:]
    )


def definitions() -> List[Definition]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if not in_scope(path):
            continue
        module = module_name(path)
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(Definition(
                    module, node.name, path, *_span(node),
                    params=_keyword_params(node, method=False)))
            elif isinstance(node, ast.ClassDef):
                found.append(Definition(module, node.name, path, *_span(node)))
                for item in node.body:
                    if not isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    dunder = item.name.startswith("__") and item.name.endswith(
                        "__")
                    if item.name == "__init__":
                        # Not a row itself; its parameters are the class's.
                        found[-1].params = _keyword_params(item, method=True)
                    if dunder or _overrides_foreign(
                        module, node.name, item.name
                    ):
                        continue
                    found.append(Definition(
                        module, f"{node.name}.{item.name}", path,
                        *_span(item), owner=node.name,
                        params=_keyword_params(item, method=True)))
    return found


# -- references ------------------------------------------------------------


@dataclass
class Site:
    path: Path
    line: int
    where: str  # caller class


@dataclass
class CallSite(Site):
    n_positional: int = 0
    keywords: Tuple[str, ...] = ()
    star: bool = False
    double_star: bool = False
    #: Keyword names and identifier strings of the site's file: what a
    #: ``**`` mapping built there can carry.
    file_names: Set[str] = field(default_factory=set)
    #: (function, class) whose own ``**kwargs`` the site passes on.
    forwarded: Optional[Tuple[str, Optional[str]]] = None


def _all_strings(tree: ast.AST) -> Set[int]:
    """ids of the string constants in ``__all__`` assignments."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                ids.update(id(c) for c in ast.walk(node.value)
                           if isinstance(c, ast.Constant))
    return ids


def _call_target(func: ast.AST, enclosing_class: Optional[str]) -> Optional[str]:
    if isinstance(func, ast.Name):
        return enclosing_class if func.id == "cls" else func.id
    if isinstance(func, ast.Attribute):
        if func.attr == "__init__" and isinstance(func.value, ast.Call) and (
            _call_target(func.value.func, None) == "super"
        ):
            return f"super({enclosing_class})"
        return func.attr
    return None


#: The registry calls whose first argument names the series they write.
REGISTRATIONS = ("counter", "gauge", "histogram")


class _Scanner(ast.NodeVisitor):
    def __init__(self, path: Path, skip: Set[int]) -> None:
        self.path = path
        self.where = caller_class(path)
        self.skip = skip
        self.classes: List[str] = []
        self.functions: List[Tuple[str, Optional[str]]] = []  # name, **kw
        self.refs: Dict[str, List[Site]] = defaultdict(list)
        self.calls: Dict[str, List[CallSite]] = defaultdict(list)
        self.escapes: Dict[str, List[Site]] = defaultdict(list)
        #: Attribute loads and identifier strings: what reads a field.
        self.reads: Dict[str, List[Site]] = defaultdict(list)
        self.called: Set[int] = set()
        self.registered: Set[int] = set()
        self.names: Set[str] = set()

    def _ref(self, name: str, node: ast.AST) -> None:
        if id(node) in self.registered:
            return  # a series written, not read
        site = Site(self.path, node.lineno, self.where)
        self.refs[name].append(site)
        if isinstance(node, ast.Constant) or (
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        ):
            self.reads[name].append(site)
        if id(node) not in self.called and not isinstance(
            node, ast.Constant
        ):
            # Passed on as a value (a kernel, a callback, a thread target):
            # whoever calls it sets its parameters out of sight.
            self.escapes[name].append(site)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        kwarg = node.args.kwarg.arg if node.args.kwarg else None
        self.functions.append((node.name, kwarg))
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _forwarded(self, node: ast.Call):
        function, kwarg = self.functions[-1] if self.functions else (
            None, None)
        cls = self.classes[-1] if self.classes else None
        for keyword in node.keywords:
            value = keyword.value
            if keyword.arg is not None:
                continue
            if isinstance(value, ast.Name) and value.id == kwarg:
                return function, cls
            if cls is not None and isinstance(value, ast.Attribute) and (
                isinstance(value.value, ast.Name) and value.value.id == "self"
            ):
                # ``**self._kwargs``: the constructor's, kept for later.
                return "__init__", cls
        return None

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._ref(node.id, node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._ref(node.attr, node)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if (isinstance(node.value, str) and node.value.isidentifier()
                and id(node) not in self.skip):
            self._ref(node.value, node)
            self.names.add(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        func, args = node.func, node.args
        if _call_target(func, None) == "partial" and args:
            func, args = args[0], args[1:]
        self.called.add(id(func))
        if _call_target(func, None) in REGISTRATIONS and args:
            self.registered.add(id(args[0]))
        self.names.update(k.arg for k in node.keywords if k.arg)
        target = _call_target(
            func, self.classes[-1] if self.classes else None)
        if target is not None:
            self.calls[target].append(CallSite(
                self.path, node.lineno, self.where,
                n_positional=sum(
                    not isinstance(a, ast.Starred) for a in args),
                keywords=tuple(k.arg for k in node.keywords if k.arg),
                star=any(isinstance(a, ast.Starred) for a in args),
                double_star=any(k.arg is None for k in node.keywords),
                file_names=self.names,
                forwarded=self._forwarded(node),
            ))
        self.generic_visit(node)


def scan() -> Tuple[Dict[str, List[Site]], ...]:
    """(references, call sites, escapes, reads), each by name."""
    found = tuple(defaultdict(list) for _ in range(4))
    for path in scanned_files():
        tree = ast.parse(path.read_text(), str(path))
        scanner = _Scanner(path, _all_strings(tree))
        scanner.visit(tree)
        for into, sites_by_name in zip(found, (
            scanner.refs, scanner.calls, scanner.escapes, scanner.reads
        )):
            for name, sites in sites_by_name.items():
                into[name].extend(sites)
    return found


def _init_owners() -> Dict[str, Set[str]]:
    """Class name -> the call targets that run its ``__init__``: its name,
    every ``repro`` subclass that inherits it, and ``super().__init__`` in
    a subclass that overrides it."""
    owners: Dict[str, Set[str]] = defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        module = importlib.import_module(module_name(path))
        for name, cls in vars(module).items():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            inits = [base for base in cls.__mro__ if "__init__" in vars(base)]
            owners[inits[0].__name__].add(name)
            if inits[0] is cls and len(inits) > 1:
                owners[inits[1].__name__].add(f"super({name})")
    return owners


# -- the static report -----------------------------------------------------


@dataclass
class Row:
    key: str
    kind: str  # "def" or "param"
    lines: int
    callers: Dict[str, int]


def _outside(sites, definition: Definition):
    return [
        site for site in sites
        if not (site.path == definition.path
                and definition.first <= site.line <= definition.last)
    ]


def _setters(site: CallSite, param: str, index: int, calls, owners,
             depth: int = 0) -> List[str]:
    """Where the calls sit that set ``param`` through ``site``.

    A ``**kwargs`` the site's own function received is followed to that
    function's callers; any other ``**`` mapping sets the parameter when
    its file names it.
    """
    if param in site.keywords or index >= 0 and (
        site.star or site.n_positional > index
    ):
        return [site.where]
    if not site.double_star:
        return []
    if site.forwarded is None or depth == 3:
        return [site.where] if param in site.file_names else []
    function, cls = site.forwarded
    targets = owners.get(cls, {cls}) if function == "__init__" else {function}
    return [
        where
        for target in targets for outer in calls.get(target, [])
        for where in _setters(outer, param, -1, calls, owners, depth + 1)
    ]


def _code_rows(found, refs, calls, escapes) -> Iterator[Row]:
    """Test-only definitions, and every keyword parameter of the rest."""
    owners = _init_owners()
    for definition in found:
        callers = Counter(
            site.where
            for site in _outside(refs.get(definition.name, []), definition))
        if not any(where in callers for where in NON_TEST):
            yield Row(definition.key, "def", definition.lines, dict(callers))
            continue
        if definition.owner is None and definition.name[:1].isupper():
            # A class named as a value is a type test or an annotation.
            targets = owners.get(definition.name, {definition.name})
        elif any(site.where in NON_TEST for site in _outside(
            escapes.get(definition.name, []), definition
        )):
            continue
        else:
            targets = {definition.name}
        # A recursive call sets a parameter too (a depth, an accumulator).
        sites = [site for target in targets for site in calls.get(target, [])]
        for param, index in definition.params:
            setters = Counter(
                where for site in sites
                for where in _setters(site, param, index, calls, owners))
            yield Row(f"{definition.key}({param})", "param", 0, dict(setters))


def _literal(node: ast.AST) -> Optional[str]:
    return node.value if isinstance(node, ast.Constant) and isinstance(
        node.value, str) else None


def flags() -> Iterator[Tuple[str, str]]:
    """(key, pattern) of every long option ``cli.py`` declares."""
    tree = ast.parse((SRC / "cli.py").read_text())
    names = {
        _literal(arg) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _call_target(node.func, None) == "add_argument"
        for arg in node.args if (_literal(arg) or "").startswith("--")
    }
    for name in sorted(names):
        yield f"cli:{name}", rf"(?<![\w-]){re.escape(name)}(?![\w-])"


def series() -> Iterator[Tuple[str, str]]:
    """(series name, constant) of every ``repro_*`` name the catalogue
    declares."""
    tree = ast.parse((SRC / "telemetry" / "instrument.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and (
            _literal(node.value) or ""
        ).startswith("repro_"):
            yield node.value.value, node.targets[0].id


def _is_dataclass(decorator: ast.AST) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return _call_target(target, None) == "dataclass"


def fields() -> Iterator[Tuple[str, str]]:
    """(key, field name) of every field of an in-scope dataclass."""
    for path in sorted(SRC.rglob("*.py")):
        if not in_scope(path):
            continue
        module = module_name(path).removeprefix("repro.")
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and any(
                _is_dataclass(d) for d in node.decorator_list
            )):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ) and "ClassVar" not in ast.unparse(item.annotation):
                    yield f"{module}:{node.name}[{item.target.id}]", \
                        item.target.id


def routes() -> Iterator[Tuple[str, str]]:
    """(key, pattern) of every route the gateway's ``_route`` answers: the
    method from its handler's name, the path template it returns."""
    tree = ast.parse((SRC / "gateway" / "routes.py").read_text())
    (router,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_route"
    ]
    for node in ast.walk(router):
        if isinstance(node, ast.Return) and isinstance(
            node.value, ast.Tuple
        ) and _literal(node.value.elts[0]) and isinstance(
            node.value.elts[1], ast.Attribute
        ):
            template = node.value.elts[0].value
            method = node.value.elts[1].attr.split("_")[1].upper()
            path = re.escape(template).replace(
                re.escape("{id}"), r"[^/\s\"'`]+")
            yield f"{method} {template}", \
                rf"\b{method}\b[^\n]{{0,12}}?{path}(?![\w/])"


#: Every ``REPRO_*`` name, the way ``tests/test_env_switches.py`` reads them.
ENV_NAME = re.compile(r"\bREPRO_[A-Z_]+\b")


def env_names(*tops: str) -> Set[str]:
    """The ``REPRO_*`` names the Python under ``tops`` mentions."""
    return {
        name for path, _, text in corpus()
        if path.suffix == ".py" and path.relative_to(ROOT).parts[0] in tops
        and caller_class(path) != "tests"
        for name in ENV_NAME.findall(text)
    }


def api_env_table() -> Set[str]:
    """The names of ``docs/API.md``'s "Environment switches" table."""
    text = (ROOT / "docs" / "API.md").read_text()
    section = text.split("## Environment switches", 1)[1].split("\n## ", 1)[0]
    return {
        name
        for line in section.splitlines() if line.startswith("| `REPRO_")
        for name in ENV_NAME.findall(line.split("|")[1])
    }


def survey() -> Tuple[Dict[str, Row], Dict[str, int]]:
    """(every test-only row by its ``KEEP`` key, how many were scanned per
    surface)."""
    refs, calls, escapes, reads = scan()
    scanned: Dict[str, int] = Counter()
    found = definitions()
    scanned["def"] = len(found)
    scanned["param"] = sum(len(d.params) for d in found)
    candidates = list(_code_rows(found, refs, calls, escapes))
    for key, pattern in flags():
        candidates.append(Row(key, "flag", 0, dict(text_readers(
            pattern, SRC / "cli.py"))))
    instrument = SRC / "telemetry" / "instrument.py"
    for name, constant in series():
        callers = Counter(
            site.where for ref in (name, constant)
            for site in refs.get(ref, []) if site.path != instrument)
        callers.update(text_readers(rf"\b{name}\b", python=()))
        candidates.append(Row(name, "series", 0, dict(callers)))
    for key, name in fields():
        callers = Counter(site.where for site in reads.get(name, []))
        callers.update(text_readers(rf"\b{name}\b", python=()))
        candidates.append(Row(key, "field", 0, dict(callers)))
    for key, pattern in routes():
        candidates.append(Row(key, "route", 0, dict(text_readers(
            pattern, SRC / "gateway" / "routes.py"))))
    for name in sorted(env_names("src", "benchmarks")):
        callers = text_readers(
            rf"\b{name}\b", python=("examples", "tests"))
        candidates.append(Row(name, "env", 0, dict(callers)))
    rows = {}
    for row in candidates:
        if row.kind not in ("def", "param"):
            scanned[row.kind] += 1
        if not any(where in row.callers for where in NON_TEST):
            rows[row.key] = row
    return rows, dict(scanned)


def static_report() -> Dict[str, Row]:
    """Every test-only row, by its ``KEEP`` key."""
    return survey()[0]


def kind_of(key: str) -> str:
    """The surface of a ``KEEP`` key."""
    if key.startswith("cli:--"):
        return "flag"
    if key.startswith("repro_"):
        return "series"
    if key.split(" ", 1)[0] in ("GET", "POST"):
        return "route"
    if key.startswith("REPRO_"):
        return "env"
    return {"]": "field", ")": "param"}.get(key[-1], "def")


# -- the dynamic mode ------------------------------------------------------

TRACER = '''
"""Installed by benchmarks/census.py --dynamic: record src/repro calls."""
import json, os, sys, threading, uuid
from multiprocessing import util

_OUT = os.environ["CENSUS_TRACE_DIR"]
_SRC = os.environ["CENSUS_SRC"]
_TESTS = os.environ["CENSUS_TESTS"]
_kinds = {}
_called, _reached = set(), set()


def _kind(code):
    """(file, first line) of a src/repro function, else "tests"/"other"."""
    try:
        return _kinds[code]
    except KeyError:
        name = code.co_filename
        if name.startswith(_SRC):
            kind = (name, code.co_firstlineno)
        else:
            kind = "tests" if name.startswith(_TESTS) else "other"
        _kinds[code] = kind
        return kind


def _profile(frame, event, arg):
    if event != "call":
        return
    callee = _kind(frame.f_code)
    if callee.__class__ is tuple:
        _called.add(callee)
        back = frame.f_back
        if back is None or _kind(back.f_code) != "tests":
            _reached.add(callee)


def _flush():
    sys.setprofile(None)
    name = "trace-%d-%s.json" % (os.getpid(), uuid.uuid4().hex[:8])
    with open(os.path.join(_OUT, name), "w") as handle:
        json.dump({"called": list(_called), "reached": list(_reached)}, handle)


class _Anchor:
    """Keeps the after-fork hook registered (a weak key)."""


def _start(_anchor=None):
    # A pool worker is forked, has its finalizers cleared, then runs the
    # after-fork hooks; it leaves through os._exit after multiprocessing's
    # exit hook, which runs this finalizer. So does the main process, at
    # interpreter exit.
    _called.clear()
    _reached.clear()
    util.Finalize(None, _flush, exitpriority=-100)
    threading.setprofile(_profile)
    sys.setprofile(_profile)


_ANCHOR = _Anchor()
util.register_after_fork(_ANCHOR, _start)
_start()
'''


def run_traced(command: List[str], root: Path = ROOT
               ) -> Tuple[Set[tuple], Set[tuple], float]:
    """Run ``command`` in ``root`` with the tracer in every process;
    (called, reached, seconds), each function as its (file, first line)
    under this checkout's ``src/repro``."""
    called: Set[tuple] = set()
    reached: Set[tuple] = set()
    src = str(root / "src" / "repro")
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        Path(tmp, "sitecustomize.py").write_text(TRACER)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [tmp, str(root / "src")] + [p for p in env.get(
                "PYTHONPATH", "").split(os.pathsep) if p])
        env.update(CENSUS_TRACE_DIR=tmp, CENSUS_SRC=src + os.sep,
                   CENSUS_TESTS=str(root / "tests") + os.sep)
        start = time.perf_counter()
        done = subprocess.run(command, cwd=root, env=env)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            sys.exit(f"census: traced run failed ({done.returncode})")
        for path in Path(tmp).glob("trace-*.json"):
            record = json.loads(path.read_text())
            for into, frames in zip((called, reached), (
                record["called"], record["reached"]
            )):
                into.update((str(SRC) + name[len(src):], line)
                            for name, line in frames)
    return called, reached, seconds


def _frames() -> Iterator[Tuple[Definition, tuple]]:
    """Each in-scope function with the frame the tracer records it by."""
    for definition in definitions():
        if definition.owner is None and definition.name[:1].isupper():
            continue  # a class is not a frame; its methods are rows
        yield definition, (str(definition.path), definition.first)


def dynamic_report(pytest_args: List[str]) -> Tuple[Dict[str, Row], int, float]:
    """(test-only rows, in-scope functions never called, seconds)."""
    called, reached, seconds = run_traced([
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        *pytest_args])
    rows, never = {}, 0
    for definition, frame in _frames():
        if frame not in called:
            never += 1
        elif frame not in reached:
            rows[definition.key] = Row(
                definition.key, "def", definition.lines, {"tests": 1})
    return rows, never, seconds


def ledger_report() -> Tuple[Dict[str, bool], float]:
    """(whether one traced ledger smoke pass calls it, for every kept
    definition whose reason starts ``ledger:``; seconds).

    The pass runs in a scratch copy of ``src/`` and ``benchmarks/``: the
    ledger writes its reports under ``benchmarks/ledger/out/``.
    """
    with tempfile.TemporaryDirectory(prefix="census-ledger-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".cache", "out")
        for top in ("src", "benchmarks"):
            shutil.copytree(ROOT / top, copy / top, ignore=skip)
        shutil.copy2(ROOT / "BENCHMARK.json", copy)
        called, _, seconds = run_traced([
            sys.executable, "benchmarks/ledger/run.py", "--smoke", "--trace",
            "1"], copy)
    cited = {key for key, reason in KEEP.items()
             if reason.startswith("ledger:") and kind_of(key) == "def"}
    return {definition.key: frame in called for definition, frame in _frames()
            if definition.key in cited}, seconds


# -- the table -------------------------------------------------------------


def _print(rows: Dict[str, Row], mode: str,
           scanned: Optional[Dict[str, int]] = None) -> List[str]:
    new = [key for key in sorted(rows) if key not in KEEP]
    width = max([len(key) for key in rows] + [20])
    print(f"{'row':<{width}}  kind    lines  callers             verdict")
    for key in sorted(rows):
        row = rows[key]
        callers = ", ".join(
            f"{where} {n}" for where, n in sorted(row.callers.items())
        ) or "none"
        verdict = f"keep: {KEEP[key]}" if key in KEEP else "NEW"
        lines = row.lines if row.kind == "def" else ""
        print(f"{key:<{width}}  {row.kind:<6}  {lines:>5}  {callers:<18}  "
              f"{verdict}")
    print()
    for kind in SURFACES if scanned else ("def",):
        reported = [row for row in rows.values() if row.kind == kind]
        of = f" of {scanned[kind]}" if scanned else ""
        lines = (f" ({sum(row.lines for row in reported)} lines)"
                 if kind == "def" else "")
        print(f"{mode}: {kind:<6} {len(reported):>3}{of} test-only{lines}")
    print(f"{mode}: {len(new)} not on KEEP")
    return new


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--dynamic", action="store_true",
        help="run tier-1 under a call tracer instead of the AST scan")
    mode.add_argument(
        "--ledger", action="store_true",
        help="run a ledger smoke pass under a call tracer and check the "
             "kept definitions whose reason starts 'ledger:'")
    parser.add_argument(
        "pytest_args", nargs="*",
        help="extra pytest arguments for --dynamic (e.g. one test file)")
    args = parser.parse_args(argv)
    if args.dynamic:
        rows, never, seconds = dynamic_report(args.pytest_args)
        new = _print(rows, "dynamic")
        print(f"dynamic: {never} in-scope functions never called by the run; "
              f"traced run {seconds:.0f} s")
        return 1 if new else 0
    if args.ledger:
        reached, seconds = ledger_report()
        for key in sorted(reached):
            print(f"{'reached' if reached[key] else 'MISSED ':8s} {key}")
        missed = [key for key, hit in reached.items() if not hit]
        print(f"\nledger: the smoke pass calls {len(reached) - len(missed)} "
              f"of {len(reached)} kept definitions whose reason starts "
              f"'ledger:'; traced run {seconds:.0f} s")
        return 1 if missed else 0
    rows, scanned = survey()
    new = _print(rows, "static", scanned)
    stale = sorted(set(KEEP) - set(rows) - set(DYNAMIC_ONLY))
    for key in stale:
        print(f"stale KEEP entry (no longer reported): {key}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
