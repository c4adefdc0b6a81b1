"""Reachability census of the service layers: what only tests reach.

Lists every definition and keyword parameter under ``src/repro/`` that no
non-test caller reaches. The paper artefact (``suite/``, ``arch/``,
``core/``) is out of scope, since the figure benches are its callers. Two
modes:

* **static** (default): an AST scan of ``src/``, ``examples/``,
  ``benchmarks/`` and ``tests/``. A definition is referenced by a name,
  an attribute or an identifier-like string with its name, outside its own
  body; import lines and ``__all__`` strings do not count. A keyword
  parameter is set by a call to a function of that name that passes it by
  keyword, reaches its position, forwards ``*args``, or passes a ``**``
  mapping that carries it: a function's own ``**kwargs`` is followed to
  that function's callers, any other mapping counts when its file names
  the parameter. Every reference is classed by where it sits: ``src``, ``examples``,
  ``benchmarks``, ``ledger`` (``benchmarks/ledger/``) or ``tests``. A row
  is reported when ``tests`` is its only class, or it has none.
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

Matching is by name, so a definition that shares its name with a reached
one hides from the static scan; the dynamic mode is the second opinion.
Every reported row must be on :data:`KEEP` with its reason; the census
prints the table and exits 1 on a row that is not, and the static mode
also on a ``KEEP`` entry that it no longer reports (the entry is stale:
the name gained a caller or is gone). ``tests/test_census.py`` pins the
static report to the list.

Usage::

    python benchmarks/census.py            # a few seconds
    python benchmarks/census.py --dynamic  # tier-1, traced: ~13 min
"""

import argparse
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "examples", "benchmarks", "tests")
SKIPPED = ("suite", "arch", "core")
NON_TEST = ("src", "examples", "benchmarks", "ledger")
if str(SRC.parent) not in sys.path:
    sys.path.insert(0, str(SRC.parent))  # the static scan imports repro

_REFERENCE = "reference implementation the tests compare against"
_READER = "registry reader the tests assert through"
_CLOCK = "test seam: a fake clock"
_TIMING = "test seam: timing, so fault and timeout tests run in seconds"

#: Every row the census reports, with the reason it stays. A definition is
#: ``module:Qual.name``; a keyword parameter is ``module:Qual.name(param)``.
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
}

_OP = "modelling language: an autodiff op no model tier-1 records uses"
_DENSITY = "modelling language: a density of workloads tier-1 does not record"
_CONSTRAINT = "modelling language: a constraint no model tier-1 records has"
_CLIENT = "client API: the CLI, the ledger and the load bench call it"
_CLI = "the CLI's path (`repro serve --http`, `repro fleet`)"
_REPORT = "the report's path (`repro report`), run by the slow tests only"
_BENCH = "read by benchmarks/bench_batch_replay.py"
_SWITCH = "library switch (docs/telemetry.md), used by the overhead bench"

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
        "FleetClient.close", "FleetClient.result", "FleetClient.submit",
        "FleetClient.wait", "GatewayClient.draws", "GatewayClient.jobs",
        "GatewayClient.metrics", "GatewayClient.stream",
    )},
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
        "read by the ledger's probes and bench_batch_replay.py",
    "batch.engine:BatchedEvaluator.stable": _BENCH,
    "batch.engine:BatchedTape.n_lane": _BENCH,
    "batch.engine:BatchedTape.n_vector": _BENCH,
    "cli:main": "the `repro` console script and `python -m repro`",
    "fleet.lease:ShardLease.held": "read by benchmarks/_harness.py",
    "inference.results:SamplingResult.chain_work": "examples/quickstart.py",
    "inference.results:SamplingResult.constrained": "examples/ call it",
    "resilience.admission:AdmissionController.observe":
        "job_finished folds each successful attempt in with it",
    "serve.job:JobSpec.build_sampler": "the ledger patches and calls it",
    "serve.workers:execute_chain": "the ledger's probes call it",
    "telemetry.metrics:Gauge.inc":
        "moves the suffstats-active gauge by a delta",
    "telemetry:disable": _SWITCH,
    "telemetry:enable": _SWITCH,
    "telemetry:reset": _SWITCH,
}
KEEP.update(DYNAMIC_ONLY)


# -- where a reference sits ------------------------------------------------


def caller_class(path: Path) -> str:
    """``src``, ``examples``, ``benchmarks``, ``ledger`` or ``tests``."""
    parts = path.relative_to(ROOT).parts
    if parts[0] == "tests" or "tests" in parts[:-1]:
        return "tests"
    if parts[0] == "benchmarks":
        return "ledger" if parts[1:2] == ("ledger",) else "benchmarks"
    return parts[0]


def scanned_files() -> Iterator[Path]:
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != Path(__file__).resolve():
                yield path


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
        self.called: Set[int] = set()
        self.names: Set[str] = set()

    def _ref(self, name: str, node: ast.AST) -> None:
        site = Site(self.path, node.lineno, self.where)
        self.refs[name].append(site)
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
    """(references, call sites, escapes), each by name."""
    found = (defaultdict(list), defaultdict(list), defaultdict(list))
    for path in scanned_files():
        tree = ast.parse(path.read_text(), str(path))
        scanner = _Scanner(path, _all_strings(tree))
        scanner.visit(tree)
        for into, sites_by_name in zip(
            found, (scanner.refs, scanner.calls, scanner.escapes)
        ):
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


def static_report() -> Dict[str, Row]:
    """Every test-only definition and parameter, by its ``KEEP`` key."""
    refs, calls, escapes = scan()
    owners = _init_owners()
    rows: Dict[str, Row] = {}
    for definition in definitions():
        callers = Counter(
            site.where
            for site in _outside(refs.get(definition.name, []), definition))
        if not any(where in callers for where in NON_TEST):
            rows[definition.key] = Row(
                definition.key, "def", definition.lines, dict(callers))
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
            if not any(where in setters for where in NON_TEST):
                key = f"{definition.key}({param})"
                rows[key] = Row(key, "param", 0, dict(setters))
    return rows


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


def run_traced(pytest_args: List[str]) -> Tuple[Set[tuple], Set[tuple], float]:
    """Run pytest with the tracer in every process; (called, reached, s),
    each function as its (file, first line)."""
    called: Set[tuple] = set()
    reached: Set[tuple] = set()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        Path(tmp, "sitecustomize.py").write_text(TRACER)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [tmp, str(SRC.parent)] + [p for p in env.get(
                "PYTHONPATH", "").split(os.pathsep) if p])
        env.update(CENSUS_TRACE_DIR=tmp, CENSUS_SRC=str(SRC) + os.sep,
                   CENSUS_TESTS=str(ROOT / "tests") + os.sep)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *pytest_args], cwd=ROOT, env=env)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            sys.exit(f"census: traced tier-1 failed ({done.returncode})")
        for path in Path(tmp).glob("trace-*.json"):
            record = json.loads(path.read_text())
            called.update(map(tuple, record["called"]))
            reached.update(map(tuple, record["reached"]))
    return called, reached, seconds


def dynamic_report(pytest_args: List[str]) -> Tuple[Dict[str, Row], int, float]:
    """(test-only rows, in-scope functions never called, seconds)."""
    called, reached, seconds = run_traced(pytest_args)
    rows, never = {}, 0
    for definition in definitions():
        if definition.owner is None and definition.name[:1].isupper():
            continue  # a class is not a frame; its methods are rows
        frame = (str(definition.path), definition.first)
        if frame not in called:
            never += 1
        elif frame not in reached:
            rows[definition.key] = Row(
                definition.key, "def", definition.lines, {"tests": 1})
    return rows, never, seconds


# -- the table -------------------------------------------------------------


def _print(rows: Dict[str, Row], mode: str) -> List[str]:
    new = [key for key in sorted(rows) if key not in KEEP]
    width = max([len(key) for key in rows] + [20])
    print(f"{'row':<{width}}  kind   lines  callers             verdict")
    for key in sorted(rows):
        row = rows[key]
        callers = ", ".join(
            f"{where} {n}" for where, n in sorted(row.callers.items())
        ) or "none"
        verdict = f"keep: {KEEP[key]}" if key in KEEP else "NEW"
        lines = row.lines if row.kind == "def" else ""
        print(f"{key:<{width}}  {row.kind:<5}  {lines:>5}  {callers:<18}  "
              f"{verdict}")
    defs = [row for row in rows.values() if row.kind == "def"]
    print(f"\n{mode}: {len(defs)} definitions "
          f"({sum(row.lines for row in defs)} lines), "
          f"{len(rows) - len(defs)} parameters; {len(new)} not on KEEP")
    return new


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--dynamic", action="store_true",
        help="run tier-1 under a call tracer instead of the AST scan")
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
    rows = static_report()
    new = _print(rows, "static")
    stale = sorted(set(KEEP) - set(rows) - set(DYNAMIC_ONLY))
    for key in stale:
        print(f"stale KEEP entry (no longer reported): {key}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
