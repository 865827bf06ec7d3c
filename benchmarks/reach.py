"""Reachability sweep: which ``src/`` functions and config knobs no suite uses.

Runs the repository's suites under a function-entry hook, scans every
call site, and prints:

* every ``def`` under ``src/repro`` that no suite entered, tagged
  ``stub`` (the body only raises ``NotImplementedError``, passes or is
  ``...``), ``main`` (a CLI entry point) or ``sandbox``
  (an extension source the sandbox compiles from text, whose frames
  carry an ``<extension:...>`` file name the sweep cannot map back)
  when it is one;
* every field of the listed config dataclasses (:data:`CONFIGS`) that no
  suite constructed with a non-default value. Instances that Hypothesis
  builds from drawn values (``tests/test_wire_size.py`` draws every
  protocol dataclass) do not count: a drawn value sets nothing;
* every defaulted parameter of a public def under ``src/repro`` that no
  call under :data:`CALLERS` passes, by keyword or by position (a static
  census, :func:`unpassed_options`; it follows ``*args``/``**kwargs``
  forwarding and defs handed on as arguments).

An entry on the keep-list (:data:`KEEP_DEFS`, :data:`KEEP_FIELDS`,
:data:`KEEP_OPTIONS`, each with its reason) is reported and tolerated;
any other entry makes the sweep exit 1. The gate is meant for the
default suites: a subset of them leaves more unreached.

The hook is a ``sitecustomize`` module on ``PYTHONPATH``, so it reaches
the subprocesses the suites spawn too; each process dumps what it saw at
exit. It is a global ``sys.settrace`` function that returns ``None``: it
sees call events only, and leaves ``sys.setprofile`` to the ledger's
wall profiler. Anything that calls ``sys.settrace`` itself displaces it
for a while (the sandbox's step limiter restores it; pytest-benchmark
does not, hence ``--benchmark-disable``); a process that ends with the
hook displaced is reported.

Usage (from the repository root; the checkout's ``src`` is put on the
path)::

    python3 benchmarks/reach.py                          # default suites
    python3 benchmarks/reach.py --suite tier1 --suite cli
    python3 benchmarks/reach.py --suite chaos-full --json /tmp/reach.json

The nightly CI job runs the default suites.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SANDBOXED = (PACKAGE / "recipes" / "extensions").resolve()
#: the trees whose calls count when the option census asks whether
#: anything passes a parameter.
CALLERS = ("src", "tests", "benchmarks", "examples")

#: config dataclasses whose fields the sweep checks, as module.Class.
CONFIGS = (
    "repro.zk.server.ZkConfig",
    "repro.depspace.server.DsConfig",
    "repro.zk.leases.LeaseConfig",
    "repro.core.sandbox.SandboxLimits",
    "repro.zk.zab.ZabConfig",
    "repro.raft.peer.RaftConfig",
    "repro.depspace.bft.BftConfig",
    "repro.obs.trace.ObsConfig",
)

_EVALUATOR = "goes with the sandbox evaluator item (ROADMAP)"
_SENSITIVITY = "an axis the sensitivity item varies (ROADMAP)"
_RUN_SHAPE = ("a figure driver's seed or warm-up: " + _SENSITIVITY)
_DEPSPACE_API = "DepSpace's own interface: named spaces, per-tuple leases"
_EXTENSION_API = ("the extension deployment interface; EdsEnsemble(limits=)"
                  " is set by tests, and the sandbox evaluator item "
                  "reworks it")

#: The keep-list: what the sweep may report without failing, and why.
#: Stubs, ``main`` entry points, sandboxed extension sources and dunders
#: are kept by their tag. Defs are ``path qualname`` under ``src/repro``.
KEEP_DEFS: Dict[str, str] = {
    "bench/__main__.py main.<locals>.run_figure":
        "the figure CLI's runner; no suite runs a figure target of the CLI",
    "core/sandbox.py StepLimiter._trace": _EVALUATOR,
}
#: config fields, as ``module.Class.field``.
KEEP_FIELDS: Dict[str, str] = {
    "repro.zk.server.ZkConfig.timings": _SENSITIVITY,
    "repro.depspace.server.DsConfig.timings": _SENSITIVITY,
    "repro.core.sandbox.SandboxLimits.max_steps": _EVALUATOR,
}
#: options, as ``path def(param=)`` under ``src/repro``.
KEEP_OPTIONS: Dict[str, str] = {
    **{f"bench/workload.py {name}": _RUN_SHAPE for name in (
        "run_counter_workload(seed=)", "run_barrier_workload(warmup_ms=)",
        "run_barrier_workload(seed=)", "run_election_workload(seed=)",
        "run_queue_with_regular_clients(warmup_ms=)",
        "run_queue_with_regular_clients(seed=)",
        "run_read_heavy_workload(warmup_ms=)",
        "run_read_heavy_workload(seed=)",
        "run_regular_op_latency(warmup_ms=)",
        "run_regular_op_latency(seed=)")},
    "zk/ensemble.py ZkEnsemble.__init__(latency=)":
        "the LatencyModel: " + _SENSITIVITY,
    "depspace/ensemble.py DsEnsemble.__init__(latency=)":
        "the LatencyModel: " + _SENSITIVITY,
    **{f"depspace/client.py DsClient.{name}": _DEPSPACE_API for name in (
        "rd(space=)", "in_(space=)", "cas(lease_ms=)", "replace(space=)",
        "rdall(space=)")},
    "eds/client.py EdsClient.ensure_lease_renewal(lease_ms=)": _DEPSPACE_API,
    "eds/state_proxy.py DsDirectState.__init__(space=)": _DEPSPACE_API,
    "eds/ensemble.py EdsEnsemble.__init__(verifier_config=)": _EXTENSION_API,
    "ezk/ensemble.py EzkEnsemble.__init__(verifier_config=)": _EXTENSION_API,
    "ezk/ensemble.py EzkEnsemble.__init__(limits=)": _EXTENSION_API,
}

_PY = sys.executable
_PYTEST = [_PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]

#: suite name -> (command lines, extra environment).
SUITES: Dict[str, Tuple[List[List[str]], Dict[str, str]]] = {
    "tier1": ([_PYTEST + ["tests"]], {}),
    "figures": ([_PYTEST + [
        "benchmarks/", "--ignore=benchmarks/ledger",
        "--benchmark-disable"]], {}),
    "ledger": ([_PYTEST + ["benchmarks/ledger"]], {}),
    "cli": ([
        [_PY, "-m", "repro.chaos", "--system", "zk", "--recipe", "counter",
         "--seed", "17", "--trace", "{tmp}/chaos-trace.jsonl"],
        [_PY, "-m", "repro.obs", "{tmp}/chaos-trace.jsonl", "--check"],
        [_PY, "-m", "repro.bench", "phases"],
    ], {}),
    "chaos-full": ([_PYTEST + [
        "tests/test_chaos_explorer.py", "tests/test_chaos_sessions.py",
        "tests/test_chaos_smoke.py", "tests/test_chaos_replay.py",
        "tests/test_property_broadcast.py"]], {"CHAOS_FULL": "1"}),
}
DEFAULT_SUITES = ("tier1", "figures", "ledger", "cli")

#: the hook every traced process loads at startup (REACH_* from env).
_SITECUSTOMIZE = '''
import atexit, dataclasses, json, os, sys, threading

_OUT = os.environ["REACH_OUT"]
_SRC = os.environ["REACH_SRC"]
_CONFIGS = {tuple(v): k for k, v in
            json.loads(os.environ["REACH_CONFIGS"]).items()}
_FACTORY = getattr(dataclasses, "_HAS_DEFAULT_FACTORY", None)
#: instances a property-based generator builds (the wire-size tests
#: draw every field of every protocol dataclass) set nothing.
_GENERATED = os.sep + "hypothesis" + os.sep
_seen = set()
_set_fields = set()


def _note_config(frame, name):
    caller = frame.f_back
    if caller is not None and _GENERATED in caller.f_code.co_filename:
        return
    args = frame.f_locals
    cls = type(args.get("self"))
    if f"{cls.__module__}.{cls.__qualname__}" != name:
        return
    for f in dataclasses.fields(cls):
        if not f.init or f.name not in args:
            continue
        value = args[f.name]
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            if value is _FACTORY:
                continue
            default = f.default_factory()
        else:
            continue
        try:
            differs = bool(value != default)
        except (TypeError, ValueError):
            differs = True
        if differs:
            _set_fields.add(f"{name}.{f.name}")


def _hook(frame, event, arg):
    code = frame.f_code
    _seen.add((code.co_filename, code.co_firstlineno))
    if code.co_name == "__init__":
        name = _CONFIGS.get(code.co_varnames)
        if name is not None:
            _note_config(frame, name)
    return None


def _dump():
    displaced = sys.gettrace() is not _hook
    sys.settrace(None)
    entered = sorted({(os.path.realpath(f), line) for f, line in _seen
                      if os.path.realpath(f).startswith(_SRC)})
    path = os.path.join(_OUT, f"{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({"entered": entered, "set_fields": sorted(_set_fields),
                   "displaced": displaced, "argv": sys.argv}, fh)


sys.settrace(_hook)
threading.settrace(_hook)
atexit.register(_dump)
'''


@dataclasses.dataclass(frozen=True)
class Def:
    """One ``def`` in ``src/repro``, keyed as its code object is."""

    path: Path
    line: int
    qualname: str
    tag: str

    def __str__(self) -> str:
        where = f"{self.path.relative_to(ROOT)}:{self.line}"
        tag = f"  [{self.tag}]" if self.tag else ""
        return f"{where} {self.qualname}{tag}"


def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant) and \
            isinstance(body[0].value.value, str):
        body = body[1:]
    # ``raise NotImplementedError`` then a bare ``yield``: a generator stub.
    if len(body) == 2 and isinstance(body[1], ast.Expr) and \
            isinstance(body[1].value, ast.Yield) and body[1].value.value is None:
        body = body[:1]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def all_defs() -> List[Def]:
    """Every function and method under ``src/repro``."""
    found: List[Def] = []

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object's first line is its first decorator's.
                line = min([child.lineno] + [d.lineno for d in
                                             child.decorator_list])
                qualname = prefix + child.name
                if _is_stub(child):
                    tag = "stub"
                elif child.name == "main":
                    tag = "main"
                elif path.parent == SANDBOXED:
                    tag = "sandbox"
                else:
                    tag = ""
                found.append(Def(path, line, qualname, tag))
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.resolve(), "")
    return found


def _call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@dataclasses.dataclass(frozen=True)
class _Owner:
    """The parameters of the def a call sits in (all defs of one name)."""

    params: Tuple[str, ...]     # positional, ``self``/``cls`` dropped
    kwonly: Tuple[str, ...]
    vararg: Optional[str]
    kwarg: Optional[str]


@dataclasses.dataclass(frozen=True)
class _Site:
    """One call: the name it calls and what it passes.

    ``star`` is ``"fwd"`` when it splats the enclosing def's own
    ``*args``, ``"?"`` for any other ``*x``; each ``dstars`` entry is
    ``("fwd",)`` for the enclosing def's ``**kwargs``, ``("param", p)``
    for a dict parameter, ``("keys", names)`` for a local dict literal,
    or ``("?",)``.
    """

    callee: str
    owner: Optional[str]
    npos: int
    star: Optional[str]
    kws: Tuple[Tuple[str, ast.AST], ...]
    dstars: Tuple[tuple, ...]


class CallGraph:
    """Every call under :data:`CALLERS`, resolved by name.

    A call counts for every def of the name it calls, so two methods of
    one name share their callers; splats of ``*args``/``**kwargs`` are
    followed to the callers of the def that forwards them, and a def
    passed as an argument is called wherever the receiving parameter is.
    """

    def __init__(self, roots=CALLERS):
        self.sites: Dict[str, List[_Site]] = {}
        self.param_calls: Dict[Tuple[str, str], List[_Site]] = {}
        self.owners: Dict[str, List[_Owner]] = {}
        #: name -> the def names a call of it may reach (class attrs,
        #: ``super()``, classes without their own ``__init__``, names
        #: imported under another name).
        self.aliases: Dict[str, Set[str]] = {}
        #: def name -> (receiving call name, position or keyword).
        self.refs: Dict[str, List[Tuple[str, object]]] = {}
        for root in roots:
            for path in sorted((ROOT / root).rglob("*.py")):
                self._scan(ast.parse(path.read_text(), str(path)))
        self._memo: Dict[str, List[tuple]] = {}

    @staticmethod
    def _def_name(node, cls) -> str:
        return cls.name if cls is not None and node.name == "__init__" \
            else node.name

    def _scan(self, tree: ast.AST) -> None:
        def visit(node, cls, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if not any(isinstance(b, ast.FunctionDef)
                               and b.name == "__init__" for b in child.body):
                        for base in child.bases:
                            if _call_name(base):
                                self.aliases.setdefault(child.name, set()) \
                                    .add(_call_name(base))
                    visit(child, child, None)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    args = child.args
                    params = [a.arg for a in args.posonlyargs + args.args]
                    static = any(_call_name(d) == "staticmethod"
                                 for d in child.decorator_list)
                    if cls is not None and not static and params:
                        params = params[1:]
                    name = self._def_name(child, cls)
                    info = _Owner(
                        tuple(params), tuple(a.arg for a in args.kwonlyargs),
                        args.vararg.arg if args.vararg else None,
                        args.kwarg.arg if args.kwarg else None)
                    self.owners.setdefault(name, []).append(info)
                    # A nested def is a plain function (no self to drop).
                    visit(child, None, (name, info, child, cls))
                else:
                    if isinstance(child, ast.Assign) and \
                            isinstance(child.value, ast.Name):
                        for target in child.targets:
                            if _call_name(target):
                                self.aliases.setdefault(
                                    _call_name(target), set()).add(
                                        child.value.id)
                    elif isinstance(child, (ast.Import, ast.ImportFrom)):
                        # ``from m import main as replay_main``
                        for alias in child.names:
                            if alias.asname:
                                self.aliases.setdefault(
                                    alias.asname, set()).add(
                                        alias.name.rpartition(".")[2])
                    if isinstance(child, ast.Call):
                        self._note_call(child, owner)
                    visit(child, cls, owner)

        visit(tree, None, None)

    def _note_call(self, call: ast.Call, owner) -> None:
        name = _call_name(call.func)
        if name == "partial" and call.args and _call_name(call.args[0]):
            # ``partial(f, *bound)``: a call of ``f`` whose remaining
            # positional arguments come later.
            call = ast.Call(call.args[0], call.args[1:] + [ast.Starred(
                ast.Name("_", ast.Load()), ast.Load())], call.keywords)
            name = _call_name(call.func)
        if name is None:
            return
        owner_name, info, node, cls = owner or (None, None, None, None)
        if name == "__init__" and isinstance(call.func, ast.Attribute) \
                and isinstance(call.func.value, ast.Call) \
                and _call_name(call.func.value.func) == "super" \
                and cls is not None:
            callees = [_call_name(b) for b in cls.bases if _call_name(b)]
        else:
            callees = [name]
        star = None
        npos = 0
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                star = "fwd" if (info and isinstance(arg.value, ast.Name)
                                 and arg.value.id == info.vararg) else "?"
                continue
            npos += 1
            ref = _call_name(arg)
            if ref is not None:
                for callee in callees:
                    self.refs.setdefault(ref, []).append((callee, index))
        kws = []
        dstars = []
        for kw in call.keywords:
            if kw.arg is not None:
                kws.append((kw.arg, kw.value))
                ref = _call_name(kw.value)
                if ref is not None:
                    for callee in callees:
                        self.refs.setdefault(ref, []).append(
                            (callee, kw.arg))
            else:
                dstars.append(self._dict_source(kw.value, info, node))
        via_param = info is not None and isinstance(call.func, ast.Name) \
            and (name in info.params or name in info.kwonly)
        for callee in callees:
            site = _Site(callee, owner_name, npos, star, tuple(kws),
                         tuple(dstars))
            if via_param:
                self.param_calls.setdefault((owner_name, callee),
                                            []).append(site)
            else:
                self.sites.setdefault(callee, []).append(site)

    @staticmethod
    def _dict_source(value: ast.AST, info, node) -> tuple:
        if not isinstance(value, ast.Name) or info is None:
            return ("?",)
        if value.id == info.kwarg:
            return ("fwd",)
        if value.id in info.params or value.id in info.kwonly:
            return ("param", value.id)
        keys: Optional[Set[str]] = None
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == value.id
                    for t in stmt.targets):
                found = CallGraph._literal_keys(stmt.value)
                if found is None and isinstance(stmt.value, ast.BoolOp):
                    # ``extra = kwargs_param or {}``
                    param = stmt.value.values[0]
                    if isinstance(param, ast.Name) and \
                            param.id in info.params + info.kwonly:
                        return ("param", param.id)
                if found is None:
                    return ("?",)
                keys = (keys or set()) | found
            elif isinstance(stmt, ast.Subscript) and \
                    isinstance(stmt.value, ast.Name) and \
                    stmt.value.id == value.id and \
                    isinstance(stmt.ctx, ast.Store):
                if not (isinstance(stmt.slice, ast.Constant)
                        and isinstance(stmt.slice.value, str)):
                    return ("?",)
                keys = (keys or set()) | {stmt.slice.value}
        # A name never assigned here is a global or a closure: unknown.
        return ("?",) if keys is None else ("keys", frozenset(keys))

    @staticmethod
    def _literal_keys(value: ast.AST) -> Optional[Set[str]]:
        """The keys of a dict display or ``dict(...)``; None if unknown."""
        if isinstance(value, ast.Constant) and value.value is None:
            return set()
        if isinstance(value, ast.IfExp):
            body = CallGraph._literal_keys(value.body)
            orelse = CallGraph._literal_keys(value.orelse)
            return None if body is None or orelse is None else body | orelse
        if isinstance(value, ast.Dict):
            if all(isinstance(k, ast.Constant) and isinstance(k.value, str)
                   for k in value.keys):
                return {k.value for k in value.keys}
            return None
        if isinstance(value, ast.Call) and _call_name(value.func) == "dict" \
                and not value.args \
                and all(kw.arg is not None for kw in value.keywords):
            return {kw.arg for kw in value.keywords}
        return None

    def signatures(self, name: str, _stack=()) -> List[tuple]:
        """``(npos, any_pos, keywords, any_kw)`` of each call ``name``
        may receive."""
        if name in self._memo:
            return self._memo[name]
        if name in _stack:
            return []
        stack = _stack + (name,)
        names = {name}
        pending = [name]
        while pending:      # the names whose calls reach this def
            current = pending.pop()
            for alias, targets in self.aliases.items():
                if current in targets and alias not in names:
                    names.add(alias)
                    pending.append(alias)
        sites = [site for n in names for site in self.sites.get(n, ())]
        for n in names:
            for receiver, slot in self.refs.get(n, ()):
                for info in self.owners.get(receiver, ()):
                    if isinstance(slot, int):
                        param = info.params[slot] \
                            if slot < len(info.params) else None
                    else:
                        param = slot
                    sites += self.param_calls.get((receiver, param), ())
        result = [self._resolve(site, stack) for site in sites]
        if not _stack:
            self._memo[name] = result
        return result

    def _resolve(self, site: _Site, stack) -> tuple:
        keywords = {kw for kw, _ in site.kws}
        any_kw = False
        npos = site.npos
        any_pos = site.star == "?"
        outer = self.signatures(site.owner, stack) if site.owner and (
            site.star == "fwd" or site.dstars) else []
        infos = self.owners.get(site.owner, ())
        if site.star == "fwd":
            for o_npos, o_any, _kw, _any in outer:
                fixed = min((len(i.params) for i in infos), default=0)
                npos = max(npos, site.npos + o_npos - fixed)
                any_pos = any_pos or o_any
        for source in site.dstars:
            if source[0] == "fwd":
                for _npos, _any, o_kws, o_any in outer:
                    keywords |= o_kws
                    any_kw = any_kw or o_any
            elif source[0] == "keys":
                keywords |= source[1]
            elif source[0] == "param":
                slots = [i.params.index(source[1]) for i in infos
                         if source[1] in i.params]
                for caller in self.sites.get(site.owner, ()):
                    if caller.star or any(caller.npos > i for i in slots):
                        any_kw = True       # the dict came positionally
                    for kw, value in caller.kws:
                        if kw != source[1]:
                            continue
                        found = self._literal_keys(value)
                        if found is None:
                            any_kw = True
                        else:
                            keywords |= found
                for _npos, _any, _kws, o_any in outer:
                    any_kw = any_kw or o_any
            else:
                any_kw = True
        return npos, any_pos, frozenset(keywords), any_kw


def unpassed_options(graph: Optional[CallGraph] = None
                     ) -> Tuple[List[str], int]:
    """Defaulted parameters of public ``src/repro`` defs that no call
    site passes, by keyword or by position, as ``path def(param=)``
    with the path under ``src/repro``; and how many there are in all."""
    graph = graph or CallGraph()
    found = []
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(PACKAGE).as_posix()
        for qualname, node, cls in _public_defs(tree):
            args = node.args
            params = args.posonlyargs + args.args
            static = any(_call_name(d) == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if cls is not None and not static else 0
            first = len(params) - len(args.defaults)
            options = [(p.arg, i - skip) for i, p in enumerate(params)
                       if i >= max(first, skip)]
            options += [(p.arg, None) for p, d in
                        zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None]
            if not options:
                continue
            sigs = graph.signatures(CallGraph._def_name(node, cls))
            total += len(options)
            for arg, index in options:
                if not any(arg in kws or any_kw or (
                        index is not None and (npos > index or any_pos))
                        for npos, any_pos, kws, any_kw in sigs):
                    found.append(f"{where} {qualname}({arg}=)")
    return found, total


def _public_defs(tree: ast.AST):
    """``(qualname, def, class or None)`` of each public function and
    method (``__init__`` included) outside function bodies."""
    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not child.name.startswith("_"):
                    yield from walk(child, prefix + child.name + ".", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "__init__" and cls is not None \
                        or not child.name.startswith("_"):
                    yield prefix + child.name, child, cls
            else:
                yield from walk(child, prefix, cls)

    yield from walk(tree, "", None)


def config_classes() -> Dict[str, type]:
    """``module.Class`` -> the class, for every entry of :data:`CONFIGS`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    classes = {}
    for name in CONFIGS:
        module, _, cls_name = name.rpartition(".")
        classes[name] = getattr(importlib.import_module(module), cls_name)
    return classes


def run_suites(names: List[str], out: Path) -> None:
    hook_dir = out / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(hook_dir), str(SRC)]),
        "REACH_OUT": str(out),
        "REACH_SRC": str(PACKAGE.resolve()),
        # The hook knows a config's generated __init__ by its varnames.
        "REACH_CONFIGS": json.dumps({
            name: cls.__init__.__code__.co_varnames
            for name, cls in config_classes().items()}),
    })
    for name in names:
        commands, extra = SUITES[name]
        for argv in commands:
            argv = [arg.replace("{tmp}", str(out)) for arg in argv]
            print(f"== {name}: {' '.join(argv[1:])}", file=sys.stderr,
                  flush=True)
            code = subprocess.call(argv, cwd=ROOT, env={**env, **extra})
            if code != 0:
                print(f"   exited {code}; its entries still count",
                      file=sys.stderr)


def collect(out: Path) -> Tuple[Set[Tuple[str, int]], Set[str], List[str]]:
    entered: Set[Tuple[str, int]] = set()
    set_fields: Set[str] = set()
    displaced: List[str] = []
    for dump in sorted(out.glob("*.json")):
        data = json.loads(dump.read_text())
        entered.update((f, line) for f, line in data["entered"])
        set_fields.update(data["set_fields"])
        if data["displaced"]:
            displaced.append(" ".join(data["argv"]))
    return entered, set_fields, displaced


def _kept_def(d: Def) -> bool:
    name = d.qualname.rpartition(".")[2]
    return bool(d.tag) or (name.startswith("__") and name.endswith("__")) \
        or f"{d.path.relative_to(PACKAGE.resolve()).as_posix()} " \
           f"{d.qualname}" in KEEP_DEFS


def _report(title: str, entries: List[Tuple[str, bool]], total: int) -> int:
    """Print one list; returns how many entries are off the keep-list."""
    outside = sum(not kept for _, kept in entries)
    print(f"\n{title}: {len(entries)} of {total} "
          f"({outside} outside the keep-list)")
    for text, kept in entries:
        tagged = text.endswith("]")     # a stub, main or sandbox def
        print(f"  {text}{'  [keep]' if kept and not tagged else ''}")
    return outside


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--suite", action="append", choices=sorted(SUITES),
                        help="suite to run (repeatable; default: "
                             + ", ".join(DEFAULT_SUITES) + ")")
    parser.add_argument("--json", help="also write the lists here")
    args = parser.parse_args(argv)
    suites = args.suite or list(DEFAULT_SUITES)

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        out = Path(tmp)
        run_suites(suites, out)
        entered, set_fields, displaced = collect(out)

    defs = all_defs()
    unreached = [d for d in defs if (str(d.path), d.line) not in entered]
    fields = [f"{name}.{f.name}" for name, cls in config_classes().items()
              for f in dataclasses.fields(cls) if f.init]
    unset = [f for f in fields if f not in set_fields]

    options, n_options = unpassed_options()

    print(f"suites: {', '.join(suites)}")
    for proc in displaced:
        print(f"warning: hook displaced at exit in: {proc}")
    outside = _report("unreached defs",
                      [(str(d), _kept_def(d)) for d in unreached],
                      len(defs))
    outside += _report("config fields never set to a non-default value",
                       [(f, f in KEEP_FIELDS) for f in unset], len(fields))
    outside += _report("options no call site passes",
                       [(f"src/repro/{o}", o in KEEP_OPTIONS)
                        for o in options], n_options)
    if args.json:
        Path(args.json).write_text(json.dumps({
            "suites": suites,
            "unreached": [str(d) for d in unreached],
            "defs": len(defs),
            "unset_fields": unset,
            "fields": len(fields),
            "unpassed_options": options,
            "options": n_options,
            "outside_keep_list": outside,
        }, indent=2) + "\n")
    print(f"\n{outside} entries outside the keep-list")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
