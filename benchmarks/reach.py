"""Reachability sweep: which ``src/`` functions and config knobs no suite uses.

Runs the repository's suites under a function-entry hook and prints:

* every ``def`` under ``src/repro`` that no suite entered, tagged
  ``stub`` (the body only raises ``NotImplementedError``, passes or is
  ``...``), ``main`` (a CLI entry point) or ``sandbox``
  (an extension source the sandbox compiles from text, whose frames
  carry an ``<extension:...>`` file name the sweep cannot map back)
  when it is one;
* every field of the listed config dataclasses (:data:`CONFIGS`) that no
  suite constructed with a non-default value. Instances that Hypothesis
  builds from drawn values (``tests/test_wire_size.py`` draws every
  protocol dataclass) do not count: a drawn value sets nothing.

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

A development aid, not a gate: nothing runs it in CI.
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
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SANDBOXED = (PACKAGE / "recipes" / "extensions").resolve()

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
    "repro.bench.openloop.Workload",
)

_PY = sys.executable
_PYTEST = [_PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]

#: suite name -> (command lines, extra environment).
SUITES: Dict[str, Tuple[List[List[str]], Dict[str, str]]] = {
    "tier1": ([_PYTEST + ["tests"]], {}),
    "figures": ([_PYTEST + [
        "benchmarks/", "--ignore=benchmarks/ledger",
        "--ignore=benchmarks/test_wallclock_smoke.py",
        "--benchmark-disable"]], {}),
    "ledger": ([_PYTEST + ["benchmarks/ledger"]], {}),
    "wallclock": ([
        _PYTEST + ["benchmarks/test_wallclock_smoke.py"],
        [_PY, "-m", "repro.bench.wallclock", "--guard"],
    ], {}),
    "cli": ([
        [_PY, "-m", "repro.chaos", "--system", "zk", "--recipe", "counter",
         "--seed", "17", "--trace", "{tmp}/chaos-trace.jsonl"],
        [_PY, "-m", "repro.obs", "{tmp}/chaos-trace.jsonl", "--check"],
    ], {}),
    "chaos-full": ([_PYTEST + [
        "tests/test_chaos_explorer.py", "tests/test_chaos_sessions.py",
        "tests/test_chaos_smoke.py", "tests/test_chaos_replay.py",
        "tests/test_property_broadcast.py"]], {"CHAOS_FULL": "1"}),
}
DEFAULT_SUITES = ("tier1", "figures", "ledger", "cli", "wallclock")

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

    print(f"suites: {', '.join(suites)}")
    for proc in displaced:
        print(f"warning: hook displaced at exit in: {proc}")
    print(f"\nunreached defs: {len(unreached)} of {len(defs)}")
    for d in unreached:
        print(f"  {d}")
    print(f"\nconfig fields never set to a non-default value: "
          f"{len(unset)} of {len(fields)}")
    for f in unset:
        print(f"  {f}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "suites": suites,
            "unreached": [str(d) for d in unreached],
            "defs": len(defs),
            "unset_fields": unset,
            "fields": len(fields),
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
