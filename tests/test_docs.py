"""The docs of record point at code that exists.

README.md, DESIGN.md and EXPERIMENTS.md name files, symbols and line
ranges in backticks. Each such reference is checked against the tree:

* a repo path (``zk/server.py``, ``repro/obs/``) exists, either
  as given from the repository root or as the one file or directory
  in the tree whose path ends with it;
* ``file.py::Symbol`` (``Symbol`` may be dotted, ``Class.method``)
  names a function, class or assignment that the file's AST holds;
* ``path:line`` and ``path:a–b`` lie inside their file;
* a CamelCase ``Name`` or ``Name.attr`` is a builtin, or each part is
  the name of a class, def or assignment somewhere under ``src/``,
  ``tests/``, ``benchmarks/`` or ``examples/`` (``WIRE_NAMES`` lists the
  ZooKeeper words the docs quote, which name no code here).

Commands, globs and absolute paths in backticks are not references.
Commands are checked on their own, anywhere in the text and across a
line wrap: ``python -m <module>`` names a module (or a package with a
``__main__``) under ``src/`` or an installed one, such as ``pytest``,
and ``python3 <path>.py`` a file in the tree. A command in a span that
starts ``git checkout <commit> &&`` runs at that commit, not at this
one, and is left alone.
"""

from __future__ import annotations

import ast
import builtins
import importlib.util
import re
from functools import lru_cache
from pathlib import Path
from typing import List, Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
#: the trees references may point into.
TREES = ("src", "tests", "benchmarks", "examples", ".github")
EXTENSIONS = (".py", ".md", ".json", ".jsonl", ".yml", ".yaml", ".toml",
              ".txt", ".cfg")

_SPAN = re.compile(r"`([^`\n]+)`")
_LINES = re.compile(r"^(?P<path>[\w./-]+):(?P<a>\d+)(?:[–-](?P<b>\d+))?$")
_COMMAND = re.compile(r"\bpython3?\s+(?:-m\s+(?P<module>[A-Za-z_][\w.]*)"
                      r"|(?P<script>[\w./-]+\.py)\b)")
_PINNED = re.compile(r"git checkout [0-9a-f]{7,40} &&[^`]*$")
_CAMEL = re.compile(r"(?P<name>[A-Z]\w*[a-z]\w*)(?:\.(?P<attr>\w+))?")
#: the trees a CamelCase name may be defined in.
CODE_TREES = ("src", "tests", "benchmarks", "examples")
#: CamelCase words the docs quote from ZooKeeper itself, not from code.
WIRE_NAMES = {
    "ConnectionLoss": "ZooKeeper's error for a lost server connection",
    "Exists": "ZooKeeper's exists request, quoted in the read path",
    "GetData": "ZooKeeper's getData request, quoted in the read path",
    "GetChildren": "ZooKeeper's getChildren request, quoted in the read path",
}


@lru_cache(maxsize=None)
def _files() -> List[Path]:
    found = [path for name in TREES for path in (ROOT / name).rglob("*")
             if "__pycache__" not in path.parts]
    found += [path for path in ROOT.iterdir() if path.is_file()]
    return found


def _resolve(ref: str) -> Optional[Path]:
    """The file or directory ``ref`` names, or None if none or several."""
    ref = ref.rstrip("/")
    direct = ROOT / ref
    if direct.exists():
        return direct
    tail = "/" + ref
    matches = [path for path in _files()
               if ("/" + path.relative_to(ROOT).as_posix()).endswith(tail)]
    return matches[0] if len(matches) == 1 else None


def _is_path(token: str) -> bool:
    if any(c in token for c in " *<>{}()=$,'\"") or token.startswith(("/", "~")):
        return False
    if token.endswith(EXTENSIONS):
        return True
    if token.endswith("/") and re.fullmatch(r"[\w./-]+/", token):
        return True     # a directory
    return token.startswith(tuple(t + "/" for t in TREES))


def _lookup(tree: ast.Module, dotted: str) -> bool:
    body = tree.body
    for part in dotted.split("."):
        node = _member(body, part)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


def _member(body, name: str):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node
        if isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and node.target.id == name:
            return node
    return None


def _problems(doc: str, text: str) -> List[str]:
    problems = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for token in _SPAN.findall(line):
            token = token.strip()
            where = f"{doc}:{lineno}: `{token}`"
            lines = _LINES.match(token)
            if "::" in token:
                ref, _, symbol = token.partition("::")
                if not _is_path(ref):
                    continue
                path = _resolve(ref)
                if path is None or not path.is_file():
                    problems.append(f"{where}: no such file")
                elif not _lookup(ast.parse(path.read_text()), symbol):
                    problems.append(f"{where}: no symbol {symbol!r}")
            elif lines and _is_path(lines["path"]):
                path = _resolve(lines["path"])
                if path is None or not path.is_file():
                    problems.append(f"{where}: no such file")
                    continue
                length = len(path.read_text().splitlines())
                last = int(lines["b"] or lines["a"])
                if not 1 <= int(lines["a"]) <= last <= length:
                    problems.append(f"{where}: outside its {length} lines")
            elif _is_path(token) and _resolve(token) is None:
                problems.append(f"{where}: no such path (or not unique)")
    return problems


@lru_cache(maxsize=None)
def _defined_names() -> frozenset:
    """Every class, def and assignment target (``self.x = ...`` too)."""
    names = set()
    for tree in CODE_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                               ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Store):
                    names.add(node.attr)
    return frozenset(names)


def _name_problems(doc: str, text: str) -> List[str]:
    defined = _defined_names()
    problems = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for token in _SPAN.findall(line):
            match = _CAMEL.fullmatch(token.strip())
            if match is None or _is_path(token) or token in WIRE_NAMES:
                continue
            name, attr = match["name"], match["attr"]
            if attr is None and hasattr(builtins, name):
                continue
            if name not in defined or (attr is not None
                                       and attr not in defined):
                problems.append(f"{doc}:{lineno}: `{token}`: names no code")
    return problems


@pytest.mark.parametrize("doc", DOCS)
def test_doc_names_resolve(doc):
    problems = _name_problems(doc, (ROOT / doc).read_text())
    assert not problems, "\n".join(problems)


def test_name_checker_has_teeth():
    """An undefined class or attribute is reported; defined names,
    builtins, paths and the wire names pass."""
    text = ("`TreeOverlay` `Zab.next_zxid` `DataTree.no_such_member`\n"
            "`DataTree` `DataTree.savepoint` `ZkServer._spec_tree` "
            "`ValueError` `BENCH_core.json` `GetData` `PASS` `ZkConfig()`\n")
    flagged = [p.split(": `")[1].split("`")[0]
               for p in _name_problems("doc.md", text)]
    assert flagged == ["TreeOverlay", "Zab.next_zxid",
                       "DataTree.no_such_member"]


def _module_exists(name: str) -> bool:
    parts = name.split(".")
    base = ROOT.joinpath("src", *parts)
    if base.with_suffix(".py").is_file() or (base / "__main__.py").is_file():
        return True
    if (ROOT / "src" / parts[0]).exists():
        return False
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:
        return False


def _command_problems(doc: str, text: str) -> List[str]:
    problems = []
    for match in _COMMAND.finditer(text):
        if _PINNED.search(text[text.rfind("`", 0, match.start()) + 1:
                               match.start()]):
            continue
        lineno = text.count("\n", 0, match.start()) + 1
        where = f"{doc}:{lineno}: `{' '.join(match[0].split())}`"
        module = (match["module"] or "").rstrip(".")
        if module and not _module_exists(module):
            problems.append(f"{where}: no such module")
        elif match["script"] and not (ROOT / match["script"]).is_file():
            problems.append(f"{where}: no such file")
    return problems


@pytest.mark.parametrize("doc", DOCS)
def test_doc_references_resolve(doc):
    problems = _problems(doc, (ROOT / doc).read_text())
    assert not problems, "\n".join(problems)


def test_checker_has_teeth():
    """Each kind of broken reference is reported; the rest pass."""
    text = ("`zk/nowhere.py` `zk/server.py::NoSuchThing` "
            "`zk/server.py:999999` `server.py` `repro/nowhere/`\n"
            "`zk/server.py` `zk/server.py::ZkServer.start` "
            "`zk/server.py:1–2` `/em` `python3 x.py`\n")
    flagged = [p.split(": `")[1].split("`")[0]
               for p in _problems("doc.md", text)]
    assert flagged == ["zk/nowhere.py", "zk/server.py::NoSuchThing",
                       "zk/server.py:999999", "server.py", "repro/nowhere/"]


@pytest.mark.parametrize("doc", DOCS)
def test_doc_commands_resolve(doc):
    problems = _command_problems(doc, (ROOT / doc).read_text())
    assert not problems, "\n".join(problems)


def test_command_checker_has_teeth():
    """A missing module or script is reported, wrapped or not; present
    ones, installed tools and commands pinned to a commit pass."""
    text = ("`python -m repro.bench.nowhere` and `python -m\n"
            "repro.nowhere --flag`, `python3 benchmarks/nowhere.py`.\n"
            "`python -m repro.zk` has no `__main__`.\n"
            "`python -m repro.bench phases`, `python -m pytest -q`,\n"
            "`python3\nbenchmarks/reach.py`, `python -m repro.obs`.\n"
            "`git checkout 8c9bb4d && PYTHONPATH=src python -m\n"
            "repro.bench.nowhere`\n")
    assert _command_problems("doc.md", text) == [
        "doc.md:1: `python -m repro.bench.nowhere`: no such module",
        "doc.md:1: `python -m repro.nowhere`: no such module",
        "doc.md:2: `python3 benchmarks/nowhere.py`: no such file",
        "doc.md:3: `python -m repro.zk`: no such module",
    ]


def test_experiments_prefix_is_what_the_renderer_writes():
    """EXPERIMENTS.md up to the renderer's first foreign heading is
    exactly what ``benchmarks/render_experiments.py`` renders from the
    committed ``benchmarks/results/*.json``, so a rerun changes nothing.
    Text recorded by hand belongs below that heading."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "render_experiments", ROOT / "benchmarks" / "render_experiments.py")
    renderer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(renderer)
    text = (ROOT / "EXPERIMENTS.md").read_text()
    rendered = renderer.render(renderer.load())
    assert text.startswith(rendered)
    assert text[len(rendered):].startswith(renderer.FIRST_FOREIGN_HEADING)
