"""The docs of record point at code that exists.

README.md, DESIGN.md and EXPERIMENTS.md name files, symbols and line
ranges in backticks. Each such reference is checked against the tree:

* a repo path (``zk/server.py``, ``repro/obs/``) exists, either
  as given from the repository root or as the one file or directory
  in the tree whose path ends with it;
* ``file.py::Symbol`` (``Symbol`` may be dotted, ``Class.method``)
  names a function, class or assignment that the file's AST holds;
* ``path:line`` and ``path:a–b`` lie inside their file.

Commands, globs and absolute paths in backticks are not references.
"""

from __future__ import annotations

import ast
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
