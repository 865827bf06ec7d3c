"""Extension verification: AST white-listing at registration time (§4.1.1).

The paper's rule: an extension is not a means to run arbitrary code.
It must *prove itself compliant* by using only a white-listed set of
constructs; anything else rejects the registration immediately. The
white list enforces, statically:

* **bounded execution** — no ``while``, no recursion (the call graph
  over ``self.*`` methods must be acyclic), no ``range``-style generated
  iteration; ``for`` loops and comprehensions may only walk existing
  data structures (for-each, §4.1.1);
* **no escape hatches** — no imports, no ``exec``/``eval``/``getattr``,
  no dunder attribute access, no ``global``/``nonlocal``, no
  try/with/lambda/yield/async;
* **determinism** — only deterministic builtins; actively-replicated
  backends (EDS) keep the list strict, while passively-replicated ones
  (EZK) may extend it via ``VerifierConfig.extra_names`` (§4.1.1's
  remark on nondeterminism in primary-backup systems);
* **smallness** — a source-size cap keeps verification itself cheap
  (§4.2: verification happens once, at registration).

Verification is *structural*, not semantic: the runtime sandbox
(:mod:`repro.core.sandbox`) still executes extensions under restricted
globals and resource budgets, so the verifier only needs to reject the
constructs the sandbox cannot contain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Set, Tuple

from .errors import ExtensionRejectedError

__all__ = ["VerifierConfig", "verify_source", "SAFE_BUILTINS",
           "SAFE_ATTRIBUTES", "STATE_API_METHODS"]

#: Deterministic builtins an extension may call.
SAFE_BUILTINS = frozenset({
    "len", "min", "max", "sorted", "sum", "abs", "round", "divmod",
    "any", "all", "enumerate", "zip", "reversed",
    "str", "int", "float", "bool", "bytes", "list", "dict", "set", "tuple",
    "ord", "chr", "repr", "isinstance",
})

#: Names injected into every extension namespace by the sandbox.
INJECTED_NAMES = frozenset({
    "Extension", "OperationSubscription", "EventSubscription",
    "ObjectRecord",
})

#: The abstract coordination API (callable on the ``local`` proxy).
STATE_API_METHODS = frozenset({
    "create", "delete", "read", "update", "cas", "sub_objects", "exists",
    "block", "monitor",
})

#: Attributes of the request/event/record descriptors.
_DESCRIPTOR_FIELDS = frozenset({
    "op_type", "object_id", "client_id", "data", "params",
    "event_type", "seq", "name",
})

#: Safe methods of str/bytes/list/dict/set values. ``format`` is not one:
#: its replacement fields walk attributes at run time, out of the AST
#: check's sight (``"{0.__class__...}".format(local)``).
_CONTAINER_METHODS = frozenset({
    "startswith", "endswith", "split", "rsplit", "join", "strip", "lstrip",
    "rstrip", "lower", "upper", "replace", "find", "rfind", "index",
    "count", "encode", "decode", "zfill", "isdigit", "isalpha",
    "partition", "rpartition", "ljust", "rjust", "title", "capitalize",
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "copy", "get", "keys", "values", "items", "setdefault",
    "add", "discard", "union", "intersection", "difference",
})

SAFE_ATTRIBUTES = STATE_API_METHODS | _DESCRIPTOR_FIELDS | _CONTAINER_METHODS

#: Statement nodes allowed inside method bodies.
_ALLOWED_STATEMENTS = (
    ast.Return, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.If, ast.For,
    ast.Expr, ast.Pass, ast.Break, ast.Continue, ast.FunctionDef,
)

#: Expression nodes allowed anywhere.
_ALLOWED_EXPRESSIONS = (
    ast.Constant, ast.Name, ast.Attribute, ast.Call, ast.BinOp, ast.UnaryOp,
    ast.BoolOp, ast.Compare, ast.Subscript, ast.Slice, ast.Tuple, ast.List,
    ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp,
    ast.GeneratorExp, ast.IfExp, ast.JoinedStr, ast.FormattedValue,
    ast.Starred, ast.keyword, ast.comprehension,
    ast.Load, ast.Store,
    # operator tokens
    ast.And, ast.Or, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
    ast.Mod, ast.Pow, ast.LShift, ast.RShift, ast.BitOr, ast.BitXor,
    ast.BitAnd, ast.Not, ast.Invert, ast.UAdd, ast.USub, ast.Eq, ast.NotEq,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Is, ast.IsNot, ast.In, ast.NotIn,
    ast.arguments, ast.arg,
)

_BANNED_EXPLANATIONS = {
    ast.While: "while loops are forbidden (unbounded execution)",
    ast.Import: "imports are forbidden",
    ast.ImportFrom: "imports are forbidden",
    ast.Global: "global statements are forbidden",
    ast.Nonlocal: "nonlocal statements are forbidden",
    ast.Try: "try blocks are forbidden (crashes are contained by the sandbox)",
    ast.TryStar: "try blocks are forbidden",
    ast.With: "with blocks are forbidden",
    ast.Lambda: "lambdas are forbidden",
    ast.Yield: "generators are forbidden",
    ast.YieldFrom: "generators are forbidden",
    ast.Await: "async code is forbidden",
    ast.AsyncFunctionDef: "async code is forbidden",
    ast.AsyncFor: "async code is forbidden",
    ast.AsyncWith: "async code is forbidden",
    ast.Delete: "del statements are forbidden",
    ast.Assert: "assert statements are forbidden",
    ast.Raise: "raise statements are forbidden",
    ast.NamedExpr: "walrus assignments are forbidden",
}


@dataclass
class VerifierConfig:
    """Knobs for one backend's verification policy."""

    max_source_bytes: int = 8192
    #: Extra callable names allowed beyond SAFE_BUILTINS. A
    #: passively-replicated backend may add nondeterministic helpers here;
    #: actively-replicated backends must not (§4.1.1).
    extra_names: Tuple[str, ...] = ()
    #: Set False to skip verification entirely (the paper's escape hatch
    #: for environments with trusted developers, §4.2).
    enabled: bool = True


def verify_source(source: str,
                  config: VerifierConfig | None = None) -> ast.Module:
    """Verify extension source; returns the parsed module.

    Raises :class:`ExtensionRejectedError` listing every violation found
    (the whole list, so authors can fix them in one round).
    """
    config = config or VerifierConfig()
    if not config.enabled:
        return ast.parse(source)

    violations: List[str] = []
    if len(source.encode("utf-8")) > config.max_source_bytes:
        violations.append(
            f"source exceeds {config.max_source_bytes} bytes")
        raise ExtensionRejectedError(violations)

    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise ExtensionRejectedError([f"syntax error: {exc}"]) from exc

    _check_module_shape(module, violations)
    allowed_names = _collect_allowed_names(module, config)
    for node in ast.walk(module):
        _check_node(node, allowed_names, violations)
    _check_recursion(module, violations)

    if violations:
        raise ExtensionRejectedError(violations)
    return module


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_module_shape(module: ast.Module, violations: List[str]) -> None:
    """Top level: docstring, constant assignments, and class definitions."""
    for node in module.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, (ast.FunctionDef, ast.Assign,
                                        ast.AnnAssign, ast.Expr, ast.Pass)):
                    violations.append(
                        f"class body statement not allowed: "
                        f"{type(sub).__name__}")
                if isinstance(sub, ast.FunctionDef):
                    for inner in ast.walk(sub):
                        if inner is not sub and isinstance(
                                inner, ast.FunctionDef):
                            violations.append(
                                "nested function definitions are forbidden")
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # docstring
        violations.append(
            f"top-level statement not allowed: {type(node).__name__}")


def _collect_allowed_names(module: ast.Module,
                           config: VerifierConfig) -> Set[str]:
    """Names an extension may read: locals it binds + the white list."""
    allowed = set(SAFE_BUILTINS) | set(INJECTED_NAMES) | set(config.extra_names)
    allowed.add("local")
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            allowed.add(node.id)
        elif isinstance(node, ast.arg):
            allowed.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            allowed.add(node.name)
    return allowed


def _check_node(node: ast.AST, allowed_names: Set[str],
                violations: List[str]) -> None:
    node_type = type(node)
    explanation = _BANNED_EXPLANATIONS.get(node_type)
    if explanation is not None:
        violations.append(explanation)
        return
    if isinstance(node, ast.Attribute):
        if node.attr.startswith("_"):
            violations.append(
                f"underscore attribute access forbidden: .{node.attr}")
        elif isinstance(node.value, ast.Name) and node.value.id == "self":
            pass  # own methods and constants are fine
        elif node.attr not in SAFE_ATTRIBUTES:
            violations.append(f"attribute not white-listed: .{node.attr}")
    elif isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in allowed_names:
            violations.append(f"name not white-listed: {node.id}")
    elif isinstance(node, ast.expr) and not isinstance(
            node, _ALLOWED_EXPRESSIONS):
        violations.append(
            f"expression not allowed: {node_type.__name__}")
    elif isinstance(node, ast.stmt) and not isinstance(
            node, _ALLOWED_STATEMENTS + (ast.ClassDef,)):
        violations.append(f"statement not allowed: {node_type.__name__}")
    elif isinstance(node, ast.FunctionDef):
        if node.decorator_list:
            violations.append("decorators are forbidden")


def _check_recursion(module: ast.Module, violations: List[str]) -> None:
    """Reject direct or mutual recursion among an extension's methods."""
    for klass in (n for n in module.body if isinstance(n, ast.ClassDef)):
        calls: dict[str, Set[str]] = {}
        for method in (n for n in klass.body
                       if isinstance(n, ast.FunctionDef)):
            callees: Set[str] = set()
            for node in ast.walk(method):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"):
                    callees.add(node.func.attr)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)):
                    callees.add(node.func.id)
            calls[method.name] = callees

        def reachable(start: str, target: str, seen: Set[str]) -> bool:
            for callee in calls.get(start, ()):
                if callee == target:
                    return True
                if callee in calls and callee not in seen:
                    seen.add(callee)
                    if reachable(callee, target, seen):
                        return True
            return False

        for name in calls:
            if reachable(name, name, set()):
                violations.append(
                    f"recursive call cycle involving {klass.name}.{name}()")
