"""Unit tests for the AST white-list verifier."""

import ast
from pathlib import Path

import pytest

from repro.core import ExtensionRejectedError, VerifierConfig, verify_source

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

MINIMAL = '''
class Ext(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/x")]

    def handle_operation(self, request, local):
        return local.read(request.object_id)
'''


def rejects(source, match=None, config=None):
    with pytest.raises(ExtensionRejectedError) as excinfo:
        verify_source(source, config)
    if match is not None:
        assert any(match in v for v in excinfo.value.violations), \
            excinfo.value.violations


class TestAccepts:
    def test_minimal_extension(self):
        verify_source(MINIMAL)

    def test_for_each_loops_allowed(self):
        verify_source('''
class Ext(Extension):
    def handle_operation(self, request, local):
        total = 0
        for record in local.sub_objects("/q/"):
            total = total + len(record.data)
        return total
''')

    def test_comprehensions_allowed(self):
        verify_source('''
class Ext(Extension):
    def handle_operation(self, request, local):
        records = local.sub_objects("/q/")
        names = [r.object_id for r in records if r.seq > 0]
        return sorted(names)
''')

    def test_string_methods_allowed(self):
        verify_source('''
class Ext(Extension):
    def handle_operation(self, request, local):
        oid = request.object_id
        if oid.startswith("/q/"):
            return oid.split("/")[-1]
        return ""
''')

    def test_math_and_fstrings_allowed(self):
        verify_source('''
class Ext(Extension):
    def handle_operation(self, request, local):
        c = int(local.read("/ctr"))
        local.update("/ctr", str(c + 1).encode())
        return f"value={c + 1}"
''')

    def test_class_constants_and_docstrings(self):
        verify_source('''
"""A documented extension."""
THRESHOLD = 10

class Ext(Extension):
    """Docstring."""
    LIMIT = 5

    def handle_operation(self, request, local):
        return THRESHOLD + self.LIMIT
''')

    def test_helper_methods_allowed(self):
        verify_source('''
class Ext(Extension):
    def helper(self, x):
        return x * 2

    def handle_operation(self, request, local):
        return self.helper(21)
''')


class TestRejects:
    def test_while_loop(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        while True:
            pass
''', match="while")

    def test_import(self):
        rejects('''
import os

class Ext(Extension):
    def handle_operation(self, request, local):
        return os.getcwd()
''', match="import")

    def test_import_inside_method(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        import socket
        return 1
''', match="import")

    def test_direct_recursion(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return self.handle_operation(request, local)
''', match="recursive")

    def test_mutual_recursion(self):
        rejects('''
class Ext(Extension):
    def a(self, x):
        return self.b(x)

    def b(self, x):
        return self.a(x)

    def handle_operation(self, request, local):
        return self.a(1)
''', match="recursive")

    def test_dunder_attribute(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return request.__class__
''', match="underscore")

    def test_non_whitelisted_builtin(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return eval("1+1")
''', match="eval")

    def test_getattr_blocked(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return getattr(local, "read")("/x")
''', match="getattr")

    def test_open_blocked(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return open("/etc/passwd").read()
''', match="open")

    def test_range_blocked(self):
        # range enables loops not bounded by existing data (§4.1.1).
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        total = 0
        for i in range(10 ** 9):
            total = total + i
        return total
''', match="range")

    def test_lambda(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        f = lambda x: x
        return f(1)
''', match="lambda")

    def test_try_block(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        try:
            return 1
        finally:
            return 2
''', match="try")

    def test_yield(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        yield 1
''', match="generator")

    def test_global_statement(self):
        rejects('''
X = 1

class Ext(Extension):
    def handle_operation(self, request, local):
        global X
        X = 2
        return X
''', match="global")

    def test_raise(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        raise ValueError("no")
''', match="raise")

    def test_nested_function(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        def sneaky():
            return 1
        return sneaky()
''', match="nested")

    def test_decorators(self):
        rejects('''
class Ext(Extension):
    @staticmethod
    def handle_operation(request, local):
        return 1
''')

    def test_top_level_code(self):
        rejects('''
print("hello")

class Ext(Extension):
    def handle_operation(self, request, local):
        return 1
''')

    def test_size_cap(self):
        big = "# padding\n" * 2000 + MINIMAL
        rejects(big, match="bytes")

    def test_syntax_error(self):
        rejects("class (broken", match="syntax")

    def test_unsafe_attribute(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return request.shutdown()
''', match="shutdown")

    def test_format_escape_reads_sandbox_globals(self):
        # Regression: format fields walk attributes at run time, where
        # the dunder check cannot see them. Accepted, this handler
        # returned "repro.core.sandbox" from inside the sandbox.
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return "{0.__class__.__init__.__globals__[__name__]}".format(local)
''', match="format")

    def test_tower_of_powers(self):
        # Regression: one expression, no state op, so no op budget saw
        # it; accepted, it ran until the host ran out of memory.
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return 9 ** 9 ** 7
''', match="Pow")

    def test_power_by_a_variable(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return 2 ** len(request.data)
''', match="Pow")

    def test_power_past_the_literal_bound(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return 2 ** 65
''', match="Pow")

    def test_augmented_power(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        x = 9
        x **= x
        return x
''', match="Pow")

    def test_shift_by_a_variable(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        n = int(local.read("/n"))
        return 1 << n
''', match="LShift")

    def test_augmented_shift_by_a_bool(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        x = 1
        x <<= True
        return x
''', match="LShift")

    def test_loop_over_set_display(self):
        # Regression: string hashes follow PYTHONHASHSEED, so replicas
        # in separate processes would walk the set in different orders
        # and, under EDS's active replication, diverge.
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        for name in {"a", "b", "c"}:
            local.create("/log/" + name)
        return None
''', match="set display")

    def test_comprehension_over_set_display(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        return [name for name in {"a", "b", "c"}]
''', match="set display")

    def test_comprehension_over_set_comprehension(self):
        rejects('''
class Ext(Extension):
    def handle_operation(self, request, local):
        names = [r.object_id for r in local.sub_objects("/q")]
        return [n for n in {n.upper() for n in names}]
''', match="set display")


class TestGrowthAndOrderBounds:
    def test_small_literal_powers_and_shifts_allowed(self):
        verify_source('''
class Ext(Extension):
    def handle_operation(self, request, local):
        x = int(local.read("/x"))
        x **= 2
        return x ** 64 + (1 << 62) + (x << 8)
''')

    def test_sorted_set_display_allowed(self):
        # Sorting fixes the order, and membership tests never expose it.
        verify_source('''
class Ext(Extension):
    def handle_operation(self, request, local):
        if request.object_id in {"/a", "/b"}:
            return [n for n in sorted({"b", "a"})]
        return None
''')

    def test_no_shipped_extension_needs_either_construct(self):
        from repro.chaos.storms import _LEASE_EXT
        from repro.recipes.extensions import (BARRIER_EXT, COUNTER_EXT,
                                              ELECTION_EXT, QUEUE_EXT)

        example = ast.parse(EXAMPLES.joinpath("scfs_metadata.py").read_text())
        rename = next(ast.literal_eval(node.value) for node in example.body
                      if isinstance(node, ast.Assign)
                      and node.targets[0].id == "RENAME_EXT")
        for source in (BARRIER_EXT, COUNTER_EXT, ELECTION_EXT, QUEUE_EXT,
                       _LEASE_EXT, rename):
            verify_source(source)


class TestConfig:
    def test_extra_names_extend_whitelist(self):
        source = '''
class Ext(Extension):
    def handle_operation(self, request, local):
        return server_time()
'''
        rejects(source, match="server_time")
        verify_source(source, VerifierConfig(extra_names=("server_time",)))

    def test_verification_can_be_disabled(self):
        source = '''
import os

class Ext(Extension):
    def handle_operation(self, request, local):
        while True:
            pass
'''
        rejects(source)
        verify_source(source, VerifierConfig(enabled=False))

    def test_all_violations_reported_together(self):
        source = '''
import os

class Ext(Extension):
    def handle_operation(self, request, local):
        while True:
            pass
'''
        with pytest.raises(ExtensionRejectedError) as excinfo:
            verify_source(source)
        assert len(excinfo.value.violations) >= 2
