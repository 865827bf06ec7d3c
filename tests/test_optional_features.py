"""Tests for the paper's optional/extension features.

* §4.2: trusted helper methods statically added to the sandbox
  interface (nondeterministic helpers allowed on passively-replicated
  EZK);
* §4.2: disabling verification entirely;
* BFT-SMaRt's read-only optimization for DepSpace (unordered reads with
  2f+1 reply voting).
"""

import pytest

from repro.core import (ExtensionManager, ExtensionRejectedError,
                        MemoryState, OperationRequest, VerifierConfig)
from repro.depspace import ANY, DsConfig, DsEnsemble
from repro.eds import EdsEnsemble
from repro.ezk import EzkEnsemble

HELPER_EXT = '''
class StampedWrite(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/stamp")]

    def handle_operation(self, request, local):
        t = server_time()
        local.update("/stamped", str(t).encode())
        return t
'''


class TestSandboxHelpers:
    def test_helper_injected_and_whitelisted(self):
        manager = ExtensionManager(helpers={"server_time": lambda: 123.5})
        record = manager.register("stamp", HELPER_EXT, owner="a")
        state = MemoryState()
        state.create("/stamped", b"")
        result = manager.execute_operation(
            record, OperationRequest("read", "/stamp", client_id="a"), state)
        assert result == 123.5
        assert state.read("/stamped") == b"123.5"

    def test_without_helper_verification_rejects(self):
        manager = ExtensionManager()
        with pytest.raises(ExtensionRejectedError, match="server_time"):
            manager.register("stamp", HELPER_EXT, owner="a")

    def test_helpers_compose_with_extra_names(self):
        manager = ExtensionManager(
            verifier_config=VerifierConfig(extra_names=("other",)),
            helpers={"server_time": lambda: 1.0})
        assert "server_time" in manager.verifier_config.extra_names
        assert "other" in manager.verifier_config.extra_names

    def test_helper_end_to_end_on_ezk(self):
        ensemble = EzkEnsemble(
            n_replicas=3, seed=61,
            helpers={"server_time": lambda: 42.0})
        ensemble.start()
        client = ensemble.client()

        def scenario():
            yield from client.connect()
            yield from client.create("/stamped", b"")
            yield from client.register_extension("stamp", HELPER_EXT)
            value = yield from client.get_data("/stamp")
            return value

        proc = ensemble.env.process(scenario())
        assert ensemble.env.run(until=proc) == 42.0


class TestVerificationDisabled:
    def test_disabled_verifier_accepts_banned_constructs(self):
        source = '''
class Loose(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/loose")]

    def handle_operation(self, request, local):
        total = 0
        i = 0
        while i < 3:
            total = total + i
            i = i + 1
        return total
'''
        strict = ExtensionManager()
        with pytest.raises(ExtensionRejectedError):
            strict.register("loose", source, owner="a")
        loose = ExtensionManager(VerifierConfig(enabled=False))
        record = loose.register("loose", source, owner="a")
        result = loose.execute_operation(
            record, OperationRequest("read", "/loose", client_id="a"),
            MemoryState())
        assert result == 3


def run_all(ensemble, *gens):
    procs = [ensemble.env.process(g) for g in gens]
    return [ensemble.env.run(until=p) for p in procs]


class TestUnorderedReads:
    def test_reads_return_committed_values(self):
        ensemble = DsEnsemble(f=1, seed=62,
                              config=DsConfig(unordered_reads=True))
        ensemble.start()
        client = ensemble.client()
        assert client.unordered_reads

        def scenario():
            yield from client.out("k", b"v")
            return (yield from client.rdp("k", ANY))

        assert run_all(ensemble, scenario())[0] == ("k", b"v")

    def test_byzantine_replica_masked_with_2f1_votes(self):
        ensemble = DsEnsemble(f=1, seed=63,
                              config=DsConfig(unordered_reads=True))
        ensemble.start()
        ensemble.replica("ds3").byzantine = True
        client = ensemble.client()

        def scenario():
            yield from client.out("truth", 7)
            return (yield from client.rdp("truth", ANY))

        assert run_all(ensemble, scenario())[0] == ("truth", 7)

    def test_fast_reads_skip_ordering(self):
        ensemble = DsEnsemble(f=1, seed=64,
                              config=DsConfig(unordered_reads=True))
        ensemble.start()
        client = ensemble.client()

        def scenario():
            yield from client.out("k", 1)
            before = ensemble.replica("ds0").ordering._exec_seq
            for _ in range(5):
                yield from client.rdp("k", ANY)
            after = ensemble.replica("ds0").ordering._exec_seq
            return after - before

        assert run_all(ensemble, scenario())[0] == 0

    def test_fast_reads_improve_read_latency(self):
        def read_latency(unordered):
            ensemble = DsEnsemble(
                f=1, seed=65, config=DsConfig(unordered_reads=unordered))
            ensemble.start()
            client = ensemble.client()

            def scenario():
                yield from client.out("k", 1)
                start = ensemble.env.now
                for _ in range(20):
                    yield from client.rdp("k", ANY)
                return (ensemble.env.now - start) / 20.0

            proc = ensemble.env.process(scenario())
            return ensemble.env.run(until=proc)

        assert read_latency(True) < read_latency(False)

    def test_extension_reads_still_ordered_on_eds(self):
        from repro.depspace import DsConfig
        ensemble = EdsEnsemble(f=1, seed=66,
                               config=DsConfig(unordered_reads=True))
        ensemble.start()
        client = ensemble.client()
        counter_ext = '''
class CounterIncrement(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/ctr-increment")]

    def handle_operation(self, request, local):
        c = int(local.read("/ctr"))
        local.update("/ctr", str(c + 1).encode())
        return c + 1
'''

        def scenario():
            yield from client.out("/ctr", b"0")
            yield from client.register_extension("ctr-inc", counter_ext)
            values = []
            for _ in range(3):
                value = yield from client.rdp("/ctr-increment", ANY)
                values.append(value)
            return values

        assert run_all(ensemble, scenario())[0] == [1, 2, 3]
        assert ensemble.spaces_consistent()
