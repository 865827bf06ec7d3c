"""End-to-end tests: clients against a BFT-replicated DepSpace ensemble."""

import pytest

from repro.depspace import (ANY, AccessControl, AccessDeniedError, DsEnsemble,
                            Policy, Prefix, deny_ops)


@pytest.fixture
def ensemble():
    ens = DsEnsemble(f=1, seed=3)
    ens.start()
    return ens


def run(ensemble, *generators):
    procs = [ensemble.env.process(gen) for gen in generators]
    results = []
    for proc in procs:
        results.append(ensemble.env.run(until=proc))
    return results


class TestBasicOps:
    def test_out_and_rdp(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("config", b"value")
            return (yield from client.rdp("config", ANY))

        assert run(ensemble, scenario())[0] == ("config", b"value")

    def test_rdp_none_when_empty(self, ensemble):
        client = ensemble.client()

        def scenario():
            return (yield from client.rdp("ghost", ANY))

        assert run(ensemble, scenario())[0] is None

    def test_inp_takes(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("job", 1)
            first = yield from client.inp("job", ANY)
            second = yield from client.inp("job", ANY)
            return first, second

        first, second = run(ensemble, scenario())[0]
        assert first == ("job", 1)
        assert second is None

    def test_cas_semantics(self, ensemble):
        client = ensemble.client()

        def scenario():
            created = yield from client.cas(("ctr", ANY), ("ctr", 0))
            duplicate = yield from client.cas(("ctr", ANY), ("ctr", 9))
            return created, duplicate

        created, duplicate = run(ensemble, scenario())[0]
        assert created is True
        assert duplicate is False

    def test_replace_atomic(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("ctr", 10)
            old = yield from client.replace(("ctr", ANY), ("ctr", 11))
            now = yield from client.rdp("ctr", ANY)
            return old, now

        old, now = run(ensemble, scenario())[0]
        assert old == ("ctr", 10)
        assert now == ("ctr", 11)

    def test_rdall_with_prefix(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("/q/a", b"1")
            yield from client.out("/q/b", b"2")
            yield from client.out("/other", b"3")
            return (yield from client.rdall(Prefix("/q/"), ANY))

        result = run(ensemble, scenario())[0]
        assert result == [("/q/a", b"1"), ("/q/b", b"2")]

    def test_named_spaces_are_isolated(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("k", 1, space="alpha")
            in_alpha = yield from client.rdp("k", ANY, space="alpha")
            in_main = yield from client.rdp("k", ANY)
            return in_alpha, in_main

        in_alpha, in_main = run(ensemble, scenario())[0]
        assert in_alpha == ("k", 1)
        assert in_main is None


class TestBlocking:
    def test_rd_blocks_until_out(self, ensemble):
        reader = ensemble.client()
        writer = ensemble.client()
        log = []

        def blocked():
            log.append(("waiting", ensemble.env.now))
            value = yield from reader.rd("gate", ANY)
            log.append(("woke", ensemble.env.now))
            return value

        def opener():
            yield ensemble.env.timeout(80.0)
            yield from writer.out("gate", b"open")

        value = run(ensemble, blocked(), opener())[0]
        assert value == ("gate", b"open")
        assert log[1][1] >= 80.0

    def test_in_blocks_and_takes_once(self, ensemble):
        taker1 = ensemble.client()
        taker2 = ensemble.client()
        writer = ensemble.client()
        got = []

        def taker(client):
            value = yield from client.in_("item", ANY)
            got.append(value)

        def producer():
            yield ensemble.env.timeout(50.0)
            yield from writer.out("item", 1)
            yield ensemble.env.timeout(50.0)
            yield from writer.out("item", 2)

        run(ensemble, taker(taker1), taker(taker2), producer())
        assert sorted(got) == [("item", 1), ("item", 2)]

    def test_rd_returns_immediately_when_present(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("here", b"")
            before = ensemble.env.now
            yield from client.rd("here", ANY)
            return ensemble.env.now - before

        assert run(ensemble, scenario())[0] < 10.0


class TestReplication:
    def test_replicas_converge(self, ensemble):
        client = ensemble.client()

        def scenario():
            for i in range(15):
                yield from client.out("item", i)
            yield from client.inp("item", 0)
            yield from client.replace(("item", 1), ("item", 100))
            yield ensemble.env.timeout(100.0)

        run(ensemble, scenario())
        assert ensemble.spaces_consistent()

    def test_byzantine_reply_is_masked(self, ensemble):
        ensemble.replica("ds3").byzantine = True
        client = ensemble.client()

        def scenario():
            yield from client.out("truth", 42)
            return (yield from client.rdp("truth", ANY))

        assert run(ensemble, scenario())[0] == ("truth", 42)

    def test_one_crashed_replica_tolerated(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("pre", 1)
            ensemble.replica("ds2").crash()
            yield from client.out("post", 2)
            return (yield from client.rdp("post", ANY))

        assert run(ensemble, scenario())[0] == ("post", 2)

    def test_primary_crash_triggers_view_change(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("pre", 1)
            ensemble.replica("ds0").crash()  # view-0 primary
            value = yield from client.out("post", 2)
            return value

        assert run(ensemble, scenario())[0] is True
        live_views = {r.ordering.view for r in ensemble.replicas if r._alive}
        assert max(live_views) >= 1

    def test_recovered_replica_catches_up(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("a", 1)
            ensemble.replica("ds2").crash()
            for i in range(5):
                yield from client.out("while-down", i)
            ensemble.replica("ds2").recover()
            yield ensemble.env.timeout(2000.0)
            yield from client.out("after", 9)
            yield ensemble.env.timeout(500.0)

        run(ensemble, scenario())
        recovered = ensemble.replica("ds2")
        assert recovered.space().rdp(("after", ANY)) is not None


class TestLeasesEndToEnd:
    def test_lease_expires_when_client_dies(self, ensemble):
        owner = ensemble.client()
        observer = ensemble.client()

        def scenario():
            yield from owner.out("/clients/owner", b"", lease_ms=500.0)
            owner.kill()
            yield ensemble.env.timeout(2000.0)
            # Another request forces the deterministic purge.
            return (yield from observer.rdp("/clients/owner", ANY))

        assert run(ensemble, scenario())[0] is None

    def test_lease_renewed_while_alive(self, ensemble):
        owner = ensemble.client()
        observer = ensemble.client()

        def scenario():
            yield from owner.out("/clients/owner", b"", lease_ms=500.0)
            yield ensemble.env.timeout(3000.0)  # renewals keep it alive
            return (yield from observer.rdp("/clients/owner", ANY))

        assert run(ensemble, scenario())[0] is not None


class TestLayers:
    def test_policy_enforced_at_all_replicas(self, ensemble):
        for replica in ensemble.replicas:
            replica.set_policy("main", Policy([deny_ops("inp")]))
        client = ensemble.client()

        def scenario():
            yield from client.out("x", 1)
            try:
                yield from client.inp("x", ANY)
            except Exception as exc:
                return type(exc).__name__
            return "allowed"

        assert run(ensemble, scenario())[0] == "PolicyViolationError"

    def test_acl_enforced(self, ensemble):
        for replica in ensemble.replicas:
            replica.set_acl("main", AccessControl(writers={"vip"}))
        client = ensemble.client()

        def scenario():
            try:
                yield from client.out("x", 1)
            except AccessDeniedError:
                return "denied"
            return "allowed"

        assert run(ensemble, scenario())[0] == "denied"

    def test_client_sends_to_all_replicas(self, ensemble):
        client = ensemble.client()

        def scenario():
            yield from client.out("x", 1)

        run(ensemble, scenario())
        # One logical request -> n messages billed to the client.
        assert ensemble.net.msgs_sent[client.node_id] >= 4
