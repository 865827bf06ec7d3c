"""EDS's unblock veto (§5.2.2): ``allow_unblock`` runs in the sandbox.

An event extension may define ``allow_unblock(event, local)``; returning
False keeps a blocked ``rd``/``in`` waiting. It is extension code like
any other entry point, so it gets the budgeted proxy and crash
containment: a run that fails is rolled back and does not veto.
"""

from repro.core import SandboxLimits
from repro.depspace import ANY
from repro.eds import EdsEnsemble

GATE_EXT = '''
class Gate(Extension):
    def event_subscriptions(self):
        return [EventSubscription(("created",), "/slot/*")]

    def handle_event(self, event, local):
        pass

    def allow_unblock(self, event, local):
        return event.data != b"closed"
'''

#: Marks its run, then overruns a 4-op budget before it can veto.
GREEDY_EXT = '''
class Greedy(Extension):
    def event_subscriptions(self):
        return [EventSubscription(("created",), "/slot/*")]

    def handle_event(self, event, local):
        pass

    def allow_unblock(self, event, local):
        local.create("/veto-mark", b"")
        local.exists("/a")
        local.exists("/b")
        local.exists("/c")
        local.exists("/d")
        return False
'''


def _blocked_read(ensemble, source, writes):
    """Register ``source``, block an ``rd`` on ``/slot/x``, then run
    ``writes`` from a second client; returns the rd's value and when it
    came back (None, None while still blocked)."""
    waiter = ensemble.client()
    writer = ensemble.client()
    outcome = {}

    def wait():
        yield from waiter.register_extension("gate", source)
        value = yield from waiter.rd("/slot/x", ANY)
        outcome["value"], outcome["at"] = value, ensemble.env.now

    def write():
        yield ensemble.env.timeout(100.0)
        for step in writes:
            yield from step(writer)
            yield ensemble.env.timeout(100.0)

    ensemble.env.process(wait())
    ensemble.env.run(until=ensemble.env.process(write()))
    ensemble.env.run(until=ensemble.env.now + 100.0)
    return outcome.get("value"), outcome.get("at")


def test_veto_keeps_rd_blocked_until_an_allowed_tuple():
    ensemble = EdsEnsemble(f=1, seed=5)
    ensemble.start()
    vetoed_at = {}

    def closed(writer):
        yield from writer.out("/slot/x", b"closed")
        vetoed_at["t"] = ensemble.env.now

    def reopen(writer):
        yield from writer.inp("/slot/x", ANY)
        yield from writer.out("/slot/x", b"open")

    value, at = _blocked_read(ensemble, GATE_EXT, [closed, reopen])
    assert value == ("/slot/x", b"open")
    assert at > vetoed_at["t"] + 100.0
    assert ensemble.spaces_consistent()


def test_unblock_veto_over_budget_is_contained_and_rolled_back():
    ensemble = EdsEnsemble(f=1, seed=5, limits=SandboxLimits(max_state_ops=4))
    ensemble.start()

    def publish(writer):
        yield from writer.out("/slot/x", b"v")

    value, _at = _blocked_read(ensemble, GREEDY_EXT, [publish])
    assert value == ("/slot/x", b"v")
    for replica in ensemble.replicas:
        assert replica.space().rdp(("/veto-mark", ANY)) is None
    assert ensemble.spaces_consistent()
