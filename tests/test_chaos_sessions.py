"""Session storms: smoke cells, the log checker's teeth, schedules.

The four smoke cells run in tier-1 (one seed each); the 25-seed storm
matrix joins the nightly explorer behind ``CHAOS_FULL=1``. The ezk
lease storm registers and deregisters an extension that writes the
leased path mid-window, so its cell checks the lease fences under a
changing registry.
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import (SESSION_SCENARIOS, FaultAction, Nemesis, Schedule,
                         check_lease_reads, check_session_log,
                         random_schedule, random_storm_schedule,
                         run_session_chaos)
from repro.chaos.schedule import STORM_KINDS
from repro.chaos.storms import check_committed_sessions
from repro.zk import ZkEnsemble
from repro.zk.txn import (CloseSessionTxn, CreateSessionTxn, CreateTxn,
                          ErrorTxn, MultiTxn, RequestMeta, SetDataTxn,
                          TxnRecord)

SMOKE_SEED = 3
SMOKE_CELLS = [("zk", "churn"), ("ezk", "watch_storm"),
               ("zk", "lease_storm"), ("ezk", "lease_storm")]


@pytest.mark.parametrize("system,scenario", SMOKE_CELLS)
def test_session_storm_smoke_cell(system, scenario):
    run = run_session_chaos(system, scenario, SMOKE_SEED)
    assert run.ok, (
        f"{system}/{scenario} seed {SMOKE_SEED}: {run.result.reason}\n"
        f"replay: {run.repro}\n"
        f"schedule:\n{run.schedule.describe()}\n"
        f"nemesis log:\n" + "\n".join(run.nemesis_log)
    )


def test_kill_client_schedule_reaps_the_session_once():
    """A hand-written ``kill_client`` schedule (no seeded one draws it):
    the dead client's session expires, its ephemeral is reaped by one
    committed close on every replica, and the live client's stays."""
    ens = ZkEnsemble(n_replicas=3, seed=5)
    ens.start()
    env = ens.env
    victim = ens.client(session_timeout_ms=600.0)
    survivor = ens.client()

    def setup():
        for client, path in ((victim, "/victim"), (survivor, "/survivor")):
            yield from client.connect()
            yield from client.create(path, b"", ephemeral=True)

    env.run(until=env.process(setup()))
    start = env.now
    schedule = Schedule((FaultAction(start + 50.0, "kill_client",
                                     target=victim.node_id),),
                        quiesce_ms=start + 1500.0)
    nemesis = Nemesis(ens, schedule, clients=[survivor, victim])
    nemesis.start()
    env.run(until=start + 2500.0)

    assert any(f"kill client {victim.node_id}" in line
               for line in nemesis.log), nemesis.log
    leader = ens.leader
    closes = [r for r in leader.broadcast.log
              if r.zxid <= leader.broadcast.committed_zxid
              and isinstance(r.txn, CloseSessionTxn)
              and r.txn.session_id == victim.session_id]
    assert len(closes) == 1
    for server in ens.servers:
        assert "/victim" not in server.tree
        assert "/survivor" in server.tree
        assert victim.session_id not in server.tree._ephemerals
    result = check_committed_sessions(ens)
    assert result.ok, result.reason


def test_kill_client_of_an_unknown_target_is_refused():
    ens = ZkEnsemble(n_replicas=3, seed=5)
    ens.start()
    schedule = Schedule((FaultAction(1.0, "kill_client", target="nobody"),),
                        quiesce_ms=10.0)
    Nemesis(ens, schedule, clients=[ens.client()]).start()
    with pytest.raises(ValueError, match="no client 'nobody'"):
        ens.env.run(until=5.0)


def test_storms_reject_non_zk_systems():
    with pytest.raises(ValueError):
        run_session_chaos("ds", "churn", 1)
    with pytest.raises(ValueError):
        run_session_chaos("zk", "no-such-scenario", 1)


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("CHAOS_FULL") != "1",
                    reason="25-seed storm matrix only in CHAOS_FULL runs")
@pytest.mark.parametrize("scenario", SESSION_SCENARIOS)
@pytest.mark.parametrize("system", ("zk", "ezk"))
def test_session_storm_matrix(system, scenario):
    failures = []
    for seed in range(1, 26):
        run = run_session_chaos(system, scenario, seed)
        if not run.ok:
            failures.append(f"seed {seed}: {run.result.reason} "
                            f"[replay: {run.repro}]")
    assert not failures, (
        f"{system}/{scenario}: {len(failures)}/25 seeds failed\n"
        + "\n".join(failures))


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("CHAOS_FULL") != "1",
                    reason="25-seed storm matrix only in CHAOS_FULL runs")
@pytest.mark.parametrize("scenario", SESSION_SCENARIOS)
def test_session_storm_matrix_raft(scenario):
    """Session storms over the Raft kernel: fencing, watches and leases
    must hold across Raft leader changes just as across Zab's."""
    failures = []
    for seed in range(1, 26):
        run = run_session_chaos("zk", scenario, seed, kernel="raft")
        if not run.ok:
            failures.append(f"seed {seed}: {run.result.reason} "
                            f"[replay: {run.repro}]")
    assert not failures, (
        f"zk/{scenario} kernel=raft: {len(failures)}/25 seeds failed\n"
        + "\n".join(failures))


# ---------------------------------------------------------------------------
# check_session_log teeth (fabricated committed logs)
# ---------------------------------------------------------------------------


def _meta(session_id, xid=1):
    return RequestMeta("zk0", "c0", session_id, xid)


def _clean_log():
    """Session 2 lives; session 5 opens, writes, closes; one rejection."""
    return [
        TxnRecord(2, CreateSessionTxn(2, 1000.0, "a")),
        TxnRecord(5, CreateSessionTxn(5, 1000.0, "b")),
        TxnRecord(6, CreateTxn("/e5", b"", ephemeral_owner=5), _meta(5)),
        TxnRecord(7, SetDataTxn("/n", b"v1"), _meta(5)),
        TxnRecord(8, CloseSessionTxn(5)),
        # A fenced request travels the pipeline as an ErrorTxn — a
        # rejection, not an applied write; the checker must allow it.
        TxnRecord(9, ErrorTxn("SESSION_EXPIRED", "fenced"), _meta(5)),
        TxnRecord(10, SetDataTxn("/n", b"v2"), _meta(2)),
    ]


class TestSessionLogChecker:
    def test_clean_log_passes(self):
        result = check_session_log(_clean_log(), {"zk0": {2}}, {2})
        assert result.ok, result.reason

    def test_double_close_fails(self):
        log = _clean_log() + [TxnRecord(11, CloseSessionTxn(5))]
        result = check_session_log(log, {}, {2})
        assert not result.ok
        assert "closed twice" in result.reason

    def test_post_expiry_write_fails(self):
        log = _clean_log() + [TxnRecord(11, SetDataTxn("/n", b"zombie"),
                                        _meta(5))]
        result = check_session_log(log, {}, {2})
        assert not result.ok
        assert "post-expiry write" in result.reason

    def test_session_resurrection_fails(self):
        log = _clean_log() + [TxnRecord(2, CreateSessionTxn(2, 1000.0))]
        result = check_session_log(log, {}, {2})
        assert not result.ok
        assert "resurrected" in result.reason

    def test_ephemeral_for_closed_owner_fails(self):
        log = _clean_log() + [
            TxnRecord(11, MultiTxn([SetDataTxn("/n", b"v3"),
                                    CreateTxn("/e", b"",
                                              ephemeral_owner=5)]),
                      _meta(2)),
        ]
        result = check_session_log(log, {}, {2})
        assert not result.ok
        assert "ephemeral created for closed session" in result.reason

    def test_surviving_ephemeral_of_closed_session_fails(self):
        result = check_session_log(_clean_log(), {"zk1": {2, 5}}, {2})
        assert not result.ok
        assert "survived the reap" in result.reason

    def test_orphan_ephemeral_owner_fails(self):
        result = check_session_log(_clean_log(), {"zk2": {77}}, {2})
        assert not result.ok
        assert "neither open nor closed" in result.reason


# ---------------------------------------------------------------------------
# check_lease_reads teeth (fabricated observation streams)
# ---------------------------------------------------------------------------


class TestLeaseReadChecker:
    def test_empty_and_fresh_reads_pass(self):
        assert check_lease_reads([]).ok
        events = [("write", 10.0, 5), ("read", 11.0, 5),
                  ("write", 20.0, 9), ("read", 25.0, 9),
                  ("read", 25.0, 12)]
        assert check_lease_reads(events).ok

    def test_stale_read_past_acked_write_fails(self):
        events = [("write", 10.0, 5), ("write", 20.0, 9),
                  ("read", 25.0, 5)]
        result = check_lease_reads(events)
        assert not result.ok
        assert "stale lease read" in result.reason

    def test_concurrent_ack_does_not_constrain(self):
        # The ack lands at the exact instant the read begins: the two
        # are concurrent, so returning the older value is legal.
        events = [("write", 10.0, 5), ("write", 20.0, 9),
                  ("read", 20.0, 5)]
        assert check_lease_reads(events).ok

    def test_ack_floor_uses_commit_order_not_issue_order(self):
        # Writer A's txn committed first (mzxid 5) but acked *after*
        # writer B's (mzxid 9): a read after both acks must see >= 9,
        # and one between the acks must only see >= 9's floor once 9
        # is actually acked.
        events = [("write", 30.0, 5), ("write", 20.0, 9),
                  ("read", 25.0, 9), ("read", 35.0, 9)]
        assert check_lease_reads(events).ok
        assert not check_lease_reads(
            events + [("read", 40.0, 5)]).ok


# ---------------------------------------------------------------------------
# storm schedules
# ---------------------------------------------------------------------------


class TestStormSchedules:
    @pytest.mark.parametrize("scenario", SESSION_SCENARIOS)
    def test_deterministic_per_seed(self, scenario):
        a = random_storm_schedule(9, scenario)
        b = random_storm_schedule(9, scenario)
        assert a.describe() == b.describe()
        assert a.describe() != random_storm_schedule(10, scenario).describe()

    @pytest.mark.parametrize("seed", range(1, 11))
    @pytest.mark.parametrize("scenario", SESSION_SCENARIOS)
    def test_shape(self, scenario, seed):
        schedule = random_storm_schedule(seed, scenario)
        storms = [a for a in schedule.actions if a.kind in STORM_KINDS]
        others = [a for a in schedule.actions if a.kind not in STORM_KINDS]
        expected = {"churn": "session_storm",
                    "watch_storm": "watch_storm",
                    "lease_storm": "lease_storm"}[scenario]
        assert storms, "every storm schedule has at least one storm"
        assert all(s.kind == expected for s in storms)
        assert all(s.count > 0 for s in storms)
        # Storm windows are serialized with each other...
        for earlier, later in zip(storms, storms[1:]):
            assert earlier.at_ms + earlier.duration_ms < later.at_ms
        # ...and every classic fault lands inside some storm window.
        for fault in others:
            assert any(s.at_ms <= fault.at_ms
                       and fault.at_ms + fault.duration_ms
                       <= s.at_ms + s.duration_ms for s in storms), \
                f"seed {seed}: {fault.describe()} outside every storm"
        assert schedule.quiesce_ms > max(
            a.at_ms + a.duration_ms for a in schedule.actions)
        # chronological, stable description
        ats = [a.at_ms for a in schedule.actions]
        assert ats == sorted(ats)

    def test_classic_schedules_never_emit_storms(self):
        """``random_schedule`` is untouched: replayability of every
        historical (system, recipe, seed) triple depends on it."""
        for seed in range(1, 21):
            for action in random_schedule(seed).actions:
                assert action.kind not in STORM_KINDS
                assert action.count == 0
