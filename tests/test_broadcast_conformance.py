"""AtomicBroadcast conformance: one contract, three kernels.

The same suite runs over Zab (primary-backup broadcast), Raft (leader
election + log matching) and PBFT (Byzantine three-phase ordering),
asserting the contract every layer above ``core/broadcast.py`` depends
on: total order, prefix agreement, no loss across leader changes,
sync-barrier linearizability, snapshot/suffix-sync equivalence, and
monotone leadership epochs (the fencing token). Commit holds run over
Zab and Raft only: the PBFT adapter does not implement ``hold`` (see
``core/broadcast.py``).

The teeth: two seeded Raft mutants — one skips the log-matching check,
one counts votes without the term/phase check — and the suite must
catch both. Log matching falls to the seeded random interleavings; the
blind vote counter is armored against them (pre-vote term filtering,
voter-side log checks, and grant stickiness all mask it), so a directed
split-brain scenario drives a stale grant from an earlier term into a
later candidacy and watches two leaders of the same term commit
different records under the same stamp.
"""

from __future__ import annotations

import pytest

from tests.broadcast_harness import (KERNELS, BroadcastCluster,
                                     run_random_interleaving)
from repro.core.broadcast import zxid_epoch
from repro.raft import RaftConfig, RaftPeer
from repro.raft.peer import RaftRole
from repro.zk.zab import NewLeader

FOREVER_MS = 1e9  # an election timeout that never fires within a test


def run_until(cluster, predicate, max_ms, step_ms=10.0):
    deadline = cluster.env.now + max_ms
    while cluster.env.now < deadline:
        if predicate():
            return True
        cluster.run(step_ms)
    return predicate()


def propose_all(cluster, values, gap_ms=60.0):
    for value in values:
        assert cluster.await_leader() is not None, "no leader to propose to"
        assert cluster.try_propose(value)
        cluster.run(gap_ms)


# ---------------------------------------------------------------------------
# The contract, kernel by kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
class TestAtomicBroadcastContract:
    def test_total_order_and_prefix_agreement(self, kernel):
        cluster = BroadcastCluster(kernel)
        values = [f"v{i}" for i in range(1, 13)]
        propose_all(cluster, values)
        assert cluster.settle() is None
        for endpoint in cluster.endpoints.values():
            assert endpoint.payloads() == values, endpoint.node_id

    def test_no_loss_across_leader_change(self, kernel):
        cluster = BroadcastCluster(kernel)
        committed = [f"a{i}" for i in range(1, 6)]
        propose_all(cluster, committed)
        assert cluster.settle() is None

        leader = cluster.leader()
        assert leader is not None
        epoch_before = leader.kernel.leadership_epoch
        cluster.crash(leader.node_id)
        if kernel == "pbft":
            # PBFT is client-driven: a request that times out at the dead
            # primary is what triggers the view change.
            cluster.try_propose("b1")
        new_leader = cluster.await_leader()
        assert new_leader is not None, "no leader re-emerged after crash"
        assert new_leader.node_id != leader.node_id
        assert new_leader.kernel.leadership_epoch > epoch_before
        late = ["b2", "b3"] if kernel == "pbft" else ["b1", "b2", "b3"]
        propose_all(cluster, late)
        cluster.recover(leader.node_id)
        assert cluster.settle() is None

        expected = committed + ["b1", "b2", "b3"]
        for endpoint in cluster.endpoints.values():
            got = endpoint.payloads()
            # Everything committed before the crash survives it, in order.
            assert got[:len(committed)] == committed, endpoint.node_id
            # Nothing proposed after the new leader emerged is lost either.
            assert sorted(got) == sorted(expected), endpoint.node_id
            if kernel != "pbft":  # pbft may reorder the leaderless b1
                assert got == expected, endpoint.node_id

    def test_sync_barrier_covers_all_prior_deliveries(self, kernel):
        cluster = BroadcastCluster(kernel)
        propose_all(cluster, [f"v{i}" for i in range(1, 7)])
        leader = cluster.leader()
        assert leader is not None
        barrier = leader.kernel.sync_barrier()
        # Everything delivered anywhere up to this instant...
        prior = set()
        for endpoint in cluster.endpoints.values():
            prior.update(endpoint.delivered())
        # ...is stamped at or below the barrier...
        assert all(zxid <= barrier for zxid, _ in prior)
        assert cluster.settle() is None
        # ...and any node that has caught up to the barrier holds it all.
        for endpoint in cluster.alive_endpoints():
            held = set(p for p in endpoint.delivered() if p[0] <= barrier)
            assert held >= prior, endpoint.node_id

    def test_leadership_epoch_starts_at_one_and_only_grows(self, kernel):
        cluster = BroadcastCluster(kernel)
        for endpoint in cluster.endpoints.values():
            assert endpoint.kernel.leadership_epoch == 1, endpoint.node_id
        observed = {n: [1] for n in cluster.node_ids}

        def sample():
            for node_id, endpoint in cluster.endpoints.items():
                if endpoint.alive:
                    observed[node_id].append(endpoint.kernel.leadership_epoch)
            return False

        run_until(cluster, sample, 1_000.0, step_ms=50.0)
        propose_all(cluster, ["a1", "a2"])
        leader = cluster.await_leader()
        cluster.crash(leader.node_id)
        if kernel == "pbft":
            cluster.try_propose("b1")
        run_until(cluster, sample, 5_000.0, step_ms=50.0)
        cluster.recover(leader.node_id)
        run_until(cluster, sample, 3_000.0, step_ms=50.0)

        for node_id, epochs in observed.items():
            assert all(b >= a for a, b in zip(epochs, epochs[1:])), \
                f"{node_id}: leadership epoch regressed: {epochs}"
        survivors = [e for e in cluster.endpoints.values()
                     if e.node_id != leader.node_id]
        assert max(e.kernel.leadership_epoch for e in survivors) > 1, \
            "failover must bump the leadership epoch"


# ---------------------------------------------------------------------------
# Commit holds (leader-side; Zab and Raft)
# ---------------------------------------------------------------------------

HOLD_KERNELS = ("zab", "raft")


def replicated(cluster, zxid) -> bool:
    return all(e.kernel.last_zxid >= zxid for e in cluster.alive_endpoints())


@pytest.mark.parametrize("kernel", HOLD_KERNELS)
class TestCommitHolds:
    def test_held_stamp_and_later_ones_replicate_but_wait(self, kernel):
        cluster = BroadcastCluster(kernel)
        propose_all(cluster, ["a1"])
        assert cluster.settle() is None
        leader = cluster.leader().kernel
        held = leader.next_zxid
        leader.hold(held)
        assert leader.propose("held") == held
        later = [leader.propose("b1"), leader.propose("b2")]
        # Many heartbeats and acks later: everyone logged all three,
        # nobody delivered any, and no commit point advertised them.
        cluster.run(400.0)
        assert replicated(cluster, later[-1])
        for endpoint in cluster.endpoints.values():
            assert endpoint.payloads() == ["a1"], endpoint.node_id
            assert endpoint.kernel.committed_zxid < held, endpoint.node_id
        leader.release(held)
        assert cluster.settle() is None
        for endpoint in cluster.endpoints.values():
            assert endpoint.payloads() == ["a1", "held", "b1", "b2"]

    def test_release_delivers_in_stamp_order(self, kernel):
        cluster = BroadcastCluster(kernel)
        leader = cluster.leader().kernel
        first = leader.next_zxid
        leader.hold(first)
        leader.propose("x1")
        second = leader.next_zxid
        leader.hold(second)
        leader.propose("x2")
        leader.propose("x3")
        cluster.run(200.0)
        # Releasing the later hold first frees nothing: the earlier one
        # still keeps the watermark below every stamp after it.
        leader.release(second)
        cluster.run(200.0)
        for endpoint in cluster.endpoints.values():
            assert endpoint.payloads() == [], endpoint.node_id
        leader.release(first)
        assert cluster.settle() is None
        for endpoint in cluster.endpoints.values():
            assert endpoint.payloads() == ["x1", "x2", "x3"]

    def test_leadership_change_drops_the_holds(self, kernel):
        cluster = BroadcastCluster(kernel)
        ep = cluster.endpoints
        propose_all(cluster, ["a1"])
        assert cluster.settle() is None
        # n2 takes over (highest rank among equal logs) and holds a stamp.
        cluster.crash("n0")
        assert run_until(cluster, lambda: ep["n2"].kernel.is_leader, 5_000.0)
        cluster.recover("n0")
        assert cluster.settle() is None
        held = ep["n2"].kernel.next_zxid
        ep["n2"].kernel.hold(held)
        ep["n2"].kernel.propose("held")
        assert run_until(cluster, lambda: replicated(cluster, held), 100.0,
                         step_ms=1.0)
        # Cut off, n2 loses the leadership without crashing; nobody
        # holds the proposal under n1, so it commits there.
        cluster.partition(["n2"])
        assert run_until(cluster, lambda: ep["n1"].kernel.is_leader, 5_000.0)
        ep["n1"].kernel.propose("b1")
        cluster.heal()
        assert cluster.settle() is None
        # n2 wins again: its old hold died with the old leadership, so
        # it commits at once.
        cluster.crash("n1")
        assert run_until(cluster, lambda: ep["n2"].kernel.is_leader, 5_000.0)
        ep["n2"].kernel.propose("c1")
        cluster.recover("n1")
        assert cluster.settle() is None
        for endpoint in ep.values():
            assert endpoint.payloads() == ["a1", "held", "b1", "c1"]


# ---------------------------------------------------------------------------
# Snapshot / suffix-sync equivalence
# ---------------------------------------------------------------------------


class TestCatchupEquivalence:
    """A laggard repaired by snapshot and one repaired by suffix backfill
    end with the same delivered sequence — the transport is invisible."""

    def _raft_run(self, threshold):
        cluster = BroadcastCluster(
            "raft", raft_config=RaftConfig(snapshot_threshold=threshold))
        propose_all(cluster, ["w1", "w2"])
        cluster.crash("n2")
        propose_all(cluster, [f"w{i}" for i in range(3, 15)])
        cluster.recover("n2")
        assert cluster.settle() is None
        return cluster

    def test_raft_snapshot_vs_suffix_backfill(self):
        snap = self._raft_run(threshold=8)
        suffix = self._raft_run(threshold=0)  # compaction disabled
        assert snap.endpoints["n2"].kernel.snapshots_installed >= 1, \
            "threshold 8 over a 12-entry gap must ship a snapshot"
        assert all(e.kernel.snapshots_installed == 0
                   for e in suffix.endpoints.values()), \
            "with compaction off, repair must ride AppendEntries alone"
        for node_id in snap.endpoints:
            assert (snap.endpoints[node_id].payloads()
                    == suffix.endpoints[node_id].payloads()), node_id

    def test_zab_suffix_sync_vs_full_sync(self):
        # Suffix case: a crashed follower whose log is a clean prefix of
        # the leader's gets only the missing tail (prefix_zxid > 0).
        cluster = BroadcastCluster("zab")
        propose_all(cluster, ["w1", "w2"])
        assert cluster.settle() is None
        cluster.crash("n2")
        propose_all(cluster, ["w3", "w4"])
        cluster.record_messages = True
        cluster.recover("n2")
        assert cluster.settle() is None
        syncs = [m for _s, dst, m in cluster.msg_log
                 if dst == "n2" and isinstance(m, NewLeader)]
        assert syncs and all(m.prefix_zxid > 0 for m in syncs), \
            "a clean-prefix laggard must be repaired by suffix sync"
        assert cluster.endpoints["n2"].payloads() == ["w1", "w2", "w3", "w4"]

        # Full case: a deposed leader holding an uncommitted divergent
        # suffix claims a zxid the new leader never logged, and gets the
        # whole log instead (prefix_zxid == 0).
        cluster = BroadcastCluster("zab")
        propose_all(cluster, ["w1"])
        assert cluster.settle() is None
        cluster.partition(["n0"])
        assert cluster.endpoints["n0"].kernel.propose("orphan") > 0
        new_leader = None
        for _ in range(200):
            cluster.run(100.0)
            candidates = [e for e in (cluster.endpoints["n1"],
                                      cluster.endpoints["n2"])
                          if e.kernel.is_leader]
            if candidates:
                new_leader = candidates[0]
                break
        assert new_leader is not None, "majority side failed to re-elect"
        new_leader.kernel.propose("w2")
        cluster.record_messages = True
        cluster.heal()
        assert cluster.settle() is None
        syncs = [m for _s, dst, m in cluster.msg_log
                 if dst == "n0" and isinstance(m, NewLeader)]
        assert syncs and syncs[-1].prefix_zxid == 0, \
            "a divergent log must fall back to full sync"
        for endpoint in cluster.endpoints.values():
            assert endpoint.payloads() == ["w1", "w2"], endpoint.node_id

    def test_pbft_recovery_rides_a_snapshot(self):
        # PBFT replicas delete executed slots, so a replica that missed
        # them can only be repaired by state transfer — never replay.
        cluster = BroadcastCluster("pbft")
        propose_all(cluster, ["w1", "w2"])
        assert cluster.settle() is None
        cluster.crash("n3")
        propose_all(cluster, ["w3", "w4", "w5"])
        cluster.recover("n3")
        assert cluster.settle() is None
        assert cluster.endpoints["n3"].kernel.snapshots_installed >= 1
        assert (cluster.endpoints["n3"].payloads()
                == ["w1", "w2", "w3", "w4", "w5"])


# ---------------------------------------------------------------------------
# Teeth: seeded Raft mutants the suite must catch
# ---------------------------------------------------------------------------


class RaftNoLogMatching(RaftPeer):
    """Accepts any AppendEntries regardless of the claimed predecessor."""

    def _prev_ok(self, prev_index, prev_term):
        return True


class RaftBlindVotes(RaftPeer):
    """Counts any granted vote, whatever term or phase it was cast in."""

    def _vote_valid(self, msg):
        return True


class TestRaftTeeth:
    # Seeds where the honest kernel is known-clean and the log-matching
    # mutant is known to diverge (committed-prefix disagreement or a
    # truncation-below-commit assertion).
    SWEEP_SEEDS = (1, 2)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_interleavings_catch_skipped_log_matching(self, seed):
        assert run_random_interleaving("raft", seed) is None
        violation = run_random_interleaving("raft", seed,
                                            raft_peer_cls=RaftNoLogMatching)
        assert violation is not None, \
            f"seed {seed}: log-matching mutant survived the interleaving"

    def test_directed_divergent_suffix_catches_skipped_log_matching(self):
        """A deposed leader holding an uncommitted entry at index i is
        probed by the new leader with prev=i: the honest kernel rejects
        (term mismatch) and truncates; the mutant acks the probe and then
        commits its own divergent entry when the leader's commit index
        reaches i."""
        violation, payloads = self._divergent_suffix(RaftNoLogMatching)
        assert violation is not None and "disagreement" in violation
        violation, payloads = self._divergent_suffix(RaftPeer)
        assert violation is None
        assert payloads == ["a", "y"]

    def _divergent_suffix(self, peer_cls):
        cluster = BroadcastCluster("raft", raft_peer_cls=peer_cls)
        n0 = cluster.endpoints["n0"]
        propose_all(cluster, ["a"])
        assert cluster.settle() is None
        cluster.partition(["n0"])
        n0.kernel.propose("x")  # appended, never committable
        new_leader = None
        for _ in range(200):
            cluster.run(100.0)
            candidates = [e for e in (cluster.endpoints["n1"],
                                      cluster.endpoints["n2"])
                          if e.kernel.is_leader]
            if candidates:
                new_leader = candidates[0]
                break
        assert new_leader is not None, "majority side failed to re-elect"
        new_leader.kernel.propose("y")
        cluster.run(300.0)
        cluster.heal()
        violation = cluster.settle(10_000.0)
        return violation, n0.payloads()

    def test_directed_stale_grant_catches_blind_vote_counting(self):
        """Split brain from one stale grant. n1 runs for term 2; both
        grants crawl back over slow links. n0 retakes the cluster at
        term 3 (a real quorum) and commits "y". n1, still ignorant, runs
        for term 3; the term-2 grant then arrives. The honest kernel
        ignores it (wrong term); the mutant counts it, seats n1 as a
        second term-3 leader, and n1's entries collide with n0's at the
        same (term, index) — so followers keep "y" as a "duplicate"
        while n1 commits "X" under the very same stamp."""
        violation = self._stale_grant(RaftBlindVotes)
        assert violation is not None and "disagreement" in violation
        assert self._stale_grant(RaftPeer) is None

    def _stale_grant(self, peer_cls):
        # pre_vote=False exposes the raw vote-counting path: the mutation
        # lives in _vote_valid either way, but pre-vote's term filter
        # sits in front of it and would mask the directed timeline.
        cluster = BroadcastCluster(
            "raft", raft_peer_cls=peer_cls,
            raft_config=RaftConfig(pre_vote=False))
        n0 = cluster.endpoints["n0"]
        n1 = cluster.endpoints["n1"]
        n2 = cluster.endpoints["n2"]
        propose_all(cluster, ["a"])
        assert cluster.settle() is None

        # Slow both grant channels into n1: the term-2 grants will spend
        # seconds in flight while the cluster moves on to term 3.
        cluster.net.add_delay_rule(extra_ms=2_500.0, src="n2", dst="n1")
        cluster.net.add_delay_rule(extra_ms=6_000.0, src="n0", dst="n1")

        # n1 runs for term 2 (both peers grant; replies crawl).
        n1.kernel._timeout_ms = 0.0
        assert run_until(cluster, lambda: n1.kernel.current_term == 2, 500.0)
        n1.kernel._timeout_ms = FOREVER_MS  # freeze: candidate, term 2

        # n0 retakes the cluster at term 3 with n2's (valid) vote and
        # commits "y" there.
        n0.kernel._timeout_ms = 0.0
        assert run_until(
            cluster,
            lambda: n0.kernel.is_leader and n0.kernel.current_term == 3,
            2_000.0)
        n0.kernel._timeout_ms = FOREVER_MS
        n0.kernel.propose("y")
        assert run_until(
            cluster,
            lambda: "y" in n0.payloads() and "y" in n2.payloads(), 2_000.0)

        # n1 — ignorant of all of it — now runs for term 3 itself. Both
        # rejections are slow/ignored; what arrives next is the stale
        # term-2 grant from n2.
        n1.kernel._timeout_ms = 0.0
        assert run_until(
            cluster,
            lambda: (n1.kernel.current_term == 3
                     and n1.kernel.role is RaftRole.CANDIDATE), 500.0)
        n1.kernel._timeout_ms = FOREVER_MS
        cluster.net.clear_rules()  # in-flight messages keep their delays

        # Honest kernel: the grant is dropped on the floor and n1 stays a
        # candidate. Mutant: n1 seats itself as a second term-3 leader.
        became_leader = run_until(
            cluster, lambda: n1.kernel.is_leader, 3_500.0)
        if not became_leader:
            assert n1.kernel.role is RaftRole.CANDIDATE
            return cluster.check_safety()
        n1.kernel.propose("X")
        run_until(cluster, lambda: "X" in n1.payloads(), 2_000.0)
        violation = cluster.check_safety()
        assert violation is not None, \
            "a second same-term leader must surface as a safety violation"
        # The collision is at the same stamp: two leaders of term 3
        # minted different records under one zxid.
        stamps = {zxid for zxid, _ in n1.delivered()}
        assert any(zxid_epoch(z) == 3 for z in stamps)
        return violation
