"""Unit tests for tuple matching and the tuple-space layer."""

import pytest

from repro.depspace import (ANY, AccessControl, AccessDeniedError,
                            BadTupleError, LeaseRecord, Policy,
                            PolicyViolationError, Prefix, TupleSpace,
                            deny_ops, is_template, make_tuple, matches,
                            protect_prefix, require_arity, require_field_type)


class TestMatching:
    def test_exact_match(self):
        assert matches(("a", 1), ("a", 1))

    def test_mismatch_value(self):
        assert not matches(("a", 1), ("a", 2))

    def test_mismatch_length(self):
        assert not matches(("a",), ("a", 1))

    def test_any_matches_anything(self):
        assert matches((ANY, ANY), ("x", b"data"))
        assert matches(("k", ANY), ("k", None))

    def test_prefix_matches_string_prefix(self):
        assert matches((Prefix("/queue/"), ANY), ("/queue/e1", b""))
        assert not matches((Prefix("/queue/"), ANY), ("/other/e1", b""))

    def test_prefix_rejects_non_string(self):
        assert not matches((Prefix("/q"),), (42,))

    def test_bool_does_not_match_int(self):
        assert not matches((1,), (True,))
        assert not matches((True,), (1,))
        assert matches((True,), (True,))

    def test_is_template(self):
        assert is_template((ANY, "x"))
        assert is_template((Prefix("/"),))
        assert not is_template(("x", 1))

    def test_make_tuple_validates(self):
        assert make_tuple("a", 1, b"x", None) == ("a", 1, b"x", None)
        with pytest.raises(BadTupleError):
            make_tuple(["lists", "not", "allowed"])


class TestTupleSpace:
    def test_out_and_rdp(self):
        space = TupleSpace()
        space.out(("k", 1))
        assert space.rdp(("k", ANY)) == ("k", 1)
        assert len(space) == 1

    def test_rdp_returns_oldest(self):
        space = TupleSpace()
        space.out(("k", 1))
        space.out(("k", 2))
        assert space.rdp(("k", ANY)) == ("k", 1)

    def test_inp_removes(self):
        space = TupleSpace()
        space.out(("k", 1))
        assert space.inp(("k", ANY)) == ("k", 1)
        assert space.rdp(("k", ANY)) is None

    def test_inp_no_match(self):
        assert TupleSpace().inp(("ghost",)) is None

    def test_out_rejects_template(self):
        with pytest.raises(BadTupleError):
            TupleSpace().out(("k", ANY))

    def test_duplicates_are_a_multiset(self):
        space = TupleSpace()
        space.out(("k",))
        space.out(("k",))
        assert space.inp(("k",)) == ("k",)
        assert space.inp(("k",)) == ("k",)
        assert space.inp(("k",)) is None

    def test_rdall_in_insertion_order(self):
        space = TupleSpace()
        space.out(("q", "b"))
        space.out(("q", "a"))
        space.out(("x", "z"))
        assert space.rdall(("q", ANY)) == [("q", "b"), ("q", "a")]

    def test_cas_inserts_when_no_match(self):
        space = TupleSpace()
        assert space.cas(("ctr", ANY), ("ctr", 0)) is True
        assert space.cas(("ctr", ANY), ("ctr", 1)) is False
        assert space.rdp(("ctr", ANY)) == ("ctr", 0)

    def test_replace_swaps_atomically(self):
        space = TupleSpace()
        space.out(("ctr", 5))
        old = space.replace(("ctr", ANY), ("ctr", 6))
        assert old == ("ctr", 5)
        assert space.rdp(("ctr", ANY)) == ("ctr", 6)

    def test_replace_no_match(self):
        assert TupleSpace().replace(("ctr", ANY), ("ctr", 0)) is None


class TestLeases:
    def test_expired_lease_purged(self):
        space = TupleSpace()
        space.out(("lease", "a"), lease=LeaseRecord("c1", expires_at=100.0))
        space.out(("durable",))
        removed = space.purge_expired(now=100.0)
        assert removed == [("lease", "a")]
        assert space.rdp(("lease", ANY)) is None
        assert space.rdp(("durable",)) is not None

    def test_unexpired_lease_survives(self):
        space = TupleSpace()
        space.out(("lease", "a"), lease=LeaseRecord("c1", expires_at=100.0))
        assert space.purge_expired(now=99.0) == []

    def test_renew_extends(self):
        space = TupleSpace()
        space.out(("lease", "a"), lease=LeaseRecord("c1", expires_at=100.0))
        assert space.renew_leases("c1", new_expiry=500.0) == 1
        assert space.purge_expired(now=200.0) == []
        assert space.purge_expired(now=500.0) == [("lease", "a")]

    def test_renew_only_own_leases(self):
        space = TupleSpace()
        space.out(("a",), lease=LeaseRecord("c1", expires_at=100.0))
        space.out(("b",), lease=LeaseRecord("c2", expires_at=100.0))
        assert space.renew_leases("c1", new_expiry=500.0) == 1
        assert space.purge_expired(now=100.0) == [("b",)]

    def test_taking_tuple_drops_lease(self):
        space = TupleSpace()
        space.out(("a",), lease=LeaseRecord("c1", expires_at=100.0))
        space.inp(("a",))
        assert space.purge_expired(now=1000.0) == []

    def test_purge_skips_scan_before_earliest_expiry(self):
        space = TupleSpace()
        space.out(("late",), lease=LeaseRecord("c1", expires_at=300.0))
        space.out(("early",), lease=LeaseRecord("c2", expires_at=100.0))
        # A tampered record proves the early return: no lease is read
        # while ``now`` is below the tracked earliest expiry.
        space._leases[0].expires_at = 0.0
        assert space.purge_expired(now=99.0) == []
        space._leases[0].expires_at = 300.0
        assert space.purge_expired(now=100.0) == [("early",)]
        assert space.purge_expired(now=299.0) == []

    def test_purge_bound_follows_renew_and_remove(self):
        space = TupleSpace()
        space.out(("c1-a",), lease=LeaseRecord("c1", expires_at=100.0))
        space.out(("c2",), lease=LeaseRecord("c2", expires_at=200.0))
        space.out(("c1-b",), lease=LeaseRecord("c1", expires_at=150.0))
        space.renew_leases("c1", new_expiry=50.0)     # renewal may lower it
        assert space.purge_expired(now=60.0) == [("c1-a",), ("c1-b",)]
        space.out(("c3",), lease=LeaseRecord("c3", expires_at=120.0))
        space.inp(("c3",))                            # removal keeps it safe
        assert space.purge_expired(now=150.0) == []
        assert space.purge_expired(now=200.0) == [("c2",)]

    def test_restore_rebuilds_purge_bound(self):
        space = TupleSpace()
        space.out(("a",), lease=LeaseRecord("c1", expires_at=40.0))
        clone = TupleSpace()
        clone.restore(space.snapshot())
        assert clone.purge_expired(now=40.0) == [("a",)]

    def test_replica_purge_renewed_survives_expired_in_key_order(self):
        from repro.depspace import DsReplica
        from repro.sim import Environment, Network
        env = Environment()
        replica = DsReplica(env, Network(env), "r0", ["r0", "r1", "r2", "r3"])
        space = replica.space()
        space.out(("b",), lease=LeaseRecord("gone", expires_at=10.0))
        space.out(("kept",), lease=LeaseRecord("alive", expires_at=10.0))
        space.out(("a",), lease=LeaseRecord("gone", expires_at=5.0))
        events = []
        replica._purge_leases(4.0, events)
        assert events == []
        space.renew_leases("alive", new_expiry=30.0)
        replica._purge_leases(20.0, events)
        assert [(e.kind, e.entry) for e in events] == [
            ("expired", ("b",)), ("expired", ("a",))]
        assert space.rdall((ANY,)) == [("kept",)]


class TestSnapshot:
    def test_round_trip_preserves_order_and_leases(self):
        space = TupleSpace()
        space.out(("first",))
        space.out(("second",), lease=LeaseRecord("c1", expires_at=50.0))
        clone = TupleSpace()
        clone.restore(space.snapshot())
        assert clone.fingerprint() == space.fingerprint()
        assert clone.rdall((ANY,)) == [("first",), ("second",)]
        assert clone.purge_expired(now=50.0) == [("second",)]


class TestAccessControl:
    def test_open_allows_everyone(self):
        AccessControl.open().check("out", "anyone")

    def test_allow_list_enforced(self):
        acl = AccessControl(writers={"alice"})
        acl.check("out", "alice")
        with pytest.raises(AccessDeniedError):
            acl.check("out", "bob")
        acl.check("rdp", "bob")  # readers unrestricted

    def test_deny_list_wins(self):
        acl = AccessControl(denied={"mallory"})
        with pytest.raises(AccessDeniedError):
            acl.check("rdp", "mallory")

    def test_take_separate_from_read(self):
        acl = AccessControl(takers={"worker"})
        acl.check("rd", "anyone")
        with pytest.raises(AccessDeniedError):
            acl.check("inp", "anyone")
        acl.check("inp", "worker")

    def test_unknown_op_rejected(self):
        with pytest.raises(AccessDeniedError):
            AccessControl.open().check("format_disk", "anyone")


class TestPolicy:
    def test_allow_all(self):
        Policy.allow_all().check("out", "c", ("x",), TupleSpace())

    def test_deny_ops(self):
        policy = Policy([deny_ops("inp", "in")])
        policy.check("out", "c", ("x",), TupleSpace())
        with pytest.raises(PolicyViolationError):
            policy.check("inp", "c", ("x",), TupleSpace())

    def test_require_arity(self):
        policy = Policy([require_arity(2)])
        policy.check("out", "c", ("k", "v"), TupleSpace())
        with pytest.raises(PolicyViolationError):
            policy.check("out", "c", ("k",), TupleSpace())

    def test_require_field_type(self):
        policy = Policy([require_field_type(1, bytes)])
        policy.check("out", "c", ("k", b"ok"), TupleSpace())
        with pytest.raises(PolicyViolationError):
            policy.check("out", "c", ("k", "not-bytes"), TupleSpace())
        # Reads are not constrained.
        policy.check("rdp", "c", ("k", "template-str"), TupleSpace())

    def test_protect_prefix(self):
        policy = Policy([protect_prefix("/em/", "em-manager")])
        policy.check("out", "em-manager", ("/em/ext", b""), TupleSpace())
        with pytest.raises(PolicyViolationError):
            policy.check("out", "intruder", ("/em/ext", b""), TupleSpace())
        policy.check("out", "intruder", ("/app/x", b""), TupleSpace())

    def test_first_rejection_wins(self):
        policy = Policy([deny_ops("out"), require_arity(99)])
        with pytest.raises(PolicyViolationError, match="disabled"):
            policy.check("out", "c", ("x",), TupleSpace())
