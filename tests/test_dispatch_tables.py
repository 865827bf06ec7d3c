"""Exact-type dispatch tables route every message and txn class.

``ZkServer.handle_message``, ``ZabPeer.handle`` and ``ZkServer._apply``
look handlers up by ``msg.__class__``. A lookup by exact type misses
subclasses that an ``isinstance`` chain would have caught, so each test
here walks the subclasses of every class the original chains matched
and checks that each resolves to the handler the chain gave it.
"""

from __future__ import annotations

import pytest

import repro.raft.peer as raft_peer
import repro.zk.server as server_mod
import repro.zk.zab as zab_mod
from repro.obs import FourLetterRequest
from repro.sim import Environment
from repro.zk.data_tree import DataTree
from repro.zk.errors import ZkError
import repro.zk.leases as leases_mod
from repro.zk.leases import (LeaseDeny, LeaseGrant, LeaseRelease,
                             LeaseRequest, LeaseRevokeAck, LeaseStage)
from repro.zk.server import Forward, ForwardSettled, SessionPing, ZkServer
from repro.zk.txn import (ClientRequest, CloseSessionTxn, CreateSessionTxn,
                          CreateTxn, DeleteTxn, ErrorTxn, MultiTxn,
                          SetDataTxn, Txn)
from repro.zk.zab import (Ack, Commit, CurrentLeader, Heartbeat, NewLeader,
                          NewLeaderAck, Proposal, SyncRequest, Vote, ZabPeer)

#: Stands for "not ours: hand it to the consensus kernel".
KERNEL = "kernel"


def family(root: type) -> list:
    """``root`` and every subclass of it, however deep."""
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def ladder_route(ladder, cls):
    """Where an isinstance chain over ``ladder`` sends an instance of cls."""
    for root, handler in ladder:
        if issubclass(cls, root):
            return handler
    return None


# -- ZkServer.handle_message -------------------------------------------------

#: The lease stage's chain: the five lease messages a replica receives.
LEASE_LADDER = [
    (LeaseRequest, LeaseStage._on_request),
    (LeaseGrant, LeaseStage._on_grant),
    (LeaseDeny, LeaseStage._on_deny),
    (LeaseRevokeAck, LeaseStage._on_revoke_ack),
    (LeaseRelease, LeaseStage._on_release),
]

#: The server's chain: client requests first, then the kernel, then the
#: server's own protocol messages; the lease messages go to its stage.
SERVER_LADDER = [
    (ClientRequest, ZkServer._on_client_request),
    (Forward, ZkServer._on_forward),
    (ForwardSettled, ZkServer._on_forward_settled),
    (SessionPing, ZkServer._on_session_ping),
    *[(root, ZkServer._on_lease_message) for root, _ in LEASE_LADDER],
    (FourLetterRequest, ZkServer._on_four_letter_request),
]


def server_route(cls):
    handler = server_mod._INBOX.get(cls)
    return KERNEL if handler is None else handler


@pytest.mark.parametrize("root", [root for root, _ in SERVER_LADDER],
                         ids=lambda root: root.__name__)
def test_server_table_covers_every_subclass(root):
    for cls in family(root):
        assert server_route(cls) is ladder_route(SERVER_LADDER, cls), cls


def test_server_table_lists_client_request_subclasses_explicitly():
    for name in ("ZxidClientRequest", "LeaseClientRequest"):
        cls = next(c for c in family(ClientRequest) if c.__name__ == name)
        assert server_mod._INBOX[cls] is ZkServer._on_client_request


def test_server_table_holds_nothing_the_ladder_did_not_match():
    for cls, handler in server_mod._INBOX.items():
        assert ladder_route(SERVER_LADDER, cls) is handler, cls


def test_lease_stage_table_matches_its_ladder():
    for root, _ in LEASE_LADDER:
        for cls in family(root):
            assert (leases_mod._RECEIVERS.get(cls)
                    is ladder_route(LEASE_LADDER, cls)), cls
    for cls, handler in leases_mod._RECEIVERS.items():
        assert ladder_route(LEASE_LADDER, cls) is handler, cls


def _kernel_messages():
    messages = []
    for module in (zab_mod, raft_peer):
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ ==
                    module.__name__ and hasattr(value,
                                                "__dataclass_fields__")):
                messages.append(value)
    return messages


def test_kernel_messages_fall_through_to_the_kernel():
    messages = _kernel_messages()
    assert Proposal in messages and len(messages) > 10
    for cls in messages:
        if cls in server_mod._INBOX:
            pytest.fail(f"{cls.__name__} is a kernel message")


# -- ZabPeer.handle ----------------------------------------------------------

ZAB_LADDER = [
    (Proposal, ZabPeer._on_proposal),
    (Ack, ZabPeer._on_ack),
    (Commit, ZabPeer._on_commit),
    (Heartbeat, ZabPeer._on_heartbeat),
    (Vote, ZabPeer._on_vote),
    (CurrentLeader, ZabPeer._on_current_leader),
    (NewLeader, ZabPeer._on_new_leader),
    (NewLeaderAck, ZabPeer._on_new_leader_ack),
    (SyncRequest, ZabPeer._on_sync_request),
]


@pytest.mark.parametrize("root", [root for root, _ in ZAB_LADDER],
                         ids=lambda root: root.__name__)
def test_zab_table_covers_every_subclass(root):
    for cls in family(root):
        assert zab_mod._HANDLERS.get(cls) is ladder_route(ZAB_LADDER, cls)


def test_zab_table_holds_nothing_the_ladder_did_not_match():
    for cls, handler in zab_mod._HANDLERS.items():
        assert ladder_route(ZAB_LADDER, cls) is handler, cls


def _lone_peer():
    sent = []
    peer = ZabPeer(Environment(), "a", ["a", "b", "c"],
                   send=lambda dst, msg: sent.append((dst, msg)),
                   deliver=lambda record: None)
    return peer, sent


def test_zab_handle_rejects_foreign_messages():
    peer, _ = _lone_peer()
    assert peer.handle("b", Forward(None, "b", "c")) is False
    assert peer.handle("b", SyncRequest(0)) is True


def test_dead_zab_peer_swallows_everything():
    peer, sent = _lone_peer()
    peer.bootstrap("a")
    peer.crash()
    assert peer.handle("b", Forward(None, "b", "c")) is True
    assert peer.handle("b", SyncRequest(0)) is True
    assert sent == []             # a live leader would answer the sync


# -- ZkServer._apply / _apply_txn_to_tree -------------------------------------

#: The applier chain: errors and sessions at the server, the rest to the
#: tree, whose own chain (a bare tree's) knows nothing else.
SERVER_TXN_LADDER = [
    (ErrorTxn, ZkServer._apply_error),
    (CreateSessionTxn, ZkServer._apply_create_session),
    (CloseSessionTxn, ZkServer._apply_close_session),
]
TREE_TXN_LADDER = [
    (CreateTxn, server_mod._apply_create),
    (SetDataTxn, server_mod._apply_set_data),
    (DeleteTxn, server_mod._apply_delete),
    (MultiTxn, server_mod._apply_multi),
]


def apply_route(cls):
    """Where ``ZkServer._apply`` sends a txn of class ``cls``."""
    tree = server_mod._TREE_APPLIERS.get(cls)
    if tree is not None:
        return ("tree", tree)
    return ("server", server_mod._SERVER_APPLIERS.get(cls))


def test_apply_tables_cover_every_txn_class():
    classes = family(Txn)
    assert {ErrorTxn, CreateSessionTxn, CloseSessionTxn, CreateTxn,
            SetDataTxn, DeleteTxn, MultiTxn} < set(classes)
    for cls in classes:
        server = ladder_route(SERVER_TXN_LADDER, cls)
        if server is not None:
            expected = ("server", server)
        else:
            expected = ("tree", ladder_route(TREE_TXN_LADDER, cls))
        if expected == ("tree", None):
            expected = ("server", None)   # unknown: _apply raises
        assert apply_route(cls) == expected, cls
        assert (server_mod._TREE_APPLIERS.get(cls)
                is ladder_route(TREE_TXN_LADDER, cls)), cls


def test_tree_appliers_are_checked_first_and_hold_only_tree_txns():
    assert set(server_mod._TREE_APPLIERS) == {CreateTxn, SetDataTxn,
                                              DeleteTxn, MultiTxn}
    assert not set(server_mod._TREE_APPLIERS) & set(
        server_mod._SERVER_APPLIERS)


def test_bare_tree_rejects_txns_it_cannot_apply():
    with pytest.raises(ZkError):
        server_mod._apply_txn_to_tree(DataTree(), ErrorTxn("X"), 1, 0.0)
    with pytest.raises(ZkError):
        server_mod._apply_txn_to_tree(DataTree(), CloseSessionTxn(1), 1, 0.0)
    with pytest.raises(ZkError):
        server_mod._apply_txn_to_tree(DataTree(), Txn(), 1, 0.0)
