"""Raft consensus — the third :class:`~repro.core.broadcast.AtomicBroadcast`
kernel (alongside Zab and PBFT), the ZK family's alternative to Zab
(``ZkConfig(kernel="raft")``).

Payload-agnostic by construction: the peer stamps and replicates opaque
records built by an injectable ``record_factory``, so it carries
ZooKeeper transactions without this package importing ``repro.zk``.
"""

from .peer import (AppendEntries, AppendReply, InstallSnapshot, RaftConfig,
                   RaftEntry, RaftPeer, RaftRole, RequestVote, SnapshotReply,
                   VoteReply)

__all__ = ["RaftConfig", "RaftPeer", "RaftRole", "RaftEntry", "RequestVote",
           "VoteReply", "AppendEntries", "AppendReply", "InstallSnapshot",
           "SnapshotReply"]
