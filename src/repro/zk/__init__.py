"""ZooKeeper-like coordination service (crash fault tolerant, primary-backup).

A faithful-in-structure reimplementation of the substrate the paper's
EZK prototype extends: hierarchical versioned znodes with ephemeral and
sequential nodes, one-shot watches, sessions with expiry, a
request-processor chain, and a Zab-like atomic broadcast.
"""

from .client import SessionState, ZkClient
from .data_tree import DataTree, Stat, ZNode
from .ensemble import ZkEnsemble
from .errors import (BadArgumentsError, BadVersionError, ConnectionLossError,
                     NoChildrenForEphemeralsError, NodeExistsError,
                     NoNodeError, NotEmptyError, SessionExpiredError, ZkError)
from .hotchain import (ChainNode, HotChainConfig, HotChainController,
                       HotChainRouter, PromotionPolicy)
from .leases import ClientReadCache, LeaseConfig, LeaseTable
from .overlay import TreeOverlay
from .server import (Forward, ForwardSettled, InterceptResult, StateEvent,
                     ZkConfig, ZkServer, ZkTimings)
from .sessions import ExpiryClock, HeartbeatTracker, Session, SessionTable
from .txn import (ClientReply, ClientRequest, CreateOp, CreateTxn, DeleteOp,
                  DeleteTxn, ErrorTxn, ExistsOp, GetChildrenOp, GetDataOp,
                  MultiOp, MultiTxn, Op, RequestMeta, SetDataOp, SetDataTxn,
                  Txn, TxnRecord, WatchNotification)
from .watches import EventType, WatchEvent, WatchManager
from .zab import NotLeaderError, Role, ZabConfig, ZabPeer

__all__ = [
    "ZkClient", "SessionState", "ZkEnsemble", "ZkServer", "ZkConfig",
    "ZkTimings", "LeaseConfig", "LeaseTable", "ClientReadCache",
    "HotChainConfig", "ChainNode", "HotChainController", "HotChainRouter",
    "PromotionPolicy",
    "DataTree", "Stat", "ZNode", "TreeOverlay",
    "SessionTable", "Session", "HeartbeatTracker", "ExpiryClock",
    "WatchManager", "WatchEvent", "EventType",
    "ZabPeer", "ZabConfig", "Role", "NotLeaderError",
    "Forward", "ForwardSettled", "InterceptResult", "StateEvent",
    "ZkError", "NoNodeError", "NodeExistsError", "BadVersionError",
    "NotEmptyError", "NoChildrenForEphemeralsError", "SessionExpiredError",
    "ConnectionLossError", "BadArgumentsError",
    "Op", "CreateOp", "DeleteOp", "SetDataOp", "GetDataOp", "GetChildrenOp",
    "ExistsOp", "MultiOp", "Txn", "CreateTxn", "DeleteTxn", "SetDataTxn",
    "MultiTxn", "ErrorTxn", "TxnRecord", "RequestMeta", "ClientRequest",
    "ClientReply", "WatchNotification",
]
