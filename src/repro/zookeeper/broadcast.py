"""Broadcast modules: baseline (atomic follower logging) and fine-grained
(concurrent logging/committing through the thread queues).

The leader-side actions are shared: LeaderProcessRequest proposes and
LeaderProcessACK collects acknowledgments.  LeaderProcessACK is also where
the I-12 bad-acknowledgment instances live: an ACK that arrives before the
follower's NEWLEADER ACK is unrecognized by the v3.9.1 leader (ZK-4685).
"""

from __future__ import annotations

from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.values import Rec, Txn
from repro.zookeeper import constants as C
from repro.zookeeper import prims as P
from repro.zookeeper.config import ZkConfig
from repro.zookeeper.sync_baseline import newleader_zxid_for


# --- leader side ---------------------------------------------------------------

def leader_process_request(config: ZkConfig, state, i: int):
    """A client request: the leader logs a new proposal and broadcasts it
    to every follower it has started syncing (the forwarding set)."""
    if state["state"][i] != C.LEADING or state["zab_state"][i] != C.BROADCAST:
        return None
    if state["txn_count"] >= config.max_txns:
        return None
    zxid = P.next_zxid(state, i)
    txn = Txn(zxid, state["txn_count"] + 1)
    msgs = state["msgs"]
    for follower, _ in state["synced_sent"][i]:
        msgs = P.send_if_connected(
            state, msgs, i, follower, Rec(mtype=C.PROPOSAL, txn=txn)
        )
    return {
        "msgs": msgs,
        "history": P.up(state["history"], i, state["history"][i] + (txn,)),
        "txn_count": state["txn_count"] + 1,
        "g_proposed": state["g_proposed"] | frozenset((txn,)),
        "proposal_acks": P.up(
            state["proposal_acks"],
            i,
            state["proposal_acks"][i] + ((zxid, frozenset((i,))),),
        ),
    }


def leader_process_ack(config: ZkConfig, state, i: int, j: int):
    """Leader.processAck for proposal ACKs.

    v3.9.1 cannot recognize a txn ACK from a follower that has not yet
    ACKed NEWLEADER (the LearnerHandler is still waiting for it): the
    leader errors out and shuts the ensemble down -- ZK-4685 (I-12)."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.ACK or state["state"][i] != C.LEADING:
        return None
    if not P.is_learner(state, i, j):
        return None
    expected_nl = newleader_zxid_for(state, i, j)
    if expected_nl is not None and msg.zxid == expected_nl:
        return None  # NEWLEADER ACK: handled by LeaderProcessACKLD
    msgs = P.pop(state["msgs"], j, i)

    if j not in state["newleader_acks"][i]:
        updates = {"msgs": msgs}
        updates.update(
            P.raise_error(state, C.ERR_ACK_BEFORE_NEWLEADER_ACK, i)
        )
        return updates

    history = state["history"][i]
    committed = state["last_committed"][i]
    idx = P.index_of_zxid(history, msg.zxid)
    if idx >= 0 and idx < committed:
        return {"msgs": msgs}  # already committed: ignore (code logs a warning)

    outstanding = state["proposal_acks"][i]
    entry_index = next(
        (k for k, (zxid, _) in enumerate(outstanding) if zxid == msg.zxid),
        None,
    )
    if entry_index is None:
        updates = {"msgs": msgs}
        updates.update(P.raise_error(state, C.ERR_ACK_UNKNOWN_PROPOSAL, i))
        return updates

    zxid, ackers = outstanding[entry_index]
    ackers = ackers | {j}
    updates = {"msgs": msgs}
    if config.is_quorum(ackers) and idx == committed:
        # Commit: advance, inform every forwarding follower.
        outstanding = (
            outstanding[:entry_index] + outstanding[entry_index + 1 :]
        )
        updates["proposal_acks"] = P.up(
            state["proposal_acks"], i, outstanding
        )
        updates.update(P.advance_commit(state, i, committed + 1))
        commit = Rec(mtype=C.COMMIT, zxid=zxid)
        out = updates["msgs"]
        for follower, _ in state["synced_sent"][i]:
            out = P.send_if_connected(state, out, i, follower, commit)
        updates["msgs"] = out
    else:
        updates["proposal_acks"] = P.up(
            state["proposal_acks"],
            i,
            outstanding[:entry_index]
            + ((zxid, ackers),)
            + outstanding[entry_index + 1 :],
        )
    return updates


def _leader_actions():
    return [
        Action(
            "LeaderProcessRequest",
            leader_process_request,
            params={"i": lambda cfg: cfg.servers},
            reads=[
                "state",
                "zab_state",
                "txn_count",
                "current_epoch",
                "history",
                "synced_sent",
                "disconnected",
            ],
            writes=["msgs", "history", "txn_count", "g_proposed", "proposal_acks"],
            update_sources={"history": ["current_epoch", "txn_count"]},
        ),
        Action(
            "LeaderProcessACK",
            P.pairwise(leader_process_ack),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "synced_sent",
                "ackepoch_recv",
                "newleader_acks",
                "history",
                "last_committed",
                "proposal_acks",
                "disconnected",
            ],
            writes=[
                "msgs",
                "proposal_acks",
                "last_committed",
                "g_delivered",
                "g_committed",
                "errors",
            ],
        ),
    ]


# --- follower side: baseline (atomic log + ack) ---------------------------------

def _proposal_gap(state, i: int, txn: Txn, tail) -> bool:
    """An in-epoch proposal must directly follow the previous one."""
    last = tail[-1].zxid if tail else None
    if last is None or last.epoch != txn.zxid.epoch:
        return False
    return txn.zxid.counter != last.counter + 1


def follower_process_proposal(config: ZkConfig, state, i: int, j: int):
    """Baseline: the follower logs the proposal and ACKs atomically."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.PROPOSAL:
        return None
    if (
        state["state"][i] != C.FOLLOWING
        or state["my_leader"][i] != j
        or state["zab_state"][i] != C.BROADCAST
    ):
        return None
    txn = msg.txn
    msgs = P.pop(state["msgs"], j, i)
    if _proposal_gap(state, i, txn, state["history"][i]):
        updates = {"msgs": msgs}
        updates.update(P.raise_error(state, C.ERR_PROPOSAL_GAP, i))
        return updates
    msgs = P.send_if_connected(
        state, msgs, i, j, Rec(mtype=C.ACK, zxid=txn.zxid)
    )
    return {
        "msgs": msgs,
        "history": P.up(state["history"], i, state["history"][i] + (txn,)),
    }


def follower_process_commit(config: ZkConfig, state, i: int, j: int):
    """Baseline: apply a COMMIT directly against the log."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.COMMIT:
        return None
    if (
        state["state"][i] != C.FOLLOWING
        or state["my_leader"][i] != j
        or state["zab_state"][i] != C.BROADCAST
    ):
        return None
    msgs = P.pop(state["msgs"], j, i)
    history = state["history"][i]
    committed = state["last_committed"][i]
    idx = P.index_of_zxid(history, msg.zxid)
    updates = {"msgs": msgs}
    if idx >= 0 and idx < committed:
        return updates  # duplicate
    if idx == committed:
        updates.update(P.advance_commit(state, i, committed + 1))
        return updates
    if idx > committed:
        updates.update(P.raise_error(state, C.ERR_COMMIT_OUT_OF_ORDER, i))
        return updates
    updates.update(P.raise_error(state, C.ERR_COMMIT_UNKNOWN_TXN, i))
    return updates


def broadcast_baseline_module(config: ZkConfig) -> Module:
    actions = _leader_actions() + [
        Action(
            "FollowerProcessPROPOSAL",
            P.pairwise(follower_process_proposal),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "my_leader",
                "history",
                "disconnected",
            ],
            writes=["msgs", "history", "errors"],
        ),
        Action(
            "FollowerProcessCOMMIT",
            P.pairwise(follower_process_commit),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "my_leader",
                "history",
                "last_committed",
            ],
            writes=[
                "msgs",
                "last_committed",
                "g_delivered",
                "g_committed",
                "errors",
            ],
        ),
    ]
    return Module("Broadcast", actions)


# --- follower side: fine-grained (queues to the worker threads) ----------------

def follower_process_proposal_queue(config: ZkConfig, state, i: int, j: int):
    """Fine-grained: the QuorumPeer thread only queues the request; the
    SyncRequestProcessor logs and ACKs it later (Figure 4)."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.PROPOSAL:
        return None
    if (
        state["state"][i] != C.FOLLOWING
        or state["my_leader"][i] != j
        or state["zab_state"][i] != C.BROADCAST
    ):
        return None
    txn = msg.txn
    msgs = P.pop(state["msgs"], j, i)
    tail = state["history"][i] + tuple(
        entry.txn for entry in state["queued_requests"][i]
    )
    if _proposal_gap(state, i, txn, tail):
        updates = {"msgs": msgs}
        updates.update(P.raise_error(state, C.ERR_PROPOSAL_GAP, i))
        return updates
    entry = P.QEntry(txn, state["accepted_epoch"][i])
    return {
        "msgs": msgs,
        "queued_requests": P.up(
            state["queued_requests"], i, state["queued_requests"][i] + (entry,)
        ),
    }


def follower_process_commit_queue(config: ZkConfig, state, i: int, j: int):
    """Fine-grained: COMMITs are queued to the CommitProcessor."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.COMMIT:
        return None
    if (
        state["state"][i] != C.FOLLOWING
        or state["my_leader"][i] != j
        or state["zab_state"][i] != C.BROADCAST
    ):
        return None
    return {
        "msgs": P.pop(state["msgs"], j, i),
        "committed_requests": P.up(
            state["committed_requests"],
            i,
            state["committed_requests"][i] + (msg.zxid,),
        ),
    }


def broadcast_fine_module(config: ZkConfig) -> Module:
    """Fine-grained Broadcast: requires the fine-concurrent Synchronization
    module in the same composition (the SyncRequestProcessor and
    CommitProcessor actions that drain the queues live there -- they are
    the same threads serving both phases)."""
    actions = _leader_actions() + [
        Action(
            "FollowerProcessPROPOSAL",
            P.pairwise(follower_process_proposal_queue),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "my_leader",
                "history",
                "queued_requests",
            ],
            writes=["msgs", "queued_requests", "errors"],
            # The queued entry is tagged with the current sync session's
            # epoch (the QEntry session tag).
            update_sources={"queued_requests": ["accepted_epoch"]},
        ),
        Action(
            "FollowerProcessCOMMIT",
            P.pairwise(follower_process_commit_queue),
            params={"pair": P.pairs_distinct},
            reads=["msgs", "state", "zab_state", "my_leader", "committed_requests"],
            writes=["msgs", "committed_requests"],
        ),
    ]
    return Module("Broadcast", actions)
