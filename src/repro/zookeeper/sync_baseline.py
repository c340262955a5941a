"""Baseline Synchronization module (the system specification of §2.1.2).

Models ZooKeeper's DIFF/TRUNC/SNAP synchronization with the NEWLEADER
handling as one *atomic* action (Figure 2b) -- the model-code gap the
fine-grained modules of :mod:`repro.zookeeper.sync_fine` close.

The module also carries the two leader-side actions shared by every
granularity: LeaderSyncFollower and LeaderProcessACKLD (establishment).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.values import Rec, ZXID_ZERO, last_zxid
from repro.zookeeper import constants as C
from repro.zookeeper import prims as P
from repro.zookeeper.config import ZkConfig
from repro.zookeeper.schema import EMPTY_SYNC


def newleader_zxid_for(state, i: int, j: int):
    """The zxid the leader i sent in NEWLEADER to j (None if not sent)."""
    for follower, zxid in state["synced_sent"][i]:
        if follower == j:
            return zxid
    return None


def pending_newleader(state, i: int, j: int) -> Optional[Rec]:
    """The paper's PendingNEWLEADER(i, j): the head of the channel from
    leader j to follower i is a NEWLEADER message."""
    msg = P.peek(state, j, i)
    if msg is not None and msg.mtype == C.NEWLEADER:
        return msg
    return None


def is_my_follower_syncing(state, i: int, j: int) -> bool:
    return (
        state["state"][i] == C.FOLLOWING
        and state["my_leader"][i] == j
        and state["zab_state"][i] == C.SYNCHRONIZATION
    )


# --- leader side -------------------------------------------------------------

def leader_sync_follower(config: ZkConfig, state, i: int, j: int):
    """Choose the sync mode from the follower's ACKEPOCH credentials and
    send the sync payload followed by NEWLEADER."""
    if state["state"][i] != C.LEADING:
        return None
    if state["zab_state"][i] not in (C.SYNCHRONIZATION, C.BROADCAST):
        return None
    entry = next(
        (e for e in state["ackepoch_recv"][i] if e[0] == j), None
    )
    if entry is None or newleader_zxid_for(state, i, j) is not None:
        return None
    if not P.connected(state, i, j):
        return None

    history = state["history"][i]
    committed = state["last_committed"][i]
    zx = entry[2]
    zxids = P.zxids(history)

    if zx == last_zxid(history):
        mode, payload = C.DIFF, ()
    elif zx in zxids:
        idx = zxids.index(zx) + 1
        mode, payload = C.DIFF, history[idx:]
    elif zx == ZXID_ZERO:
        if history:
            mode, payload = C.SNAP, history
        else:
            mode, payload = C.DIFF, ()
    elif zx > last_zxid(history):
        mode, payload = C.TRUNC, ()
    else:
        mode, payload = C.SNAP, history

    if mode == C.SNAP:
        committed_zxids = P.zxids(history[:committed])
    elif mode == C.DIFF and payload:
        start = len(history) - len(payload)
        committed_zxids = P.zxids(history[start:committed])
    else:
        committed_zxids = ()

    sync_msg = Rec(
        mtype=mode,
        txns=payload,
        trunc_to=last_zxid(history),
        committed=committed_zxids,
    )
    nl_zxid = last_zxid(history)
    nl_msg = Rec(
        mtype=C.NEWLEADER, epoch=state["accepted_epoch"][i], zxid=nl_zxid
    )
    msgs = P.send(state["msgs"], i, j, sync_msg, nl_msg)
    return {
        "msgs": msgs,
        "synced_sent": P.up(
            state["synced_sent"],
            i,
            state["synced_sent"][i] | {(j, nl_zxid)},
        ),
    }


def _add_participant(g_participants, epoch: int, members):
    """Merge servers into the participant set of an epoch."""
    out = []
    found = False
    for e, existing in g_participants:
        if e == epoch:
            out.append((e, existing | frozenset(members)))
            found = True
        else:
            out.append((e, existing))
    if not found:
        out.append((epoch, frozenset(members)))
    return tuple(out)


def establish(config: ZkConfig, state, i: int, acks) -> Dict:
    """The leader becomes established (quorum of NEWLEADER ACKs):

    - commits its entire initial history,
    - records the establishment ghosts (I-1, I-8, I-10),
    - informs all synced followers of the newly committed txns and sends
      UPTODATE to the followers whose ACK was processed.

    The COMMIT-before-UPTODATE ordering on the wire is exactly the
    ZK-4394 trigger.
    """
    epoch = state["current_epoch"][i]
    history = state["history"][i]
    committed_before = state["g_committed"]
    old_committed = state["last_committed"][i]
    updates = P.advance_commit(state, i, len(history))
    newly = history[old_committed:]

    record = Rec(epoch=epoch, initial=history, committed=committed_before)
    updates["g_established"] = state["g_established"] + (record,)
    updates["g_leaders"] = state["g_leaders"] + ((epoch, i),)
    updates["g_participants"] = _add_participant(
        state["g_participants"], epoch, set(acks) | {i}
    )
    updates["zab_state"] = P.up(state["zab_state"], i, C.BROADCAST)

    msgs = state["msgs"]
    commit_msgs = tuple(Rec(mtype=C.COMMIT, zxid=txn.zxid) for txn in newly)
    for follower, _ in state["synced_sent"][i]:
        if commit_msgs:
            msgs = P.send_if_connected(state, msgs, i, follower, *commit_msgs)
    uptodate = Rec(mtype=C.UPTODATE, commit_count=len(history))
    for follower in acks:
        msgs = P.send_if_connected(state, msgs, i, follower, uptodate)
    updates["msgs"] = msgs
    updates["uptodate_sent"] = P.up(
        state["uptodate_sent"], i, frozenset(acks)
    )
    return updates


def leader_process_ackld(config: ZkConfig, state, i: int, j: int):
    """The leader processes a follower's ACK of NEWLEADER; on quorum it
    establishes the epoch; after establishment, late ACKs get UPTODATE."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.ACK or state["state"][i] != C.LEADING:
        return None
    if not P.is_learner(state, i, j):
        return None
    expected = newleader_zxid_for(state, i, j)
    if expected is None or msg.zxid != expected:
        return None
    if j in state["newleader_acks"][i]:
        return None
    acks = state["newleader_acks"][i] | {j}
    updates = {
        "msgs": P.pop(state["msgs"], j, i),
        "newleader_acks": P.up(state["newleader_acks"], i, acks),
    }
    if state["zab_state"][i] == C.SYNCHRONIZATION:
        if config.is_quorum(acks | {i}):
            est = establish(config, state, i, acks)
            # establish() computed msgs from the un-popped state; re-apply
            # the pop on its result to keep both updates.
            est["msgs"] = P.pop(est["msgs"], j, i)
            est["newleader_acks"] = updates["newleader_acks"]
            updates = est
    else:
        epoch = state["current_epoch"][i]
        uptodate = Rec(
            mtype=C.UPTODATE, commit_count=state["last_committed"][i]
        )
        msgs = P.send_if_connected(state, updates["msgs"], i, j, uptodate)
        updates["msgs"] = msgs
        updates["uptodate_sent"] = P.up(
            state["uptodate_sent"], i, state["uptodate_sent"][i] | {j}
        )
        updates["g_participants"] = _add_participant(
            state["g_participants"], epoch, {j}
        )
    return updates


# --- follower side ------------------------------------------------------------

def follower_process_sync_message(config: ZkConfig, state, i: int, j: int):
    """Apply the DIFF/TRUNC/SNAP packet that precedes NEWLEADER."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype not in C.SYNC_MODES:
        return None
    if not is_my_follower_syncing(state, i, j) or state["newleader_recv"][i]:
        return None
    msgs = P.pop(state["msgs"], j, i)
    if msg.mtype == C.DIFF:
        packets = Rec(
            not_committed=msg.txns, committed=msg.committed, mode=C.DIFF
        )
        return {
            "msgs": msgs,
            "packets_sync": P.up(state["packets_sync"], i, packets),
        }
    if msg.mtype == C.TRUNC:
        history = state["history"][i]
        if msg.trunc_to == ZXID_ZERO:
            new_history = ()
        else:
            idx = P.index_of_zxid(history, msg.trunc_to)
            new_history = history[: idx + 1] if idx >= 0 else history
        packets = Rec(not_committed=(), committed=(), mode=C.TRUNC)
        return {
            "msgs": msgs,
            "history": P.up(state["history"], i, new_history),
            "last_committed": P.up(
                state["last_committed"],
                i,
                min(state["last_committed"][i], len(new_history)),
            ),
            "packets_sync": P.up(state["packets_sync"], i, packets),
        }
    # SNAP: the snapshot replaces the local data; the txns are staged and
    # persisted when NEWLEADER is handled (where the epoch/history order
    # of the SpecVariant applies).
    packets = Rec(
        not_committed=msg.txns, committed=msg.committed, mode=C.SNAP
    )
    return {
        "msgs": msgs,
        "history": P.up(state["history"], i, ()),
        "last_committed": P.up(state["last_committed"], i, 0),
        "packets_sync": P.up(state["packets_sync"], i, packets),
    }


def follower_process_proposal_in_sync(config: ZkConfig, state, i: int, j: int):
    """A PROPOSAL arriving during synchronization is buffered in
    packetsNotCommitted (Learner.syncWithLeader)."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.PROPOSAL:
        return None
    if not is_my_follower_syncing(state, i, j):
        return None
    packets = state["packets_sync"][i]
    packets = packets.replace(
        not_committed=packets.not_committed + (msg.txn,)
    )
    return {
        "msgs": P.pop(state["msgs"], j, i),
        "packets_sync": P.up(state["packets_sync"], i, packets),
    }


def follower_process_commit_in_sync(
    config: ZkConfig, state, i: int, j: int, concurrent: bool = False
):
    """A COMMIT arriving during synchronization.

    Before NEWLEADER it is buffered in packetsCommitted.  After NEWLEADER
    the v3.9.1 code matches it against packetsNotCommitted -- which was
    just cleared -- and throws a NullPointerException when it cannot:
    ZK-4394.  ``match_commit_in_sync`` models the fix (match against the
    already-logged history).

    At the ``concurrent`` granularity a matched packet is handed to the
    worker threads (queuedRequests + committedRequests), preserving the
    log order; at the baseline granularity it is applied atomically.
    """
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.COMMIT:
        return None
    if not is_my_follower_syncing(state, i, j):
        return None
    msgs = P.pop(state["msgs"], j, i)
    packets = state["packets_sync"][i]

    if not state["newleader_recv"][i]:
        packets = packets.replace(committed=packets.committed + (msg.zxid,))
        return {
            "msgs": msgs,
            "packets_sync": P.up(state["packets_sync"], i, packets),
        }

    not_committed = packets.not_committed
    if not_committed and not_committed[0].zxid == msg.zxid:
        # The matching proposal arrived after NEWLEADER: log and commit it.
        txn = not_committed[0]
        packets = packets.replace(not_committed=not_committed[1:])
        updates = {
            "msgs": msgs,
            "packets_sync": P.up(state["packets_sync"], i, packets),
        }
        if (
            concurrent
            and not config.variant.synchronous_sync_logging
            and not config.variant.direct_commit_in_sync
        ):
            entry = P.QEntry(txn, state["accepted_epoch"][i])
            updates["queued_requests"] = P.up(
                state["queued_requests"],
                i,
                state["queued_requests"][i] + (entry,),
            )
            updates["committed_requests"] = P.up(
                state["committed_requests"],
                i,
                state["committed_requests"][i] + (msg.zxid,),
            )
            return updates
        history = state["history"][i] + (txn,)
        updates["history"] = P.up(state["history"], i, history)
        if state["last_committed"][i] == len(history) - 1:
            staged = state.set(**updates)
            updates.update(P.advance_commit(staged, i, len(history)))
        return updates

    if config.variant.match_commit_in_sync:
        history = state["history"][i]
        idx = P.index_of_zxid(history, msg.zxid)
        if idx >= 0:
            if idx < state["last_committed"][i]:
                return {"msgs": msgs}  # duplicate commit
            if idx == state["last_committed"][i]:
                updates = {"msgs": msgs}
                updates.update(P.advance_commit(state, i, idx + 1))
                return updates
            packets = packets.replace(
                committed=packets.committed + (msg.zxid,)
            )
            return {
                "msgs": msgs,
                "packets_sync": P.up(state["packets_sync"], i, packets),
            }
        updates = {"msgs": msgs}
        updates.update(P.raise_error(state, C.ERR_COMMIT_UNKNOWN_TXN, i))
        return updates

    # v3.9.1: packetsNotCommitted cannot match -> NullPointerException.
    updates = {"msgs": msgs}
    updates.update(P.raise_error(state, C.ERR_COMMIT_UNMATCHED_IN_SYNC, i))
    return updates


def follower_process_newleader(config: ZkConfig, state, i: int, j: int):
    """The baseline *atomic* NEWLEADER handling (Figure 2b): update the
    epoch, log the staged txns and ACK, in one indivisible step."""
    msg = pending_newleader(state, i, j)
    if msg is None or not is_my_follower_syncing(state, i, j):
        return None
    if state["newleader_recv"][i]:
        return None
    msgs = P.pop(state["msgs"], j, i)
    if msg.epoch != state["accepted_epoch"][i]:
        return {
            "msgs": msgs,
            "state": P.up(state["state"], i, C.LOOKING),
            "zab_state": P.up(state["zab_state"], i, C.ELECTION),
            "my_leader": P.up(state["my_leader"], i, -1),
        }
    packets = state["packets_sync"][i]
    history = state["history"][i] + packets.not_committed
    msgs = P.send_if_connected(
        state, msgs, i, j, Rec(mtype=C.ACK, zxid=msg.zxid)
    )
    return {
        "msgs": msgs,
        "current_epoch": P.up(
            state["current_epoch"], i, state["accepted_epoch"][i]
        ),
        "history": P.up(state["history"], i, history),
        "packets_sync": P.up(
            state["packets_sync"], i, packets.replace(not_committed=())
        ),
        "newleader_recv": P.up(state["newleader_recv"], i, True),
    }


def follower_process_uptodate(config: ZkConfig, state, i: int, j: int):
    """The baseline UPTODATE handling: commit the synced prefix and start
    serving.  (The code-level ACK reply is a missing state transition in
    the baseline spec, §2.2.3; the fine-grained module adds it.)"""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.UPTODATE:
        return None
    if not is_my_follower_syncing(state, i, j) or not state["newleader_recv"][i]:
        return None
    # Any proposals still buffered from the sync window are logged now
    # (Learner.syncWithLeader logs remaining packetsNotCommitted on
    # UPTODATE before starting to serve).
    staged = state["packets_sync"][i].not_committed
    history = state["history"][i] + staged
    updates = {
        "msgs": P.pop(state["msgs"], j, i),
        "history": P.up(state["history"], i, history),
        "zab_state": P.up(state["zab_state"], i, C.BROADCAST),
        "packets_sync": P.up(state["packets_sync"], i, EMPTY_SYNC),
    }
    working = state.set(**updates)
    updates.update(
        P.advance_commit(working, i, min(len(history), msg.commit_count))
    )
    return updates


# --- module assembly ----------------------------------------------------------

_LEADER_SYNC_ACTIONS = None


def leader_sync_actions():
    """The two leader-side actions shared by all sync granularities."""
    return [
        Action(
            "LeaderSyncFollower",
            P.pairwise(leader_sync_follower),
            params={"pair": P.pairs_distinct},
            reads=[
                "state",
                "zab_state",
                "ackepoch_recv",
                "synced_sent",
                "disconnected",
                "history",
                "last_committed",
                "accepted_epoch",
            ],
            writes=["msgs", "synced_sent"],
            update_sources={"synced_sent": ["history"]},
        ),
        Action(
            "LeaderProcessACKLD",
            P.pairwise(leader_process_ackld),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "synced_sent",
                "ackepoch_recv",
                "newleader_acks",
                "history",
                "last_committed",
                "current_epoch",
                # The late-ACK UPTODATE reply is dropped when the pair is
                # partitioned.
                "disconnected",
            ],
            writes=[
                "msgs",
                "newleader_acks",
                "zab_state",
                "last_committed",
                "uptodate_sent",
                "g_delivered",
                "g_committed",
                "g_established",
                "g_leaders",
                "g_participants",
            ],
            update_sources={
                "last_committed": ["history"],
                "g_established": ["history", "g_committed", "current_epoch"],
            },
        ),
    ]


def follower_sync_shared_actions(concurrent: bool = False):
    """Follower-side actions shared by baseline and fine granularities.

    ``concurrent`` selects the thread-queue routing of matched in-sync
    commits (the fine-concurrent granularity)."""
    return [
        Action(
            "FollowerProcessSyncMessage",
            P.pairwise(follower_process_sync_message),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "my_leader",
                "newleader_recv",
                "history",
                "last_committed",
            ],
            writes=["msgs", "packets_sync", "history", "last_committed"],
        ),
        Action(
            "FollowerProcessPROPOSALInSync",
            P.pairwise(follower_process_proposal_in_sync),
            params={"pair": P.pairs_distinct},
            reads=["msgs", "state", "zab_state", "my_leader", "packets_sync"],
            writes=["msgs", "packets_sync"],
        ),
        Action(
            "FollowerProcessCOMMITInSync",
            P.pairwise(
                lambda cfg, s, i, j: follower_process_commit_in_sync(
                    cfg, s, i, j, concurrent=concurrent
                )
            ),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "my_leader",
                "packets_sync",
                "newleader_recv",
                "history",
                "accepted_epoch",
                "last_committed",
            ],
            writes=[
                "msgs",
                "packets_sync",
                "history",
                "queued_requests",
                "committed_requests",
                "last_committed",
                "g_delivered",
                "g_committed",
                "errors",
            ],
        ),
    ]


def sync_baseline_module(config: ZkConfig) -> Module:
    actions = leader_sync_actions() + follower_sync_shared_actions() + [
        Action(
            "FollowerProcessNEWLEADER",
            P.pairwise(follower_process_newleader),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "my_leader",
                "newleader_recv",
                "accepted_epoch",
                "packets_sync",
                "history",
                # The ACK reply is dropped when the pair is partitioned.
                "disconnected",
            ],
            writes=[
                "msgs",
                "current_epoch",
                "history",
                "packets_sync",
                "newleader_recv",
                "state",
                "zab_state",
                "my_leader",
            ],
            update_sources={
                "current_epoch": ["accepted_epoch"],
                "history": ["packets_sync"],
            },
        ),
        Action(
            "FollowerProcessUPTODATE",
            P.pairwise(follower_process_uptodate),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "my_leader",
                "newleader_recv",
                "history",
                "packets_sync",
                "last_committed",
            ],
            writes=[
                "msgs",
                "zab_state",
                "packets_sync",
                "history",
                "last_committed",
                "g_delivered",
                "g_committed",
            ],
        ),
    ]
    return Module("Synchronization", actions)
