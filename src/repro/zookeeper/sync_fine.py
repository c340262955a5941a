"""Fine-grained Synchronization modules (Figures 3 and 4).

Two granularities on top of the baseline:

- ``fine_atomic`` (used by mSpec-2): the atomic FollowerProcessNEWLEADER
  is split into three separate actions -- UpdateEpoch, Log, ReplyAck --
  exposing the intermediate states a crash can observe (ZK-4643).
- ``fine_concurrent`` (used by mSpec-3/4): additionally models the
  SyncRequestProcessor and CommitProcessor threads with their queues
  (``queued_requests``, ``committed_requests``), the per-txn ACKs of the
  logging thread (ZK-4685), the early ACK of NEWLEADER while txns are
  still queued (ZK-4646), the ACK reply to UPTODATE that the baseline
  omits (§2.2.3) and the leader-side assertion on it (ZK-3023).

The ordering between the epoch update and the history update follows
``config.variant.history_before_epoch`` ("none" = v3.9.1 behaviour,
"diff_only" = PR-1848, "full" = PR-1930 and later).
"""

from __future__ import annotations

from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.values import Rec
from repro.zookeeper import constants as C
from repro.zookeeper import prims as P
from repro.zookeeper.config import ZkConfig
from repro.zookeeper.schema import EMPTY_SYNC
from repro.zookeeper.sync_baseline import (
    follower_sync_shared_actions,
    is_my_follower_syncing,
    leader_sync_actions,
    pending_newleader,
)


def _epoch_first(config: ZkConfig, state, i: int) -> bool:
    """Does the epoch update precede the history update for this sync?

    v3.9.1 ("none"): always.  PR-1848 ("diff_only"): only on the SNAP
    path (the DIFF path was fixed).  PR-1930+ ("full"): never.
    """
    order = config.variant.history_before_epoch
    if order == "none":
        return True
    if order == "diff_only":
        return state["packets_sync"][i].mode == C.SNAP
    return False


def _log_done(config: ZkConfig, state, i: int, asynchronous: bool) -> bool:
    """Has the follower durably logged the staged sync txns?"""
    if state["packets_sync"][i].not_committed:
        return False
    if asynchronous and not config.variant.synchronous_sync_logging:
        return not state["queued_requests"][i]
    return True


def _update_epoch(config: ZkConfig, state, i: int, j: int, asynchronous: bool):
    """Figure 3a: FollowerProcessNEWLEADER_UpdateEpoch."""
    msg = pending_newleader(state, i, j)
    if msg is None or not is_my_follower_syncing(state, i, j):
        return None
    if state["current_epoch"][i] == state["accepted_epoch"][i]:
        return None
    if msg.epoch != state["accepted_epoch"][i]:
        return None
    if not _epoch_first(config, state, i) and not _log_done(
        config, state, i, asynchronous
    ):
        return None
    return {
        "current_epoch": P.up(
            state["current_epoch"], i, state["accepted_epoch"][i]
        )
    }


def _log_guard(config: ZkConfig, state, i: int, j: int):
    msg = pending_newleader(state, i, j)
    if msg is None or not is_my_follower_syncing(state, i, j):
        return None
    packets = state["packets_sync"][i]
    if not packets.not_committed:
        return None
    if _epoch_first(config, state, i) and (
        state["current_epoch"][i] != state["accepted_epoch"][i]
    ):
        return None
    return packets


def follower_newleader_log_sync(config: ZkConfig, state, i: int, j: int):
    """mSpec-2 / synchronous logging: persist the staged txns directly."""
    packets = _log_guard(config, state, i, j)
    if packets is None:
        return None
    history = state["history"][i] + packets.not_committed
    return {
        "history": P.up(state["history"], i, history),
        "packets_sync": P.up(
            state["packets_sync"], i, packets.replace(not_committed=())
        ),
    }


def follower_newleader_log_async(config: ZkConfig, state, i: int, j: int):
    """Figure 3b: queue the staged txns to the SyncRequestProcessor.

    Under ``synchronous_sync_logging`` (PR-1993 and the final fix) this
    degenerates to the synchronous append.
    """
    if config.variant.synchronous_sync_logging:
        return follower_newleader_log_sync(config, state, i, j)
    packets = _log_guard(config, state, i, j)
    if packets is None:
        return None
    session = state["accepted_epoch"][i]
    entries = tuple(P.QEntry(txn, session) for txn in packets.not_committed)
    queued = state["queued_requests"][i] + entries
    return {
        "queued_requests": P.up(state["queued_requests"], i, queued),
        "packets_sync": P.up(
            state["packets_sync"], i, packets.replace(not_committed=())
        ),
    }


def _reply_ack(config: ZkConfig, state, i: int, j: int, asynchronous: bool):
    """Figure 3c: ACK the NEWLEADER once the packet buffer is drained.

    With asynchronous logging the queue may still hold unpersisted txns
    at this point -- the early ACK at the heart of ZK-4646.
    """
    msg = pending_newleader(state, i, j)
    if msg is None or not is_my_follower_syncing(state, i, j):
        return None
    if state["current_epoch"][i] != state["accepted_epoch"][i]:
        return None
    if state["packets_sync"][i].not_committed:
        return None
    if not asynchronous or config.variant.synchronous_sync_logging:
        # Synchronous logging also drains the queue before ACKing.
        if state["queued_requests"][i]:
            return None
    msgs = P.pop(state["msgs"], j, i)
    msgs = P.send_if_connected(
        state, msgs, i, j, Rec(mtype=C.ACK, zxid=msg.zxid)
    )
    return {
        "msgs": msgs,
        "newleader_recv": P.up(state["newleader_recv"], i, True),
    }


def follower_sync_processor_log_request(config: ZkConfig, state, i: int):
    """Figure 4a: the SyncRequestProcessor thread pops one request, logs
    it and ACKs its zxid to the leader.

    The per-txn ACK may overtake the NEWLEADER ACK -- ZK-4685.  Without
    ``fix_follower_shutdown`` the thread also keeps running after the
    follower left the epoch -- ZK-4712 (a stale request is logged after
    data recovery).
    """
    if state["state"][i] == C.DOWN:
        return None
    queued = state["queued_requests"][i]
    if not queued:
        return None
    entry = queued[0]
    history = state["history"][i] + (entry.txn,)
    updates = {
        "queued_requests": P.up(state["queued_requests"], i, queued[1:]),
        "history": P.up(state["history"], i, history),
    }
    leader = state["my_leader"][i]
    same_session = entry.epoch == state["accepted_epoch"][i]
    if leader >= 0 and state["state"][i] == C.FOLLOWING and same_session:
        updates["msgs"] = P.send_if_connected(
            state,
            state["msgs"],
            i,
            leader,
            Rec(mtype=C.ACK, zxid=entry.txn.zxid),
        )
    return updates


def follower_process_uptodate_async(config: ZkConfig, state, i: int, j: int):
    """UPTODATE with the CommitProcessor modeled: the pending commits are
    queued, the follower starts serving and -- the state transition the
    baseline spec misses (§2.2.3) -- replies with an ACK.

    Under ``synchronous_commit`` the pending commits are applied before
    the ACK (the ZK-3023 fix)."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.UPTODATE:
        return None
    if not is_my_follower_syncing(state, i, j) or not state["newleader_recv"][i]:
        return None
    # Remaining proposals from the sync window are handed to the logging
    # thread now (synchronously under the fixed variant).
    staged = state["packets_sync"][i].not_committed
    history = state["history"][i]
    queued = state["queued_requests"][i]
    if config.variant.synchronous_sync_logging:
        # synchronous logging: drain anything still queued first, then
        # persist the staged txns, preserving the log order
        history = history + tuple(e.txn for e in queued) + staged
        queued = ()
    else:
        session = state["accepted_epoch"][i]
        queued = queued + tuple(P.QEntry(txn, session) for txn in staged)
    synced = history + tuple(entry.txn for entry in queued)
    pending = tuple(
        txn.zxid
        for txn in synced[state["last_committed"][i] : msg.commit_count]
    )
    updates = {
        "zab_state": P.up(state["zab_state"], i, C.BROADCAST),
        "packets_sync": P.up(state["packets_sync"], i, EMPTY_SYNC),
        "history": P.up(state["history"], i, history),
        "queued_requests": P.up(state["queued_requests"], i, queued),
    }
    if config.variant.synchronous_commit:
        working = state.set(**updates)
        updates.update(
            P.advance_commit(working, i, min(len(history), msg.commit_count))
        )
        own_committed = min(len(history), msg.commit_count)
    else:
        updates["committed_requests"] = P.up(
            state["committed_requests"],
            i,
            state["committed_requests"][i] + pending,
        )
        own_committed = state["last_committed"][i]
    # The ACK carries the follower's own committed count at send time --
    # the information the ZK-3023 assertion at the leader checks.
    msgs = P.pop(state["msgs"], j, i)
    msgs = P.send_if_connected(
        state, msgs, i, j, Rec(mtype=C.ACK_UPTODATE, zxid=own_committed)
    )
    updates["msgs"] = msgs
    return updates


def follower_commit_processor_commit(config: ZkConfig, state, i: int):
    """The CommitProcessor thread applies one pending commit.

    Blocks (stays disabled) while the matching txn is still queued for
    logging; reports a bad commit when the txn cannot exist."""
    if state["state"][i] == C.DOWN:
        return None
    queue = state["committed_requests"][i]
    if not queue:
        return None
    zxid = queue[0]
    history = state["history"][i]
    committed = state["last_committed"][i]
    rest = {"committed_requests": P.up(state["committed_requests"], i, queue[1:])}
    idx = P.index_of_zxid(history, zxid)
    if idx >= 0 and idx < committed:
        return rest  # duplicate
    if idx == committed:
        rest.update(P.advance_commit(state, i, committed + 1))
        return rest
    if any(entry.txn.zxid == zxid for entry in state["queued_requests"][i]):
        return None  # wait for the SyncRequestProcessor to log it first
    if idx > committed:
        rest.update(P.raise_error(state, C.ERR_COMMIT_OUT_OF_ORDER, i))
        return rest
    rest.update(P.raise_error(state, C.ERR_COMMIT_UNKNOWN_TXN, i))
    return rest


def leader_process_ack_uptodate(config: ZkConfig, state, i: int, j: int):
    """The leader handles the follower's ACK of UPTODATE.  The code
    asserts the follower is in sync with the leader's initial history at
    this point; with the asynchronous CommitProcessor the follower may
    still be behind -- ZK-3023 (I-11)."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.ACK_UPTODATE:
        return None
    if state["state"][i] != C.LEADING or not P.is_learner(state, i, j):
        return None
    updates = {"msgs": P.pop(state["msgs"], j, i)}
    epoch = state["current_epoch"][i]
    initial_len = next(
        (
            len(rec.initial)
            for rec in state["g_established"]
            if rec.epoch == epoch
        ),
        0,
    )
    if msg.zxid < initial_len:
        updates.update(
            P.raise_error(state, C.ERR_ACK_UPTODATE_OUT_OF_SYNC, i)
        )
    return updates


def _split_actions(asynchronous: bool):
    """The three actions of Figure 3 at either logging granularity."""
    log_fn = (
        follower_newleader_log_async if asynchronous else follower_newleader_log_sync
    )
    log_name = (
        "FollowerProcessNEWLEADER_LogAsync"
        if asynchronous
        else "FollowerProcessNEWLEADER_Log"
    )
    log_writes = (
        ["queued_requests", "packets_sync", "history"]
        if asynchronous
        else ["history", "packets_sync"]
    )
    # Synchronous logging appends straight to the history; only the
    # asynchronous split routes through the request queue.
    log_reads = [
        "msgs",
        "state",
        "zab_state",
        "my_leader",
        "current_epoch",
        "accepted_epoch",
        "packets_sync",
    ] + (["queued_requests"] if asynchronous else [])
    return [
        Action(
            "FollowerProcessNEWLEADER_UpdateEpoch",
            P.pairwise(
                lambda cfg, s, i, j: _update_epoch(cfg, s, i, j, asynchronous)
            ),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "my_leader",
                "current_epoch",
                "accepted_epoch",
                "packets_sync",
                "queued_requests",
            ],
            writes=["current_epoch"],
            update_sources={"current_epoch": ["accepted_epoch"]},
        ),
        Action(
            log_name,
            P.pairwise(log_fn),
            params={"pair": P.pairs_distinct},
            reads=log_reads,
            writes=log_writes,
            update_sources={"history": ["packets_sync"]},
        ),
        Action(
            "FollowerProcessNEWLEADER_ReplyAck",
            P.pairwise(
                lambda cfg, s, i, j: _reply_ack(cfg, s, i, j, asynchronous)
            ),
            params={"pair": P.pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "my_leader",
                "current_epoch",
                "accepted_epoch",
                "packets_sync",
                "queued_requests",
                # The ACK reply is dropped when the pair is partitioned.
                "disconnected",
            ],
            writes=["msgs", "newleader_recv"],
        ),
    ]


def sync_fine_atomic_module(config: ZkConfig) -> Module:
    """mSpec-2: atomicity split with synchronous logging; UPTODATE stays
    at the baseline granularity."""
    from repro.zookeeper.sync_baseline import follower_process_uptodate

    actions = (
        leader_sync_actions()
        + follower_sync_shared_actions()
        + _split_actions(asynchronous=False)
        + [
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
            )
        ]
    )
    return Module("Synchronization", actions)


def sync_fine_concurrent_module(config: ZkConfig) -> Module:
    """mSpec-3/4: atomicity split plus thread-level concurrency."""
    actions = (
        leader_sync_actions()
        + follower_sync_shared_actions(concurrent=True)
        + _split_actions(asynchronous=True)
        + [
            Action(
                "FollowerSyncProcessorLogRequest",
                follower_sync_processor_log_request,
                params={"i": lambda cfg: cfg.servers},
                reads=["state", "queued_requests", "my_leader", "disconnected"],
                writes=["queued_requests", "history", "msgs"],
                # The per-txn ACK is only sent within the same sync
                # session (entry.epoch == accepted_epoch[i]).
                update_sources={
                    "history": ["queued_requests"],
                    "msgs": ["queued_requests", "accepted_epoch"],
                },
            ),
            Action(
                "FollowerProcessUPTODATE",
                P.pairwise(follower_process_uptodate_async),
                params={"pair": P.pairs_distinct},
                reads=[
                    "msgs",
                    "state",
                    "zab_state",
                    "my_leader",
                    "newleader_recv",
                    "history",
                    "packets_sync",
                    "queued_requests",
                    "last_committed",
                    "committed_requests",
                    # The ACK_UPTODATE reply is dropped when the pair is
                    # partitioned.
                    "disconnected",
                ],
                # Staged txns are queued under the current sync session's
                # epoch (the QEntry session tag).
                update_sources={"queued_requests": ["accepted_epoch"]},
                writes=[
                    "msgs",
                    "zab_state",
                    "packets_sync",
                    "history",
                    "queued_requests",
                    "committed_requests",
                    "last_committed",
                    "g_delivered",
                    "g_committed",
                ],
            ),
            Action(
                "FollowerCommitProcessorCommit",
                follower_commit_processor_commit,
                params={"i": lambda cfg: cfg.servers},
                reads=[
                    "state",
                    "committed_requests",
                    "history",
                    "last_committed",
                    "queued_requests",
                ],
                writes=[
                    "committed_requests",
                    "last_committed",
                    "g_delivered",
                    "g_committed",
                    "errors",
                ],
            ),
            Action(
                "LeaderProcessACKUPTODATE",
                P.pairwise(leader_process_ack_uptodate),
                params={"pair": P.pairs_distinct},
                reads=[
                    "msgs",
                    "state",
                    "current_epoch",
                    "ackepoch_recv",
                    "g_established",
                ],
                writes=["msgs", "errors"],
            ),
        ]
    )
    return Module("Synchronization", actions)
