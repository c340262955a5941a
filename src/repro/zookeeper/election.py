"""Baseline Fast Leader Election (FLE) module -- four actions.

This is the fine(-ish) Election module of the system specification
(Figure 5a): explicit vote notifications, vote adoption by the
totalOrderPredicate, and quorum-based decision.  It is deliberately the
expensive part of the state space: Table 5 shows TLC spending most of its
time here when Election is not coarsened (Baseline and mSpec-4 rows).
"""

from __future__ import annotations

from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.values import Rec
from repro.zookeeper import constants as C
from repro.zookeeper import prims as P
from repro.zookeeper.config import ZkConfig
from repro.zookeeper.schema import EMPTY_SYNC


def _vote_key(vote: Rec):
    return (vote.epoch, vote.zxid, vote.sid)


def fle_broadcast_notmsg(config: ZkConfig, state, i: int):
    """A LOOKING server broadcasts its current vote to all peers."""
    if state["state"][i] != C.LOOKING or state["vote_sent"][i]:
        return None
    msgs = state["msgs"]
    vote = state["current_vote"][i]
    for j in config.servers:
        if j != i:
            msgs = P.send_if_connected(
                state, msgs, i, j, Rec(mtype=C.NOTIFICATION, vote=vote)
            )
    return {
        "msgs": msgs,
        "vote_sent": P.up(state["vote_sent"], i, True),
        "recv_votes": P.up(
            state["recv_votes"], i, state["recv_votes"][i] | {(i, vote)}
        ),
    }


def fle_receive_notmsg(config: ZkConfig, state, i: int, j: int):
    """A LOOKING server handles a notification: record the vote and adopt
    it when it beats the current one (ZooKeeper's totalOrderPredicate:
    epoch, then zxid, then sid)."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.NOTIFICATION:
        return None
    if state["state"][i] != C.LOOKING:
        return None
    vote = msg.vote
    mine = state["current_vote"][i]
    updates = {"msgs": P.pop(state["msgs"], j, i)}
    if _vote_key(vote) > _vote_key(mine):
        updates["current_vote"] = P.up(state["current_vote"], i, vote)
        updates["vote_sent"] = P.up(state["vote_sent"], i, False)
        updates["recv_votes"] = P.up(
            state["recv_votes"], i, frozenset({(i, vote), (j, vote)})
        )
    else:
        updates["recv_votes"] = P.up(
            state["recv_votes"], i, state["recv_votes"][i] | {(j, vote)}
        )
    return updates


def fle_reply_notmsg(config: ZkConfig, state, i: int, j: int):
    """A non-LOOKING server answers a notification with the vote of its
    established leader, letting late joiners converge."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.NOTIFICATION:
        return None
    if state["state"][i] not in (C.FOLLOWING, C.LEADING):
        return None
    leader = i if state["state"][i] == C.LEADING else state["my_leader"][i]
    if leader < 0:
        return None
    vote = Rec(
        epoch=state["current_epoch"][i],
        zxid=P.last_zxid_of(state, i),
        sid=leader,
    )
    msgs = P.pop(state["msgs"], j, i)
    msgs = P.send_if_connected(state, msgs, i, j, Rec(mtype=C.NOTIFICATION, vote=vote))
    return {"msgs": msgs}


def fle_decide(config: ZkConfig, state, i: int):
    """A LOOKING server with a quorum of agreeing votes takes its role
    (Figure 5a: LEADING when it voted for itself, FOLLOWING otherwise)
    and moves to DISCOVERY."""
    if state["state"][i] != C.LOOKING:
        return None
    vote = state["current_vote"][i]
    supporters = {
        voter for voter, v in state["recv_votes"][i] if v.sid == vote.sid
    } | {i}
    if not config.is_quorum(supporters):
        return None
    if vote.sid == i:
        new_state = C.LEADING
    else:
        new_state = C.FOLLOWING
        if state["state"][vote.sid] == C.DOWN:
            return None
    return {
        "state": P.up(state["state"], i, new_state),
        "zab_state": P.up(state["zab_state"], i, C.DISCOVERY),
        "my_leader": P.up(state["my_leader"], i, vote.sid),
        "cepoch_recv": P.up(state["cepoch_recv"], i, frozenset()),
        "ackepoch_recv": P.up(state["ackepoch_recv"], i, frozenset()),
        "synced_sent": P.up(state["synced_sent"], i, frozenset()),
        "newleader_acks": P.up(state["newleader_acks"], i, frozenset()),
        "uptodate_sent": P.up(state["uptodate_sent"], i, frozenset()),
        "proposal_acks": P.up(state["proposal_acks"], i, ()),
        "packets_sync": P.up(state["packets_sync"], i, EMPTY_SYNC),
        "newleader_recv": P.up(state["newleader_recv"], i, False),
    }


_PAIRS = {"i": lambda cfg: cfg.servers, "j": lambda cfg: cfg.servers}


def election_module(config: ZkConfig) -> Module:
    actions = [
        Action(
            "FLEBroadcastNotmsg",
            fle_broadcast_notmsg,
            params={"i": lambda cfg: cfg.servers},
            reads=["state", "vote_sent", "current_vote", "disconnected"],
            writes=["msgs", "vote_sent", "recv_votes"],
            update_sources={"recv_votes": ["current_vote"]},
        ),
        Action(
            "FLEReceiveNotmsg",
            lambda cfg, s, pair: fle_receive_notmsg(cfg, s, pair[0], pair[1]),
            params={"pair": P.pairs_distinct},
            reads=["msgs", "state", "current_vote", "recv_votes"],
            writes=["msgs", "current_vote", "vote_sent", "recv_votes"],
        ),
        Action(
            "FLEReplyNotmsg",
            lambda cfg, s, pair: fle_reply_notmsg(cfg, s, pair[0], pair[1]),
            params={"pair": P.pairs_distinct},
            reads=["msgs", "state", "my_leader", "current_epoch", "history", "disconnected"],
            writes=["msgs"],
        ),
        Action(
            "FLEDecide",
            fle_decide,
            params={"i": lambda cfg: cfg.servers},
            reads=["state", "current_vote", "recv_votes"],
            writes=[
                "state",
                "zab_state",
                "my_leader",
                "cepoch_recv",
                "ackepoch_recv",
                "synced_sent",
                "newleader_acks",
                "uptodate_sent",
                "proposal_acks",
                "packets_sync",
                "newleader_recv",
            ],
            update_sources={"my_leader": ["current_vote"]},
        ),
    ]
    return Module("Election", actions)
