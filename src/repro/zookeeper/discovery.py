"""Baseline Discovery module -- four actions (Figure 5a, lower half).

FOLLOWERINFO / LEADERINFO / ACKEPOCH exchange: the leader collects the
followers' accepted epochs, proposes a new epoch, and gathers the
(currentEpoch, lastZxid) credentials the Synchronization module needs.
"""

from __future__ import annotations

from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.values import Rec
from repro.zookeeper import constants as C
from repro.zookeeper import prims as P
from repro.zookeeper.config import ZkConfig


def connect_and_send_followerinfo(config: ZkConfig, state, i: int, j: int):
    """A follower in DISCOVERY connects to its leader and sends
    FOLLOWERINFO(acceptedEpoch)."""
    if state["state"][i] != C.FOLLOWING or state["zab_state"][i] != C.DISCOVERY:
        return None
    if state["my_leader"][i] != j or not P.connected(state, i, j):
        return None
    if any(m.mtype == C.FOLLOWERINFO for m in state["msgs"][i][j]):
        return None
    if any(f == i for f, _ in state["cepoch_recv"][j]):
        return None
    msg = Rec(mtype=C.FOLLOWERINFO, epoch=state["accepted_epoch"][i])
    return {"msgs": P.send(state["msgs"], i, j, msg)}


def leader_process_followerinfo(config: ZkConfig, state, i: int, j: int):
    """The leader records a FOLLOWERINFO; with a quorum it proposes the
    new epoch via LEADERINFO (late joiners get LEADERINFO immediately)."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.FOLLOWERINFO:
        return None
    if state["state"][i] != C.LEADING:
        return None
    cepoch = state["cepoch_recv"][i] | {(j, msg.epoch)}
    msgs = P.pop(state["msgs"], j, i)
    updates = {"cepoch_recv": P.up(state["cepoch_recv"], i, cepoch)}

    was_quorum = config.is_quorum({f for f, _ in state["cepoch_recv"][i]} | {i})
    if state["zab_state"][i] == C.DISCOVERY and not was_quorum:
        voters = {f for f, _ in cepoch} | {i}
        if config.is_quorum(voters):
            # The quorum was just reached: propose the new epoch once.
            epochs = [e for _, e in cepoch] + [state["accepted_epoch"][i]]
            new_epoch = max(epochs) + 1
            if new_epoch > config.max_epoch:
                return None
            updates["accepted_epoch"] = P.up(
                state["accepted_epoch"], i, new_epoch
            )
            for f, _ in cepoch:
                msgs = P.send_if_connected(
                    state, msgs, i, f, Rec(mtype=C.LEADERINFO, epoch=new_epoch)
                )
    else:
        # The epoch was already proposed (or the leader is past
        # Discovery): answer the late joiner directly.
        msgs = P.send_if_connected(
            state,
            msgs,
            i,
            j,
            Rec(mtype=C.LEADERINFO, epoch=state["accepted_epoch"][i]),
        )
    updates["msgs"] = msgs
    return updates


def follower_process_leaderinfo(config: ZkConfig, state, i: int, j: int):
    """The follower accepts the proposed epoch and answers ACKEPOCH with
    its (currentEpoch, lastZxid); zabState moves to SYNCHRONIZATION."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.LEADERINFO:
        return None
    if state["my_leader"][i] != j or state["zab_state"][i] != C.DISCOVERY:
        return None
    msgs = P.pop(state["msgs"], j, i)
    if msg.epoch < state["accepted_epoch"][i]:
        # Stale leader proposal: the follower goes back to election.
        return {
            "msgs": msgs,
            "state": P.up(state["state"], i, C.LOOKING),
            "zab_state": P.up(state["zab_state"], i, C.ELECTION),
            "my_leader": P.up(state["my_leader"], i, -1),
        }
    ack = Rec(
        mtype=C.ACKEPOCH,
        epoch=state["current_epoch"][i],
        zxid=P.last_zxid_of(state, i),
    )
    msgs = P.send_if_connected(state, msgs, i, j, ack)
    return {
        "msgs": msgs,
        "accepted_epoch": P.up(state["accepted_epoch"], i, msg.epoch),
        "zab_state": P.up(state["zab_state"], i, C.SYNCHRONIZATION),
    }


def leader_process_ackepoch(config: ZkConfig, state, i: int, j: int):
    """The leader collects ACKEPOCHs; with a quorum it adopts the epoch
    and moves to SYNCHRONIZATION.  A follower with better credentials
    forces the leader to abdicate (the implementation shuts down)."""
    msg = P.peek(state, j, i)
    if msg is None or msg.mtype != C.ACKEPOCH:
        return None
    if state["state"][i] != C.LEADING:
        return None
    if (msg.epoch, msg.zxid) > (
        state["current_epoch"][i],
        P.last_zxid_of(state, i),
    ):
        return {
            "msgs": P.pop(state["msgs"], j, i),
            "state": P.up(state["state"], i, C.LOOKING),
            "zab_state": P.up(state["zab_state"], i, C.ELECTION),
            "my_leader": P.up(state["my_leader"], i, -1),
        }
    ackepoch = state["ackepoch_recv"][i] | {(j, msg.epoch, msg.zxid)}
    updates = {
        "msgs": P.pop(state["msgs"], j, i),
        "ackepoch_recv": P.up(state["ackepoch_recv"], i, ackepoch),
    }
    if state["zab_state"][i] == C.DISCOVERY:
        voters = {f for f, _, _ in ackepoch} | {i}
        if config.is_quorum(voters):
            updates["zab_state"] = P.up(
                state["zab_state"], i, C.SYNCHRONIZATION
            )
            updates["current_epoch"] = P.up(
                state["current_epoch"], i, state["accepted_epoch"][i]
            )
    return updates


def _pairs_distinct(cfg: ZkConfig):
    return [(i, j) for i in cfg.servers for j in cfg.servers if i != j]


def discovery_module(config: ZkConfig) -> Module:
    def pairwise(fn):
        return lambda cfg, s, pair: fn(cfg, s, pair[0], pair[1])

    actions = [
        Action(
            "ConnectAndFollowerSendFOLLOWERINFO",
            pairwise(connect_and_send_followerinfo),
            params={"pair": _pairs_distinct},
            reads=[
                "state",
                "zab_state",
                "my_leader",
                "disconnected",
                "msgs",
                "cepoch_recv",
                "accepted_epoch",
            ],
            writes=["msgs"],
        ),
        Action(
            "LeaderProcessFOLLOWERINFO",
            pairwise(leader_process_followerinfo),
            params={"pair": _pairs_distinct},
            reads=["msgs", "state", "zab_state", "cepoch_recv", "accepted_epoch", "disconnected"],
            writes=["msgs", "cepoch_recv", "accepted_epoch"],
            update_sources={"accepted_epoch": ["cepoch_recv", "accepted_epoch"]},
        ),
        Action(
            "FollowerProcessLEADERINFO",
            pairwise(follower_process_leaderinfo),
            params={"pair": _pairs_distinct},
            reads=[
                "msgs",
                "my_leader",
                "zab_state",
                "accepted_epoch",
                "current_epoch",
                "history",
                "disconnected",
            ],
            writes=["msgs", "accepted_epoch", "zab_state", "state", "my_leader"],
        ),
        Action(
            "LeaderProcessACKEPOCH",
            pairwise(leader_process_ackepoch),
            params={"pair": _pairs_distinct},
            reads=[
                "msgs",
                "state",
                "zab_state",
                "ackepoch_recv",
                "current_epoch",
                "history",
                "accepted_epoch",
            ],
            writes=[
                "msgs",
                "ackepoch_recv",
                "zab_state",
                "current_epoch",
                "state",
                "my_leader",
            ],
            update_sources={"current_epoch": ["accepted_epoch"]},
        ),
    ]
    return Module("Discovery", actions)
