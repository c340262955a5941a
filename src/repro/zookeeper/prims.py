"""Primitive state helpers shared by all granularities of the model.

Network operations (FIFO channels with partitions), vote comparison,
commit/delivery bookkeeping and the error-path ghost updates live here so
that the per-phase action modules stay close to the paper's TLA+ text.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from repro.tla.values import Rec, Txn, Zxid, last_zxid, updated
from repro.zookeeper import constants as C
from repro.zookeeper.config import ZkConfig


# --- network ---------------------------------------------------------------

def connected(state, i: int, j: int) -> bool:
    """True when no partition separates i and j and both are up."""
    if frozenset((i, j)) in state["disconnected"]:
        return False
    return state["state"][i] != C.DOWN and state["state"][j] != C.DOWN


def send(msgs, src: int, dst: int, *messages: Rec):
    """Append messages to the FIFO channel src -> dst."""
    row = msgs[src]
    channel = row[dst] + tuple(messages)
    row = row[:dst] + (channel,) + row[dst + 1 :]
    return msgs[:src] + (row,) + msgs[src + 1 :]


def send_if_connected(state, msgs, src: int, dst: int, *messages: Rec):
    """Send unless the destination is down or partitioned (drop silently,
    like a broken TCP connection)."""
    if not connected(state, src, dst):
        return msgs
    return send(msgs, src, dst, *messages)


def peek(state, src: int, dst: int) -> Optional[Rec]:
    """Head of the channel src -> dst, or None when empty."""
    channel = state["msgs"][src][dst]
    return channel[0] if channel else None


def pop(msgs, src: int, dst: int):
    """Remove the head of channel src -> dst."""
    row = msgs[src]
    row = row[:dst] + (row[dst][1:],) + row[dst + 1 :]
    return msgs[:src] + (row,) + msgs[src + 1 :]


def clear_channels(msgs, server: int):
    """Drop every message to or from ``server`` (TCP teardown on crash or
    connection loss)."""
    n = len(msgs)
    empty: Tuple = ()
    out = []
    for src in range(n):
        if src == server:
            out.append(tuple(empty for _ in range(n)))
        else:
            row = msgs[src]
            out.append(row[:server] + (empty,) + row[server + 1 :])
    return tuple(out)


def rotate_head(msgs, src: int, dst: int):
    """Move the head of channel src -> dst behind the rest (a delayed
    message overtaken by later traffic).  Channel must have >= 2
    messages for the rotation to mean anything."""
    row = msgs[src]
    channel = row[dst]
    channel = channel[1:] + (channel[0],)
    row = row[:dst] + (channel,) + row[dst + 1 :]
    return msgs[:src] + (row,) + msgs[src + 1 :]


def duplicate_head(msgs, src: int, dst: int):
    """Append a copy of the head of channel src -> dst at its tail (a
    retransmission across a connection re-establishment)."""
    row = msgs[src]
    channel = row[dst]
    channel = channel + (channel[0],)
    row = row[:dst] + (channel,) + row[dst + 1 :]
    return msgs[:src] + (row,) + msgs[src + 1 :]


def clear_pair(msgs, i: int, j: int):
    """Drop the channels between i and j in both directions."""
    out = list(msgs)
    row_i = list(out[i])
    row_i[j] = ()
    out[i] = tuple(row_i)
    row_j = list(out[j])
    row_j[i] = ()
    out[j] = tuple(row_j)
    return tuple(out)


# --- votes ------------------------------------------------------------------

def vote_of(state, i: int) -> Tuple[int, Zxid, int]:
    """The FLE credentials of a server: (currentEpoch, lastZxid, sid).

    ZooKeeper's ``totalOrderPredicate`` compares the peer epoch first, the
    zxid second and the server id last -- the epoch-first comparison is
    exactly what lets a ZK-4643 victim win an election with a stale
    history.
    """
    return (state["current_epoch"][i], last_zxid(state["history"][i]), i)


# --- commit / delivery ghosts ------------------------------------------------

def deliver(g_delivered, server: int, txns: Iterable[Txn]):
    """Append txns to a server's delivery sequence, skipping duplicates
    (re-commit after recovery must not double-deliver)."""
    current = g_delivered[server]
    present = set(current)
    added = tuple(txn for txn in txns if txn not in present)
    if not added:
        return g_delivered
    return (
        g_delivered[:server]
        + (current + added,)
        + g_delivered[server + 1 :]
    )


def commit_globally(g_committed, txns: Iterable[Txn]):
    """Append txns to the global commit sequence, deduplicated."""
    present = set(g_committed)
    added = tuple(txn for txn in txns if txn not in present)
    return g_committed + added


def advance_commit(state, server: int, new_count: int) -> Dict:
    """Updates for committing the history prefix of ``server`` up to
    ``new_count`` entries: bumps last_committed, the delivery ghost and
    the global commit sequence."""
    history = state["history"][server]
    old = state["last_committed"][server]
    new_count = min(new_count, len(history))
    if new_count <= old:
        return {}
    newly = history[old:new_count]
    last_committed = (
        state["last_committed"][:server]
        + (new_count,)
        + state["last_committed"][server + 1 :]
    )
    return {
        "last_committed": last_committed,
        "g_delivered": deliver(state["g_delivered"], server, newly),
        "g_committed": commit_globally(state["g_committed"], newly),
    }


# --- error paths (I-11..I-14) -------------------------------------------------

def raise_error(state, code: str, server: int) -> Dict:
    """Record that code-level execution reached an error path (an
    exception or failed assertion in ZooKeeper); checked by the I-11..I-14
    invariant instances."""
    record = Rec(code=code, server=server, bug=C.ERROR_BUGS.get(code, ""))
    return {"errors": state["errors"] | frozenset((record,))}


def has_error(state, code: str) -> bool:
    return any(err.code == code for err in state["errors"])


# --- action parameters -----------------------------------------------------

def pairs_distinct(cfg: ZkConfig):
    """The ordered pairs of distinct servers, the ``pair`` parameter of
    every two-server action."""
    return [(i, j) for i in cfg.servers for j in cfg.servers if i != j]


def pairwise(fn):
    """Adapt ``fn(cfg, state, i, j)`` to a ``pair``-parameterised action."""
    return lambda cfg, s, pair: fn(cfg, s, pair[0], pair[1])


# --- per-server tuple update -----------------------------------------------

#: TLA+ ``EXCEPT ![i]`` on a per-server tuple, as the action modules call it.
up = updated


# --- history utilities -------------------------------------------------------

def zxids(history: Tuple[Txn, ...]) -> Tuple[Zxid, ...]:
    return tuple(txn.zxid for txn in history)


def index_of_zxid(history: Tuple[Txn, ...], zxid: Zxid) -> int:
    """Index of the txn with ``zxid`` in a history, or -1."""
    for k, txn in enumerate(history):
        if txn.zxid == zxid:
            return k
    return -1


class QEntry(NamedTuple):
    """An entry of the SyncRequestProcessor queue: the request plus the
    acceptedEpoch of the leader session that enqueued it.  The ACK path of
    a session dies with its connection, so a stale entry (ZK-4712) is
    logged without acknowledging."""

    txn: Txn
    epoch: int


def is_learner(state, i: int, j: int) -> bool:
    """Is j a learner of leader i in i's current epoch (i.e. did i receive
    j's ACKEPOCH handshake)?  Messages from non-learners correspond to
    dead TCP connections and are discarded, never processed."""
    return any(entry[0] == j for entry in state["ackepoch_recv"][i])


def last_zxid_of(state, i: int) -> Zxid:
    """Zxid of the last txn in server i's history (<0,0> when empty)."""
    return last_zxid(state["history"][i])


def next_zxid(state, leader: int) -> Zxid:
    """The zxid of the leader's next proposal in its current epoch."""
    epoch = state["current_epoch"][leader]
    counters = [
        txn.zxid.counter
        for txn in state["history"][leader]
        if txn.zxid.epoch == epoch
    ]
    return Zxid(epoch, max(counters) + 1 if counters else 1)
