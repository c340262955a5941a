"""The Zab protocol specification (§2.1.1) and the improved protocol (§5.4).

This is the *protocol-level* model: it follows the pen-and-paper Zab of
Junqueira et al. with a leader oracle for Phase 1 (the paper's protocol
specification also uses one), full-history NEWLEADER messages (Figure 1),
and no implementation optimizations.  Three variants:

- ``original``: Step f.2.1 is atomic -- the follower updates its epoch
  and accepts the leader's history in one step, as the Zab paper demands.
- ``improved``: the §5.4 revision -- the atomicity requirement is
  replaced by an *order*: the follower persists the history first and
  updates the epoch second, tracked by ``servingState``.
- ``epoch_first``: the ablation -- the non-atomic update in the order
  ZooKeeper actually implemented (epoch first).  Model checking shows this
  violates I-8, which is exactly why the implementation was buggy.

All three share the ghost variables of :mod:`repro.zab.invariants`, so the
ten protocol invariants of Table 2 apply unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Specification
from repro.tla.state import Schema, State
from repro.tla.values import Rec, Txn, Zxid, last_zxid
from repro.zab.invariants import protocol_invariants

VARIANTS = ("original", "improved", "epoch_first")

LOOKING, FOLLOWING, LEADING, DOWN = "LOOKING", "FOLLOWING", "LEADING", "DOWN"

VARIABLES = (
    "phase",            # per server: ELECTION/SYNC/BROADCAST role marker
    "role",             # LOOKING / FOLLOWING / LEADING / DOWN
    "epoch",            # f.p in the Zab paper: last NEWEPOCH acknowledged
    "current_epoch",    # f.a: last NEWLEADER acknowledged
    "history",
    "last_committed",
    "my_leader",
    "serving_state",    # §5.4: tracks the history/epoch update order
    "synced",           # leader: followers that ACKed NEWLEADER
    "msgs",
    "crash_budget",
    "txn_count",
    "proposal_acks",
    # ghosts shared with repro.zab.invariants
    "g_delivered",
    "g_proposed",
    "g_leaders",
    "g_established",
    "g_participants",
    "g_committed",
    # alias required by the shared invariants (zab_state of the impl spec)
    "zab_state",
)

SCHEMA = Schema(VARIABLES)


class ZabConfig:
    """Protocol-model bounds (servers / txns / crashes / epochs)."""

    def __init__(
        self,
        n_servers: int = 3,
        max_txns: int = 1,
        max_crashes: int = 1,
        max_epoch: int = 3,
        variant: str = "original",
    ):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        self.n_servers = n_servers
        self.max_txns = max_txns
        self.max_crashes = max_crashes
        self.max_epoch = max_epoch
        self.variant = variant
        self.servers = tuple(range(n_servers))
        self.quorum_size = n_servers // 2 + 1

    def is_quorum(self, members) -> bool:
        return len(set(members)) >= self.quorum_size

    def quorums(self):
        from itertools import combinations

        out = []
        for size in range(self.quorum_size, self.n_servers + 1):
            out.extend(combinations(self.servers, size))
        return tuple(out)


def _per(config, value):
    return tuple(value for _ in config.servers)


def init(config: ZabConfig):
    n = config.n_servers
    empty_row = tuple(() for _ in range(n))
    return [
        State.make(
            SCHEMA,
            phase=_per(config, "ELECTION"),
            role=_per(config, LOOKING),
            epoch=_per(config, 0),
            current_epoch=_per(config, 0),
            history=_per(config, ()),
            last_committed=_per(config, 0),
            my_leader=_per(config, -1),
            serving_state=_per(config, "INITIAL"),
            synced=_per(config, frozenset()),
            msgs=tuple(empty_row for _ in range(n)),
            crash_budget=config.max_crashes,
            txn_count=0,
            proposal_acks=_per(config, ()),
            g_delivered=_per(config, ()),
            g_proposed=frozenset(),
            g_leaders=(),
            g_established=(),
            g_participants=(),
            g_committed=(),
            zab_state=_per(config, "ELECTION"),
        )
    ]


def _up(vec, i, value):
    return vec[:i] + (value,) + vec[i + 1 :]


def _send(msgs, src, dst, *messages):
    row = msgs[src]
    row = row[:dst] + (row[dst] + tuple(messages),) + row[dst + 1 :]
    return msgs[:src] + (row,) + msgs[src + 1 :]


def _peek(state, src, dst):
    channel = state["msgs"][src][dst]
    return channel[0] if channel else None


def _pop(msgs, src, dst):
    row = msgs[src]
    row = row[:dst] + (row[dst][1:],) + row[dst + 1 :]
    return msgs[:src] + (row,) + msgs[src + 1 :]


def _clear_server(msgs, server):
    n = len(msgs)
    out = []
    for src in range(n):
        if src == server:
            out.append(tuple(() for _ in range(n)))
        else:
            row = msgs[src]
            out.append(row[:server] + ((),) + row[server + 1 :])
    return tuple(out)


def _deliver(state, i, txns):
    current = state["g_delivered"][i]
    present = set(current)
    added = tuple(t for t in txns if t not in present)
    return _up(state["g_delivered"], i, current + added)


def _commit_globally(state, txns):
    present = set(state["g_committed"])
    return state["g_committed"] + tuple(t for t in txns if t not in present)


# --- Phase 1: leader oracle --------------------------------------------------

def election_oracle(config: ZabConfig, state, i: int, quorum):
    """The Zab paper's assumed leader oracle, refined with the correctness
    requirement that the prospective leader holds the most recent history
    in the quorum (epoch first, then zxid -- as in ZooKeeper)."""
    members = set(quorum)
    if i not in members or not config.is_quorum(members):
        return None
    if any(state["role"][j] != LOOKING for j in members):
        return None
    creds = lambda j: (
        state["current_epoch"][j],
        last_zxid(state["history"][j]),
        j,
    )
    if any(creds(j) > creds(i) for j in members):
        return None
    new_epoch = max(state["epoch"][j] for j in members) + 1
    if new_epoch > config.max_epoch:
        return None
    n = config.n_servers
    msgs = state["msgs"]
    # The prospective leader sends NEWLEADER(e', leader history) to the
    # quorum (Phase 2 start; Phase 1's CEPOCH/NEWEPOCH is folded into the
    # oracle, as in the paper's protocol spec).
    for j in sorted(members):
        if j != i:
            msgs = _send(
                msgs,
                i,
                j,
                Rec(
                    mtype="NEWLEADER",
                    epoch=new_epoch,
                    hist=state["history"][i],
                ),
            )
    return {
        "role": tuple(
            LEADING if s == i else (FOLLOWING if s in members else state["role"][s])
            for s in range(n)
        ),
        "phase": tuple(
            "SYNC" if s in members else state["phase"][s] for s in range(n)
        ),
        "zab_state": tuple(
            "SYNCHRONIZATION" if s in members else state["zab_state"][s]
            for s in range(n)
        ),
        "epoch": tuple(
            new_epoch if s in members else state["epoch"][s] for s in range(n)
        ),
        "my_leader": tuple(
            i if s in members else state["my_leader"][s] for s in range(n)
        ),
        "current_epoch": _up(state["current_epoch"], i, new_epoch),
        "synced": _up(state["synced"], i, frozenset()),
        "proposal_acks": _up(state["proposal_acks"], i, ()),
        "msgs": msgs,
    }


# --- Phase 2: synchronization -------------------------------------------------

def _accept_guard(config, state, i, j):
    msg = _peek(state, j, i)
    if msg is None or msg.mtype != "NEWLEADER":
        return None
    if state["role"][i] != FOLLOWING or state["my_leader"][i] != j:
        return None
    if msg.epoch != state["epoch"][i]:
        return None
    return msg


def follower_accept_newleader(config: ZabConfig, state, i: int, j: int):
    """Step f.2.1, atomic (the original protocol): set f.a = e', accept
    the leader's history, and acknowledge."""
    if config.variant != "original":
        return None
    msg = _accept_guard(config, state, i, j)
    if msg is None or state["current_epoch"][i] == msg.epoch:
        return None
    msgs = _pop(state["msgs"], j, i)
    msgs = _send(msgs, i, j, Rec(mtype="ACKLD", epoch=msg.epoch))
    return {
        "msgs": msgs,
        "current_epoch": _up(state["current_epoch"], i, msg.epoch),
        "history": _up(state["history"], i, msg.hist),
        "last_committed": _up(
            state["last_committed"],
            i,
            min(state["last_committed"][i], len(msg.hist)),
        ),
    }


def follower_update_history(config: ZabConfig, state, i: int, j: int):
    """§5.4, step 1 of the split: persist the leader's history first."""
    if config.variant != "improved":
        return None
    msg = _accept_guard(config, state, i, j)
    if msg is None or state["serving_state"][i] == "HISTORY_SYNCED":
        return None
    if state["current_epoch"][i] == msg.epoch:
        return None
    return {
        "history": _up(state["history"], i, msg.hist),
        "last_committed": _up(
            state["last_committed"],
            i,
            min(state["last_committed"][i], len(msg.hist)),
        ),
        "serving_state": _up(state["serving_state"], i, "HISTORY_SYNCED"),
    }


def follower_update_epoch(config: ZabConfig, state, i: int, j: int):
    """§5.4, step 2: update f.a only after the history is on disk, then
    acknowledge NEWLEADER."""
    if config.variant != "improved":
        return None
    msg = _accept_guard(config, state, i, j)
    if msg is None or state["serving_state"][i] != "HISTORY_SYNCED":
        return None
    msgs = _pop(state["msgs"], j, i)
    msgs = _send(msgs, i, j, Rec(mtype="ACKLD", epoch=msg.epoch))
    return {
        "msgs": msgs,
        "current_epoch": _up(state["current_epoch"], i, msg.epoch),
        "serving_state": _up(state["serving_state"], i, "INITIAL"),
    }


def follower_update_epoch_first(config: ZabConfig, state, i: int, j: int):
    """The ablation: the non-atomic order ZooKeeper implemented (epoch
    before history).  A crash between the two steps leaves a stale history
    under a new epoch -- the protocol-level root cause of ZK-4643."""
    if config.variant != "epoch_first":
        return None
    msg = _accept_guard(config, state, i, j)
    if msg is None or state["current_epoch"][i] == msg.epoch:
        return None
    return {
        "current_epoch": _up(state["current_epoch"], i, msg.epoch),
        "serving_state": _up(state["serving_state"], i, "EPOCH_SET"),
    }


def follower_update_history_second(config: ZabConfig, state, i: int, j: int):
    if config.variant != "epoch_first":
        return None
    msg = _accept_guard(config, state, i, j)
    if msg is None or state["serving_state"][i] != "EPOCH_SET":
        return None
    msgs = _pop(state["msgs"], j, i)
    msgs = _send(msgs, i, j, Rec(mtype="ACKLD", epoch=msg.epoch))
    return {
        "msgs": msgs,
        "history": _up(state["history"], i, msg.hist),
        "last_committed": _up(
            state["last_committed"],
            i,
            min(state["last_committed"][i], len(msg.hist)),
        ),
        "serving_state": _up(state["serving_state"], i, "INITIAL"),
    }


def leader_process_ackld(config: ZabConfig, state, i: int, j: int):
    """Step l.2.2: with a quorum of ACKs the leader commits its initial
    history and the epoch becomes established."""
    msg = _peek(state, j, i)
    if msg is None or msg.mtype != "ACKLD" or state["role"][i] != LEADING:
        return None
    if msg.epoch != state["current_epoch"][i]:
        return None
    synced = state["synced"][i] | {j}
    updates = {
        "msgs": _pop(state["msgs"], j, i),
        "synced": _up(state["synced"], i, synced),
    }
    already = any(e == msg.epoch for e, _ in state["g_leaders"])
    if config.is_quorum(synced | {i}) and not already:
        history = state["history"][i]
        committed_before = state["g_committed"]
        updates["last_committed"] = _up(
            state["last_committed"], i, len(history)
        )
        updates["g_delivered"] = _deliver(
            state, i, history[state["last_committed"][i] :]
        )
        updates["g_committed"] = _commit_globally(
            state, history[state["last_committed"][i] :]
        )
        updates["g_established"] = state["g_established"] + (
            Rec(epoch=msg.epoch, initial=history, committed=committed_before),
        )
        updates["g_leaders"] = state["g_leaders"] + ((msg.epoch, i),)
        updates["g_participants"] = state["g_participants"] + (
            (msg.epoch, frozenset(synced | {i})),
        )
        updates["phase"] = _up(state["phase"], i, "BROADCAST")
        updates["zab_state"] = _up(state["zab_state"], i, "BROADCAST")
        msgs = updates["msgs"]
        for f in synced:
            msgs = _send(
                msgs, i, f, Rec(mtype="COMMITLD", count=len(history))
            )
        updates["msgs"] = msgs
    elif already:
        msgs = _send(
            updates["msgs"],
            i,
            j,
            Rec(mtype="COMMITLD", count=state["last_committed"][i]),
        )
        updates["msgs"] = msgs
        updates["g_participants"] = tuple(
            (e, (m | {j}) if e == msg.epoch else m)
            for e, m in state["g_participants"]
        )
    return updates


def follower_process_commitld(config: ZabConfig, state, i: int, j: int):
    """Step f.2.2: deliver the initial history and start Broadcast."""
    msg = _peek(state, j, i)
    if msg is None or msg.mtype != "COMMITLD":
        return None
    if state["role"][i] != FOLLOWING or state["my_leader"][i] != j:
        return None
    count = min(msg.count, len(state["history"][i]))
    newly = state["history"][i][state["last_committed"][i] : count]
    return {
        "msgs": _pop(state["msgs"], j, i),
        "last_committed": _up(
            state["last_committed"],
            i,
            max(state["last_committed"][i], count),
        ),
        "g_delivered": _deliver(state, i, newly),
        "g_committed": _commit_globally(state, newly),
        "phase": _up(state["phase"], i, "BROADCAST"),
        "zab_state": _up(state["zab_state"], i, "BROADCAST"),
    }


# --- Phase 3: broadcast ---------------------------------------------------------

def leader_propose(config: ZabConfig, state, i: int):
    if state["role"][i] != LEADING or state["phase"][i] != "BROADCAST":
        return None
    if state["txn_count"] >= config.max_txns:
        return None
    epoch = state["current_epoch"][i]
    counters = [
        t.zxid.counter for t in state["history"][i] if t.zxid.epoch == epoch
    ]
    zxid = Zxid(epoch, max(counters) + 1 if counters else 1)
    txn = Txn(zxid, state["txn_count"] + 1)
    msgs = state["msgs"]
    for f in state["synced"][i]:
        msgs = _send(msgs, i, f, Rec(mtype="PROPOSE", txn=txn))
    return {
        "msgs": msgs,
        "history": _up(state["history"], i, state["history"][i] + (txn,)),
        "txn_count": state["txn_count"] + 1,
        "g_proposed": state["g_proposed"] | frozenset((txn,)),
        "proposal_acks": _up(
            state["proposal_acks"],
            i,
            state["proposal_acks"][i] + ((zxid, frozenset((i,))),),
        ),
    }


def follower_accept_proposal(config: ZabConfig, state, i: int, j: int):
    msg = _peek(state, j, i)
    if msg is None or msg.mtype != "PROPOSE":
        return None
    if state["role"][i] != FOLLOWING or state["my_leader"][i] != j:
        return None
    if state["phase"][i] != "BROADCAST":
        return None
    msgs = _pop(state["msgs"], j, i)
    msgs = _send(msgs, i, j, Rec(mtype="ACKTXN", zxid=msg.txn.zxid))
    return {
        "msgs": msgs,
        "history": _up(state["history"], i, state["history"][i] + (msg.txn,)),
    }


def leader_commit(config: ZabConfig, state, i: int, j: int):
    msg = _peek(state, j, i)
    if msg is None or msg.mtype != "ACKTXN" or state["role"][i] != LEADING:
        return None
    msgs = _pop(state["msgs"], j, i)
    outstanding = state["proposal_acks"][i]
    entry = next(
        (k for k, (z, _) in enumerate(outstanding) if z == msg.zxid), None
    )
    if entry is None:
        return {"msgs": msgs}
    zxid, ackers = outstanding[entry]
    ackers = ackers | {j}
    committed = state["last_committed"][i]
    history = state["history"][i]
    idx = next(
        (k for k, t in enumerate(history) if t.zxid == zxid), None
    )
    updates = {"msgs": msgs}
    if config.is_quorum(ackers) and idx == committed:
        newly = history[committed : committed + 1]
        updates["proposal_acks"] = _up(
            state["proposal_acks"],
            i,
            outstanding[:entry] + outstanding[entry + 1 :],
        )
        updates["last_committed"] = _up(
            state["last_committed"], i, committed + 1
        )
        updates["g_delivered"] = _deliver(state, i, newly)
        updates["g_committed"] = _commit_globally(state, newly)
        out = msgs
        for f in state["synced"][i]:
            out = _send(out, i, f, Rec(mtype="COMMIT", zxid=zxid))
        updates["msgs"] = out
    else:
        updates["proposal_acks"] = _up(
            state["proposal_acks"],
            i,
            outstanding[:entry] + ((zxid, ackers),) + outstanding[entry + 1 :],
        )
    return updates


def follower_deliver(config: ZabConfig, state, i: int, j: int):
    msg = _peek(state, j, i)
    if msg is None or msg.mtype != "COMMIT":
        return None
    if state["role"][i] != FOLLOWING or state["my_leader"][i] != j:
        return None
    history = state["history"][i]
    committed = state["last_committed"][i]
    if committed >= len(history) or history[committed].zxid != msg.zxid:
        return None
    newly = history[committed : committed + 1]
    return {
        "msgs": _pop(state["msgs"], j, i),
        "last_committed": _up(state["last_committed"], i, committed + 1),
        "g_delivered": _deliver(state, i, newly),
        "g_committed": _commit_globally(state, newly),
    }


# --- faults ----------------------------------------------------------------------

def crash(config: ZabConfig, state, i: int):
    if state["role"][i] == DOWN or state["crash_budget"] <= 0:
        return None
    return {
        "role": _up(state["role"], i, DOWN),
        "phase": _up(state["phase"], i, "ELECTION"),
        "zab_state": _up(state["zab_state"], i, "ELECTION"),
        "my_leader": _up(state["my_leader"], i, -1),
        "serving_state": _up(state["serving_state"], i, "INITIAL"),
        "synced": _up(state["synced"], i, frozenset()),
        "proposal_acks": _up(state["proposal_acks"], i, ()),
        "msgs": _clear_server(state["msgs"], i),
        "crash_budget": state["crash_budget"] - 1,
    }


def restart(config: ZabConfig, state, i: int):
    if state["role"][i] != DOWN:
        return None
    return {
        "role": _up(state["role"], i, LOOKING),
        "phase": _up(state["phase"], i, "ELECTION"),
        "zab_state": _up(state["zab_state"], i, "ELECTION"),
    }


def follower_abandon(config: ZabConfig, state, i: int):
    """A follower abandons a dead or superseded leader."""
    if state["role"][i] != FOLLOWING:
        return None
    leader = state["my_leader"][i]
    if leader < 0:
        return None
    if state["role"][leader] == LEADING and state["epoch"][leader] == state["epoch"][i]:
        return None
    return {
        "role": _up(state["role"], i, LOOKING),
        "phase": _up(state["phase"], i, "ELECTION"),
        "zab_state": _up(state["zab_state"], i, "ELECTION"),
        "my_leader": _up(state["my_leader"], i, -1),
        "serving_state": _up(state["serving_state"], i, "INITIAL"),
    }


def leader_abandon(config: ZabConfig, state, i: int):
    """A leader without a quorum of followers steps down."""
    if state["role"][i] != LEADING:
        return None
    followers = sum(
        1
        for j in config.servers
        if j != i
        and state["role"][j] == FOLLOWING
        and state["my_leader"][j] == i
    )
    if followers + 1 >= config.quorum_size:
        return None
    return {
        "role": _up(state["role"], i, LOOKING),
        "phase": _up(state["phase"], i, "ELECTION"),
        "zab_state": _up(state["zab_state"], i, "ELECTION"),
        "my_leader": _up(state["my_leader"], i, -1),
        "synced": _up(state["synced"], i, frozenset()),
        "proposal_acks": _up(state["proposal_acks"], i, ()),
    }


def drop_stale(config: ZabConfig, state, i: int, j: int):
    """Discard a message whose receiver left the sender's epoch."""
    msg = _peek(state, j, i)
    if msg is None or state["role"][i] == DOWN:
        return None
    if msg.mtype in ("NEWLEADER", "COMMITLD", "PROPOSE", "COMMIT"):
        if state["my_leader"][i] != j:
            return {"msgs": _pop(state["msgs"], j, i)}
        return None
    if msg.mtype in ("ACKLD", "ACKTXN") and state["role"][i] != LEADING:
        return {"msgs": _pop(state["msgs"], j, i)}
    return None


def zab_spec(config: Optional[ZabConfig] = None) -> Specification:
    """Build the protocol specification for the configured variant."""
    config = config or ZabConfig()
    servers = {"i": lambda cfg: cfg.servers}
    pairs = {
        "pair": lambda cfg: [
            (i, j) for i in cfg.servers for j in cfg.servers if i != j
        ]
    }

    def pairwise(fn):
        return lambda cfg, s, pair: fn(cfg, s, pair[0], pair[1])

    election = Module(
        "Election",
        [
            Action(
                "ElectionOracle",
                lambda cfg, s, i, Q: election_oracle(cfg, s, i, Q),
                params={
                    "i": lambda cfg: cfg.servers,
                    "Q": lambda cfg: cfg.quorums(),
                },
                reads=["role", "current_epoch", "history", "epoch"],
                writes=[
                    "role",
                    "phase",
                    "zab_state",
                    "epoch",
                    "my_leader",
                    "current_epoch",
                    "synced",
                    "proposal_acks",
                    "msgs",
                ],
            )
        ],
    )
    sync_actions = [
        Action(
            "FollowerAcceptNEWLEADER",
            pairwise(follower_accept_newleader),
            params=pairs,
            reads=["msgs", "role", "my_leader", "epoch", "current_epoch"],
            writes=["msgs", "current_epoch", "history", "last_committed"],
        ),
        Action(
            "FollowerUpdateHistory",
            pairwise(follower_update_history),
            params=pairs,
            reads=["msgs", "role", "my_leader", "epoch", "current_epoch", "serving_state"],
            writes=["history", "last_committed", "serving_state"],
        ),
        Action(
            "FollowerUpdateEpoch",
            pairwise(follower_update_epoch),
            params=pairs,
            reads=["msgs", "role", "my_leader", "epoch", "serving_state"],
            writes=["msgs", "current_epoch", "serving_state"],
        ),
        Action(
            "FollowerUpdateEpochFirst",
            pairwise(follower_update_epoch_first),
            params=pairs,
            reads=["msgs", "role", "my_leader", "epoch", "current_epoch", "serving_state"],
            writes=["current_epoch", "serving_state"],
        ),
        Action(
            "FollowerUpdateHistorySecond",
            pairwise(follower_update_history_second),
            params=pairs,
            reads=["msgs", "role", "my_leader", "epoch", "serving_state"],
            writes=["msgs", "history", "last_committed", "serving_state"],
        ),
        Action(
            "LeaderProcessACKLD",
            pairwise(leader_process_ackld),
            params=pairs,
            reads=[
                "msgs",
                "role",
                "current_epoch",
                "synced",
                "history",
                "last_committed",
                "g_leaders",
                "g_committed",
            ],
            writes=[
                "msgs",
                "synced",
                "last_committed",
                "g_delivered",
                "g_committed",
                "g_established",
                "g_leaders",
                "g_participants",
                "phase",
                "zab_state",
            ],
        ),
        Action(
            "FollowerProcessCOMMITLD",
            pairwise(follower_process_commitld),
            params=pairs,
            reads=["msgs", "role", "my_leader", "history", "last_committed"],
            writes=[
                "msgs",
                "last_committed",
                "g_delivered",
                "g_committed",
                "phase",
                "zab_state",
            ],
        ),
    ]
    sync = Module("Synchronization", sync_actions)
    broadcast = Module(
        "Broadcast",
        [
            Action(
                "LeaderPropose",
                leader_propose,
                params=servers,
                reads=["role", "phase", "txn_count", "current_epoch", "history", "synced"],
                writes=["msgs", "history", "txn_count", "g_proposed", "proposal_acks"],
            ),
            Action(
                "FollowerAcceptProposal",
                pairwise(follower_accept_proposal),
                params=pairs,
                reads=["msgs", "role", "my_leader", "phase", "history"],
                writes=["msgs", "history"],
            ),
            Action(
                "LeaderCommit",
                pairwise(leader_commit),
                params=pairs,
                reads=[
                    "msgs",
                    "role",
                    "proposal_acks",
                    "last_committed",
                    "history",
                    "synced",
                ],
                writes=[
                    "msgs",
                    "proposal_acks",
                    "last_committed",
                    "g_delivered",
                    "g_committed",
                ],
            ),
            Action(
                "FollowerDeliver",
                pairwise(follower_deliver),
                params=pairs,
                reads=["msgs", "role", "my_leader", "history", "last_committed"],
                writes=[
                    "msgs",
                    "last_committed",
                    "g_delivered",
                    "g_committed",
                ],
            ),
        ],
    )
    faults = Module(
        "Faults",
        [
            Action(
                "NodeCrash",
                crash,
                params=servers,
                reads=["role", "crash_budget"],
                writes=[
                    "role",
                    "phase",
                    "zab_state",
                    "my_leader",
                    "serving_state",
                    "synced",
                    "proposal_acks",
                    "msgs",
                    "crash_budget",
                ],
            ),
            Action(
                "NodeRestart",
                restart,
                params=servers,
                reads=["role"],
                writes=["role", "phase", "zab_state"],
            ),
            Action(
                "FollowerAbandon",
                follower_abandon,
                params=servers,
                reads=["role", "my_leader", "epoch"],
                writes=["role", "phase", "zab_state", "my_leader", "serving_state"],
            ),
            Action(
                "LeaderAbandon",
                leader_abandon,
                params=servers,
                reads=["role", "my_leader"],
                writes=[
                    "role",
                    "phase",
                    "zab_state",
                    "my_leader",
                    "synced",
                    "proposal_acks",
                ],
            ),
            Action(
                "DropStale",
                pairwise(drop_stale),
                params=pairs,
                reads=["msgs", "role", "my_leader"],
                writes=["msgs"],
            ),
        ],
    )
    return Specification(
        f"Zab-{config.variant}",
        SCHEMA,
        init,
        [election, sync, broadcast, faults],
        protocol_invariants(),
        config,
        constraint=lambda cfg, s: max(s["epoch"]) <= cfg.max_epoch,
    )
