"""Multi-grained Raft specifications: leader election and log replication.

Two grains of the same protocol, composed from three modules:

- ``raft-coarse``: a single atomic ``ElectLeader`` action (the election
  outcome, analogous to ZooKeeper's coarse ``ElectionAndDiscovery``)
  plus the replication and fault modules;
- ``raft-fine``: the election decomposed into ``BecomeCandidate`` /
  ``GrantVote`` / ``BecomeLeader`` plus the same replication and fault
  modules.

The model is deliberately compact -- full-log replication instead of
per-entry AppendEntries -- but keeps Raft's safety structure: terms,
durable votes, up-to-date election restriction, quorum commit.  Durable
state (``current_term``, ``voted_for``, ``log``) survives crashes;
volatile state (``commit_index``, ``votes``) does not.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Invariant
from repro.tla.state import Schema, State
from repro.tla.values import updated as _up
from repro.tla.composition import compose
from repro.raft.config import RaftConfig

#: Role values (the model's ``role`` variable).
FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"
DOWN = "down"

#: ``voted_for`` value meaning "no vote cast this term".
NO_VOTE = -1

#: State variables, in schema order.
VARIABLES = (
    "role",
    "current_term",
    "voted_for",
    "log",
    "commit_index",
    "votes",
    "disconnected",
    "crash_budget",
    "partition_budget",
    "entry_budget",
)

SCHEMA = Schema(VARIABLES)


def initial_state(config: RaftConfig) -> State:
    """All servers start as followers with empty durable state."""
    n = config.n_servers
    per = lambda value: tuple(value for _ in range(n))  # noqa: E731
    return State.make(
        SCHEMA,
        role=per(FOLLOWER),
        current_term=per(0),
        voted_for=per(NO_VOTE),
        log=per(()),
        commit_index=per(0),
        votes=per(frozenset()),
        disconnected=frozenset(),
        crash_budget=config.max_crashes,
        partition_budget=config.max_partitions,
        entry_budget=config.max_entries,
    )


def init(config: RaftConfig):
    """The (single) initial state."""
    return [initial_state(config)]


# --- guards shared by actions ------------------------------------------------


def _alive(state, i: int) -> bool:
    return state["role"][i] != DOWN


def _connected(state, i: int, j: int) -> bool:
    return frozenset((i, j)) not in state["disconnected"]


def _log_key(log: Tuple) -> Tuple[int, int]:
    """Raft's up-to-date comparison key: (last entry term, length)."""
    last_term = log[-1][0] if log else 0
    return (last_term, len(log))


def _up_to_date(log_i: Tuple, log_j: Tuple) -> bool:
    """True when ``log_i`` is at least as up-to-date as ``log_j``."""
    return _log_key(log_i) >= _log_key(log_j)


# --- coarse election ---------------------------------------------------------


def elect_leader(config: RaftConfig, state, i: int, quorum):
    """Atomic election outcome: ``i`` wins a new term within ``quorum``.

    Folds candidacy, voting and the up-to-date restriction into one
    action, exactly the coarsening move of the paper's Figure 5b."""
    members = set(quorum)
    if i not in members or not config.is_quorum(members):
        return None
    for j in sorted(members):
        if not _alive(state, j):
            return None
        if j != i and not _connected(state, i, j):
            return None
    new_term = max(state["current_term"][j] for j in members) + 1
    if new_term > config.max_term:
        return None
    for j in sorted(members):
        if not _up_to_date(state["log"][i], state["log"][j]):
            return None
    n = config.n_servers
    return {
        "role": tuple(
            (LEADER if s == i else FOLLOWER) if s in members else state["role"][s]
            for s in range(n)
        ),
        "current_term": tuple(
            new_term if s in members else state["current_term"][s]
            for s in range(n)
        ),
        "voted_for": tuple(
            i if s in members else state["voted_for"][s] for s in range(n)
        ),
        "votes": tuple(
            (frozenset(members) if s == i else frozenset())
            if s in members
            else state["votes"][s]
            for s in range(n)
        ),
    }


def coarse_election_module(config: RaftConfig) -> Module:
    """The single-action coarse election module."""
    return Module(
        "RaftElectionCoarse",
        [
            Action(
                "ElectLeader",
                lambda cfg, s, i, Q: elect_leader(cfg, s, i, Q),
                params={
                    "i": lambda cfg: cfg.servers,
                    "Q": lambda cfg: cfg.quorums(),
                },
                reads=[
                    "role",
                    "current_term",
                    "voted_for",
                    "votes",
                    "log",
                    "disconnected",
                ],
                writes=["role", "current_term", "voted_for", "votes"],
            )
        ],
    )


# --- fine election -----------------------------------------------------------


def become_candidate(config: RaftConfig, state, i: int):
    """A follower (or a retrying candidate) starts a new term."""
    if state["role"][i] not in (FOLLOWER, CANDIDATE):
        return None
    new_term = state["current_term"][i] + 1
    if new_term > config.max_term:
        return None
    return {
        "role": _up(state["role"], i, CANDIDATE),
        "current_term": _up(state["current_term"], i, new_term),
        "voted_for": _up(state["voted_for"], i, i),
        "votes": _up(state["votes"], i, frozenset((i,))),
    }


def grant_vote(config: RaftConfig, state, j: int, i: int):
    """Voter ``j`` grants its vote to candidate ``i``.

    The voter adopts the candidate's term, records the vote durably and
    steps down to follower; the candidate tallies it."""
    if not _alive(state, i) or not _alive(state, j):
        return None
    if not _connected(state, i, j):
        return None
    if state["role"][i] != CANDIDATE:
        return None
    if j in state["votes"][i]:
        return None
    term_i = state["current_term"][i]
    term_j = state["current_term"][j]
    if term_j > term_i:
        return None
    if term_j == term_i and state["voted_for"][j] not in (NO_VOTE, i):
        return None
    if not _up_to_date(state["log"][i], state["log"][j]):
        return None
    return {
        "role": _up(state["role"], j, FOLLOWER),
        "current_term": _up(state["current_term"], j, term_i),
        "voted_for": _up(state["voted_for"], j, i),
        "votes": _up(
            _up(state["votes"], j, frozenset()),
            i,
            state["votes"][i] | {j},
        ),
    }


def become_leader(config: RaftConfig, state, i: int):
    """A candidate with a quorum of votes takes leadership."""
    if state["role"][i] != CANDIDATE:
        return None
    if not config.is_quorum(state["votes"][i]):
        return None
    return {"role": _up(state["role"], i, LEADER)}


def fine_election_module(config: RaftConfig) -> Module:
    """Candidacy, voting and promotion as separate actions."""
    servers = {"i": lambda cfg: cfg.servers}
    pairs = {
        "pair": lambda cfg: [
            (j, i) for j in cfg.servers for i in cfg.servers if j != i
        ]
    }
    return Module(
        "RaftElectionFine",
        [
            Action(
                "BecomeCandidate",
                become_candidate,
                params=servers,
                reads=["role", "current_term", "voted_for", "votes"],
                writes=["role", "current_term", "voted_for", "votes"],
            ),
            Action(
                "GrantVote",
                lambda cfg, s, pair: grant_vote(cfg, s, pair[0], pair[1]),
                params=pairs,
                reads=[
                    "role",
                    "current_term",
                    "voted_for",
                    "votes",
                    "log",
                    "disconnected",
                ],
                writes=["role", "current_term", "voted_for", "votes"],
            ),
            Action(
                "BecomeLeader",
                become_leader,
                params=servers,
                reads=["role", "votes"],
                writes=["role"],
            ),
        ],
    )


# --- replication (shared by both grains) -------------------------------------


def client_request(config: RaftConfig, state, i: int):
    """The leader appends a new entry ``(term, seq)`` to its log."""
    if state["role"][i] != LEADER:
        return None
    if state["entry_budget"] <= 0:
        return None
    seq = config.max_entries - state["entry_budget"] + 1
    entry = (state["current_term"][i], seq)
    return {
        "log": _up(state["log"], i, state["log"][i] + (entry,)),
        "entry_budget": state["entry_budget"] - 1,
    }


def replicate_log(config: RaftConfig, state, i: int, j: int):
    """Leader ``i`` overwrites follower ``j``'s log with its own.

    Full-log AppendEntries: the follower adopts the leader's term and
    log wholesale (per-entry consistency checks are abstracted away)."""
    if state["role"][i] != LEADER or not _alive(state, j):
        return None
    if not _connected(state, i, j):
        return None
    term_i = state["current_term"][i]
    if state["current_term"][j] > term_i:
        return None
    if state["role"][j] == LEADER and state["current_term"][j] == term_i:
        return None
    if (
        state["log"][j] == state["log"][i]
        and state["current_term"][j] == term_i
        and state["role"][j] == FOLLOWER
    ):
        return None  # no-op: already in sync
    return {
        "role": _up(state["role"], j, FOLLOWER),
        "current_term": _up(state["current_term"], j, term_i),
        "log": _up(state["log"], j, state["log"][i]),
    }


def leader_advance_commit(config: RaftConfig, state, i: int):
    """The leader advances its commit index to the largest quorum-
    replicated index whose entry is from its own term (Raft §5.4.2)."""
    if state["role"][i] != LEADER:
        return None
    log_i = state["log"][i]
    term_i = state["current_term"][i]
    best = None
    for k in range(state["commit_index"][i] + 1, len(log_i) + 1):
        if log_i[k - 1][0] != term_i:
            continue
        matched = sum(
            1
            for j in config.servers
            if state["log"][j][:k] == log_i[:k]
        )
        if matched >= config.quorum_size:
            best = k
    if best is None:
        return None
    return {"commit_index": _up(state["commit_index"], i, best)}


def follower_learn_commit(config: RaftConfig, state, j: int, i: int):
    """Follower ``j`` learns the leader's commit index, clamped to its
    own log length (the clamp the buggy implementation forgets)."""
    if state["role"][i] != LEADER or state["role"][j] != FOLLOWER:
        return None
    if not _connected(state, i, j):
        return None
    if state["current_term"][j] != state["current_term"][i]:
        return None
    target = min(state["commit_index"][i], len(state["log"][j]))
    if state["log"][j][:target] != state["log"][i][:target]:
        return None
    if target <= state["commit_index"][j]:
        return None
    return {"commit_index": _up(state["commit_index"], j, target)}


def replication_module(config: RaftConfig) -> Module:
    """Client requests, full-log replication and commit propagation."""
    servers = {"i": lambda cfg: cfg.servers}
    ordered_pairs = lambda cfg: [  # noqa: E731
        (a, b) for a in cfg.servers for b in cfg.servers if a != b
    ]
    return Module(
        "RaftReplication",
        [
            Action(
                "ClientRequest",
                client_request,
                params=servers,
                reads=["role", "current_term", "log", "entry_budget"],
                writes=["log", "entry_budget"],
            ),
            Action(
                "ReplicateLog",
                lambda cfg, s, pair: replicate_log(cfg, s, pair[0], pair[1]),
                params={"pair": ordered_pairs},
                reads=["role", "current_term", "log", "disconnected"],
                writes=["role", "current_term", "log"],
            ),
            Action(
                "LeaderAdvanceCommit",
                leader_advance_commit,
                params=servers,
                reads=["role", "current_term", "log", "commit_index"],
                writes=["commit_index"],
            ),
            Action(
                "FollowerLearnCommit",
                lambda cfg, s, pair: follower_learn_commit(
                    cfg, s, pair[0], pair[1]
                ),
                params={"pair": ordered_pairs},
                reads=[
                    "role",
                    "current_term",
                    "log",
                    "commit_index",
                    "disconnected",
                ],
                writes=["commit_index"],
            ),
        ],
    )


# --- faults ------------------------------------------------------------------


def node_crash(config: RaftConfig, state, i: int):
    """A server halts; volatile vote tallies are lost immediately."""
    if not _alive(state, i):
        return None
    if state["crash_budget"] <= 0:
        return None
    return {
        "role": _up(state["role"], i, DOWN),
        "votes": _up(state["votes"], i, frozenset()),
        "crash_budget": state["crash_budget"] - 1,
    }


def node_restart(config: RaftConfig, state, i: int):
    """A crashed server rejoins as a follower.

    Durable state (term, vote, log) survives; the volatile
    ``commit_index`` resets to 0 -- the behaviour the buggy
    implementation gets wrong in two ways (non-durable vote, retained
    commit index)."""
    if state["role"][i] != DOWN:
        return None
    return {
        "role": _up(state["role"], i, FOLLOWER),
        "commit_index": _up(state["commit_index"], i, 0),
        "votes": _up(state["votes"], i, frozenset()),
    }


def partition_start(config: RaftConfig, state, i: int, j: int):
    """Disconnect a live pair of servers."""
    if state["partition_budget"] <= 0:
        return None
    if not _alive(state, i) or not _alive(state, j):
        return None
    pair = frozenset((i, j))
    if pair in state["disconnected"]:
        return None
    return {
        "disconnected": state["disconnected"] | {pair},
        "partition_budget": state["partition_budget"] - 1,
    }


def partition_heal(config: RaftConfig, state, i: int, j: int):
    """Reconnect a partitioned pair."""
    pair = frozenset((i, j))
    if pair not in state["disconnected"]:
        return None
    return {"disconnected": state["disconnected"] - {pair}}


def faults_module(config: RaftConfig) -> Module:
    """Crash, restart, partition and heal, under the config's budgets."""
    servers = {"i": lambda cfg: cfg.servers}
    unordered = {
        "pair": lambda cfg: [
            (a, b) for a in cfg.servers for b in cfg.servers if a < b
        ]
    }
    unpack = lambda fn: (  # noqa: E731
        lambda cfg, s, pair: fn(cfg, s, pair[0], pair[1])
    )
    return Module(
        "RaftFaults",
        [
            Action(
                "NodeCrash",
                node_crash,
                params=servers,
                reads=["role", "votes", "crash_budget"],
                writes=["role", "votes", "crash_budget"],
            ),
            Action(
                "NodeRestart",
                node_restart,
                params=servers,
                reads=["role", "commit_index", "votes"],
                writes=["role", "commit_index", "votes"],
            ),
            Action(
                "PartitionStart",
                unpack(partition_start),
                params=unordered,
                reads=["role", "disconnected", "partition_budget"],
                writes=["disconnected", "partition_budget"],
            ),
            Action(
                "PartitionHeal",
                unpack(partition_heal),
                params=unordered,
                reads=["disconnected"],
                writes=["disconnected"],
            ),
        ],
    )


# --- invariants --------------------------------------------------------------


def election_safety(config: RaftConfig, state) -> bool:
    """R-1: at most one leader per term."""
    seen = set()
    for i in config.servers:
        if state["role"][i] != LEADER:
            continue
        term = state["current_term"][i]
        if term in seen:
            return False
        seen.add(term)
    return True


def log_matching(config: RaftConfig, state) -> bool:
    """R-2: entries equal at an index imply equal prefixes up to it."""
    for i in config.servers:
        for j in config.servers:
            if i >= j:
                continue
            log_i, log_j = state["log"][i], state["log"][j]
            for k in range(min(len(log_i), len(log_j)) - 1, -1, -1):
                if log_i[k] == log_j[k]:
                    if log_i[: k + 1] != log_j[: k + 1]:
                        return False
                    break
    return True


def commit_safety(config: RaftConfig, state) -> bool:
    """R-3: commit indices stay within logs and committed prefixes agree
    across servers."""
    for i in config.servers:
        if state["commit_index"][i] > len(state["log"][i]):
            return False
    for i in config.servers:
        for j in config.servers:
            if i >= j:
                continue
            k = min(state["commit_index"][i], state["commit_index"][j])
            if state["log"][i][:k] != state["log"][j][:k]:
                return False
    return True


INVARIANTS = (
    Invariant(
        "R-1",
        "ElectionSafety",
        election_safety,
        reads=frozenset({"role", "current_term"}),
    ),
    Invariant("R-2", "LogMatching", log_matching, reads=frozenset({"log"})),
    Invariant(
        "R-3",
        "CommitSafety",
        commit_safety,
        reads=frozenset({"commit_index", "log"}),
    ),
)


#: Grain name -> election module factory; replication and faults are
#: shared by every grain.
GRAIN_ELECTIONS = {
    "raft-coarse": coarse_election_module,
    "raft-fine": fine_election_module,
}


def make_spec(name: str, config: Optional[RaftConfig] = None):
    """Compose the Raft specification for one grain.

    ``name`` is ``"raft-coarse"`` or ``"raft-fine"``; raises ``KeyError``
    for anything else."""
    if name not in GRAIN_ELECTIONS:
        raise KeyError(
            f"unknown or unmappable grain {name!r}; "
            f"options: {sorted(GRAIN_ELECTIONS)}"
        )
    config = config or RaftConfig()
    modules = [
        GRAIN_ELECTIONS[name](config),
        replication_module(config),
        faults_module(config),
    ]
    return compose(name, SCHEMA, init, modules, INVARIANTS, config)
