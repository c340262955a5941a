"""A deterministic toy Raft implementation (the conformance target).

:class:`RaftEnsemble` mirrors the model of :mod:`repro.raft.spec` --
same roles, terms, full-log replication, quorum commit -- except for
three planted bugs controlled by :class:`repro.raft.config.RaftVariant`:

1. ``durable_vote=False``: ``votedFor`` is not persisted, so a restarted
   server forgets its vote while the model remembers it;
2. ``reset_commit_on_restart=False``: the volatile ``commitIndex``
   survives restarts, while the model resets it to 0;
3. ``clamp_commit=False``: a follower copies the leader's commit index
   verbatim and raises :class:`CommitAheadError` when it points past its
   own log, while the model clamps.

Every step method returns ``True``/``False`` for executed/stuck, the
contract :class:`repro.remix.mapping.MappedAction` steps follow -- and
checks every guard before its first write, so a stuck step has changed
nothing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.raft.config import RaftVariant
from repro.system.plugin import ImplError

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"
DOWN = "down"
NO_VOTE = -1
#: The variables of :meth:`RaftEnsemble.snapshot`, in its order.
SNAPSHOT_VARIABLES = ("role", "current_term", "voted_for", "log", "commit_index")


class RaftImplError(ImplError):
    """Base class for toy-Raft implementation failures."""


class CommitAheadError(RaftImplError):
    """A follower's commit index was advanced past the end of its log
    (the unclamped learn-commit path)."""

    bug_id = "RAFT-103"


class RaftNode:
    """One server's state; durable and volatile fields mirror the model."""

    def __init__(self, sid: int):
        """A fresh follower at term 0 with an empty log."""
        self.sid = sid
        self.role = FOLLOWER
        self.current_term = 0
        self.voted_for = NO_VOTE
        self.log: List[Tuple[int, int]] = []
        self.commit_index = 0
        self.votes: Set[int] = set()

    def clone(self) -> "RaftNode":
        """An independent copy: fresh log list and vote set (log entries
        are immutable tuples and shared)."""
        twin = RaftNode.__new__(RaftNode)
        twin.__dict__.update(self.__dict__)
        twin.log = list(self.log)
        twin.votes = set(self.votes)
        return twin


class RaftEnsemble:
    """A cluster of :class:`RaftNode` driven one step at a time."""

    def __init__(self, n_servers: int = 3, variant: Optional[RaftVariant] = None):
        """Fresh nodes, fully connected; ``variant`` defaults to buggy."""
        self.variant = variant or RaftVariant()
        self.nodes = [RaftNode(i) for i in range(n_servers)]
        self.disconnected: Set[frozenset] = set()
        self.entries_issued = 0

    # --- helpers -------------------------------------------------------------

    @property
    def n_servers(self) -> int:
        """Cluster size."""
        return len(self.nodes)

    @property
    def quorum_size(self) -> int:
        """Majority threshold."""
        return self.n_servers // 2 + 1

    def alive(self, i: int) -> bool:
        """True while ``i`` is not crashed."""
        return self.nodes[i].role != DOWN

    def connected(self, i: int, j: int) -> bool:
        """True unless the ``{i, j}`` link is partitioned."""
        return frozenset((i, j)) not in self.disconnected

    @staticmethod
    def _log_key(log: List[Tuple[int, int]]) -> Tuple[int, int]:
        last_term = log[-1][0] if log else 0
        return (last_term, len(log))

    def _up_to_date(self, i: int, j: int) -> bool:
        return self._log_key(self.nodes[i].log) >= self._log_key(self.nodes[j].log)

    def snapshot(self) -> Dict[str, Tuple]:
        """Per-variable tuples in the model's encodings, for comparison
        against the spec state after each mapped step."""
        rows = [
            (
                node.role,
                node.current_term,
                node.voted_for,
                tuple(node.log),
                node.commit_index,
            )
            for node in self.nodes
        ]
        return dict(zip(SNAPSHOT_VARIABLES, zip(*rows)))

    # --- election ------------------------------------------------------------

    def run_election(self, i: int, quorum: Iterable[int]) -> bool:
        """Coarse election: ``i`` wins a new term within ``quorum``."""
        members = set(quorum)
        if i not in members or len(members) < self.quorum_size:
            return False
        for j in members:
            if not self.alive(j):
                return False
            if j != i and not self.connected(i, j):
                return False
        for j in members:
            if not self._up_to_date(i, j):
                return False
        new_term = max(self.nodes[j].current_term for j in members) + 1
        for j in members:
            node = self.nodes[j]
            node.current_term = new_term
            node.voted_for = i
            node.role = LEADER if j == i else FOLLOWER
            node.votes = set(members) if j == i else set()
        return True

    def become_candidate(self, i: int) -> bool:
        """A follower (or retrying candidate) starts a new term."""
        node = self.nodes[i]
        if node.role not in (FOLLOWER, CANDIDATE):
            return False
        node.role = CANDIDATE
        node.current_term += 1
        node.voted_for = i
        node.votes = {i}
        return True

    def grant_vote(self, j: int, i: int) -> bool:
        """Voter ``j`` grants its vote to candidate ``i``."""
        voter, candidate = self.nodes[j], self.nodes[i]
        if not self.alive(i) or not self.alive(j):
            return False
        if not self.connected(i, j):
            return False
        if candidate.role != CANDIDATE or j in candidate.votes:
            return False
        if voter.current_term > candidate.current_term:
            return False
        if voter.current_term == candidate.current_term and voter.voted_for not in (
            NO_VOTE,
            i,
        ):
            return False
        if not self._up_to_date(i, j):
            return False
        voter.role = FOLLOWER
        voter.current_term = candidate.current_term
        voter.voted_for = i
        voter.votes = set()
        candidate.votes.add(j)
        return True

    def become_leader(self, i: int) -> bool:
        """A candidate with a quorum of votes takes leadership."""
        node = self.nodes[i]
        if node.role != CANDIDATE or len(node.votes) < self.quorum_size:
            return False
        node.role = LEADER
        return True

    # --- replication ---------------------------------------------------------

    def client_request(self, i: int) -> bool:
        """The leader appends a new ``(term, seq)`` entry."""
        node = self.nodes[i]
        if node.role != LEADER:
            return False
        self.entries_issued += 1
        node.log.append((node.current_term, self.entries_issued))
        return True

    def replicate_log(self, i: int, j: int) -> bool:
        """Leader ``i`` overwrites follower ``j``'s log with its own."""
        leader, follower = self.nodes[i], self.nodes[j]
        if leader.role != LEADER or not self.alive(j):
            return False
        if not self.connected(i, j):
            return False
        if follower.current_term > leader.current_term:
            return False
        if (
            follower.role == LEADER
            and follower.current_term == leader.current_term
        ):
            return False
        if (
            follower.log == leader.log
            and follower.current_term == leader.current_term
            and follower.role == FOLLOWER
        ):
            return False  # no-op: already in sync
        follower.role = FOLLOWER
        follower.current_term = leader.current_term
        follower.log = list(leader.log)
        return True

    def leader_advance_commit(self, i: int) -> bool:
        """The leader advances its commit index over quorum-replicated
        current-term entries."""
        node = self.nodes[i]
        if node.role != LEADER:
            return False
        best = None
        for k in range(node.commit_index + 1, len(node.log) + 1):
            if node.log[k - 1][0] != node.current_term:
                continue
            matched = sum(
                1
                for peer in self.nodes
                if peer.log[:k] == node.log[:k]
            )
            if matched >= self.quorum_size:
                best = k
        if best is None:
            return False
        node.commit_index = best
        return True

    def follower_learn_commit(self, j: int, i: int) -> bool:
        """Follower ``j`` adopts the leader's commit index.

        The fixed build clamps to the local log length; the buggy build
        copies the index verbatim and raises :class:`CommitAheadError`
        when it points past the end of the log."""
        leader, follower = self.nodes[i], self.nodes[j]
        if leader.role != LEADER or follower.role != FOLLOWER:
            return False
        if not self.connected(i, j):
            return False
        if follower.current_term != leader.current_term:
            return False
        clamped = min(leader.commit_index, len(follower.log))
        if follower.log[:clamped] != leader.log[:clamped]:
            return False
        if self.variant.clamp_commit:
            target = clamped
        else:
            target = leader.commit_index
        if target <= follower.commit_index:
            return False
        if target > len(follower.log):
            raise CommitAheadError(
                f"server {j} commit index {target} beyond log length "
                f"{len(follower.log)}"
            )
        follower.commit_index = target
        return True

    # --- faults --------------------------------------------------------------

    def node_crash(self, i: int) -> bool:
        """Halt a live server; volatile vote tallies are lost."""
        node = self.nodes[i]
        if node.role == DOWN:
            return False
        node.role = DOWN
        node.votes = set()
        return True

    def node_restart(self, i: int) -> bool:
        """Restart a crashed server -- where two planted bugs live."""
        node = self.nodes[i]
        if node.role != DOWN:
            return False
        node.role = FOLLOWER
        node.votes = set()
        if not self.variant.durable_vote:
            node.voted_for = NO_VOTE  # bug 1: the vote was never persisted
        if self.variant.reset_commit_on_restart:
            node.commit_index = 0
        # bug 2 (default): the stale volatile commit index survives
        return True

    def partition_start(self, i: int, j: int) -> bool:
        """Disconnect a live pair."""
        pair = frozenset((i, j))
        if pair in self.disconnected:
            return False
        if not self.alive(i) or not self.alive(j):
            return False
        self.disconnected.add(pair)
        return True

    def partition_heal(self, i: int, j: int) -> bool:
        """Reconnect a partitioned pair."""
        pair = frozenset((i, j))
        if pair not in self.disconnected:
            return False
        self.disconnected.remove(pair)
        return True

    def clone(self) -> "RaftEnsemble":
        """An independent copy (the shrinker judges each candidate on
        one)."""
        twin = RaftEnsemble.__new__(RaftEnsemble)
        twin.variant = self.variant
        twin.nodes = [node.clone() for node in self.nodes]
        twin.disconnected = set(self.disconnected)
        twin.entries_issued = self.entries_issued
        return twin
