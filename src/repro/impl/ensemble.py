"""The simulated ZooKeeper ensemble: nodes + network + fault injection.

The ensemble exposes the composite operations that coarse model actions
map to (``run_election`` for ElectionAndDiscovery -- the coordinator
"sets the messages that vote for the target leader with higher priority",
§3.5.3) and the per-node fault operations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.impl.network import Network
from repro.impl.node import ZkNode
from repro.zookeeper import constants as C
from repro.zookeeper.config import SpecVariant


class Ensemble:
    """A cluster of :class:`ZkNode` over a simulated network."""

    def __init__(
        self,
        n_servers: int = 3,
        variant: Optional[SpecVariant] = None,
        divergence: str = "",
        max_msg_faults: int = 0,
    ):
        self.n = n_servers
        self.variant = variant or SpecVariant()
        self.network = Network(n_servers)
        self.nodes: List[ZkNode] = [
            ZkNode(i, n_servers, self.network, self.variant, divergence)
            for i in range(n_servers)
        ]
        self.next_value = 1
        # Shared delay/duplication allowance, mirroring the model's
        # msg_fault_budget -- the injector refusing further faults keeps
        # lockstep validation inside the model's state space.
        self.msg_fault_budget = max_msg_faults

    def clone(self) -> "Ensemble":
        """An independent copy (the shrinker judges every candidate on
        one): the network and nodes are cloned and every cloned node
        talks to the *cloned* network."""
        twin = Ensemble.__new__(Ensemble)
        twin.n = self.n
        twin.variant = self.variant
        twin.network = self.network.clone()
        twin.nodes = [node.clone(twin.network) for node in self.nodes]
        twin.next_value = self.next_value
        twin.msg_fault_budget = self.msg_fault_budget
        return twin

    # --- composite election (coarse ElectionAndDiscovery mapping) -----------

    def run_election(self, leader: int, quorum: Sequence[int]) -> bool:
        """Deterministically run FLE + Discovery so that ``leader`` wins
        within ``quorum``.  Refuses when the outcome is impossible (the
        target's credentials are not maximal), which the conformance
        checker reports as an action that never takes place."""
        members = set(quorum)
        if leader not in members:
            return False
        for j in members:
            if self.nodes[j].state != C.LOOKING:
                return False
        creds = lambda j: (
            self.nodes[j].current_epoch,
            self.nodes[j].last_zxid(),
            j,
        )
        if any(creds(j) > creds(leader) for j in members):
            return False
        new_epoch = max(self.nodes[j].accepted_epoch for j in members) + 1
        for a in members:
            for b in members:
                if a < b:
                    self.network.clear_pair(a, b)
        self.nodes[leader].become_leader(members, new_epoch)
        for j in members:
            if j != leader:
                self.nodes[j].become_follower(leader, new_epoch)
                # Discovery: the leader learns the follower's credentials.
                self.nodes[leader].ackepoch_recv.add(
                    (j, self.nodes[j].current_epoch, self.nodes[j].last_zxid())
                )
        return True

    # --- faults -----------------------------------------------------------------

    def crash(self, i: int) -> bool:
        if self.nodes[i].state == C.DOWN:
            return False
        self.nodes[i].crash()
        self.network.mark_down(i)
        return True

    def restart(self, i: int) -> bool:
        if not self.nodes[i].restart():
            return False
        self.network.mark_up(i)
        return True

    def partition(self, i: int, j: int) -> bool:
        import builtins
        pair = builtins.frozenset((i, j))
        if pair in self.network.disconnected:
            return False
        self.network.partition(i, j)
        return True

    def heal(self, i: int, j: int) -> bool:
        import builtins
        pair = builtins.frozenset((i, j))
        if pair not in self.network.disconnected:
            return False
        self.network.heal(i, j)
        return True

    def follower_shutdown(self, i: int) -> bool:
        node = self.nodes[i]
        if node.state != C.FOLLOWING:
            return False
        leader = node.my_leader
        gone = (
            leader < 0
            or self.nodes[leader].state != C.LEADING
            or not self.network.connected(i, leader)
            or self.nodes[leader].accepted_epoch != node.accepted_epoch
        )
        if not gone:
            return False
        node.shutdown_to_election()
        return True

    def leader_shutdown(self, i: int) -> bool:
        node = self.nodes[i]
        if node.state != C.LEADING:
            return False
        reachable = 1 + sum(
            1
            for j in range(self.n)
            if j != i
            and self.nodes[j].state == C.FOLLOWING
            and self.nodes[j].my_leader == i
            and self.network.connected(i, j)
        )
        if reachable >= self.n // 2 + 1:
            return False
        node.shutdown_to_election()
        return True

    def discard_stale(self, i: int, j: int) -> bool:
        """Drop the head of channel j->i when the receiver can no longer
        handle it (mirrors the model's DiscardStaleMessage guards)."""
        msg = self.network.peek(j, i)
        node = self.nodes[i]
        if msg is None or node.state == C.DOWN:
            return False
        mtype = msg.mtype
        stale = False
        if mtype == C.FOLLOWERINFO and node.state != C.LEADING:
            stale = True
        elif mtype in (C.ACKEPOCH, C.ACK, C.ACK_UPTODATE) and node.state != C.LEADING:
            stale = True
        elif mtype in (C.ACK, C.ACK_UPTODATE) and not any(
            e[0] == j for e in node.ackepoch_recv
        ):
            stale = True
        elif mtype in (
            C.LEADERINFO,
            C.DIFF,
            C.TRUNC,
            C.SNAP,
            C.NEWLEADER,
            C.UPTODATE,
            C.PROPOSAL,
            C.COMMIT,
        ) and node.my_leader != j:
            stale = True
        if not stale:
            return False
        self.network.recv(j, i)
        return True

    def delay_message(self, i: int, j: int) -> bool:
        """Delay the head of channel j->i behind the traffic after it
        (the pair convention of :meth:`discard_stale`: the receiver
        first, then the sender)."""
        if self.msg_fault_budget <= 0 or not self.network.delay(j, i):
            return False
        self.msg_fault_budget -= 1
        return True

    def duplicate_message(self, i: int, j: int) -> bool:
        """Re-deliver the head of channel j->i at the channel's tail."""
        if self.msg_fault_budget <= 0 or not self.network.duplicate(j, i):
            return False
        self.msg_fault_budget -= 1
        return True

    # --- client traffic ------------------------------------------------------------

    def client_request(self, leader: int) -> bool:
        ok = self.nodes[leader].leader_propose(self.next_value)
        if ok:
            self.next_value += 1
        return ok

    # --- state extraction -------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The model-shaped global state (per-variable tuples indexed by
        server id) used for conformance comparison."""
        views = [node.snapshot() for node in self.nodes]
        return {
            variable: tuple(view[variable] for view in views)
            for variable in views[0]
        }
