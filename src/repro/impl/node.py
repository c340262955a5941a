"""A ZooKeeper server process, imperatively implemented.

This mirrors the structure of the Java implementation the paper verifies:
a QuorumPeer that follows the Zab phases, a Learner performing
DIFF/TRUNC/SNAP synchronization, a leader with per-learner handlers, and
the SyncRequestProcessor / CommitProcessor worker threads with their
queues.  The six paper bugs are present exactly when the corresponding
:class:`repro.zookeeper.config.SpecVariant` knob is off.

Each public ``step_*``/``handle_*`` method corresponds to one model-level
action of the fine-grained specification; the Remix coordinator maps
action labels onto these methods for deterministic replay (§3.5.3).
Methods return True when the step executed and False when it is not
enabled -- the coordinator uses that to detect "an action whose code-level
counterpart never takes place" (§3.5.2).  A method that returns False has
changed nothing: guards first, composite regions included (the bottom-up
explorer steps the live ensemble and relies on it; lint rule C09).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.impl.exceptions import (
    CommitOrderError,
    NullPointerException,
    SyncAssertionError,
    UnrecognizedAckError,
)
from repro.impl.network import Network
from repro.tla.values import Rec, Txn, Zxid, ZXID_ZERO
from repro.zookeeper import constants as C
from repro.zookeeper.config import SpecVariant

#: The per-server variables of the model-shaped state, in the order
#: :meth:`ZkNode.snapshot` lists their values.
SNAPSHOT_VARIABLES = (
    "state",
    "zab_state",
    "accepted_epoch",
    "current_epoch",
    "history",
    "last_committed",
    "my_leader",
    "newleader_recv",
    "queued_requests",
    "committed_requests",
)


class QueueEntry:
    """queuedRequests entry: request plus the connection session that
    enqueued it (the ACK path dies with the session)."""

    __slots__ = ("txn", "epoch")

    def __init__(self, txn: Txn, epoch: int):
        self.txn = txn
        self.epoch = epoch


class ZkNode:
    """One server of the ensemble."""

    def __init__(
        self,
        sid: int,
        n_servers: int,
        network: Network,
        variant: SpecVariant,
        divergence: str = "",
    ):
        self.sid = sid
        self.n = n_servers
        self.network = network
        self.variant = variant
        # ``divergence`` injects a deliberate model-code discrepancy used
        # to exercise the conformance checker (see tests): one of
        # "", "skip_epoch_update", "eager_broadcast", "wrong_ack_zxid".
        self.divergence = divergence

        # durable state (survives crash)
        self.history: List[Txn] = []
        self.accepted_epoch = 0
        self.current_epoch = 0
        self.last_committed = 0

        # volatile state
        self.state = C.LOOKING
        self.zab_state = C.ELECTION
        self.my_leader = -1
        self.packets_not_committed: List[Txn] = []
        self.packets_committed: List[Zxid] = []
        self.sync_mode = ""
        self.newleader_recv = False
        self.queued_requests: List[QueueEntry] = []
        self.committed_requests: List[Zxid] = []
        # leader-side
        self.ackepoch_recv: Set[Tuple[int, int, Zxid]] = set()
        self.synced_sent: Set[Tuple[int, Zxid]] = set()
        self.newleader_acks: Set[int] = set()
        self.uptodate_sent: Set[int] = set()
        self.proposal_acks: List[Tuple[Zxid, Set[int]]] = []
        self.established_initial_len: Optional[int] = None

    def clone(self, network: Network) -> "ZkNode":
        """An independent copy of this server attached to ``network``
        (the clone of the network this server talks to).

        Every mutable container gets a fresh copy; scalars and the
        immutable values inside the containers (``Txn``/``Zxid``/``Rec``,
        the frozen variant) are shared.  A mutable field added to
        ``__init__`` must be copied here too -- ``clone_defects`` in the
        tests and lint rule C08 fail on a field left shared."""
        twin = ZkNode.__new__(ZkNode)
        twin.__dict__.update(self.__dict__)
        twin.network = network
        twin.history = list(self.history)
        twin.packets_not_committed = list(self.packets_not_committed)
        twin.packets_committed = list(self.packets_committed)
        twin.queued_requests = [
            QueueEntry(e.txn, e.epoch) for e in self.queued_requests
        ]
        twin.committed_requests = list(self.committed_requests)
        twin.ackepoch_recv = set(self.ackepoch_recv)
        twin.synced_sent = set(self.synced_sent)
        twin.newleader_acks = set(self.newleader_acks)
        twin.uptodate_sent = set(self.uptodate_sent)
        twin.proposal_acks = [
            (zxid, set(ackers)) for zxid, ackers in self.proposal_acks
        ]
        return twin

    # --- helpers -------------------------------------------------------------

    def last_zxid(self) -> Zxid:
        return self.history[-1].zxid if self.history else ZXID_ZERO

    def is_quorum(self, members) -> bool:
        return len(set(members)) >= self.n // 2 + 1

    def _reset_volatile(self, keep_queue: bool):
        self.my_leader = -1
        self.packets_not_committed = []
        self.packets_committed = []
        self.sync_mode = ""
        self.newleader_recv = False
        self.committed_requests = []
        self.ackepoch_recv = set()
        self.synced_sent = set()
        self.newleader_acks = set()
        self.uptodate_sent = set()
        self.proposal_acks = []
        self.established_initial_len = None
        if not keep_queue:
            self.queued_requests = []

    # --- lifecycle -------------------------------------------------------------

    def crash(self):
        self._reset_volatile(keep_queue=False)
        self.state = C.DOWN
        self.zab_state = C.ELECTION

    def restart(self) -> bool:
        if self.state != C.DOWN:
            return False
        self.state = C.LOOKING
        self.zab_state = C.ELECTION
        return True

    def shutdown_to_election(self):
        """Follower/leader shutdown back to LOOKING.  Without the ZK-4712
        fix the SyncRequestProcessor queue survives."""
        keep_queue = not self.variant.fix_follower_shutdown
        self._reset_volatile(keep_queue=keep_queue)
        self.state = C.LOOKING
        self.zab_state = C.ELECTION

    # --- coarse election + discovery (mapped from ElectionAndDiscovery) -------

    def become_leader(self, quorum, new_epoch: int):
        self.state = C.LEADING
        self.zab_state = C.SYNCHRONIZATION
        self.my_leader = self.sid
        self.accepted_epoch = new_epoch
        self.current_epoch = new_epoch
        self.synced_sent = set()
        self.newleader_acks = set()
        self.uptodate_sent = set()
        self.proposal_acks = []
        self.established_initial_len = None

    def become_follower(self, leader: int, new_epoch: int):
        self.state = C.FOLLOWING
        self.zab_state = C.SYNCHRONIZATION
        self.my_leader = leader
        self.accepted_epoch = new_epoch
        self.packets_not_committed = []
        self.packets_committed = []
        self.sync_mode = ""
        self.newleader_recv = False

    # --- leader: synchronization ------------------------------------------------

    def leader_sync_follower(self, j: int) -> bool:
        if self.state != C.LEADING:
            return False
        entry = next((e for e in self.ackepoch_recv if e[0] == j), None)
        if entry is None or any(f == j for f, _ in self.synced_sent):
            return False
        if not self.network.connected(self.sid, j):
            return False  # the learner's connection is gone
        zx = entry[2]
        history = tuple(self.history)
        zxids = tuple(t.zxid for t in history)
        if zx == self.last_zxid():
            mode, payload = C.DIFF, ()
        elif zx in zxids:
            mode, payload = C.DIFF, history[zxids.index(zx) + 1 :]
        elif zx == ZXID_ZERO:
            mode, payload = (C.SNAP, history) if history else (C.DIFF, ())
        elif zx > self.last_zxid():
            mode, payload = C.TRUNC, ()
        else:
            mode, payload = C.SNAP, history
        if mode == C.SNAP:
            committed = zxids[: self.last_committed]
        elif mode == C.DIFF and payload:
            start = len(history) - len(payload)
            committed = zxids[start : self.last_committed]
        else:
            committed = ()
        nl_zxid = self.last_zxid()
        self.network.send(
            self.sid,
            j,
            Rec(mtype=mode, txns=payload, trunc_to=nl_zxid, committed=tuple(committed)),
            Rec(mtype=C.NEWLEADER, epoch=self.accepted_epoch, zxid=nl_zxid),
        )
        self.synced_sent.add((j, nl_zxid))
        return True

    def _newleader_zxid_for(self, j: int) -> Optional[Zxid]:
        for follower, zxid in self.synced_sent:
            if follower == j:
                return zxid
        return None

    def is_newleader_ack(self, j: int, msg: Rec) -> bool:
        """True when ``msg``, an ACK from ``j``, acknowledges the
        NEWLEADER this leader sent it (and not a later proposal)."""
        expected = self._newleader_zxid_for(j)
        return (
            expected is not None
            and msg.zxid == expected
            and j not in self.newleader_acks
        )

    def visible_head(self, j: int) -> Optional[Rec]:
        """The head of channel ``j`` -> self as the baseline
        specification sees it: past the ACKs of UPTODATE it does not
        model (§2.2.3)."""
        for msg in self.network.channels[(j, self.sid)]:
            if msg.mtype != C.ACK_UPTODATE:
                return msg
        return None

    def _takes_acks_from(self, j: int) -> bool:
        return self.state == C.LEADING and any(
            e[0] == j for e in self.ackepoch_recv
        )

    def leader_process_ack(self, j: int) -> bool:
        """Leader.processAck: dispatches NEWLEADER ACKs, UPTODATE ACKs and
        txn ACKs; raises the ZK-4685 / ZK-3023 symptoms."""
        msg = self.network.peek(j, self.sid)
        if msg is None or not self._takes_acks_from(j):
            return False
        if msg.mtype == C.ACK_UPTODATE:
            self.network.recv(j, self.sid)
            initial_len = self.established_initial_len or 0
            follower_committed = msg.zxid  # commit count echoed back
            if follower_committed < initial_len:
                raise SyncAssertionError(
                    f"follower {j} acked UPTODATE with commit count "
                    f"{follower_committed} < initial history {initial_len}"
                )
            return True
        if msg.mtype != C.ACK:
            return False
        if self.is_newleader_ack(j, msg):
            return self._process_ackld(j, msg)
        self.network.recv(j, self.sid)
        if j not in self.newleader_acks:
            raise UnrecognizedAckError(
                f"leader {self.sid} got ACK {msg.zxid} from {j} while "
                f"waiting for its NEWLEADER ACK"
            )
        return self._process_txn_ack(j, msg)

    def _process_ackld(self, j: int, msg: Rec) -> bool:
        self.network.recv(j, self.sid)
        self.newleader_acks.add(j)
        if self.zab_state == C.SYNCHRONIZATION:
            if self.is_quorum(self.newleader_acks | {self.sid}):
                self._establish()
        else:
            self.network.send(
                self.sid,
                j,
                Rec(mtype=C.UPTODATE, commit_count=self.last_committed),
            )
            self.uptodate_sent.add(j)
        return True

    def _establish(self):
        self.zab_state = C.BROADCAST
        newly = self.history[self.last_committed :]
        self.last_committed = len(self.history)
        self.established_initial_len = len(self.history)
        commits = [Rec(mtype=C.COMMIT, zxid=t.zxid) for t in newly]
        for follower, _ in self.synced_sent:
            if commits:
                self.network.send(self.sid, follower, *commits)
        uptodate = Rec(mtype=C.UPTODATE, commit_count=len(self.history))
        for follower in self.newleader_acks:
            self.network.send(self.sid, follower, uptodate)
            self.uptodate_sent.add(follower)

    def _process_txn_ack(self, j: int, msg: Rec) -> bool:
        zxids = [t.zxid for t in self.history]
        idx = zxids.index(msg.zxid) if msg.zxid in zxids else -1
        if 0 <= idx < self.last_committed:
            return True  # duplicate ACK of a committed txn
        entry = next(
            (k for k, (z, _) in enumerate(self.proposal_acks) if z == msg.zxid),
            None,
        )
        if entry is None:
            raise UnrecognizedAckError(
                f"leader {self.sid}: ACK for unknown proposal {msg.zxid}"
            )
        zxid, ackers = self.proposal_acks[entry]
        ackers.add(j)
        if self.is_quorum(ackers) and idx == self.last_committed:
            del self.proposal_acks[entry]
            self.last_committed += 1
            commit = Rec(mtype=C.COMMIT, zxid=zxid)
            for follower, _ in self.synced_sent:
                self.network.send(self.sid, follower, commit)
        return True

    # --- leader: broadcast ---------------------------------------------------------

    def leader_propose(self, value: int) -> bool:
        if self.state != C.LEADING or self.zab_state != C.BROADCAST:
            return False
        counters = [
            t.zxid.counter
            for t in self.history
            if t.zxid.epoch == self.current_epoch
        ]
        zxid = Zxid(self.current_epoch, max(counters) + 1 if counters else 1)
        txn = Txn(zxid, value)
        self.history.append(txn)
        self.proposal_acks.append((zxid, {self.sid}))
        for follower, _ in self.synced_sent:
            self.network.send(self.sid, follower, Rec(mtype=C.PROPOSAL, txn=txn))
        return True

    # --- follower: synchronization ---------------------------------------------------

    def follower_process_sync_message(self, j: int) -> bool:
        msg = self.network.peek(j, self.sid)
        if msg is None or msg.mtype not in C.SYNC_MODES:
            return False
        if self.my_leader != j or self.zab_state != C.SYNCHRONIZATION:
            return False
        self.network.recv(j, self.sid)
        self.sync_mode = msg.mtype
        if msg.mtype == C.DIFF:
            self.packets_not_committed = list(msg.txns)
            self.packets_committed = list(msg.committed)
        elif msg.mtype == C.TRUNC:
            if msg.trunc_to == ZXID_ZERO:
                self.history = []
            else:
                zxids = [t.zxid for t in self.history]
                if msg.trunc_to in zxids:
                    self.history = self.history[: zxids.index(msg.trunc_to) + 1]
            self.last_committed = min(self.last_committed, len(self.history))
        else:  # SNAP
            self.history = []
            self.last_committed = 0
            self.packets_not_committed = list(msg.txns)
            self.packets_committed = list(msg.committed)
        return True

    def _pending_newleader(self, j: int) -> Optional[Rec]:
        msg = self.network.peek(j, self.sid)
        if msg is not None and msg.mtype == C.NEWLEADER:
            return msg
        return None

    def _epoch_first(self) -> bool:
        order = self.variant.history_before_epoch
        if order == "none":
            return True
        if order == "diff_only":
            return self.sync_mode == C.SNAP
        return False

    def _log_done(self) -> bool:
        if self.packets_not_committed:
            return False
        if not self.variant.synchronous_sync_logging:
            return not self.queued_requests
        return True

    def step_update_epoch(self, j: int) -> bool:
        """FollowerProcessNEWLEADER_UpdateEpoch."""
        msg = self._pending_newleader(j)
        if msg is None or self.my_leader != j:
            return False
        if self.current_epoch == self.accepted_epoch:
            return False
        if not self._epoch_first() and not self._log_done():
            return False
        self.current_epoch = self._epoch_after_update()
        return True

    def _epoch_after_update(self) -> int:
        """What UpdateEpoch leaves in ``current_epoch``."""
        if self.divergence == "skip_epoch_update":
            return self.current_epoch  # injected discrepancy: write lost
        return self.accepted_epoch

    def step_log(self, j: int) -> bool:
        """FollowerProcessNEWLEADER_Log / _LogAsync."""
        msg = self._pending_newleader(j)
        if msg is None or self.my_leader != j or not self.packets_not_committed:
            return False
        if self._epoch_first() and self.current_epoch != self.accepted_epoch:
            return False
        if self.variant.synchronous_sync_logging:
            self.history.extend(self.packets_not_committed)
        else:
            self.queued_requests.extend(
                QueueEntry(txn, self.accepted_epoch)
                for txn in self.packets_not_committed
            )
        self.packets_not_committed = []
        return True

    def step_reply_ack(self, j: int) -> bool:
        """FollowerProcessNEWLEADER_ReplyAck."""
        msg = self._pending_newleader(j)
        if msg is None or self.my_leader != j:
            return False
        if self.current_epoch != self.accepted_epoch:
            return False
        if self.packets_not_committed:
            return False
        if self.variant.synchronous_sync_logging and self.queued_requests:
            return False
        self.network.recv(j, self.sid)
        self.newleader_recv = True
        ack_zxid = msg.zxid
        if self.divergence == "wrong_ack_zxid":
            ack_zxid = ZXID_ZERO  # injected discrepancy
        self.network.send(self.sid, j, Rec(mtype=C.ACK, zxid=ack_zxid))
        if self.divergence == "eager_broadcast":
            self.zab_state = C.BROADCAST  # injected discrepancy
        return True

    def _drain_queue_silently(self):
        """Log every queued request without acknowledging: inside the
        baseline-granularity atomic NEWLEADER region the per-txn ACKs are
        not modeled (only the single ACK of NEWLEADER is)."""
        while self.queued_requests:
            entry = self.queued_requests.pop(0)
            self.history.append(entry.txn)

    def follower_process_newleader_atomic(self, j: int) -> bool:
        """The baseline-granularity mapping: the three steps in one go.

        The region decides before it writes: once the guards below hold,
        each step's own guards hold when its turn comes, so the region
        never logs or drains and then refuses."""
        if self._pending_newleader(j) is None or self.my_leader != j:
            return False
        stale_epoch = self.current_epoch != self.accepted_epoch
        epoch_first = self._epoch_first()
        if epoch_first and not stale_epoch:
            return False  # UpdateEpoch opens the region and is not enabled
        if self._epoch_after_update() != self.accepted_epoch:
            return False  # the epoch stays stale: ReplyAck never fires
        if epoch_first:
            self.step_update_epoch(j)
        if self.packets_not_committed:
            self.step_log(j)
        self._drain_queue_silently()
        if not epoch_first:
            self.step_update_epoch(j)  # refuses, harmlessly, when current
        return self.step_reply_ack(j)

    def follower_process_proposal_in_sync(self, j: int) -> bool:
        """A PROPOSAL during synchronization is buffered in
        packetsNotCommitted (Learner.syncWithLeader)."""
        msg = self.network.peek(j, self.sid)
        if msg is None or msg.mtype != C.PROPOSAL:
            return False
        if self.my_leader != j or self.zab_state != C.SYNCHRONIZATION:
            return False
        self.network.recv(j, self.sid)
        self.packets_not_committed.append(msg.txn)
        return True

    def follower_process_uptodate_baseline(self, j: int) -> bool:
        """The baseline-granularity mapping for UPTODATE: handle the
        message, drain the logging and commit queues before returning
        (the atomic commit of the baseline specification)."""
        if not self.follower_process_uptodate(j):
            return False
        while self.queued_requests:
            if not self.sync_processor_step():
                break
        while self.committed_requests:
            if not self.commit_processor_step():
                break
        return True

    def leader_process_ack_baseline(self, j: int) -> bool:
        """The baseline-granularity mapping for the leader's ACK
        processing: the baseline specification does not model the
        follower's ACK of UPTODATE (§2.2.3), so the region silently
        consumes those before handling the visible ACK -- and leaves
        them where they are when it has no visible ACK to handle."""
        msg = self.visible_head(j)
        if msg is None or msg.mtype != C.ACK or not self._takes_acks_from(j):
            return False
        while self.network.peek(j, self.sid).mtype == C.ACK_UPTODATE:
            self.network.recv(j, self.sid)
        return self.leader_process_ack(j)

    def follower_process_commit_in_sync(self, j: int) -> bool:
        msg = self.network.peek(j, self.sid)
        if msg is None or msg.mtype != C.COMMIT:
            return False
        if self.my_leader != j or self.zab_state != C.SYNCHRONIZATION:
            return False
        self.network.recv(j, self.sid)
        if not self.newleader_recv:
            self.packets_committed.append(msg.zxid)
            return True
        if self.packets_not_committed and self.packets_not_committed[0].zxid == msg.zxid:
            txn = self.packets_not_committed.pop(0)
            if (
                self.variant.synchronous_sync_logging
                or self.variant.direct_commit_in_sync
            ):
                # direct application: with synchronous logging this is
                # safe; with asynchronous logging it races the queue
                # (ZK-4785)
                self.history.append(txn)
                if self.last_committed == len(self.history) - 1:
                    self.last_committed += 1
            else:
                # hand the matched packet to the worker threads,
                # preserving the log order
                self.queued_requests.append(
                    QueueEntry(txn, self.accepted_epoch)
                )
                self.committed_requests.append(msg.zxid)
            return True
        if self.variant.match_commit_in_sync:
            zxids = [t.zxid for t in self.history]
            if msg.zxid in zxids:
                idx = zxids.index(msg.zxid)
                if idx == self.last_committed:
                    self.last_committed += 1
                elif idx > self.last_committed:
                    self.packets_committed.append(msg.zxid)
                return True
            raise CommitOrderError(f"commit for unknown {msg.zxid}")
        raise NullPointerException(
            f"follower {self.sid}: COMMIT {msg.zxid} matches no packet "
            f"between NEWLEADER and UPTODATE"
        )

    def follower_process_commit_in_sync_atomic(self, j: int) -> bool:
        """Baseline-granularity mapping: handle an in-sync COMMIT and
        drain the worker queues as one region."""
        if not self.follower_process_commit_in_sync(j):
            return False
        self._drain_queue_silently()
        while self.committed_requests:
            if not self.commit_processor_step():
                break
        return True

    def follower_process_uptodate(self, j: int) -> bool:
        msg = self.network.peek(j, self.sid)
        if msg is None or msg.mtype != C.UPTODATE:
            return False
        if self.my_leader != j or not self.newleader_recv:
            return False
        if self.zab_state != C.SYNCHRONIZATION:
            return False
        self.network.recv(j, self.sid)
        staged = self.packets_not_committed
        self.packets_not_committed = []
        if self.variant.synchronous_sync_logging:
            self.history.extend(e.txn for e in self.queued_requests)
            self.queued_requests = []
            self.history.extend(staged)
        else:
            self.queued_requests.extend(
                QueueEntry(txn, self.accepted_epoch) for txn in staged
            )
        self.zab_state = C.BROADCAST
        if self.variant.synchronous_commit:
            target = min(len(self.history), msg.commit_count)
            self.last_committed = max(self.last_committed, target)
        else:
            synced = [t for t in self.history] + [
                e.txn for e in self.queued_requests
            ]
            for txn in synced[self.last_committed : msg.commit_count]:
                self.committed_requests.append(txn.zxid)
        # The ACK carries this follower's own committed count (what the
        # leader's ZK-3023 assertion inspects).
        self.network.send(
            self.sid, j, Rec(mtype=C.ACK_UPTODATE, zxid=self.last_committed)
        )
        self.packets_committed = []
        self.sync_mode = ""
        return True

    # --- worker threads -----------------------------------------------------------

    def sync_processor_step(self) -> bool:
        """One SyncRequestProcessor iteration: log the head request and
        ACK it -- unless the enqueueing session is gone (ZK-4712)."""
        if self.state == C.DOWN or not self.queued_requests:
            return False
        entry = self.queued_requests.pop(0)
        self.history.append(entry.txn)
        same_session = entry.epoch == self.accepted_epoch
        if self.my_leader >= 0 and self.state == C.FOLLOWING and same_session:
            self.network.send(
                self.sid,
                self.my_leader,
                Rec(mtype=C.ACK, zxid=entry.txn.zxid),
            )
        return True

    def commit_processor_step(self) -> bool:
        """One CommitProcessor iteration."""
        if self.state == C.DOWN or not self.committed_requests:
            return False
        zxid = self.committed_requests[0]
        zxids = [t.zxid for t in self.history]
        idx = zxids.index(zxid) if zxid in zxids else -1
        if 0 <= idx < self.last_committed:
            self.committed_requests.pop(0)
            return True
        if idx == self.last_committed:
            self.committed_requests.pop(0)
            self.last_committed += 1
            return True
        if any(e.txn.zxid == zxid for e in self.queued_requests):
            return False  # wait for the logging thread
        self.committed_requests.pop(0)
        raise CommitOrderError(f"commit processor: unknown txn {zxid}")

    # --- follower: broadcast ----------------------------------------------------------

    def follower_process_proposal(self, j: int) -> bool:
        msg = self.network.peek(j, self.sid)
        if msg is None or msg.mtype != C.PROPOSAL:
            return False
        if (
            self.state != C.FOLLOWING
            or self.my_leader != j
            or self.zab_state != C.BROADCAST
        ):
            return False
        self.network.recv(j, self.sid)
        self.queued_requests.append(QueueEntry(msg.txn, self.accepted_epoch))
        return True

    def follower_process_proposal_atomic(self, j: int) -> bool:
        """Baseline-granularity mapping: receive, log and ACK a proposal
        as one region (drains the logging queue)."""
        if not self.follower_process_proposal(j):
            return False
        while self.queued_requests:
            if not self.sync_processor_step():
                break
        return True

    def follower_process_commit_atomic(self, j: int) -> bool:
        """Baseline-granularity mapping: receive and apply a COMMIT as
        one region (drains the commit queue)."""
        if not self.follower_process_commit(j):
            return False
        while self.committed_requests:
            if not self.commit_processor_step():
                break
        return True

    def follower_process_commit(self, j: int) -> bool:
        msg = self.network.peek(j, self.sid)
        if msg is None or msg.mtype != C.COMMIT:
            return False
        if (
            self.state != C.FOLLOWING
            or self.my_leader != j
            or self.zab_state != C.BROADCAST
        ):
            return False
        self.network.recv(j, self.sid)
        self.committed_requests.append(msg.zxid)
        return True

    # --- state extraction for conformance checking -------------------------------------

    def snapshot(self) -> tuple:
        """This node's values of the model-shaped state (the variable
        mapping the conformance checker compares, §3.5.2), in
        :data:`SNAPSHOT_VARIABLES` order: the ensemble transposes its
        nodes' rows into per-variable tuples."""
        return (
            self.state,
            self.zab_state,
            self.accepted_epoch,
            self.current_epoch,
            tuple(self.history),
            self.last_committed,
            self.my_leader,
            self.newleader_recv,
            tuple([(e.txn, e.epoch) for e in self.queued_requests]),
            tuple(self.committed_requests),
        )
