"""Model configuration and specification variants for ZooKeeper.

:class:`ZkConfig` is the TLC configuration (cluster size and the bounds of
Section 4.4: transactions, crashes, partitions); :class:`SpecVariant` is
the set of code-version knobs that distinguish ZooKeeper v3.9.1 from the
four fix PRs of Table 6 and from the final resolution of Section 5.4.

Every knob corresponds to a concrete code change discussed in the paper:

- ``history_before_epoch``: the §5.4 protocol improvement -- the follower
  must persist the synced history *before* updating ``currentEpoch``
  (v3.9.1 does the opposite, which is ZK-4643).  ``"diff_only"`` models
  PR-1848, which repaired the DIFF path but left the SNAP path unordered.
- ``synchronous_sync_logging``: log synced txns synchronously while
  handling NEWLEADER instead of queueing them to the SyncRequestProcessor
  (removes ZK-4646's early ACK and ZK-4685's ACK reordering).
- ``synchronous_commit``: drain pending commits before ACKing UPTODATE
  (removes ZK-3023's async-commit race).
- ``fix_follower_shutdown``: shut the SyncRequestProcessor down properly
  when the follower leaves an epoch (removes ZK-4712).
- ``match_commit_in_sync``: match a COMMIT received between NEWLEADER and
  UPTODATE against the already-logged history instead of the cleared
  packet list (removes ZK-4394's NullPointerException).
- ``mask_zk4394``: do not report or explore past ZK-4394 error states
  (the masking of §4.1/§5.1; mSpec-1 masks it, mSpec-1* does not).
- ``direct_commit_in_sync``: an *extension beyond the paper's six bugs*:
  apply a COMMIT received between NEWLEADER and UPTODATE directly to the
  log, bypassing the SyncRequestProcessor queue.  This is what
  Learner.syncWithLeader actually does and is the root of ZK-4785
  ("transaction loss due to race condition during DIFF sync", 2024 --
  the paper's reference [26]): the directly-applied txn can overtake
  earlier txns still waiting in the logging queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple


@dataclass(frozen=True)
class SpecVariant:
    """Code-version knobs shared by the specification and the simulator."""

    history_before_epoch: str = "none"  # "none" | "diff_only" | "full"
    synchronous_sync_logging: bool = False
    synchronous_commit: bool = False
    fix_follower_shutdown: bool = False
    match_commit_in_sync: bool = False
    mask_zk4394: bool = False
    direct_commit_in_sync: bool = False

    def __post_init__(self):
        if self.history_before_epoch not in ("none", "diff_only", "full"):
            raise ValueError(
                f"history_before_epoch: {self.history_before_epoch!r}"
            )

    def with_(self, **changes) -> "SpecVariant":
        return replace(self, **changes)


#: ZooKeeper v3.9.1: every bug present.
V391 = SpecVariant()

#: mSpec-3+ baseline for Table 6: v3.9.1 plus the ZK-4712 fix.
V391_PLUS_4712 = SpecVariant(fix_follower_shutdown=True)

#: PR-1848 (attempted ZK-4643 fix): orders history/epoch on the DIFF path
#: only; the SNAP path still updates the epoch first -> still violates I-8.
PR_1848 = V391_PLUS_4712.with_(history_before_epoch="diff_only")

#: PR-1930: full history-before-epoch ordering; ZK-4685's ACK reordering
#: remains -> violates I-12.
PR_1930 = V391_PLUS_4712.with_(history_before_epoch="full")

#: PR-1993 (targets ZK-4646 and ZK-4685): also makes sync-phase logging
#: synchronous; the async-commit race of ZK-3023 remains -> violates I-11.
PR_1993 = PR_1930.with_(synchronous_sync_logging=True)

#: PR-2111: additionally repairs the COMMIT-vs-packet matching (ZK-4394)
#: but still commits asynchronously -> violates I-11.
PR_2111 = PR_1993.with_(match_commit_in_sync=True)

#: The final resolution of §5.4: ordering + synchronous logging and
#: commit + proper shutdown + commit matching.  Passes all invariants.
FINAL_FIX = SpecVariant(
    history_before_epoch="full",
    synchronous_sync_logging=True,
    synchronous_commit=True,
    fix_follower_shutdown=True,
    match_commit_in_sync=True,
)


@dataclass(frozen=True)
class ZkConfig:
    """The model-checking configuration (TLC constants).

    The paper's standard configuration is three servers, up to four
    transactions, up to three crashes and up to three partitions (§4.4);
    Table 5 uses 3/2/2/2.  Pure-Python exploration uses the same shape at
    smaller bounds (DESIGN.md §6).
    """

    n_servers: int = 3
    max_txns: int = 2
    max_crashes: int = 2
    max_partitions: int = 2
    max_epoch: int = 4
    #: Message-channel faults (delay, duplication) the fault lane may
    #: inject.  0 disables the message-fault actions entirely, keeping
    #: every pre-existing exploration bit-identical.
    max_msg_faults: int = 0
    variant: SpecVariant = field(default_factory=SpecVariant)

    def __post_init__(self):
        # Neither a cluster without servers nor a negative bound is a
        # model: reject them rather than check something else and report
        # its verdict.
        if self.n_servers < 1:
            raise ValueError(f"n_servers must be at least 1, got {self.n_servers}")
        for name in ("max_txns", "max_crashes", "max_partitions", "max_epoch", "max_msg_faults"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")

    @property
    def servers(self) -> Tuple[int, ...]:
        return tuple(range(self.n_servers))

    @property
    def quorum_size(self) -> int:
        return self.n_servers // 2 + 1

    def is_quorum(self, members) -> bool:
        return len(set(members)) >= self.quorum_size

    def quorums(self) -> Tuple[Tuple[int, ...], ...]:
        """All minimal-or-larger quorums, as sorted tuples."""
        from itertools import combinations

        out = []
        for size in range(self.quorum_size, self.n_servers + 1):
            out.extend(combinations(self.servers, size))
        return tuple(out)

    def with_variant(self, variant: SpecVariant) -> "ZkConfig":
        return replace(self, variant=variant)
