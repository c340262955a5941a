"""Model configuration and implementation variants for the Raft plugin.

:class:`RaftConfig` mirrors the shape of
:class:`repro.zookeeper.config.ZkConfig` (cluster size plus exploration
bounds); :class:`RaftVariant` is the set of knobs distinguishing the
deliberately buggy toy implementation from its fixed version.  Each knob
corresponds to one planted conformance bug:

- ``durable_vote``: persist ``votedFor`` across restarts.  The buggy
  default forgets the vote, so a restarted follower's ``voted_for``
  diverges from the model (which, like the Raft paper, makes the vote
  durable state).
- ``reset_commit_on_restart``: drop the volatile ``commitIndex`` on
  restart.  The buggy default keeps the pre-crash value; the model
  resets it to 0.
- ``clamp_commit``: clamp a learned commit index to the local log
  length.  The buggy default copies the leader's commit index verbatim
  and raises :class:`repro.raft.impl.CommitAheadError` when it points
  past the end of the local log.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Tuple


@dataclass(frozen=True)
class RaftVariant:
    """Code-version knobs of the toy Raft implementation.

    All-``False`` (the default) is the buggy build the campaign checks;
    :data:`FIXED_VARIANT` turns every fix on.
    """

    durable_vote: bool = False
    reset_commit_on_restart: bool = False
    clamp_commit: bool = False


#: The implementation with all three planted bugs fixed; conformance
#: campaigns against it find nothing.
FIXED_VARIANT = RaftVariant(
    durable_vote=True, reset_commit_on_restart=True, clamp_commit=True
)


@dataclass(frozen=True)
class RaftConfig:
    """The model-checking configuration (TLC-style constants).

    ``max_entries`` bounds client requests, ``max_term`` bounds term
    growth, ``max_crashes``/``max_partitions`` bound fault injection --
    the same budget discipline :class:`repro.zookeeper.config.ZkConfig`
    uses for ZooKeeper.
    """

    n_servers: int = 3
    max_entries: int = 2
    max_crashes: int = 2
    max_partitions: int = 1
    max_term: int = 3
    variant: RaftVariant = field(default_factory=RaftVariant)

    def __post_init__(self):
        # Neither a cluster without servers nor a negative bound is a
        # model: reject them rather than check something else and report
        # its verdict (as ZkConfig does).
        if self.n_servers < 1:
            raise ValueError(f"n_servers must be at least 1, got {self.n_servers}")
        for name in ("max_entries", "max_crashes", "max_partitions", "max_term"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")

    @property
    def servers(self) -> Tuple[int, ...]:
        """Server ids ``0 .. n_servers-1``."""
        return tuple(range(self.n_servers))

    @property
    def quorum_size(self) -> int:
        """Minimal majority size."""
        return self.n_servers // 2 + 1

    def is_quorum(self, members) -> bool:
        """True when ``members`` contains a majority of the cluster."""
        return len(set(members)) >= self.quorum_size

    def quorums(self) -> Tuple[Tuple[int, ...], ...]:
        """All minimal-or-larger quorums, as sorted tuples."""
        out = []
        for size in range(self.quorum_size, self.n_servers + 1):
            out.extend(combinations(self.servers, size))
        return tuple(out)

    def with_variant(self, variant: RaftVariant) -> "RaftConfig":
        """A copy of this configuration with a different variant."""
        return replace(self, variant=variant)
