"""Implementation-level exceptions, mirroring the symptoms the real
ZooKeeper bugs produce (the paper's conformance checker "reports
implementation bugs with obvious symptoms like assertion failures when
replaying traces", §3.5.2).

They derive from :class:`repro.system.plugin.ImplError`, the
system-agnostic base the remix layer catches."""

from __future__ import annotations

from repro.system.plugin import ImplError


class ZkImplError(ImplError):
    """Base class for ZooKeeper implementation-level failures."""


class NullPointerException(ZkImplError):
    """Learner.syncWithLeader cannot match a COMMIT to a packet
    (ZK-4394)."""

    bug_id = "ZK-4394"


class UnrecognizedAckError(ZkImplError):
    """Leader.processAck cannot recognize an ACK received while waiting
    for the quorum of NEWLEADER ACKs (ZK-4685)."""

    bug_id = "ZK-4685"


class SyncAssertionError(ZkImplError):
    """The leader's assertion that a follower is in sync with its initial
    history fails on the follower's ACK of UPTODATE (ZK-3023)."""

    bug_id = "ZK-3023"


class CommitOrderError(ZkImplError):
    """A COMMIT arrived for a transaction that is unknown or out of
    order."""

    bug_id = ""
