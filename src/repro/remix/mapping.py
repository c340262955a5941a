"""The model-action -> code-action mapping (§3.5.3).

Remix "requires developers to provide a mapping from each model-level
action to the events that represent the beginning and the end of the
corresponding code-level action", and instruments those points.  Here an
:class:`ActionMapping` binds each model action name to a callable on the
:class:`~repro.impl.ensemble.Ensemble` plus the number of instrumentation
pointcuts the binding needs (the "Instr." column of Table 3).

Mappings are granularity-aware: the baseline mapping drives composite
regions (e.g. the whole atomic NEWLEADER handling), the fine-grained
mapping drives individual thread steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.impl.ensemble import Ensemble
from repro.tla.action import ActionLabel
from repro.zookeeper import constants as C

StepFn = Callable[[Ensemble, ActionLabel], bool]


def _always(ens: Ensemble, label: ActionLabel) -> bool:
    return True


@dataclass(frozen=True)
class MappedAction:
    """One mapping entry: how to drive the implementation for a model
    action, and how many instrumentation pointcuts it needs.

    ``step`` answers True (executed), False (not enabled -- and then it
    has changed nothing) or raises an ``ImplError``.

    ``applies`` is for code-level methods the model splits into several
    actions: it says, without touching the ensemble, whether ``step``
    would run *as this label*.  Only the bottom-up explorer asks -- it
    picks the labels; a replayed model trace already names the right one."""

    name: str
    step: StepFn
    pointcuts: int = 1
    applies: StepFn = _always


def _pair(label: ActionLabel):
    return label.args["pair"]


def _ack_is(kind: str, baseline: bool = False) -> StepFn:
    """``applies`` for the leader's one ``processAck``, which the model
    splits in three: the ACK of NEWLEADER (``"newleader"``), of a
    proposal (``"txn"``) and of UPTODATE (``"uptodate"``).  A baseline
    region looks past the UPTODATE ACKs its specification does not
    model, exactly as ``leader_process_ack_baseline`` will."""

    def applies(ens: Ensemble, label: ActionLabel) -> bool:
        i, j = _pair(label)
        node = ens.nodes[i]
        msg = node.visible_head(j) if baseline else ens.network.peek(j, i)
        if msg is None:
            return False
        if kind == "uptodate":
            return msg.mtype == C.ACK_UPTODATE
        if msg.mtype != C.ACK:
            return False
        return node.is_newleader_ack(j, msg) == (kind == "newleader")

    return applies


def _coarse_election(ens: Ensemble, label: ActionLabel) -> bool:
    return ens.run_election(label.args["i"], label.args["Q"])


def _drop_stale(ens: Ensemble, label: ActionLabel) -> bool:
    i, j = _pair(label)
    return ens.discard_stale(i, j)


def _fault(method: str):
    def step(ens: Ensemble, label: ActionLabel) -> bool:
        args = label.args
        if "pair" in args:
            i, j = args["pair"]
            result = getattr(ens, method)(i, j)
        else:
            result = getattr(ens, method)(args["i"])
        return result is not False

    return step


def _node(method: str, with_peer: bool = True):
    def step(ens: Ensemble, label: ActionLabel) -> bool:
        args = label.args
        if "pair" in args:
            i, j = args["pair"]
            return getattr(ens.nodes[i], method)(j) if with_peer else getattr(
                ens.nodes[i], method
            )()
        i = args["i"]
        return getattr(ens.nodes[i], method)()

    return step


def _leader_side(method: str):
    """Leader actions are labeled (leader, follower) pairs."""

    def step(ens: Ensemble, label: ActionLabel) -> bool:
        i, j = _pair(label)
        return getattr(ens.nodes[i], method)(j)

    return step


def _client_request(ens: Ensemble, label: ActionLabel) -> bool:
    return ens.client_request(label.args["i"])


_SHARED: Dict[str, MappedAction] = {
    "ElectionAndDiscovery": MappedAction(
        "ElectionAndDiscovery", _coarse_election, pointcuts=3
    ),
    "LeaderSyncFollower": MappedAction(
        "LeaderSyncFollower", _leader_side("leader_sync_follower"), pointcuts=2
    ),
    "LeaderProcessACKLD": MappedAction(
        "LeaderProcessACKLD",
        _leader_side("leader_process_ack"),
        pointcuts=2,
        applies=_ack_is("newleader"),
    ),
    "LeaderProcessACK": MappedAction(
        "LeaderProcessACK",
        _leader_side("leader_process_ack"),
        pointcuts=1,
        applies=_ack_is("txn"),
    ),
    "LeaderProcessRequest": MappedAction(
        "LeaderProcessRequest", _client_request, pointcuts=1
    ),
    "FollowerProcessSyncMessage": MappedAction(
        "FollowerProcessSyncMessage",
        _node("follower_process_sync_message"),
        pointcuts=3,
    ),
    "FollowerProcessPROPOSALInSync": MappedAction(
        "FollowerProcessPROPOSALInSync",
        _node("follower_process_proposal_in_sync"),
        pointcuts=1,
    ),
    "FollowerProcessCOMMITInSync": MappedAction(
        "FollowerProcessCOMMITInSync",
        _node("follower_process_commit_in_sync"),
        pointcuts=2,
    ),
    "NodeCrash": MappedAction("NodeCrash", _fault("crash"), pointcuts=1),
    "NodeRestart": MappedAction("NodeRestart", _fault("restart"), pointcuts=1),
    "PartitionStart": MappedAction(
        "PartitionStart", _fault("partition"), pointcuts=1
    ),
    "PartitionHeal": MappedAction("PartitionHeal", _fault("heal"), pointcuts=1),
    "FollowerShutdown": MappedAction(
        "FollowerShutdown", _fault("follower_shutdown"), pointcuts=2
    ),
    "LeaderShutdown": MappedAction(
        "LeaderShutdown", _fault("leader_shutdown"), pointcuts=2
    ),
    "DiscardStaleMessage": MappedAction(
        "DiscardStaleMessage", _drop_stale, pointcuts=1
    ),
    "MessageDelay": MappedAction(
        "MessageDelay", _fault("delay_message"), pointcuts=1
    ),
    "MessageDuplicate": MappedAction(
        "MessageDuplicate", _fault("duplicate_message"), pointcuts=1
    ),
}

_BASELINE_BROADCAST: Dict[str, MappedAction] = {
    "FollowerProcessPROPOSAL": MappedAction(
        "FollowerProcessPROPOSAL",
        _node("follower_process_proposal_atomic"),
        pointcuts=2,
    ),
    "FollowerProcessCOMMIT": MappedAction(
        "FollowerProcessCOMMIT",
        _node("follower_process_commit_atomic"),
        pointcuts=2,
    ),
}

_FINE_BROADCAST: Dict[str, MappedAction] = {
    "FollowerProcessPROPOSAL": MappedAction(
        "FollowerProcessPROPOSAL", _node("follower_process_proposal"), pointcuts=1
    ),
    "FollowerProcessCOMMIT": MappedAction(
        "FollowerProcessCOMMIT", _node("follower_process_commit"), pointcuts=1
    ),
}

_BASELINE_SYNC: Dict[str, MappedAction] = {
    "FollowerProcessNEWLEADER": MappedAction(
        "FollowerProcessNEWLEADER",
        _node("follower_process_newleader_atomic"),
        pointcuts=2,
    ),
    "FollowerProcessUPTODATE": MappedAction(
        "FollowerProcessUPTODATE",
        _node("follower_process_uptodate_baseline"),
        pointcuts=2,
    ),
    "FollowerProcessCOMMITInSync": MappedAction(
        "FollowerProcessCOMMITInSync",
        _node("follower_process_commit_in_sync_atomic"),
        pointcuts=2,
    ),
    # The baseline spec does not model the follower's ACK of UPTODATE;
    # the mapped region consumes it silently (§2.2.3).
    "LeaderProcessACKLD": MappedAction(
        "LeaderProcessACKLD",
        _leader_side("leader_process_ack_baseline"),
        pointcuts=2,
        applies=_ack_is("newleader", baseline=True),
    ),
    "LeaderProcessACK": MappedAction(
        "LeaderProcessACK",
        _leader_side("leader_process_ack_baseline"),
        pointcuts=1,
        applies=_ack_is("txn", baseline=True),
    ),
}

_FINE_SPLIT: Dict[str, MappedAction] = {
    "FollowerProcessNEWLEADER_UpdateEpoch": MappedAction(
        "FollowerProcessNEWLEADER_UpdateEpoch",
        _node("step_update_epoch"),
        pointcuts=1,
    ),
    "FollowerProcessNEWLEADER_Log": MappedAction(
        "FollowerProcessNEWLEADER_Log", _node("step_log"), pointcuts=1
    ),
    "FollowerProcessNEWLEADER_LogAsync": MappedAction(
        "FollowerProcessNEWLEADER_LogAsync", _node("step_log"), pointcuts=1
    ),
    "FollowerProcessNEWLEADER_ReplyAck": MappedAction(
        "FollowerProcessNEWLEADER_ReplyAck", _node("step_reply_ack"), pointcuts=1
    ),
}

_FINE_CONCURRENT: Dict[str, MappedAction] = {
    "FollowerSyncProcessorLogRequest": MappedAction(
        "FollowerSyncProcessorLogRequest",
        _node("sync_processor_step", with_peer=False),
        pointcuts=2,
    ),
    "FollowerCommitProcessorCommit": MappedAction(
        "FollowerCommitProcessorCommit",
        _node("commit_processor_step", with_peer=False),
        pointcuts=2,
    ),
    "FollowerProcessUPTODATE": MappedAction(
        "FollowerProcessUPTODATE",
        _node("follower_process_uptodate"),
        pointcuts=2,
    ),
    "LeaderProcessACKUPTODATE": MappedAction(
        "LeaderProcessACKUPTODATE",
        _leader_side("leader_process_ack"),
        pointcuts=1,
        applies=_ack_is("uptodate"),
    ),
}


class ActionMapping:
    """The mapping table for one specification granularity selection."""

    def __init__(self, entries: Dict[str, MappedAction]):
        self.entries = dict(entries)

    def lookup(self, label: ActionLabel) -> Optional[MappedAction]:
        return self.entries.get(label.name)

    def total_pointcuts(self) -> int:
        return sum(entry.pointcuts for entry in self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)


def mapping_for(selection: Dict[str, str]) -> ActionMapping:
    """Build the mapping for a Table 1 granularity selection.

    SysSpec/mSpec-4 (baseline Election) are not mappable: the paper's
    deterministic replay of fine-grained FLE requires vote-priority
    control we only provide through the composite election operation.
    """
    if selection.get("Election") != "coarsened":
        raise ValueError(
            "deterministic replay requires the coarsened "
            "ElectionAndDiscovery action (provide vote priorities for "
            "fine-grained FLE to extend this, per §3.5.3)"
        )
    entries = dict(_SHARED)
    sync = selection.get("Synchronization", "baseline")
    if sync == "baseline":
        entries.update(_BASELINE_SYNC)
    elif sync == "fine_atomic":
        entries.update(_FINE_SPLIT)
        # UPTODATE and the leader's ACK handling stay at the baseline
        # granularity in mSpec-2 (no UPTODATE-ACK modeled).
        entries["FollowerProcessUPTODATE"] = _BASELINE_SYNC[
            "FollowerProcessUPTODATE"
        ]
        entries["LeaderProcessACKLD"] = _BASELINE_SYNC["LeaderProcessACKLD"]
        entries["LeaderProcessACK"] = _BASELINE_SYNC["LeaderProcessACK"]
        entries["FollowerProcessCOMMITInSync"] = _BASELINE_SYNC[
            "FollowerProcessCOMMITInSync"
        ]
    else:
        entries.update(_FINE_SPLIT)
        entries.update(_FINE_CONCURRENT)
    if selection.get("Broadcast", "baseline") == "baseline":
        entries.update(_BASELINE_BROADCAST)
    else:
        entries.update(_FINE_BROADCAST)
    return ActionMapping(entries)
