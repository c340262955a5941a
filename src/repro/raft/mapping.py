"""The Raft replay mapping: model action names to ensemble steps.

One mapping serves both grains: the coarse ``ElectLeader`` and the fine
``BecomeCandidate``/``GrantVote``/``BecomeLeader`` entries coexist in
the table, and :meth:`repro.remix.mapping.ActionMapping.lookup` only
ever resolves the names the composed specification actually emits.
"""

from __future__ import annotations

from repro.remix.mapping import ActionMapping, MappedAction


def _server(method: str):
    """Step dispatching a single-server label argument ``i``."""
    return lambda ens, label: getattr(ens, method)(label.args["i"])


def _pair(method: str):
    """Step unpacking a ``pair`` label argument into two arguments."""
    return lambda ens, label: getattr(ens, method)(*label.args["pair"])


def raft_mapping() -> ActionMapping:
    """The action mapping shared by the ``raft-*`` grains."""
    return ActionMapping(
        {
            "ElectLeader": MappedAction(
                "ElectLeader",
                lambda ens, label: ens.run_election(
                    label.args["i"], label.args["Q"]
                ),
                pointcuts=3,
            ),
            "BecomeCandidate": MappedAction(
                "BecomeCandidate", _server("become_candidate")
            ),
            "GrantVote": MappedAction("GrantVote", _pair("grant_vote")),
            "BecomeLeader": MappedAction(
                "BecomeLeader", _server("become_leader")
            ),
            "ClientRequest": MappedAction(
                "ClientRequest", _server("client_request")
            ),
            "ReplicateLog": MappedAction(
                "ReplicateLog", _pair("replicate_log")
            ),
            "LeaderAdvanceCommit": MappedAction(
                "LeaderAdvanceCommit", _server("leader_advance_commit")
            ),
            "FollowerLearnCommit": MappedAction(
                "FollowerLearnCommit", _pair("follower_learn_commit")
            ),
            "NodeCrash": MappedAction("NodeCrash", _server("node_crash")),
            "NodeRestart": MappedAction("NodeRestart", _server("node_restart")),
            "PartitionStart": MappedAction(
                "PartitionStart", _pair("partition_start")
            ),
            "PartitionHeal": MappedAction(
                "PartitionHeal", _pair("partition_heal")
            ),
        }
    )
