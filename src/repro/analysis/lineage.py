"""The bug-introduction lineage of Figure 8.

ZooKeeper's log-replication optimizations (starting from ZK-2678 in 2017)
introduced a family of data-loss/inconsistency bugs; several fixes opened
new triggering paths.  Figure 8 draws this as a graph; we encode it as an
adjacency map and regenerate the figure's structure (roots, fixed
markers, introduced-by edges) programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import TopologicalSorter
from typing import Dict, List, Optional, Tuple

#: A lineage graph: every issue mapped to the sorted issues it introduced.
Graph = Dict[str, Tuple[str, ...]]


@dataclass(frozen=True)
class Issue:
    """One node of Figure 8."""

    ident: str
    title: str
    fixed: bool  # the paper's '*' marker: fix merged at publication time
    year: int


ISSUES: Dict[str, Issue] = {
    issue.ident: issue
    for issue in [
        Issue("ZK-2678", "Optimizations of data recovery (large databases regain quorum slowly)", True, 2017),
        Issue("ZK-2845", "Data inconsistency due to retaining database in leader election", True, 2017),
        Issue("ZK-3023", "Assertion failure: follower history not in sync after ACK of NEWLEADER", False, 2018),
        Issue("ZK-3642", "Data inconsistency when leader crashes right after sending SNAP sync", True, 2019),
        Issue("ZK-3911", "Data inconsistency caused by DIFF sync uncommitted log", True, 2020),
        Issue("ZK-4394", "Learner.syncWithLeader NullPointerException", False, 2021),
        Issue("ZK-4643", "Committed txns improperly truncated after crash between epoch/history updates", False, 2022),
        Issue("ZK-4646", "Transaction loss: ACK of NEWLEADER before logging to disk", False, 2022),
        Issue("ZK-4685", "Leader shutdown when ACK of PROPOSAL precedes ACK of NEWLEADER", False, 2023),
        Issue("ZK-4712", "Follower shutdown() does not stop SyncProcessor; data inconsistency", False, 2023),
    ]
}

#: (cause, effect): the optimization or fix of `cause` opened the
#: triggering path of `effect` (the arrows of Figure 8).
EDGES: Tuple[Tuple[str, str], ...] = (
    # The ZK-2678 optimizations seeded the whole family.
    ("ZK-2678", "ZK-2845"),
    ("ZK-2678", "ZK-3642"),
    ("ZK-2678", "ZK-4646"),
    ("ZK-2678", "ZK-4394"),
    ("ZK-2845", "ZK-3023"),
    ("ZK-2845", "ZK-4643"),
    ("ZK-3642", "ZK-3911"),
    # The merged ZK-3911 fix did not rule out the root cause and opened
    # new paths (§5.3).
    ("ZK-3911", "ZK-3023"),
    ("ZK-3911", "ZK-4685"),
    ("ZK-3911", "ZK-4712"),
)


def lineage_graph() -> Graph:
    """Figure 8 as a directed acyclic graph (an adjacency map)."""
    return {
        ident: tuple(sorted(effect for cause, effect in EDGES if cause == ident))
        for ident in ISSUES
    }


def roots(graph: Optional[Graph] = None) -> List[str]:
    graph = graph or lineage_graph()
    introduced = {effect for effects in graph.values() for effect in effects}
    return sorted(n for n in graph if n not in introduced)


def descendants(graph: Graph, ident: str) -> List[str]:
    """Every issue reachable from ``ident`` (itself excluded), sorted."""
    found: set = set()
    stack = list(graph[ident])
    while stack:
        node = stack.pop()
        if node not in found:
            found.add(node)
            stack.extend(graph[node])
    return sorted(found)


def descendants_of_optimization(graph: Optional[Graph] = None) -> List[str]:
    """Every bug transitively introduced by the ZK-2678 optimizations."""
    return descendants(graph or lineage_graph(), "ZK-2678")


def unfixed_at_publication(graph: Optional[Graph] = None) -> List[str]:
    graph = graph or lineage_graph()
    return sorted(n for n in graph if not ISSUES[n].fixed)


def generations(graph: Optional[Graph] = None) -> List[List[str]]:
    """Topological generations: the left-to-right layers of Figure 8.

    Raises :class:`graphlib.CycleError` on a graph with a cycle."""
    graph = graph or lineage_graph()
    order: TopologicalSorter = TopologicalSorter()
    for cause, effects in graph.items():
        order.add(cause)
        for effect in effects:
            order.add(effect, cause)
    order.prepare()
    layers: List[List[str]] = []
    while order.is_active():
        layer = order.get_ready()
        order.done(*layer)
        layers.append(sorted(layer))
    return layers


def render_ascii(graph: Optional[Graph] = None) -> str:
    """A textual rendering of Figure 8."""
    graph = graph or lineage_graph()
    lines = ["Figure 8: bugs introduced in ZooKeeper's log replication", ""]
    for layer_index, layer in enumerate(generations(graph)):
        for ident in layer:
            issue = ISSUES[ident]
            marker = "*" if issue.fixed else " "
            succ = ", ".join(graph[ident])
            arrow = f" -> {succ}" if succ else ""
            lines.append(f"  [{layer_index}] {ident}{marker} ({issue.year}){arrow}")
    lines.append("")
    lines.append("  * = fix merged at publication time")
    return "\n".join(lines)
