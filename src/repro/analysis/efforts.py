"""Specification-effort metrics (Table 3).

Table 3 measures, for each mixed-grained specification relative to the
previous one: the source-diff size, the number of variables, the number of
actions, and the number of instrumentation pointcuts the replay mapping
needs.  We compute the same metrics from this repository's specification
modules: lines come from the action functions' Python source, variables
from the declared reads/writes, and pointcuts from the Remix mapping.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.tla.spec import Specification
from repro.zookeeper.config import ZkConfig
from repro.zookeeper.mapping import mapping_for
from repro.zookeeper.specs import SELECTIONS, build_spec


@dataclass
class SpecMetrics:
    """The Table 3 measurements for one specification."""

    name: str
    lines: int
    variables: int
    actions: int
    pointcuts: Optional[int]  # None when the selection is not mappable


@dataclass
class SpecDiff:
    """A Table 3 row: metrics of one spec relative to another."""

    name: str
    base: str
    lines_added: int
    lines_removed: int
    variables: int
    variables_delta: int
    actions: int
    actions_delta: int
    pointcuts: Optional[int]
    pointcuts_delta: Optional[int]

    def __str__(self) -> str:
        pc = "-" if self.pointcuts is None else str(self.pointcuts)
        pcd = "" if self.pointcuts_delta is None else f" ({self.pointcuts_delta:+d})"
        return (
            f"{self.name} - {self.base}: +{self.lines_added}, "
            f"-{self.lines_removed} lines | {self.variables} vars "
            f"({self.variables_delta:+d}) | {self.actions} actions "
            f"({self.actions_delta:+d}) | {pc}{pcd} pointcuts"
        )


def _source_lines(spec: Specification) -> List[str]:
    """The deduplicated source lines of every action function."""
    seen: Set[int] = set()
    lines: List[str] = []
    for action in spec.actions:
        fn = action.fn
        target = getattr(fn, "__wrapped__", fn)
        try:
            source = inspect.getsource(target)
        except (OSError, TypeError):
            continue
        if id(target) in seen:
            continue
        seen.add(id(target))
        lines.extend(
            line.rstrip()
            for line in source.splitlines()
            if line.strip() and not line.strip().startswith("#")
        )
    return lines


def measure(name: str, config: Optional[ZkConfig] = None) -> SpecMetrics:
    """Measure one Table 1 specification."""
    config = config or ZkConfig()
    spec = build_spec(name, SELECTIONS[name], config)
    # Variable census over the protocol modules (the fault module touches
    # every volatile variable regardless of granularity, so it would hide
    # the coarsening's variable reduction that Table 3 reports).
    variables: Set[str] = set()
    for module in spec.modules:
        if module.name == "Faults":
            continue
        for action in module.actions:
            variables |= action.reads | action.writes
    try:
        pointcuts = mapping_for(SELECTIONS[name]).total_pointcuts()
    except ValueError:
        pointcuts = None
    return SpecMetrics(
        name=name,
        lines=len(_source_lines(spec)),
        variables=len(variables),
        actions=len(spec.actions),
        pointcuts=pointcuts,
    )


def diff(new: SpecMetrics, base: SpecMetrics, new_spec=None, base_spec=None) -> SpecDiff:
    """A Table 3 row comparing two measured specifications.

    Line-diff counts are computed on the multiset of source lines, which
    matches how the paper's TLA+ diffs count added/removed lines.
    """
    config = ZkConfig()
    new_lines = _source_lines(build_spec(new.name, SELECTIONS[new.name], config))
    base_lines = _source_lines(build_spec(base.name, SELECTIONS[base.name], config))
    from collections import Counter

    new_counts = Counter(new_lines)
    base_counts = Counter(base_lines)
    added = sum((new_counts - base_counts).values())
    removed = sum((base_counts - new_counts).values())
    return SpecDiff(
        name=new.name,
        base=base.name,
        lines_added=added,
        lines_removed=removed,
        variables=new.variables,
        variables_delta=new.variables - base.variables,
        actions=new.actions,
        actions_delta=new.actions - base.actions,
        pointcuts=new.pointcuts,
        pointcuts_delta=(
            new.pointcuts - base.pointcuts
            if new.pointcuts is not None and base.pointcuts is not None
            else None
        ),
    )


def table3(config: Optional[ZkConfig] = None) -> List[SpecDiff]:
    """The three rows of Table 3: mSpec-1 vs SysSpec, mSpec-2 vs
    mSpec-1, mSpec-3 vs mSpec-2."""
    pairs = [("mSpec-1", "SysSpec"), ("mSpec-2", "mSpec-1"), ("mSpec-3", "mSpec-2")]
    rows = []
    for new_name, base_name in pairs:
        rows.append(diff(measure(new_name, config), measure(base_name, config)))
    return rows
