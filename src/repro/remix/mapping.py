"""The model-action -> code-action mapping (§3.5.3).

Remix "requires developers to provide a mapping from each model-level
action to the events that represent the beginning and the end of the
corresponding code-level action", and instruments those points.  Here an
:class:`ActionMapping` binds each model action name to a callable on the
system's implementation ensemble (whatever its plugin's
``ensemble_factory`` returns) plus the number of instrumentation
pointcuts the binding needs (the "Instr." column of Table 3).

The tables themselves belong to the systems:
:mod:`repro.zookeeper.mapping` and :mod:`repro.raft.mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.tla.action import ActionLabel

StepFn = Callable[[Any, ActionLabel], bool]


def _always(ens: Any, label: ActionLabel) -> bool:
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
