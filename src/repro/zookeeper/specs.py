"""Specification factories: SysSpec and the mixed-grained mSpec-1..mSpec-4.

This is the composition matrix of Table 1:

=========  =========  =========  ==================  ==============
Spec       Election   Discovery  Synchronization     Broadcast
=========  =========  =========  ==================  ==============
SysSpec    baseline   baseline   baseline            baseline
mSpec-1    coarsened  coarsened  baseline            baseline
mSpec-2    coarsened  coarsened  fine (atomicity)    baseline
mSpec-3    coarsened  coarsened  fine (atom+concur)  fine (concur)
mSpec-4    baseline   baseline   fine (atom+concur)  fine (concur)
=========  =========  =========  ==================  ==============

plus the hunt tables: :data:`HUNTS` (Table 4's bugs) and :data:`FIXES`
(Table 6's fix PRs and the §5.4 final fix), each row composed by
:func:`hunt_spec`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.tla.composition import CompositionError, compose
from repro.tla.module import Module
from repro.tla.spec import Specification
from repro.tla.state import State
from repro.zab.invariants import protocol_invariants
from repro.zookeeper import constants as C
from repro.zookeeper.broadcast import (
    broadcast_baseline_module,
    broadcast_fine_module,
)
from repro.zookeeper.coarse import coarse_election_module
from repro.zookeeper.code_invariants import code_invariants
from repro.zookeeper.config import (
    FINAL_FIX,
    PR_1848,
    PR_1930,
    PR_1993,
    PR_2111,
    SpecVariant,
    ZkConfig,
)
from repro.zookeeper.discovery import discovery_module
from repro.zookeeper.election import election_module
from repro.zookeeper.faults import faults_module
from repro.zookeeper.schema import SCHEMA, init, state_constraint
from repro.zookeeper.sync_baseline import sync_baseline_module
from repro.zookeeper.sync_fine import (
    sync_fine_atomic_module,
    sync_fine_concurrent_module,
)

#: module name -> granularity -> factory
MODULE_FACTORIES: Dict[str, Dict[str, Callable[[ZkConfig], Module]]] = {
    "Election": {
        "baseline": election_module,
        # "coarsened" merges Election+Discovery; see build_spec.
    },
    "Discovery": {
        "baseline": discovery_module,
    },
    "Synchronization": {
        "baseline": sync_baseline_module,
        "fine_atomic": sync_fine_atomic_module,
        "fine_concurrent": sync_fine_concurrent_module,
    },
    "Broadcast": {
        "baseline": broadcast_baseline_module,
        "fine_concurrent": broadcast_fine_module,
    },
}

#: Table 1 rows, as granularity selections.
SELECTIONS: Dict[str, Dict[str, str]] = {
    "SysSpec": {
        "Election": "baseline",
        "Discovery": "baseline",
        "Synchronization": "baseline",
        "Broadcast": "baseline",
    },
    "mSpec-1": {
        "Election": "coarsened",
        "Discovery": "coarsened",
        "Synchronization": "baseline",
        "Broadcast": "baseline",
    },
    "mSpec-2": {
        "Election": "coarsened",
        "Discovery": "coarsened",
        "Synchronization": "fine_atomic",
        "Broadcast": "baseline",
    },
    "mSpec-3": {
        "Election": "coarsened",
        "Discovery": "coarsened",
        "Synchronization": "fine_concurrent",
        "Broadcast": "fine_concurrent",
    },
    "mSpec-4": {
        "Election": "baseline",
        "Discovery": "baseline",
        "Synchronization": "fine_concurrent",
        "Broadcast": "fine_concurrent",
    },
}


def zk4394_mask(state: State) -> bool:
    """Mask predicate for the known-but-unfixed ZK-4394 (§4.1): states on
    its error path are neither reported nor explored further."""
    errors = state["errors"]
    if not errors:  # fast path: evaluated once per explored state
        return False
    return any(err.code == C.ERR_COMMIT_UNMATCHED_IN_SYNC for err in errors)


# Declared dependency variables (mirrors Invariant.reads): the mask is a
# pure function of ``errors``, so the engine memoizes its verdict per
# projection instead of building a State per candidate.
zk4394_mask.reads = frozenset({"errors"})


def build_spec(
    name: str,
    selection: Dict[str, str],
    config: ZkConfig,
    factories: Dict[str, Dict[str, Callable]] = MODULE_FACTORIES,
) -> Specification:
    """Compose a mixed-grained specification from a granularity selection
    (the Remix composition step, §3.5.1), with automatically selected
    invariants.

    ``factories`` is the module -> granularity -> factory table the
    selection is resolved against: the shipped :data:`MODULE_FACTORIES`
    by default, or a :class:`SpecRegistry`'s own entries, which may hold
    granularities registered at runtime."""
    ele = selection["Election"]
    dis = selection["Discovery"]
    if (ele == "coarsened") != (dis == "coarsened"):
        raise CompositionError(
            "Election and Discovery must be coarsened together: the "
            "coarse action spans both phases"
        )
    if selection["Broadcast"] == "fine_concurrent" and selection[
        "Synchronization"
    ] != "fine_concurrent":
        raise CompositionError(
            "fine-grained Broadcast needs the fine-concurrent "
            "Synchronization module: the worker threads that drain the "
            "queues are defined there"
        )

    modules: List[Module] = []
    if ele == "coarsened":
        modules.append(coarse_election_module(config))
    else:
        modules.append(factories["Election"][ele](config))
        modules.append(factories["Discovery"][dis](config))
    for module in ("Synchronization", "Broadcast"):
        modules.append(factories[module][selection[module]](config))
    modules.append(faults_module(config))

    invariants = protocol_invariants() + code_invariants(selection)
    return compose(
        name,
        SCHEMA,
        init,
        modules,
        invariants,
        config,
        constraint=state_constraint,
    )


def make_spec(name: str, config: Optional[ZkConfig] = None) -> Specification:
    """Build one of the named Table 1 specifications."""
    if name not in SELECTIONS:
        raise KeyError(f"unknown specification {name!r}; options: {list(SELECTIONS)}")
    return build_spec(name, SELECTIONS[name], config or ZkConfig())


class SpecRegistry:
    """The multi-grained specification registry (§3.5.1): Remix keeps
    specifications of each module at several granularities and composes
    a selection of them into a mixed-grained specification, with the
    invariants applicable to the composition selected automatically.

    New granularities can be registered at runtime (the paper: "if there
    is no specification at the desired granularity, one can write a new
    specification.  The new specification will then be added into
    Remix").  The Table 1 rows are :func:`make_spec`.
    """

    def __init__(self):
        """Seed the registry with the shipped per-module factories."""
        self._entries: Dict[str, Dict[str, Callable]] = {
            module: dict(granularities)
            for module, granularities in MODULE_FACTORIES.items()
        }
        # The coarse Election+Discovery is a single merged module.
        self._entries.setdefault("Election", {})["coarsened"] = None
        self._entries.setdefault("Discovery", {})["coarsened"] = None

    def modules(self) -> List[str]:
        """The registered module names."""
        return list(self._entries)

    def granularities(self, module: str) -> List[str]:
        """The granularities registered for one module."""
        return list(self._entries[module])

    def register(self, module: str, granularity: str, factory: Callable):
        """Add a new per-module specification."""
        self._entries.setdefault(module, {})[granularity] = factory

    def has(self, module: str, granularity: str) -> bool:
        """True when a spec exists for ``(module, granularity)``."""
        return granularity in self._entries.get(module, {})

    def compose(
        self, name: str, selection: Dict[str, str], config: Optional[ZkConfig] = None
    ) -> Specification:
        """Compose a mixed-grained specification from a selection like
        ``{"Election": "coarsened", ..., "Synchronization":
        "fine_atomic", "Broadcast": "baseline"}``."""
        for module, granularity in selection.items():
            if not self.has(module, granularity):
                raise KeyError(
                    f"no {granularity!r} specification registered for "
                    f"module {module!r}"
                )
        return build_spec(name, selection, config or ZkConfig(), self._entries)


#: Table 4, one row per bug: the paper's most-efficient grain, the config
#: bounds, the invariant family (and instance) restricting the check,
#: whether the known ZK-4394 stays masked (mSpec-1* unmasks it), and the
#: code variant (PR-1930's ordering fix isolates ZK-4646 from the ZK-4643
#: window).  ``repro bugs`` and ``benchmarks/`` hunt from these rows.
HUNTS: Dict[
    str, Tuple[str, Dict[str, int], str, Optional[str], bool, Optional[SpecVariant]]
] = {
    "ZK-3023": ("mSpec-3", {"max_txns": 1, "max_crashes": 1}, "I-11",
                "ACK_UPTODATE_OUT_OF_SYNC", True, None),
    "ZK-4394": ("mSpec-1", {"max_txns": 1, "max_crashes": 1}, "I-14",
                "COMMIT_UNMATCHED_IN_SYNC", False, None),
    "ZK-4643": ("mSpec-2", {"max_txns": 1, "max_crashes": 2}, "I-8",
                None, True, None),
    "ZK-4646": ("mSpec-3", {"max_txns": 1, "max_crashes": 2}, "I-8",
                None, True, PR_1930),
    "ZK-4685": ("mSpec-3", {"max_txns": 2, "max_crashes": 1}, "I-12",
                "ACK_BEFORE_NEWLEADER_ACK", True, None),
    "ZK-4712": ("mSpec-3", {"max_txns": 2, "max_crashes": 1}, "I-10",
                None, True, None),
}

#: Table 6, one row per verdict: a :data:`HUNTS` row (a family of None
#: checks every invariant), then the state budget and the expected
#: verdict -- the family of the first violation, or None for a check that
#: stays clean within the budget.  Each fix PR is a variant of mSpec-3+
#: (mSpec-3 with the verified ZK-4712 fix) and still violates an
#: invariant; the §5.4 resolution is clean.  PR-1848 is hunted at one txn
#: and for I-8 only: its SNAP path still opens the ZK-4643 window, and at
#: two txns ZK-4685's I-12 fires first.  ``tests/test_bugs.py``,
#: ``examples/verify_bug_fix.py`` and ``benchmarks/`` check these rows.
FIXES: Dict[
    str,
    Tuple[str, Dict[str, int], Optional[str], Optional[str], bool, SpecVariant,
          int, Optional[str]],
] = {
    "PR-1848": ("mSpec-3", {"max_txns": 1, "max_crashes": 2}, "I-8",
                None, True, PR_1848, 3_000_000, "I-8"),
    "PR-1930": ("mSpec-3", {"max_txns": 2, "max_crashes": 2}, None,
                None, True, PR_1930, 400_000, "I-12"),
    "PR-1993": ("mSpec-3", {"max_txns": 2, "max_crashes": 2}, None,
                None, True, PR_1993, 400_000, "I-11"),
    "PR-2111": ("mSpec-3", {"max_txns": 2, "max_crashes": 2}, None,
                None, True, PR_2111, 400_000, "I-11"),
    "FinalFix": ("mSpec-3", {"max_txns": 1, "max_crashes": 2}, None,
                 None, False, FINAL_FIX, 120_000, None),
}


def hunt_spec(
    row: Union[str, tuple],
) -> Tuple[Specification, Optional[Callable[[State], bool]]]:
    """The specification and mask of one hunt: a :data:`HUNTS` or
    :data:`FIXES` name, or a row of their shape.  The grain is composed
    at the row's bounds and variant, and checked against the row's
    invariant family only (every invariant when the family is None)."""
    if isinstance(row, str):
        row = HUNTS[row] if row in HUNTS else FIXES[row]
    grain, bounds, family, instance, masked, variant = row[:6]
    config = ZkConfig(max_partitions=0, max_epoch=3, **bounds)
    if variant is not None:
        config = config.with_variant(variant)
    spec = build_spec(grain, SELECTIONS[grain], config)
    if family is not None:
        spec.invariants = [
            inv
            for inv in spec.invariants
            if inv.ident == family and (instance is None or inv.instance == instance)
        ]
    return spec, zk4394_mask if masked else None
