"""A pure-Python, TLA+-style specification framework.

States are immutable assignments over a fixed schema; actions are guarded
functions with declared reads/writes; modules group actions; compositions
of modules form checkable specifications.  See DESIGN.md section 3.
"""

from repro.tla.values import (
    Rec,
    Txn,
    Zxid,
    ZXID_ZERO,
    comparable,
    is_prefix,
    last_zxid,
    seq,
    seq_append,
    seq_tail,
    updated,
)
from repro.tla.state import Schema, State
from repro.tla.action import Action, ActionInstance, ActionLabel, action
from repro.tla.module import (
    Module,
    interaction_variables,
    preserved_variables,
)
from repro.tla.spec import Invariant, Specification
from repro.tla.composition import (
    CompositionError,
    check_interaction_preservation,
    compose,
    traces_equivalent_for,
)

__all__ = [
    "Action",
    "ActionInstance",
    "ActionLabel",
    "CompositionError",
    "Invariant",
    "Module",
    "Rec",
    "Schema",
    "Specification",
    "State",
    "Txn",
    "Zxid",
    "ZXID_ZERO",
    "action",
    "check_interaction_preservation",
    "comparable",
    "compose",
    "interaction_variables",
    "is_prefix",
    "last_zxid",
    "preserved_variables",
    "seq",
    "seq_append",
    "seq_tail",
    "traces_equivalent_for",
    "updated",
]
