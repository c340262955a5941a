"""The system-plugin surface: everything a protocol must provide to run
through the conformance campaign.

The ``tla``, ``checker`` and ``remix`` layers are system-agnostic; a
*system plugin* supplies the protocol-specific pieces -- spec grains,
scenario prefixes, fault schedules, an implementation adapter and a
configuration type -- behind one object.  The remix layer resolves
plugins by name through :func:`repro.remix.registry.system_plugin`;
``zookeeper`` is simply the default registered plugin.

This module deliberately imports only :mod:`repro.tla` and the standard
library, so a system package that depends on it depends on nothing of
the remix layer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.tla.action import ActionLabel
from repro.tla.spec import Specification
from repro.tla.state import State


class ScenarioError(RuntimeError):
    """A scripted action was not enabled."""


class ImplError(Exception):
    """Base class for implementation-level failures of any system: the
    bug symptom an ensemble step raises, which the lockstep loops catch.
    Each system derives its own hierarchy from it."""

    bug_id = ""


class Scenario:
    """A fluent builder driving a specification through named actions.

    This is the system-agnostic core: :meth:`apply` / :meth:`can` /
    :meth:`trace`.  System packages subclass it to add protocol
    composites (e.g. ZooKeeper's ``elect`` or ``sync_follower``).
    """

    def __init__(self, spec: Specification, state: Optional[State] = None):
        """Start from ``state`` (default: the specification's sole
        initial state) with empty label and state histories."""
        self.spec = spec
        self.state = state or spec.initial_states()[0]
        self.labels: List[ActionLabel] = []
        self.states: List[State] = [self.state]

    def _instance(self, name: str, args: dict):
        inst = self.spec.instance_named(name, args)
        if inst is None:
            raise ScenarioError(f"no action instance {name}{args}")
        return inst

    def apply(self, name: str, **args) -> "Scenario":
        """Apply one action; raises ScenarioError when disabled."""
        inst = self._instance(name, args)
        nxt = inst.apply(self.spec.config, self.state)
        if nxt is None:
            raise ScenarioError(f"{name}{args} is not enabled")
        self.state = nxt
        self.labels.append(inst.label)
        self.states.append(nxt)
        return self

    def can(self, name: str, **args) -> bool:
        """True when the named action instance is enabled in the current
        state."""
        inst = self._instance(name, args)
        return inst.apply(self.spec.config, self.state) is not None

    def trace(self):
        """The scripted history as a :class:`repro.checker.trace.Trace`."""
        from repro.checker.trace import Trace

        return Trace(states=list(self.states), labels=list(self.labels))


#: Role placeholders resolved against the campaign's (leader, follower)
#: choice when a fault schedule is injected.
ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"
ROLE_PAIR = "leader-follower-pair"
#: The *directed* leader -> follower channel, resolved as the
#: ``(receiver, sender)`` pair message actions take (the convention of
#: DiscardStaleMessage-style params: first the server whose inbound
#: channel is touched, then the peer it receives from).  Unlike
#: :data:`ROLE_PAIR`, order matters: message faults target one
#: direction of a link.
ROLE_LINK = "leader-to-follower-link"
#: The ``(leader, follower)`` pair in that order, for leader-actor
#: actions (LeaderSyncFollower-style params: the acting leader first,
#: the follower it acts on second).  :data:`ROLE_PAIR` cannot express
#: this -- it sorts, and the campaign's leader is the highest sid.
ROLE_ORDERED_PAIR = "leader-follower-ordered"


@dataclass(frozen=True)
class FaultSchedule:
    """A scripted fault injection appended to a scenario prefix.

    ``steps`` is a sequence of ``(action_name, ((param, role), ...))``
    entries whose role placeholders (:data:`ROLE_LEADER`,
    :data:`ROLE_FOLLOWER`, :data:`ROLE_PAIR`) are resolved against the
    campaign's leader/follower choice at injection time.  Injection
    raises :class:`ScenarioError` when a step is not enabled, which the
    campaign records as an inapplicable cell rather than a finding.
    """

    name: str
    steps: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = ()

    def resolve(self, leader: int, follower: int):
        """Resolve the role placeholders against a concrete leader and
        follower: ``[(action_name, args_dict), ...]`` in schedule order.

        Used by :meth:`inject` (model-level scenarios) and by the
        campaign's bottom-up direction, which drives the same resolved
        fault steps through the implementation explorer."""
        resolved = []
        for action, params in self.steps:
            args: Dict[str, Any] = {}
            for key, role in params:
                if role == ROLE_LEADER:
                    args[key] = leader
                elif role == ROLE_FOLLOWER:
                    args[key] = follower
                elif role == ROLE_PAIR:
                    args[key] = tuple(sorted((leader, follower)))
                elif role == ROLE_LINK:
                    # (receiver, sender): the follower's inbound channel
                    # from the leader -- where sync/broadcast traffic
                    # (NEWLEADER, PROPOSAL, COMMIT) is in flight.
                    args[key] = (follower, leader)
                elif role == ROLE_ORDERED_PAIR:
                    args[key] = (leader, follower)
                else:  # pragma: no cover - schedule construction error
                    raise ValueError(f"unknown role {role!r}")
            resolved.append((action, args))
        return resolved

    def inject(self, scenario: Scenario, leader: int, follower: int):
        """Apply the scripted faults to a scenario, in order."""
        for action, args in self.resolve(leader, follower):
            scenario.apply(action, **args)
        return scenario


#: Type of a scenario-prefix builder: drives a freshly composed
#: specification to an interesting state before faults and random
#: suffixes are layered on top.
PrefixBuilder = Callable[[Specification, int, tuple], Scenario]


class SystemPlugin:
    """Base class for system plugins.

    Subclasses set the class attributes below and implement the four
    required hooks (:meth:`default_config`, :meth:`make_spec`,
    :meth:`make_mapping`, :meth:`ensemble_factory`).  Everything else has
    a sensible default.

    Class attributes
    ----------------
    ``name``
        Registry key; also the value of ``--system`` on the CLI.
    ``title``
        One-line human description shown by ``python -m repro systems``.
    ``grains``
        Spec grain names, coarsest first; the campaign's default grain
        axis.  Each must be accepted by :meth:`make_spec` and
        :meth:`make_mapping`.
    ``scenario_prefixes``
        Mapping of prefix name to builder ``(spec, leader, quorum) ->
        Scenario``; the campaign's default scenario axis.  Builders
        raise :class:`ScenarioError` when a prefix cannot be scripted
        for a grain (the campaign records the cell as inapplicable).
    ``fault_schedules``
        Tuple of :class:`FaultSchedule`, in matrix order; the campaign's
        default fault axis.  Must include a no-op ``"none"`` schedule.
    ``compared_variables``
        Spec variables compared against the implementation snapshot
        after every mapped step.  Each must appear in the dict returned
        by the ensemble's ``snapshot()``.

    Nothing here is declared for the on-disk cache: its keys are derived
    from the functions themselves (:mod:`repro.checker.bundle`), so a
    spec function, scenario builder or fault schedule -- or a helper
    they reach, a base class included -- that changes is a miss.
    """

    name: str = ""
    title: str = ""
    grains: Tuple[str, ...] = ()
    scenario_prefixes: Mapping[str, PrefixBuilder] = {}
    fault_schedules: Tuple[FaultSchedule, ...] = ()
    compared_variables: Tuple[str, ...] = ()

    # --- required hooks ------------------------------------------------------

    def default_config(self):
        """A fresh default configuration object (a frozen dataclass with
        ``n_servers`` and ``quorum_size`` attributes)."""
        raise NotImplementedError

    def make_spec(self, grain: str, config=None) -> Specification:
        """Compose the specification for one grain.

        Raises ``KeyError`` containing ``"unknown or unmappable grain"``
        for grains outside :attr:`grains`."""
        raise NotImplementedError

    def make_mapping(self, grain: str):
        """The action mapping (spec action name -> implementation step)
        used to replay traces of ``grain`` against the implementation."""
        raise NotImplementedError

    def ensemble_factory(self, config) -> Callable[[], Any]:
        """A zero-argument factory building a fresh implementation
        ensemble for ``config``.  The ensemble exposes ``snapshot()``
        covering :attr:`compared_variables`, ``clone()`` and the step
        methods the mapping drives.

        **Refusal is atomic.**  A step answers True (it executed), False
        (it is not enabled) or raises an ``ImplError`` (a bug symptom;
        the partial writes are the crash state) -- and a step that
        answers False has changed nothing: all guards, then the first
        write, composite regions included.  The bottom-up explorer finds
        the enabled steps by running every mapped action on the one live
        ensemble and a replay continues past a stuck step, so a refusal
        that wrote first would leak into the run.  Lint rule C09 checks
        the contract.

        ``clone()`` returns an independent ensemble in the same state;
        the shrinker judges each candidate on a clone of the cursor it
        resumes from, so nothing a step can mutate may be shared.  The
        aliasing rule: every mutable container or object (list, set,
        dict, deque, node, network) is a fresh copy, objects that point
        at each other point at the *cloned* counterparts, and only
        values hashable by value (numbers, strings, tuples, frozen
        dataclasses, ``Rec``) may be shared.  ``return
        copy.deepcopy(self)`` satisfies all of it; a hand-written
        structural copy is ~20x cheaper.  Lint rule C08 checks the
        contract."""
        raise NotImplementedError

    # --- optional hooks ------------------------------------------------------

    def campaign_config(self):
        """The configuration a campaign uses when none is given.

        Defaults to :meth:`default_config`; override to shrink budgets
        for tractable campaign cells."""
        return self.default_config()

    def budget_limits(self, config) -> Dict[str, int]:
        """Per-action step budgets for the bottom-up implementation
        explorer, e.g. ``{"NodeCrash": config.max_crashes}``.  Actions
        not listed are unbudgeted."""
        return {}

    def config_meta(self, config) -> Dict[str, Any]:
        """Serialize a configuration into the campaign report's ``meta``
        block (must round-trip through :meth:`config_from_meta`)."""
        return dataclasses.asdict(config)

    def config_from_meta(self, meta: Mapping[str, Any]):
        """Rebuild a configuration from a report's ``meta`` block."""
        raise NotImplementedError

    # --- derived helpers -----------------------------------------------------

    def scenario_names(self) -> Tuple[str, ...]:
        """Scenario prefix names, in declaration order."""
        return tuple(self.scenario_prefixes)

    def fault_names(self) -> Tuple[str, ...]:
        """Fault schedule names, in matrix order."""
        return tuple(s.name for s in self.fault_schedules)

    def fault_schedule(self, name: str) -> FaultSchedule:
        """Look up a fault schedule by name; raises ``KeyError`` listing
        the available options."""
        for schedule in self.fault_schedules:
            if schedule.name == name:
                return schedule
        raise KeyError(
            f"unknown fault schedule {name!r}; options: "
            f"{[s.name for s in self.fault_schedules]}"
        )

    def scenario_prefix(
        self, name: str, spec: Specification, leader: int, quorum: Iterable[int]
    ) -> Scenario:
        """Build one of the named campaign prefixes; raises
        :class:`ScenarioError` when the prefix cannot be scripted for
        this specification (e.g. an action the grain does not expose)."""
        try:
            builder = self.scenario_prefixes[name]
        except KeyError:
            raise ScenarioError(
                f"unknown scenario prefix {name!r}; options: "
                f"{list(self.scenario_prefixes)}"
            ) from None
        return builder(spec, leader, tuple(sorted(quorum)))
