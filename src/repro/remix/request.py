"""The serializable campaign request: every axis, budget, and option of
a conformance campaign in one frozen, JSON-round-trippable value.

:class:`CampaignRequest` is the single way work enters the campaign
stack -- the CLI parses flags into one, the campaign server reads one
per connection as a JSON line, benchmarks and tests construct them
directly -- and it is where *all* axis validation happens, in one place
with one error format (:class:`RequestError`).  By the time a request
exists, it is normalized (defaults resolved against the system plugin,
sequences frozen to tuples, the config expanded to its serialized
form), so ``request -> to_json() -> from_json() -> request`` is an
identity and two equal requests produce bitwise-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.checker.backends import BACKENDS
from repro.remix.registry import system_plugin

#: Version tag of the request JSON; bump on breaking schema changes.
REQUEST_SCHEMA = "repro.campaign.request/1"

#: The two conformance directions a campaign can schedule.
DIRECTIONS: Tuple[str, ...] = ("topdown", "bottomup")

#: Default direction axis: top-down only, matching pre-/3 campaigns.
DEFAULT_DIRECTIONS: Tuple[str, ...] = ("topdown",)


class RequestError(ValueError):
    """A campaign request field failed validation (unknown axis value,
    bad budget, unknown system/backend)."""


def _fail(field_name: str, message: str) -> None:
    raise RequestError(f"invalid campaign request: {field_name}: {message}")


def _unknown(field_name: str, value: Any, options: Sequence[str]) -> None:
    _fail(field_name, f"unknown value {value!r}; options: {list(options)}")


def _seconds(field_name: str, value: Any) -> float:
    """A wall-clock field (``"5s"`` or a number): finite and positive.  A
    NaN deadline never passes, and neither NaN nor infinity is JSON."""
    if isinstance(value, bool):
        _fail(field_name, f"expected seconds, got {value!r}")
    try:
        seconds = parse_budget(value) if isinstance(value, str) else float(value)
    except (TypeError, ValueError) as error:
        _fail(field_name, str(error))
    if not math.isfinite(seconds) or seconds <= 0:
        _fail(field_name, f"{field_name} must be finite and positive, got {seconds}")
    return seconds


def _count(field_name: str, value: Any, minimum: Optional[int] = 0) -> int:
    """An integer field, at least ``minimum`` (``"3"`` and ``3.0`` are 3;
    ``1.7`` is an error, never silently 1)."""
    if isinstance(value, float) and not value.is_integer():
        _fail(field_name, f"expected an integer, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError):
        _fail(field_name, f"expected an integer, got {value!r}")
    if minimum is not None and number < minimum:
        _fail(field_name, f"{field_name} must be at least {minimum}, got {number}")
    return number


def parse_budget(text: str) -> float:
    """Parse a wall-clock budget like ``"5s"``, ``"2m"`` or ``"90"``."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        scale, text = 0.001, text[:-2]
    elif text.endswith("s"):
        scale, text = 1.0, text[:-1]
    elif text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("h"):
        scale, text = 3600.0, text[:-1]
    try:
        value = float(text) * scale
    except ValueError:
        raise ValueError(f"unparseable budget {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"budget must be finite and positive, got {value}")
    return value


@dataclass(frozen=True, eq=True)
class CampaignRequest:
    """One campaign, fully specified and wire-ready.

    Construction *normalizes and validates*: ``None`` axes resolve to
    the system plugin's defaults, sequences freeze to tuples, a budget
    string like ``"5s"`` parses to seconds, a config object serializes
    to its plugin ``config_meta`` dict -- and every axis value is
    checked against the plugin in one place, raising
    :class:`RequestError` with a single error format instead of the
    scattered ``KeyError`` styles the old 17-kwarg constructor grew.
    """

    system: str = "zookeeper"
    directions: Sequence[str] = DEFAULT_DIRECTIONS
    grains: Optional[Sequence[str]] = None
    scenarios: Optional[Sequence[str]] = None
    faults: Optional[Sequence[str]] = None
    seeds: int = 1
    traces: int = 2
    max_steps: int = 12
    seed: int = 0
    workers: int = 1
    backend: str = "fork"
    budget: Optional[float] = None
    shrink: bool = False
    #: Hard per-task wall clock in seconds (``None`` = no watchdog): a
    #: cell that runs longer has its worker killed and is retried.
    task_timeout: Optional[float] = None
    #: Timeouts and worker deaths one task may survive before it is
    #: quarantined as poison; a task whose worker dies twice is
    #: quarantined whatever this says (``SupervisionPolicy.quarantine_after``).
    task_retries: int = 2
    #: Shared secret for the socket backend's worker handshake.
    auth_token: Optional[str] = None
    #: Serialized configuration (the plugin's ``config_meta`` dict).
    #: Accepts a config *object* at construction; ``None`` resolves to
    #: the plugin's campaign default.
    config: Optional[Mapping[str, Any]] = field(default=None)

    def __post_init__(self):
        set_field = object.__setattr__  # frozen dataclass
        try:
            plugin = system_plugin(self.system)
        except KeyError as error:
            _fail("system", error.args[0] if error.args else str(error))

        directions = tuple(self.directions)
        for name in directions:
            if name not in DIRECTIONS:
                _unknown("directions", name, DIRECTIONS)
        set_field(self, "directions", directions)

        grains = (
            tuple(self.grains) if self.grains is not None else tuple(plugin.grains)
        )
        for name in grains:
            if name not in plugin.grains:
                _unknown("grains", name, plugin.grains)
        set_field(self, "grains", grains)

        scenarios = (
            tuple(self.scenarios)
            if self.scenarios is not None
            else plugin.scenario_names()
        )
        for name in scenarios:
            if name not in plugin.scenario_prefixes:
                _unknown("scenarios", name, plugin.scenario_names())
        set_field(self, "scenarios", scenarios)

        faults = (
            tuple(self.faults) if self.faults is not None else plugin.fault_names()
        )
        for name in faults:
            try:
                plugin.fault_schedule(name)
            except KeyError:
                _unknown("faults", name, plugin.fault_names())
        set_field(self, "faults", faults)

        if self.backend not in BACKENDS:
            _unknown("backend", self.backend, BACKENDS)

        for name in ("budget", "task_timeout"):
            if getattr(self, name) is not None:
                set_field(self, name, _seconds(name, getattr(self, name)))
        if self.auth_token is not None:
            set_field(self, "auth_token", str(self.auth_token))

        # Counts are non-negative; zero seeds or workers still means one.
        # A cell of zero traces checks nothing, so ``traces`` starts at 1
        # (``max_steps=0`` still judges the scripted prefix).
        for name in ("seeds", "workers", "max_steps", "task_retries"):
            set_field(self, name, _count(name, getattr(self, name)))
        set_field(self, "traces", _count("traces", self.traces, minimum=1))
        set_field(self, "seeds", max(1, self.seeds))
        set_field(self, "workers", max(1, self.workers))
        set_field(self, "seed", _count("seed", self.seed, minimum=None))
        set_field(self, "shrink", bool(self.shrink))

        config = self.config
        if config is None:
            config = plugin.config_meta(plugin.campaign_config())
        elif not isinstance(config, Mapping):
            try:
                config = plugin.config_meta(config)
            except TypeError:
                _fail(
                    "config",
                    f"expected a {self.system} config object or its "
                    f"serialized dict, got {type(config).__name__}",
                )
        else:
            config = dict(config)
        set_field(self, "config", config)

    # -------------------------------------------------------- accessors

    def config_object(self) -> Any:
        """Rebuild the plugin's config object from the serialized form."""
        return system_plugin(self.system).config_from_meta(
            {"system": self.system, "config": self.config}
        )

    def with_options(self, **changes: Any) -> "CampaignRequest":
        """A copy with fields replaced (re-normalized and re-validated)."""
        return replace(self, **changes)

    # ----------------------------------------------------------- wire

    def to_json(self) -> Dict[str, Any]:
        """The fully-normalized wire form (every field explicit)."""
        return {
            "schema": REQUEST_SCHEMA,
            "system": self.system,
            "directions": list(self.directions),
            "grains": list(self.grains),
            "scenarios": list(self.scenarios),
            "faults": list(self.faults),
            "seeds": self.seeds,
            "traces": self.traces,
            "max_steps": self.max_steps,
            "seed": self.seed,
            "workers": self.workers,
            "backend": self.backend,
            "budget": self.budget,
            "shrink": self.shrink,
            "task_timeout": self.task_timeout,
            "task_retries": self.task_retries,
            "auth_token": self.auth_token,
            "config": dict(self.config),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "CampaignRequest":
        """Rebuild a request from :meth:`to_json` output.

        Every field (and the ``schema`` tag) is optional, so
        hand-written request files only need the fields they care
        about; a key that is not a field is an error, never silently a
        different campaign than the one asked for."""
        if not isinstance(data, Mapping):
            raise RequestError(
                f"invalid campaign request: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema is not None and schema != REQUEST_SCHEMA:
            raise RequestError(
                f"invalid campaign request: schema: unsupported "
                f"{schema!r} (expected {REQUEST_SCHEMA!r})"
            )
        kwargs = {key: value for key, value in data.items() if key != "schema"}
        unknown = sorted(kwargs.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise RequestError(
                f"invalid campaign request: unknown field(s) {unknown}"
            )
        return cls(**kwargs)


def from_envelope(data: Any) -> CampaignRequest:
    """The request a client sent to ``serve`` or ``campaign --request``:
    a bare :meth:`CampaignRequest.to_json` object, or an envelope
    ``{"request": {...}, "deadline": seconds}`` whose deadline folds into
    the budget (the smaller wins).  As strict as :meth:`CampaignRequest.
    from_json`: any other envelope key is an error."""
    if not (isinstance(data, Mapping) and "request" in data):
        return CampaignRequest.from_json(data)
    unknown = sorted(data.keys() - {"request", "deadline"})
    if unknown:
        raise RequestError(f"invalid campaign request: unknown envelope key(s) {unknown}")
    request = CampaignRequest.from_json(data["request"])
    if data.get("deadline") is None:
        return request
    deadline = _seconds("deadline", data["deadline"])
    budget = deadline if request.budget is None else min(request.budget, deadline)
    return request.with_options(budget=budget)
