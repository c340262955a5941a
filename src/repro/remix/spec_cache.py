"""A process-level cache of composed specifications and action mappings,
with an on-disk persistence layer for derived spec products.

Composing a mixed-grained :class:`~repro.tla.spec.Specification` rebuilds
every module, enumerates all action instances and wires invariants --
which dominates the startup of small conformance jobs.  A campaign runs
O(grains x scenarios x faults x seeds) jobs over only O(grains) distinct
specifications, so the cache keys composed specs on ``(system, name,
config)`` (a plugin's configuration is a frozen, hashable dataclass).

Concurrent first calls for the same key are *single-flighted*: one
caller composes (or scripts a prefix) while the others wait on a
per-key gate and then reuse the finished object, so exactly one build
(and one miss) happens per key.

Forked campaign workers inherit the parent's populated cache by memory
image, so pre-warming once in the parent makes campaign startup
O(grains), not O(jobs).

One memory-only cache serves the campaign's judges
(:mod:`repro.remix.minimize`): one *prefix resume point* per lockstep
engine key and cell coordinate (:func:`cached_resume_point`):
where the lockstep loop stands after the coordinate's scripted prefix,
judged clean once per process on a fresh ensemble.  The points hold live
ensembles, so they never touch the disk and are only handed out as
clones; each process (a forked or resident worker included)
judges the prefixes it meets once and keeps them until :func:`clear`.

On-disk persistence
-------------------

Specifications themselves hold closures and cannot be pickled, but two
kinds of things derived from them are plain data, and both persist
across CLI invocations through one disk layer
(:mod:`repro.checker.disk_cache`: directory resolution, atomic temp file
+ rename writes, a damaged entry is a miss) under one key discipline
(:mod:`repro.checker.bundle`): an entry is keyed by a signature of what
deriving it read, so an edit to any of that misses -- and an edit to
anything else, another system's sources included, does not:

- scripted **scenario-prefix traces** (scenario + injected fault
  schedule, :func:`cached_prefix`), which every campaign cell -- top-down
  replay, bottom-up validation and the shrink stage's witness rebuilds --
  starts from.  Scripting reads the composed spec, the plugin's scenario
  builder, the fault schedule and the roles, and the key is made of
  exactly those: the spec's compile key and initial-state function, the
  builder function, the schedule by value, leader, follower and quorum.
  A coordinate whose scenario or fault cannot be scripted persists too,
  under the same key, as the :class:`~repro.system.plugin.ScenarioError`
  message it raises, so a warm request re-scripts nothing.  A coordinate
  no key can name is derive-only.
- **compile bundles** (:mod:`repro.checker.bundle`): the trust verdict,
  the guard prefixes and the generated kernel's code object, which
  ``CompiledSpec.__init__`` consults by itself -- :func:`cached_spec`,
  ``check`` / ``bugs`` hunts, ``serve`` and every ``repro worker`` get
  them with no call here.  :func:`stats` reports their traffic as
  ``bundle_hits`` / ``bundle_misses`` / ``bundle_stale`` beside the
  prefix layer's ``disk_hits`` / ``disk_misses``.

The location is ``~/.cache/repro-spec-cache`` unless
``REPRO_SPEC_CACHE_DIR`` overrides it (set it to ``off`` to disable
persistence).

Cached specifications are shared: callers must not mutate them (no
``spec.invariants`` surgery -- build a private spec for that).
Scenarios returned by :func:`cached_prefix` are fresh per call and safe
to extend.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.checker import bundle, disk_cache
from repro.checker.disk_cache import set_disk_cache_dir  # noqa: F401  (public here)
from repro.remix.registry import system_plugin
from repro.tla.spec import Specification

_LOCK = threading.Lock()
_SPECS: Dict[Tuple, Specification] = {}
_MAPPINGS: Dict[str, object] = {}
#: (labels, state values) per cell coordinate -- or, for a coordinate
#: that cannot be scripted, the ``ScenarioError`` message.
_PREFIXES: Dict[Tuple, Union[Tuple[tuple, tuple], str]] = {}
#: (prefix labels, resume point) per engine key + cell coordinate -- or
#: ``()`` when the prefix's judgment was not clean.  Memory only: the
#: points hold live ensembles.
_RESUME_POINTS: Dict[Tuple, Tuple] = {}
_STATS = {
    "hits": 0,
    "misses": 0,
    "prefix_hits": 0,
    "prefix_misses": 0,
    "disk_hits": 0,
    "disk_misses": 0,
    "resume_hits": 0,
    "resume_misses": 0,
    "resume_negative": 0,
}
#: Per-key gates for in-flight compositions.  The composing thread holds
#: the gate; waiters block on it, then re-check the cache.
_INFLIGHT: Dict[Any, threading.Lock] = {}


def _single_flight(
    cache: Dict,
    key: Any,
    build: Callable[[], Any],
    counters: Optional[Tuple[str, str]] = None,
) -> Any:
    """Return ``cache[key]``, composing via ``build`` at most once per key
    across concurrent callers.  ``counters`` names the (hit, miss) stats
    this cache counts into, if any."""
    while True:
        with _LOCK:
            value = cache.get(key)
            if value is not None:
                if counters:
                    _STATS[counters[0]] += 1
                return value
            gate = _INFLIGHT.get(key)
            if gate is None:
                gate = threading.Lock()
                gate.acquire()
                _INFLIGHT[key] = gate
                leader = True
            else:
                leader = False
        if not leader:
            # Wait for the composing thread, then re-check the cache (a
            # failed leader leaves the key absent and we retry as leader).
            gate.acquire()
            gate.release()
            continue
        try:
            value = build()
        except BaseException:
            with _LOCK:
                _INFLIGHT.pop(key, None)
            gate.release()
            raise
        with _LOCK:
            cache[key] = value
            if counters:
                _STATS[counters[1]] += 1
            _INFLIGHT.pop(key, None)
        gate.release()
        return value


def cached_spec(
    name: str, config: Any = None, *, system: str = "zookeeper"
) -> Specification:
    """A shared, composed specification for ``(system, name, config)``.

    The first call per key composes via the system plugin's
    ``make_spec`` and primes the instance index; later calls (and forked
    children) reuse the same object.  Concurrent first calls compose
    exactly once (single-flight).
    """
    plugin = system_plugin(system)
    config = config or plugin.default_config()
    key = (system, name, config)

    def build() -> Specification:
        spec = plugin.make_spec(name, config)
        spec.action_instances()  # pre-enumerate so workers inherit the index
        # Pre-compile the incremental engine core (interference matrix,
        # outcome memo groups) in the parent: the campaign's
        # forked workers and every suffix RandomWalker then share it by
        # memory image instead of recompiling per cell.
        from repro.checker.engine import compiled_for

        compiled_for(spec)
        return spec

    return _single_flight(_SPECS, key, build, ("hits", "misses"))


def cached_mapping(name: str, *, system: str = "zookeeper"):
    """The shared :class:`~repro.remix.mapping.ActionMapping` for one
    grain of one system (mappings depend only on the grain)."""
    return _single_flight(
        _MAPPINGS,
        ("mapping", system, name),
        lambda: system_plugin(system).make_mapping(name),
    )


def cached_resume_point(
    key: Tuple, judge_prefix: Callable[[], Optional[Tuple]], *runs
) -> Optional[Tuple]:
    """A clone of the *prefix resume point* under ``key``, for runs that
    all start with the prefix's labels.

    A prefix resume point is a lockstep engine's resume point ``(n,
    ensemble, *model side)`` at the end of one cell coordinate's scripted
    prefix, once the prefix has been judged on a fresh ensemble and found
    clean: every step executed, nothing differed.  ``judge_prefix()``
    runs that judgment -- once per key and process, single-flighted --
    and returns ``(prefix labels, point)``, or None when the judgment was
    not clean, which is kept as a negative entry.  ``key`` names
    everything the judgment read: the engine's key plus the coordinate.

    Returns a ``clone()`` of the point, never the point itself, when
    every label sequence in ``runs`` starts with the prefix's labels;
    None for a negative entry or a run that leaves the prefix.  Counted
    in :func:`stats`: ``resume_misses`` (this call judged the prefix),
    ``resume_hits`` (a clone of an existing point handed out),
    ``resume_negative`` (answered by a negative entry)."""
    judged = []

    def build() -> Tuple:
        judged.append(True)
        return judge_prefix() or ()

    entry = _single_flight(_RESUME_POINTS, key, build)
    point = None
    if entry:
        labels, cached = entry
        if all(tuple(run[: len(labels)]) == labels for run in runs):
            point = (cached[0], cached[1].clone()) + cached[2:]
    if judged:
        outcome = "resume_misses"
    elif not entry:
        outcome = "resume_negative"
    elif point is not None:
        outcome = "resume_hits"
    else:
        return None  # a run that leaves the prefix: nothing to count
    with _LOCK:
        _STATS[outcome] += 1
    return point


# -------------------------------------------------------- on-disk layer


def _prefix_path(
    plugin, spec: Specification, scenario: str, fault: str, leader: int,
    follower: int, quorum: Tuple[int, ...],
) -> Optional[str]:
    """Where one coordinate's prefix entry lives: keyed by what scripting
    it reads -- the composed spec (its compile key and initial-state
    function), the scenario builder, the fault schedule by value and the
    roles.  None with persistence off or for a coordinate no key can name
    (derive-only).  Raises ``KeyError`` for an unknown fault, as
    scripting would."""
    from repro.checker.engine import compiled_for

    if disk_cache.disk_dir() is None:
        return None
    compile_key = bundle.signature(compiled_for(spec))
    builder = plugin.scenario_prefixes.get(scenario)
    if compile_key is None or builder is None:
        return None
    key = bundle.Signature()
    key.text("prefix", compile_key, leader, follower, quorum)
    try:
        key.function(spec.init)
        key.function(builder)
        key.config(plugin.fault_schedule(fault))
        return disk_cache.entry_path(bundle.namespace("prefixes"), key.hexdigest())
    except bundle.Unpersistable:
        return None


def cached_prefix(
    grain: str,
    config: Any,
    scenario: str,
    fault: str,
    leader: int,
    follower: int,
    quorum: Optional[Tuple[int, ...]] = None,
    *,
    system: str = "zookeeper",
):
    """The scripted campaign prefix for one cell coordinate: scenario
    prefix plus injected fault schedule, as a fresh
    :class:`~repro.system.plugin.Scenario`.

    Resolution order: per-process memory (forked workers inherit it),
    then the on-disk layer (repeated CLI invocations start warm), then
    scripting it from scratch (and persisting the labels + state values,
    which unlike specifications are plain picklable data).  The last two
    run once per key, single-flighted: concurrent first callers wait for
    one script.
    :class:`~repro.system.plugin.ScenarioError` (an inapplicable
    scenario or fault for this grain/config) is an answer like any
    other: its message is cached at both levels and raised again
    verbatim, so no later call re-scripts the coordinate to find out.
    """
    from repro.system.plugin import Scenario, ScenarioError
    from repro.tla.state import State

    plugin = system_plugin(system)
    quorum = tuple(quorum) if quorum is not None else config.servers
    spec = cached_spec(grain, config, system=system)
    key = (system, grain, config, scenario, fault, leader, follower, quorum)

    def build() -> Union[Tuple[tuple, tuple], str]:
        path = _prefix_path(plugin, spec, scenario, fault, leader, follower, quorum)
        payload = None
        if path is not None:
            payload = disk_cache.load(path)
            with _LOCK:
                _STATS["disk_misses" if payload is None else "disk_hits"] += 1
        if isinstance(payload, str):
            return payload
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and len(payload[0]) == len(payload[1]) - 1
        ):
            return tuple(payload[0]), tuple(payload[1])
        try:
            built = plugin.scenario_prefix(scenario, spec, leader, quorum)
            plugin.fault_schedule(fault).inject(built, leader, follower)
        except ScenarioError as error:
            entry: Union[Tuple[tuple, tuple], str] = str(error)
        else:
            entry = (
                tuple(built.labels),
                tuple(state.values for state in built.states),
            )
        if path is not None:
            disk_cache.store(path, entry)
        return entry

    entry = _single_flight(_PREFIXES, key, build, ("prefix_hits", "prefix_misses"))
    if isinstance(entry, str):
        raise ScenarioError(entry)
    labels, values = entry
    states = [State(spec.schema, v) for v in values]
    scenario_obj = Scenario(spec, state=states[-1])
    scenario_obj.labels = list(labels)
    scenario_obj.states = states
    return scenario_obj


def stats() -> Dict[str, int]:
    """Cache hit/miss counters (for tests and campaign reports).
    ``disk_hits`` / ``disk_misses`` are prefix entries; compile bundles
    (:mod:`repro.checker.bundle`) count under their own ``bundle_*`` keys;
    ``resume_*`` are prefix resume points (:func:`cached_resume_point`)."""
    with _LOCK:
        return dict(_STATS, size=len(_SPECS), **bundle.stats())


def clear() -> None:
    """Drop every in-memory cached spec/mapping/prefix/resume
    point and reset the counters (in-flight compositions, if any, finish
    into the fresh cache).  On-disk entries are untouched -- they are
    invalidated by their keys, not by process lifecycle."""
    with _LOCK:
        _SPECS.clear()
        _MAPPINGS.clear()
        _PREFIXES.clear()
        _RESUME_POINTS.clear()
        for counter in _STATS:
            _STATS[counter] = 0
    bundle.reset_stats()
