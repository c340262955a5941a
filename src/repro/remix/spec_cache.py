"""A process-level cache of composed specifications and action mappings,
with an on-disk persistence layer for derived spec products.

Composing a mixed-grained :class:`~repro.tla.spec.Specification` rebuilds
every module, enumerates all action instances and wires invariants --
which dominates the startup of small conformance jobs.  A campaign runs
O(grains x scenarios x faults x seeds) jobs over only O(grains) distinct
specifications, so the cache keys composed specs on ``(name, config)``
(both hashable: :class:`~repro.zookeeper.config.ZkConfig` is a frozen
dataclass that embeds the :class:`SpecVariant`).

Concurrent first calls for the same key are *single-flighted*: one
caller composes while the others wait on a per-key gate and then reuse
the finished object, so exactly one composition (and one ``misses``
increment) happens per key -- previously both paid the full composition
and one object was discarded.

Forked campaign workers inherit the parent's populated cache by memory
image, so pre-warming once in the parent makes campaign startup
O(grains), not O(jobs).

On-disk persistence
-------------------

Specifications themselves hold closures and cannot be pickled, but two
kinds of things derived from them are plain data, and both persist
across CLI invocations through one disk layer
(:mod:`repro.checker.disk_cache`: directory resolution, atomic temp file
+ rename writes, a damaged entry is a miss):

- scripted **scenario-prefix traces** (scenario + injected fault
  schedule, :func:`cached_prefix`), which every campaign cell -- top-down
  replay, bottom-up validation and the shrink stage's witness rebuilds --
  starts from.  A coordinate whose scenario or fault cannot be scripted
  persists too, as the :class:`~repro.system.plugin.ScenarioError`
  message it raises, so a warm request re-scripts nothing.  Entries live
  under one directory per *system and spec-source digest* (a SHA-1 over
  the plugin's declared source packages plus a format version), so
  editing any spec source invalidates that system's whole cache -- and
  nobody else's -- rather than ever serving stale traces.
- **compile bundles** (:mod:`repro.checker.bundle`): the trust verdict,
  the guard prefixes and the generated kernel's code object, which
  ``CompiledSpec.__init__`` consults by itself -- :func:`cached_spec`,
  ``check`` / ``bugs`` hunts, ``serve`` and every ``repro worker`` get
  them with no call here.  Their key is derived from the spec's own
  functions, not from the plugin; :func:`stats` reports their traffic as
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

import hashlib
import json
import os
import threading
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.checker import bundle, disk_cache
from repro.checker.disk_cache import set_disk_cache_dir  # noqa: F401  (public here)
from repro.tla.spec import Specification
from repro.zookeeper.config import SpecVariant, ZkConfig

#: Bump when the on-disk payload format changes.
_DISK_FORMAT = 1

_LOCK = threading.Lock()
_SPECS: Dict[Tuple, Specification] = {}
_MAPPINGS: Dict[str, object] = {}
#: (labels, state values) per cell coordinate -- or, for a coordinate
#: that cannot be scripted, the ``ScenarioError`` message.
_PREFIXES: Dict[Tuple, Union[Tuple[tuple, tuple], str]] = {}
_STATS = {
    "hits": 0,
    "misses": 0,
    "prefix_hits": 0,
    "prefix_misses": 0,
    "disk_hits": 0,
    "disk_misses": 0,
}
#: Per-key gates for in-flight compositions.  The composing thread holds
#: the gate; waiters block on it, then re-check the cache.
_INFLIGHT: Dict[Any, threading.Lock] = {}

#: Memoized source digest of the default (zookeeper) system.  Kept as
#: its own module attribute -- rather than an entry of
#: ``_SOURCE_DIGESTS`` -- so tests can monkeypatch it to simulate a
#: spec-source edit.
_SOURCE_DIGEST: Optional[str] = None

#: Memoized source digests of non-default systems, keyed by plugin name.
_SOURCE_DIGESTS: Dict[str, str] = {}


def _single_flight(
    cache: Dict, key: Any, build: Callable[[], Any], count: bool
) -> Any:
    """Return ``cache[key]``, composing via ``build`` at most once per key
    across concurrent callers.  ``count`` updates the hit/miss stats
    (specs are counted, mappings are not)."""
    while True:
        with _LOCK:
            value = cache.get(key)
            if value is not None:
                if count:
                    _STATS["hits"] += 1
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
            if count:
                _STATS["misses"] += 1
            _INFLIGHT.pop(key, None)
        gate.release()
        return value


def _plugin(system: str):
    """Resolve a system plugin by name (lazy import avoids a cycle with
    the package ``__init__``'s eager campaign import)."""
    from repro.remix.registry import system_plugin

    return system_plugin(system)


def cached_spec(
    name: str,
    config: Optional[ZkConfig] = None,
    variant: Optional[SpecVariant] = None,
    *,
    system: str = "zookeeper",
) -> Specification:
    """A shared, composed specification for ``(system, name, config)``.

    The first call per key composes via the system plugin's
    ``make_spec`` and primes the instance index; later calls (and forked
    children) reuse the same object.  Concurrent first calls compose
    exactly once (single-flight).  ``variant`` is a ZooKeeper-only
    convenience that folds into the config before keying.
    """
    plugin = _plugin(system)
    config = config or plugin.default_config()
    if variant is not None:
        config = config.with_variant(variant)
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

    return _single_flight(_SPECS, key, build, count=True)


def cached_mapping(name: str, *, system: str = "zookeeper"):
    """The shared :class:`~repro.remix.mapping.ActionMapping` for one
    grain of one system (mappings depend only on the grain)."""
    return _single_flight(
        _MAPPINGS,
        ("mapping", system, name),
        lambda: _plugin(system).make_mapping(name),
        count=False,
    )


# -------------------------------------------------------- on-disk layer


def _compute_digest(system: str) -> str:
    import importlib

    from repro.tla.codegen import CODEGEN_VERSION

    # The kernel emitter's version participates in the invalidation rule:
    # cached artifacts derived under one emitter (memo layouts, traces
    # reproduced through compiled runs) are orphaned when the emitted
    # code's shape or semantics change.
    digest = hashlib.sha1(
        f"format/{_DISK_FORMAT}/codegen/{CODEGEN_VERSION}".encode()
    )
    for package in _plugin(system).spec_source_packages:
        root = os.path.dirname(importlib.import_module(package).__file__)
        digest.update(str(disk_cache.source_digest(root)).encode())
    return digest.hexdigest()[:20]


def source_digest(system: str = "zookeeper") -> str:
    """A SHA-1 over one system's spec-defining sources (the packages its
    plugin declares in ``spec_source_packages``) plus the payload format
    version.

    This is the cache's *invalidation rule*: entries live under one
    directory per (system, digest), so any edit to any spec source
    orphans every previous entry of that system -- and only that system
    -- instead of ever serving a stale trace."""
    global _SOURCE_DIGEST
    if system == "zookeeper":
        if _SOURCE_DIGEST is None:
            _SOURCE_DIGEST = _compute_digest(system)
        return _SOURCE_DIGEST
    digest = _SOURCE_DIGESTS.get(system)
    if digest is None:
        digest = _SOURCE_DIGESTS[system] = _compute_digest(system)
    return digest


def _prefix_path(key_json: str, system: str) -> Optional[str]:
    return disk_cache.entry_path(f"{system}-{source_digest(system)}", key_json)


def _disk_load(key_json: str, system: str) -> Optional[Any]:
    path = _prefix_path(key_json, system)
    if path is None:
        return None
    payload = disk_cache.load(path)
    with _LOCK:
        _STATS["disk_misses" if payload is None else "disk_hits"] += 1
    return payload


def _disk_store(key_json: str, payload: Any, system: str) -> None:
    path = _prefix_path(key_json, system)
    if path is not None:
        disk_cache.store(path, payload)


def _prefix_key_json(
    grain: str,
    config: ZkConfig,
    scenario: str,
    fault: str,
    leader: int,
    follower: int,
    quorum: Tuple[int, ...],
    system: str,
) -> str:
    return json.dumps(
        {
            "kind": "prefix",
            "system": system,
            "grain": grain,
            "config": asdict(config),
            "scenario": scenario,
            "fault": fault,
            "leader": leader,
            "follower": follower,
            "quorum": list(quorum),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def cached_prefix(
    grain: str,
    config: ZkConfig,
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
    which unlike specifications are plain picklable data).
    :class:`~repro.system.plugin.ScenarioError` (an inapplicable
    scenario or fault for this grain/config) is an answer like any
    other: its message is cached at both levels and raised again
    verbatim, so no later call re-scripts the coordinate to find out.
    """
    from repro.system.plugin import Scenario, ScenarioError
    from repro.tla.state import State

    plugin = _plugin(system)
    quorum = tuple(quorum) if quorum is not None else config.servers
    spec = cached_spec(grain, config, system=system)
    key = (system, grain, config, scenario, fault, leader, follower, quorum)
    with _LOCK:
        entry = _PREFIXES.get(key)
        if entry is not None:
            _STATS["prefix_hits"] += 1
    if entry is None:
        key_json = _prefix_key_json(
            grain, config, scenario, fault, leader, follower, quorum, system
        )
        payload = _disk_load(key_json, system)
        if isinstance(payload, str):
            entry = payload
        elif (
            isinstance(payload, tuple)
            and len(payload) == 2
            and len(payload[0]) == len(payload[1]) - 1
        ):
            entry = (tuple(payload[0]), tuple(payload[1]))
        else:
            try:
                built = plugin.scenario_prefix(scenario, spec, leader, quorum)
                plugin.fault_schedule(fault).inject(built, leader, follower)
            except ScenarioError as error:
                entry = str(error)
            else:
                entry = (
                    tuple(built.labels),
                    tuple(state.values for state in built.states),
                )
            _disk_store(key_json, entry, system)
        with _LOCK:
            _PREFIXES.setdefault(key, entry)
            _STATS["prefix_misses"] += 1
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
    (:mod:`repro.checker.bundle`) count under their own ``bundle_*`` keys."""
    with _LOCK:
        return dict(_STATS, size=len(_SPECS), **bundle.stats())


def clear() -> None:
    """Drop every in-memory cached spec/mapping/prefix and reset the
    counters (in-flight compositions, if any, finish into the fresh
    cache).  On-disk entries are untouched -- they are invalidated by
    the source digest, not by process lifecycle."""
    with _LOCK:
        _SPECS.clear()
        _MAPPINGS.clear()
        _PREFIXES.clear()
        for counter in _STATS:
            _STATS[counter] = 0
    bundle.reset_stats()
