"""The Remix registries: system plugins and multi-grained specifications.

Two registries live here:

- The **system-plugin registry** (:func:`register_system`,
  :func:`system_plugin`, :func:`registered_systems`) maps a system name
  (``--system`` on the CLI) to its
  :class:`~repro.system.plugin.SystemPlugin`.  Built-in plugins --
  ZooKeeper (the paper's subject) and Raft -- are imported lazily on
  first lookup; third-party plugins register themselves by calling
  :func:`register_system` at import time.
- The **specification registry** (:class:`SpecRegistry`, §3.5.1) wraps
  :mod:`repro.zookeeper.specs`: Remix keeps multi-grained
  specifications of each module and composes the selected granularities
  into a mixed-grained specification, automatically selecting the
  invariants applicable to the composition.
"""

from __future__ import annotations

import importlib
import threading
from typing import Callable, Dict, List, Optional

from repro.system.plugin import SystemPlugin
from repro.tla.spec import Specification
from repro.zookeeper.config import SpecVariant, ZkConfig
from repro.zookeeper.specs import MODULE_FACTORIES, SELECTIONS, build_spec

# ------------------------------------------------------ system plugins

#: Registered plugins by name.  Mutated only under ``_SYSTEMS_LOCK``.
_SYSTEM_PLUGINS: Dict[str, SystemPlugin] = {}

#: Built-in plugins, imported on demand: importing the module registers
#: the plugin (each calls :func:`register_system` at import time).
_BUILTIN_SYSTEMS: Dict[str, str] = {
    "zookeeper": "repro.zookeeper.plugin",
    "raft": "repro.raft.plugin",
}

_SYSTEMS_LOCK = threading.Lock()


def register_system(plugin: SystemPlugin) -> SystemPlugin:
    """Register a system plugin under ``plugin.name``.

    Registering the same name again replaces the previous plugin (so a
    test can substitute a doctored plugin).  Returns the plugin for use
    as a decorator-style one-liner."""
    if not plugin.name:
        raise ValueError("system plugin must set a non-empty name")
    with _SYSTEMS_LOCK:
        _SYSTEM_PLUGINS[plugin.name] = plugin
    return plugin


def _load_builtin(name: str) -> None:
    module = _BUILTIN_SYSTEMS.get(name)
    if module is not None and name not in _SYSTEM_PLUGINS:
        importlib.import_module(module)  # import self-registers


def system_plugin(name: str) -> SystemPlugin:
    """Resolve a system plugin by name.

    Raises ``KeyError`` listing the registered plugin names when the
    system is unknown (what the CLI surfaces for ``--system typo``)."""
    _load_builtin(name)
    try:
        return _SYSTEM_PLUGINS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; registered plugins: "
            f"{registered_systems()}"
        ) from None


def registered_systems() -> List[str]:
    """Names of every registered plugin (built-ins included), sorted."""
    for name in _BUILTIN_SYSTEMS:
        _load_builtin(name)
    return sorted(_SYSTEM_PLUGINS)


# ------------------------------------------------- spec registry (§3.5.1)


class SpecRegistry:
    """Multi-grained specification registry.

    New granularities can be registered at runtime (the paper: "if there
    is no specification at the desired granularity, one can write a new
    specification.  The new specification will then be added into
    Remix").
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
        self,
        name: str,
        selection: Dict[str, str],
        config: Optional[ZkConfig] = None,
        variant: Optional[SpecVariant] = None,
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
        config = config or ZkConfig()
        if variant is not None:
            config = config.with_variant(variant)
        return build_spec(name, selection, config, self._entries)

    def compose_named(
        self,
        name: str,
        config: Optional[ZkConfig] = None,
        variant: Optional[SpecVariant] = None,
    ) -> Specification:
        """Compose one of the predefined Table 1 rows."""
        return self.compose(name, SELECTIONS[name], config, variant)
