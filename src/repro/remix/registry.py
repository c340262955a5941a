"""The Remix system-plugin registry.

:func:`register_system`, :func:`system_plugin` and
:func:`registered_systems` map a system name (``--system`` on the CLI)
to its :class:`~repro.system.plugin.SystemPlugin`.  Built-in plugins --
ZooKeeper (the paper's subject) and Raft -- are imported lazily on first
lookup; third-party plugins register themselves by calling
:func:`register_system` at import time.  A system's own specification
registry lives in its package (ZooKeeper's multi-grained one, §3.5.1, is
:class:`repro.zookeeper.specs.SpecRegistry`).
"""

from __future__ import annotations

import importlib
import threading
from typing import Dict, List

from repro.system.plugin import SystemPlugin

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
