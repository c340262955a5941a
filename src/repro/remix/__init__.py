"""Remix: composition, deterministic replay and conformance checking.

Every public name loads on first use (a module ``__getattr__``), so
resolving a system plugin through :mod:`repro.remix.registry` imports
the registry alone, not the campaign, the service, the backends or the
shrinker behind the other names.
"""

from importlib import import_module
from typing import Any, List

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ActionMapping": "mapping",
    "CampaignJob": "campaign",
    "CampaignReport": "campaign",
    "CampaignRequest": "request",
    "CampaignServer": "service",
    "EVENT_SCHEMA": "service",
    "RequestError": "request",
    "ConformanceOracle": "minimize",
    "Coordinator": "coordinator",
    "Direction": "minimize",
    "Discrepancy": "coordinator",
    "MappedAction": "mapping",
    "ReplayResult": "coordinator",
    "ImplExplorer": "trace_validation",
    "TraceValidator": "trace_validation",
    "ValidationIssue": "trace_validation",
    "ValidationOracle": "minimize",
    "ValidationReport": "trace_validation",
    "cached_mapping": "spec_cache",
    "cached_prefix": "spec_cache",
    "cached_spec": "spec_cache",
    "rebuild_witness": "minimize",
    "register_system": "registry",
    "registered_systems": "registry",
    "replay_min_trace": "minimize",
    "run_campaign": "campaign",
    "serve_request": "service",
    "shrink_finding": "minimize",
    "system_plugin": "registry",
    "unreplayable_min_traces": "minimize",
    "validation_findings": "campaign",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
