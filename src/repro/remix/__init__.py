"""Remix: composition, deterministic replay and conformance checking."""

from repro.remix.campaign import (
    CampaignJob,
    CampaignReport,
    run_campaign,
    validation_findings,
)
from repro.remix.coordinator import (
    COMPARED_VARIABLES,
    Coordinator,
    Discrepancy,
    ReplayResult,
)
from repro.remix.mapping import ActionMapping, MappedAction, mapping_for
from repro.remix.minimize import (
    ConformanceOracle,
    Direction,
    ValidationOracle,
    rebuild_witness,
    replay_min_trace,
    shrink_finding,
    unreplayable_min_traces,
)
from repro.remix.registry import (
    SpecRegistry,
    register_system,
    registered_systems,
    system_plugin,
)
from repro.remix.request import CampaignRequest, RequestError
from repro.remix.service import EVENT_SCHEMA, CampaignServer, serve_request
from repro.remix.spec_cache import cached_mapping, cached_prefix, cached_spec
from repro.remix.trace_validation import (
    ImplExplorer,
    TraceValidator,
    ValidationIssue,
    ValidationReport,
)

__all__ = [
    "ActionMapping",
    "COMPARED_VARIABLES",
    "CampaignJob",
    "CampaignReport",
    "CampaignRequest",
    "CampaignServer",
    "EVENT_SCHEMA",
    "RequestError",
    "ConformanceOracle",
    "Coordinator",
    "Direction",
    "Discrepancy",
    "MappedAction",
    "ReplayResult",
    "ImplExplorer",
    "SpecRegistry",
    "TraceValidator",
    "ValidationIssue",
    "ValidationOracle",
    "ValidationReport",
    "cached_mapping",
    "cached_prefix",
    "cached_spec",
    "mapping_for",
    "rebuild_witness",
    "register_system",
    "registered_systems",
    "replay_min_trace",
    "run_campaign",
    "serve_request",
    "shrink_finding",
    "system_plugin",
    "unreplayable_min_traces",
    "validation_findings",
]
