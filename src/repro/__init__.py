"""repro: reproduction of "Multi-Grained Specifications for Distributed
System Model Checking and Verification" (EuroSys '25).

The package provides:

- :mod:`repro.tla` -- a pure-Python specification framework in the style of
  TLA+: immutable states, guarded actions, modules, and composition with
  interaction-preservation checking.
- :mod:`repro.checker` -- the explicit-state exploration engine playing
  the role of TLC: fingerprinted BFS and DFS plus one seeded random walk,
  all on one sequential successor path.
- :mod:`repro.zab` -- the Zab protocol specification and the improved
  protocol of the paper's Section 5.4.
- :mod:`repro.zookeeper` -- the multi-grained ZooKeeper system
  specification (baseline, atomicity-split, concurrency-aware), its spec
  registry and the mixed-grained specifications mSpec-1..mSpec-4.
- :mod:`repro.impl` -- a deterministic ZooKeeper implementation simulator
  with the six paper bugs, used for conformance checking.
- :mod:`repro.remix` -- the Remix framework: system-plugin registry,
  deterministic-replay coordinator and the conformance campaign
  (one way in: ``run_campaign(CampaignRequest)``).
- :mod:`repro.analysis` -- effort metrics (Table 3) and the bug lineage
  graph (Figure 8).
"""

__version__ = "1.1.0"

from repro.tla import Action, Module, Specification, State
from repro.checker import CheckResult, ExplorationEngine, explore

__all__ = [
    "Action",
    "Module",
    "Specification",
    "State",
    "CheckResult",
    "ExplorationEngine",
    "explore",
    "__version__",
]
