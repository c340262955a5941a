"""The multi-grained ZooKeeper system specification (Sections 3-4)."""

from repro.zookeeper.config import (
    FINAL_FIX,
    PR_1848,
    PR_1930,
    PR_1993,
    PR_2111,
    SpecVariant,
    V391,
    V391_PLUS_4712,
    ZkConfig,
)
from repro.zookeeper.specs import (
    SELECTIONS,
    build_spec,
    check_spec,
    final_fix_spec,
    make_spec,
    mspec3_plus,
    pr_spec,
    zk4394_mask,
)

__all__ = [
    "FINAL_FIX",
    "PR_1848",
    "PR_1930",
    "PR_1993",
    "PR_2111",
    "SELECTIONS",
    "SpecVariant",
    "V391",
    "V391_PLUS_4712",
    "ZkConfig",
    "build_spec",
    "check_spec",
    "final_fix_spec",
    "make_spec",
    "mspec3_plus",
    "pr_spec",
    "zk4394_mask",
]
