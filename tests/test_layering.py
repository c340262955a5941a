"""Layering: platform modules import no system package directly.

The campaign and its shrink stage reach every protocol through
``system_plugin(name)``; a direct import of a system package (or of the
ZooKeeper implementation simulator) would wire one protocol back into
the platform.  Extend ``PLATFORM_MODULES`` instead of re-arguing it."""

import ast
import importlib.util

import pytest

FORBIDDEN = ("repro.zookeeper", "repro.raft", "repro.impl")

PLATFORM_MODULES = ["repro.remix.campaign", "repro.remix.minimize"]


def direct_imports(module):
    """Every module name a source file imports, at any nesting depth."""
    path = importlib.util.find_spec(module).origin
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("module", PLATFORM_MODULES)
def test_platform_module_imports_no_system_package(module):
    offending = sorted(
        name
        for name in direct_imports(module)
        if any(name == pkg or name.startswith(pkg + ".") for pkg in FORBIDDEN)
    )
    assert not offending, f"{module} imports {offending}"
