"""Layering: platform modules import no system package directly.

The campaign and its shrink stage reach every protocol through
``system_plugin(name)``; a direct import of a system package (or of the
ZooKeeper implementation simulator) would wire one protocol back into
the platform.  Extend ``PLATFORM_MODULES`` instead of re-arguing it.

And a checker run stays light: deciding kernel trust imports the linter,
which must not drag in the lineage figure's graph library or the campaign
stack."""

import ast
import importlib.util
import os
import subprocess
import sys

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


def test_checker_run_imports_neither_networkx_nor_the_campaign_stack():
    script = (
        "import sys\n"
        "from repro.checker import ExplorationEngine\n"
        "from repro.zookeeper import ZkConfig\n"
        "from repro.zookeeper.specs import SELECTIONS, build_spec\n"
        "spec = build_spec('mSpec-1', SELECTIONS['mSpec-1'], ZkConfig())\n"
        "engine = ExplorationEngine(spec, max_states=200)\n"
        "engine.run()\n"
        "assert engine.core.memo_stats()['mode'] == 'compiled'\n"
        "print(sorted(m for m in ('networkx', 'repro.remix') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(importlib.util.find_spec("repro").origin))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


ANALYZER = ("repro.analysis.declarations", "repro.analysis.deps", "repro.analysis.purity")

BUDGET_SCRIPT = (
    "import sys\n"
    "from repro.checker import ExplorationEngine\n"
    "from repro.zookeeper import ZkConfig\n"
    "from repro.zookeeper.specs import SELECTIONS, build_spec\n"
    "spec = build_spec('mSpec-1', SELECTIONS['mSpec-1'], ZkConfig())\n"
    "engine = ExplorationEngine(spec, max_states=200)\n"
    "engine.run()\n"
    "stats = engine.core.memo_stats()\n"
    "assert stats['mode'] == 'compiled'\n"
    "check = sorted(m for m in WATCHED if m in sys.modules)\n"
    "assert 'repro.remix' not in sys.modules and 'networkx' not in sys.modules\n"
    # one inline campaign cell: the campaign stack may load, the analyzer may not
    "from repro.remix.campaign import CampaignRequest, run_campaign\n"
    "report = run_campaign(CampaignRequest(seed=7, grains=('mSpec-1',),\n"
    "    scenarios=('election',), faults=('none',), traces=1, max_steps=4))\n"
    "assert [c['status'] for c in report.to_json()['cells']] == ['ok']\n"
    "cell = sorted(m for m in WATCHED if m in sys.modules)\n"
    "assert 'networkx' not in sys.modules\n"
    "print(stats['compile'], check, cell)\n"
)


def test_import_budget_on_a_warm_disk_leaves_the_analyzer_out(tmp_path):
    """Cold disk: deciding kernel trust imports the analyzer.  Warm disk:
    the compile bundle *is* the verdict, so a ``check`` run and a campaign
    cell import none of it (10 MB and ~0.05 s per process)."""
    src = os.path.dirname(os.path.dirname(importlib.util.find_spec("repro").origin))
    script = f"WATCHED = {ANALYZER!r}\n" + BUDGET_SCRIPT
    env = {**os.environ, "PYTHONPATH": src, "REPRO_SPEC_CACHE_DIR": str(tmp_path / "disk")}
    outputs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.strip())
    cold, warm = outputs
    assert cold.startswith("fresh ") and all(name in cold for name in ANALYZER)
    assert warm == "loaded [] []"


def test_trace_validation_names_no_zookeeper_action():
    """The explorer and validator serve every plugin: which ACK a label
    means is the mapping entry's ``applies``, next to the ZooKeeper
    steps it describes -- and the explorer has no ``clone()`` to call."""
    from repro.remix.mapping import mapping_for
    from repro.zookeeper.specs import SELECTIONS

    path = importlib.util.find_spec("repro.remix.trace_validation").origin
    with open(path) as fh:
        source = fh.read()
    names = {
        name
        for grain in ("mSpec-1", "mSpec-2", "mSpec-3")
        for name in mapping_for(SELECTIONS[grain]).entries
    }
    assert len(names) > 20
    assert sorted(name for name in names if name in source) == []
    for word in ("ACK", "_newleader_zxid_for", "clone"):
        assert word not in source, word
