"""Layering: platform modules import no system package directly.

The platform -- ``repro.remix``, ``repro.checker``, ``repro.system``,
``repro.tla`` and the linter half of ``repro.analysis`` -- reaches every
protocol through ``system_plugin(name)``; a direct import of a system
package (or of the ZooKeeper implementation simulator) would wire one
protocol back into it.  The Raft plugin holds itself to the same rule
against ZooKeeper, and the CLI imports ZooKeeper only inside the
commands that are ZooKeeper's.  ``PLATFORM_MODULES`` is walked, not
listed, so a new platform module is checked without re-arguing it.

And a checker run stays light: deciding kernel trust imports the linter,
which must not drag in the lineage figure's graph library or the campaign
stack."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

ZOOKEEPER = ("repro.zookeeper", "repro.impl", "repro.zab")
FORBIDDEN = ZOOKEEPER + ("repro.raft",)

#: The Table 3 and Figure 8 modules are ZooKeeper's paper artefacts.
PAPER_ARTEFACTS = ("repro.analysis.efforts", "repro.analysis.lineage")


def walk(package):
    """A package and every module below it, by name."""
    path = importlib.import_module(package).__path__
    return [package] + [
        info.name for info in pkgutil.walk_packages(path, package + ".")
    ]


PLATFORM_MODULES = [
    name
    for package in ("repro.remix", "repro.checker", "repro.system", "repro.tla", "repro.analysis")
    for name in walk(package)
    if name not in PAPER_ARTEFACTS
]
RAFT_MODULES = walk("repro.raft")


def parse(module):
    """A module's syntax tree and the package its relative imports
    resolve against."""
    spec = importlib.util.find_spec(module)
    with open(spec.origin) as fh:
        tree = ast.parse(fh.read(), spec.origin)
    return tree, module if spec.submodule_search_locations else module.rpartition(".")[0]


def imported_names(tree, package):
    """Every module name imported under ``tree``, at any nesting depth,
    relative imports resolved against ``package``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base


def direct_imports(module):
    """Every module name a source file imports, at any nesting depth."""
    return list(imported_names(*parse(module)))


def within(name, packages):
    return any(name == pkg or name.startswith(pkg + ".") for pkg in packages)


def test_the_walk_finds_the_platform():
    assert len(PLATFORM_MODULES) > 40
    assert {"repro.remix.registry", "repro.checker.backends.sockets",
            "repro.analysis.lint"} <= set(PLATFORM_MODULES)
    assert not set(PAPER_ARTEFACTS) & set(PLATFORM_MODULES)
    assert "repro.raft.plugin" in RAFT_MODULES


@pytest.mark.parametrize("module", PLATFORM_MODULES)
def test_platform_module_imports_no_system_package(module):
    offending = sorted(name for name in direct_imports(module) if within(name, FORBIDDEN))
    assert not offending, f"{module} imports {offending}"


@pytest.mark.parametrize("module", RAFT_MODULES)
def test_raft_imports_nothing_of_zookeeper(module):
    offending = sorted(name for name in direct_imports(module) if within(name, ZOOKEEPER))
    assert not offending, f"{module} imports {offending}"


def test_the_cli_imports_zookeeper_only_in_its_commands():
    tree, package = parse("repro.cli")
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    inside = {
        function.name
        for function in functions
        if any(within(name, ZOOKEEPER) for name in imported_names(function, package))
    }
    everywhere = [name for name in imported_names(tree, package) if within(name, ZOOKEEPER)]
    in_functions = [
        name
        for function in functions
        for name in imported_names(function, package)
        if within(name, ZOOKEEPER)
    ]
    assert sorted(everywhere) == sorted(in_functions), "ZooKeeper imported outside a command"
    assert inside == {"cmd_check", "cmd_hunt", "cmd_protocol"}


def run_script(script):
    src = os.path.dirname(os.path.dirname(importlib.util.find_spec("repro").origin))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_a_raft_run_loads_no_zookeeper_code():
    """A Raft BFS and one inline Raft campaign cell per direction, end to
    end in a fresh process: no ``repro.zookeeper*``, ``repro.impl*`` or
    ``repro.zab*`` module is ever imported."""
    script = (
        "import sys\n"
        "from repro.checker import ExplorationEngine\n"
        "from repro.remix.registry import system_plugin\n"
        "plugin = system_plugin('raft')\n"
        "spec = plugin.make_spec('raft-fine', plugin.default_config())\n"
        "assert ExplorationEngine(spec, max_states=300).run().states_explored == 300\n"
        "from repro.remix.campaign import run_campaign\n"
        "from repro.remix.request import CampaignRequest\n"
        "report = run_campaign(CampaignRequest(system='raft', seed=7,\n"
        "    directions=('topdown', 'bottomup'), grains=('raft-coarse',),\n"
        "    scenarios=('election',), faults=('none',), traces=1, max_steps=4))\n"
        "cells = report.to_json()['cells']\n"
        "assert [(c['direction'], c['status']) for c in cells] == [\n"
        "    ('topdown', 'ok'), ('bottomup', 'ok')], cells\n"
        "print(sorted(m for m in sys.modules if m.startswith(ZOOKEEPER)))\n"
    )
    assert run_script(f"ZOOKEEPER = {ZOOKEEPER!r}\n" + script) == "[]"


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


def test_resolving_a_plugin_leaves_the_campaign_stack_out():
    # The remix package's names load on first use, so resolving a plugin
    # through the registry imports neither the campaign nor the service
    # nor the backends.
    script = (
        "import sys\n"
        "from repro.remix.registry import system_plugin\n"
        "plugin = system_plugin('raft')\n"
        "plugin.make_spec('raft-coarse', plugin.default_config())\n"
        "print(sorted(m for m in sys.modules if m in WATCHED))\n"
    )
    watched = ("repro.remix.campaign", "repro.remix.service", "repro.checker.backends")
    src = os.path.dirname(os.path.dirname(importlib.util.find_spec("repro").origin))
    done = subprocess.run(
        [sys.executable, "-c", f"WATCHED = {watched!r}\n" + script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_remix_names_load_on_first_use():
    import repro.remix as remix

    assert set(remix.__all__) <= set(dir(remix))
    for name in remix.__all__:
        assert getattr(remix, name) is getattr(
            importlib.import_module(f"repro.remix.{remix._EXPORTS[name]}"), name
        )
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        remix.nope


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
    "from repro.remix.campaign import run_campaign\n"
    "from repro.remix.request import CampaignRequest\n"
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
    from repro.zookeeper.mapping import mapping_for
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
