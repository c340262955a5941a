"""The shipped compositions, listed once: every plugin grain at its
default config (and the ZooKeeper selections no grain composes), each
ZooKeeper selection at ``SMALL`` bare and under the ZK-4394 mask (as
``repro check`` composes it), each Zab variant, and a filtered hunt.

As a script (``src`` and ``tests`` on the path), the other interpreter
of ``tests/test_compile_bundle.py``: one JSON ``[kind, name, directory]``
job a stdin line, every :func:`answer` as one JSON document at EOF."""

import json
import sys
import traceback
import warnings
from functools import partial
from typing import Callable, NamedTuple, Optional

from repro.checker import ExplorationEngine, bundle, disk_cache
from repro.checker.engine import CompiledSpec, compiled_for
from repro.remix import spec_cache
from repro.remix.registry import registered_systems, system_plugin
from repro.tla.spec import masked
from repro.zab.protocol import VARIANTS, ZabConfig, zab_spec
from repro.zookeeper import ZkConfig, zk4394_mask
from repro.zookeeper.specs import SELECTIONS, build_spec, hunt_spec

from test_engine import SMALL
from test_kernels import run_sig


class Shape(NamedTuple):
    id: str
    #: ``make() -> (spec, mask)``, a new specification on every call.
    make: Callable
    #: How far the debug proof explores it; None: compiled only.
    states: Optional[int]


def _with(mask, build, *args):
    return build(*args), mask


def _shapes():
    shapes = []
    for system in registered_systems():
        plugin = system_plugin(system)
        for grain in plugin.grains:
            make = partial(_with, None, plugin.make_spec, grain, plugin.default_config())
            shapes.append(Shape(f"{system}-{grain}", make, 2_500))
    for name, selection in SELECTIONS.items():
        if name not in system_plugin("zookeeper").grains:
            make = partial(_with, None, build_spec, name, selection, ZkConfig())
            shapes.append(Shape(f"zookeeper-{name}", make, None))
        shapes.append(Shape(name, partial(_with, None, build_spec, name, selection, SMALL), 2_500))
        # each budget is the largest any earlier copy of its proof used
        states = 2_500 if name in ("SysSpec", "mSpec-3") else 2_000
        make = partial(_with, zk4394_mask, build_spec, name, selection, SMALL)
        shapes.append(Shape(f"{name}-masked", make, states))
    for variant in VARIANTS:
        make = partial(_with, None, zab_spec, ZabConfig(variant=variant))
        shapes.append(Shape(f"zab-{variant}", make, 2_500))
    shapes.append(Shape("hunt-filtered", partial(hunt_spec, "ZK-4685"), 1_200))
    return shapes


SHAPES = _shapes()
#: The shapes the debug proof explores.
PROVED = [shape for shape in SHAPES if shape.states]


def shape_id(shape):
    return shape.id


def composed(shape):
    """The shape as one specification, its mask folded in."""
    spec, mask = shape.make()
    return masked(spec, mask) if mask else spec


def key(shape):
    """``[namespace, entry key]`` of the shape's compile bundle."""
    core = CompiledSpec(composed(shape), reference=True)
    return [bundle.namespace("kernels"), bundle._entry_key(core)]


def compiled(shape):
    return [compiled_for(composed(shape)).kernel_source, key(shape)]


def bfs(shape, **pin):
    """BFS to the shape's debug budget: ``(engine, run_sig)``."""
    spec, mask = shape.make()
    engine = ExplorationEngine(spec, mask=mask, max_states=shape.states, stop_at_first=False, **pin)
    return engine, run_sig(engine.run())


def debug_pass(shape):
    """The kernel checked against the reference expander on every batch,
    warnings raised as errors: ``[run_sig, compile, memo_stats()
    ["compile"], with_prefix]``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine, sig = bfs(shape, debug=True)
    stats = engine.core.memo_stats()
    return [sig, engine.core.compile, stats["compile"], stats["guard_prefixes"]["with_prefix"]]


def check_run(name):
    """A ``check`` run the benchmark times -- a ``HUNTS`` row (BFS to
    the first violation) or raft-fine to 40 000 states: ``[everything
    the answer is made of, compile]``."""
    if name.startswith("ZK-"):
        (spec, mask), budget = hunt_spec(name), None
    else:
        raft = system_plugin("raft")
        spec, mask, budget = raft.make_spec(name, raft.default_config()), None, 40_000
    engine = ExplorationEngine(spec, mask=mask, max_states=budget)
    result = engine.run()
    violation = result.first_violation
    outcome = (
        result.states_explored,
        result.transitions,
        result.max_depth,
        violation
        and (violation.invariant.full_name, [str(label) for label in violation.trace.labels]),
    )
    return [outcome, engine.core.memo_stats()["compile"]]


RUNS = {
    "compiled": compiled,
    "reference": lambda shape: bfs(shape, reference=True)[1],
    "debug": debug_pass,
    "check": check_run,
}


def answer(kind, name, directory):
    """``RUNS[kind]`` of the shape or check ``name`` on the cache
    directory ``directory`` (or ``"off"``); ``{"error": traceback}`` if
    it raises, so only its own test fails."""
    disk_cache.set_disk_cache_dir(directory)
    spec_cache.clear()
    try:
        return RUNS[kind](next((shape for shape in SHAPES if shape.id == name), name))
    except Exception:
        return {"error": traceback.format_exc()}


if __name__ == "__main__":
    answers = {}
    for line in sys.stdin:
        kind, name, directory = json.loads(line)
        answers.setdefault(kind, {})[name] = answer(kind, name, directory)
    print(json.dumps(answers))
