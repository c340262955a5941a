"""Compile bundles (``repro.checker.bundle``): what a compile derives --
trust verdict, guard prefixes, the kernel's code object -- persisted
beside the prefix traces and loaded by ``CompiledSpec.__init__``.

A loaded bundle is held to the same proof as a fresh one: prefixes,
emitted source and enumeration equal to a fresh derivation on every
shipped composition; ``--debug-deps`` passes on a warm disk and *fails*
on a poisoned one; every way an entry can be unusable is a miss that
recomputes and overwrites, never an exception; and nothing untrusted or
unnameable is ever written."""

import glob
import os
import pickle
import subprocess
import sys
import warnings
from functools import partial

import pytest

import repro
from repro.checker import ExplorationEngine, bundle, disk_cache
from repro.checker.engine import CompiledSpec, kernel_trusted
from repro.remix import spec_cache
from repro.remix.registry import registered_systems, system_plugin
from repro.system.plugin import ScenarioError
from repro.tla.action import Action
from repro.tla.guards import Atom, Const, GuardPrefix
from repro.tla.module import Module
from repro.tla.spec import Specification
from repro.tla.state import State
from repro.zab.protocol import VARIANTS, ZabConfig, zab_spec
from repro.zookeeper import zk4394_mask
from repro.zookeeper.specs import SELECTIONS, build_spec, hunt_spec

from test_engine import SMALL
from test_kernels import SCHEMA, counter_spec, lying_spec, run_sig

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture
def disk(tmp_path):
    """An empty cache directory of this test's own; counters at zero."""
    directory = tmp_path / "disk"
    disk_cache.set_disk_cache_dir(str(directory))
    spec_cache.clear()
    yield directory
    disk_cache.set_disk_cache_dir(None)
    spec_cache.clear()


def entries(directory):
    return sorted(glob.glob(str(directory / "kernels-*" / "*.pkl")))


def shapes():
    """Every compile shape that ships: each plugin grain of both systems,
    each ZooKeeper selection, each Zab variant, and the two hunt shapes
    (a masked spec; a spec with its invariants filtered after
    composition).  Each yields ``make() -> (spec, mask)``."""
    for system in registered_systems():
        plugin = system_plugin(system)
        for grain in plugin.grains:
            make = partial(plugin.make_spec, grain, plugin.default_config())
            yield pytest.param(lambda make=make: (make(), None), id=f"{system}-{grain}")
    for name, selection in SELECTIONS.items():
        make = partial(build_spec, name, selection, SMALL)
        yield pytest.param(lambda make=make: (make(), None), id=name)
    for variant in VARIANTS:
        make = partial(zab_spec, ZabConfig(variant=variant))
        yield pytest.param(lambda make=make: (make(), None), id=f"zab-{variant}")
    yield pytest.param(
        lambda: (build_spec("mSpec-1", SELECTIONS["mSpec-1"], SMALL), zk4394_mask),
        id="hunt-masked",
    )
    yield pytest.param(lambda: hunt_spec("ZK-4685"), id="hunt-filtered")


def observe(make, **pins):
    """One compile + BFS to 3 000 states: everything that must not
    depend on where the compile's products came from."""
    spec, mask = make()
    engine = ExplorationEngine(
        spec, mask=mask, max_states=3_000, stop_at_first=False, **pins
    )
    result = engine.run()
    core = engine.core
    return {
        "prefixes": list(core.guard_prefixes),
        "source": core.kernel_source,
        "prefix_stats": core.memo_stats()["guard_prefixes"],
        "run": run_sig(result),
    }, core.compile


class TestFreshVersusLoaded:
    @pytest.mark.parametrize("make", shapes())
    def test_off_cold_and_warm_agree(self, make, disk):
        disk_cache.set_disk_cache_dir("off")
        off, how = observe(make)
        assert how == "fresh" and bundle.stats()["bundle_misses"] == 0
        disk_cache.set_disk_cache_dir(str(disk))
        cold, how = observe(make)
        assert how == "fresh"
        assert bundle.stats() == {"bundle_hits": 0, "bundle_misses": 1, "bundle_stale": 0}
        assert len(entries(disk)) == 1
        warm, how = observe(make)
        assert how == "loaded"
        assert bundle.stats() == {"bundle_hits": 1, "bundle_misses": 1, "bundle_stale": 0}
        assert off == cold == warm
        assert off["source"] is not None and off["run"][0] > 0

    @pytest.mark.parametrize("make", shapes())
    def test_debug_deps_passes_on_a_warm_disk(self, make, disk):
        # The proof lane: a *loaded* kernel and *loaded* prefixes, equal
        # to the reference expander on every batch.  The debug lane's
        # first pass also writes (it asks the analyzer for that alone).
        budget = dict(max_states=1_200, stop_at_first=False)
        spec, mask = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = ExplorationEngine(spec, mask=mask, debug=True, **budget)
            sig = run_sig(first.run())
        assert first.core.compile == "fresh" and len(entries(disk)) == 1
        spec, mask = make()
        second = ExplorationEngine(spec, mask=mask, debug=True, **budget)
        assert run_sig(second.run()) == sig
        assert second.core.compile == "loaded"
        assert second.core.memo_stats()["compile"] == "loaded"
        spec, mask = make()
        reference = ExplorationEngine(spec, mask=mask, reference=True, **budget)
        assert run_sig(reference.run()) == sig

    def test_a_poisoned_bundle_is_caught_by_debug_deps(self, disk):
        # The mutated atom of tests/test_guards.py, planted in the stored
        # bundle instead of patched into the tracer: the key cannot see
        # it, the per-batch cross-check can.
        make = partial(build_spec, "mSpec-1", SELECTIONS["mSpec-1"], SMALL)
        core = CompiledSpec(make())
        (path,) = entries(disk)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        hit = next(
            i
            for i, (label, prefix) in enumerate(zip(core.labels, payload["guard_prefixes"]))
            if label.name == "ElectionAndDiscovery"
            and prefix.atoms
            and prefix.atoms[0].test.right == Const("LOOKING")
        )
        prefix = payload["guard_prefixes"][hit]
        wrong = Atom(prefix.atoms[0].test._replace(right=Const("DOWN")), prefix.atoms[0].passing)
        payload["guard_prefixes"][hit] = prefix._replace(atoms=(wrong,) + prefix.atoms[1:])
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        engine = ExplorationEngine(make(), max_states=500, debug=True)
        with pytest.raises(AssertionError, match="action ElectionAndDiscovery"):
            engine.run()
        # the stored kernel was compiled from the honest prefixes: the
        # re-emitted text differs, so its code object was not used either
        assert bundle.stats()["bundle_stale"] == 1

    def test_reference_never_consults_the_bundle(self, disk):
        core = CompiledSpec(counter_spec(), reference=True)
        assert core.kernel is None and core.bundle is None
        assert entries(disk) == [] and sum(bundle.stats().values()) == 0


class TestMissMatrix:
    """Every unusable entry recomputes, overwrites and is counted."""

    def make(self):
        return build_spec("mSpec-1", SELECTIONS["mSpec-1"], SMALL)

    def warm(self, disk):
        first = CompiledSpec(self.make())
        (path,) = entries(disk)
        spec_cache.clear()
        return first, path

    def recompiled(self, first, counter, disk, files=1):
        core = CompiledSpec(self.make())
        assert core.compile == "fresh"
        assert core.guard_prefixes == first.guard_prefixes
        assert core.kernel_source == first.kernel_source
        stats = bundle.stats()
        assert stats[counter] == 1 and stats["bundle_hits"] == 0, stats
        assert len(entries(disk)) == files
        spec_cache.clear()  # ... and what it wrote is loadable
        assert CompiledSpec(self.make()).compile == "loaded"
        assert bundle.stats()["bundle_hits"] == 1

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) // 2],  # truncated
            lambda raw: b"not a pickle",
            lambda raw: pickle.dumps(("labels", "values")),  # a prefix entry's shape
            lambda raw: pickle.dumps({"trusted": True, "guard_prefixes": []}),
            lambda raw: pickle.dumps(dict(pickle.loads(raw), trusted=False)),
        ],
        ids=["truncated", "garbage", "wrong-pickle", "wrong-arity", "untrusted"],
    )
    def test_damaged_file(self, damage, disk):
        first, path = self.warm(disk)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(damage(raw))
        self.recompiled(first, "bundle_misses", disk)

    def test_stored_kernel_sha1_differs_from_emitted(self, disk):
        first, path = self.warm(disk)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["kernel_sha1"] = "0" * 40
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        self.recompiled(first, "bundle_stale", disk)

    def test_stored_code_is_not_a_code_object(self, disk):
        first, path = self.warm(disk)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["kernel_code"] = b"\x00garbage"
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        self.recompiled(first, "bundle_stale", disk)

    def test_foreign_cache_tag(self, disk, monkeypatch):
        first, _ = self.warm(disk)
        monkeypatch.setattr(sys.implementation, "cache_tag", "cpython-000")
        self.recompiled(first, "bundle_misses", disk, files=2)

    def test_codegen_version_bump(self, disk, monkeypatch):
        from repro.tla import codegen

        first, _ = self.warm(disk)
        monkeypatch.setattr(codegen, "CODEGEN_VERSION", codegen.CODEGEN_VERSION + 1)
        core = CompiledSpec(self.make())  # the version is in the emitted text too
        assert core.compile == "fresh" and bundle.stats()["bundle_misses"] == 1
        assert len(entries(disk)) == 2

    def edit(self, monkeypatch, path):
        assert disk_cache.source_digest(path) is not None
        monkeypatch.setitem(disk_cache._SOURCE_DIGESTS, path, "edited")

    def test_edited_spec_source(self, disk, monkeypatch):
        import repro.zookeeper

        first, _ = self.warm(disk)
        self.edit(monkeypatch, os.path.dirname(repro.zookeeper.__file__))
        self.recompiled(first, "bundle_misses", disk, files=2)

    def test_edited_analyzer(self, disk, monkeypatch):
        import repro.analysis

        first, _ = self.warm(disk)
        self.edit(monkeypatch, os.path.dirname(repro.analysis.__file__))
        self.recompiled(first, "bundle_misses", disk, files=2)

    def test_a_demotion_re_emit_is_never_stored(self, disk):
        first, path = self.warm(disk)
        with open(path, "rb") as fh:
            stored = fh.read()
        core = CompiledSpec(self.make())
        assert core.compile == "loaded" and core.outcome_groups
        core._demote([0])
        assert core.kernel_source != first.kernel_source
        with open(path, "rb") as fh:
            assert fh.read() == stored
        assert bundle.stats() == {"bundle_hits": 1, "bundle_misses": 0, "bundle_stale": 0}


class TestTheKey:
    def key(self, spec, mask=None):
        return bundle._entry_key(CompiledSpec(spec, mask=mask, reference=True))

    def spec_with(self, fn, name="keyed", config=None):
        return Specification(
            name,
            SCHEMA,
            lambda cfg: [State.make(SCHEMA, x=0, y=0)],
            [Module("m", [Action("Step", fn, reads=["x"], writes=["x"])])],
            [],
            config,
        )

    def test_same_qualname_different_body(self):
        def make(bound):
            if bound == 2:
                return lambda config, state: {"x": state.x + 1} if state.x < 2 else None
            return lambda config, state: {"x": state.x + 1} if state.x < 3 else None

        two, three = make(2), make(3)
        assert two.__qualname__ == three.__qualname__
        assert self.key(self.spec_with(two)) != self.key(self.spec_with(three))
        assert bundle.function_identity(two) != bundle.function_identity(three)

    def test_one_wrapper_around_two_functions(self):
        def unpack(fn):
            return lambda config, state: fn(config, state)

        def up(config, state):
            return {"x": state.x + 1} if state.x < 2 else None

        def down(config, state):
            return {"x": state.x - 1} if state.x > -2 else None

        a, b = unpack(up), unpack(down)
        assert a.__code__ is b.__code__
        assert bundle.function_identity(a) != bundle.function_identity(b)
        assert bundle.function_identity(a) == bundle.function_identity(unpack(up))
        assert self.key(self.spec_with(a)) != self.key(self.spec_with(b))

    def test_closure_constant_and_default_are_part_of_the_function(self):
        def bounded(bound):
            return lambda config, state: {"x": state.x + 1} if state.x < bound else None

        assert bundle.function_identity(bounded(2)) != bundle.function_identity(bounded(3))
        assert bundle.function_identity(bounded(2)) == bundle.function_identity(bounded(2))

        def defaulted(bound):
            return lambda config, state, b=bound: {"x": state.x + 1} if state.x < b else None

        assert bundle.function_identity(defaulted(2)) != bundle.function_identity(defaulted(3))

    def test_declarations_mask_and_invariants_are_in_the_key(self):
        base = self.key(counter_spec())
        assert self.key(counter_spec()) == base
        assert self.key(counter_spec(name="other")) != base
        assert self.key(counter_spec(y_bound=3)) != base  # the invariant's cell
        assert self.key(counter_spec(), mask=lambda state: False) != base
        filtered = counter_spec()
        filtered.invariants = []
        assert self.key(filtered) != base

    def test_config_is_keyed_by_value_not_by_repr(self):
        # ZabConfig has no __repr__: its repr is an address.
        assert "object at 0x" in repr(ZabConfig())
        same = self.key(zab_spec(ZabConfig()))
        assert self.key(zab_spec(ZabConfig())) == same
        assert self.key(zab_spec(ZabConfig(max_epoch=4))) != same  # same functions
        assert self.key(zab_spec(ZabConfig(variant="improved"))) != same

    def test_key_is_stable_across_processes_and_hash_seeds(self):
        script = (
            "from repro.checker import bundle\n"
            "from repro.checker.engine import CompiledSpec\n"
            "from repro.zab.protocol import ZabConfig, zab_spec\n"
            "from repro.zookeeper import ZkConfig\n"
            "from repro.zookeeper.specs import SELECTIONS, build_spec\n"
            "for spec in (zab_spec(ZabConfig()),\n"
            "             build_spec('mSpec-3', SELECTIONS['mSpec-3'], ZkConfig())):\n"
            "    print(bundle._namespace(), bundle._entry_key(CompiledSpec(spec, reference=True)))\n"
        )
        outputs = set()
        for seed in ("1", "2", "random"):
            done = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1 and len(outputs.pop().splitlines()) == 2

    @pytest.mark.parametrize(
        "cell",
        [[1, 2], {"a": 1}, object(), len, partial(int, "1")],
        ids=["list", "dict", "object", "builtin", "partial"],
    )
    def test_an_unnameable_closure_cell_is_derive_only(self, cell, disk):
        def step(config, state):
            return {"x": state.x + 1} if state.x < 2 and cell is not None else None

        assert bundle.function_identity(step) is None
        spec = self.spec_with(step)
        with pytest.raises(bundle.Unpersistable):
            self.key(spec)
        core = CompiledSpec(spec)
        assert core.kernel is not None and core.compile == "fresh"
        assert entries(disk) == [] and sum(bundle.stats().values()) == 0

    def test_a_function_with_no_source_file_is_derive_only(self, disk):
        scope = {}
        exec(
            "def step(config, state):\n"
            "    return {'x': state.x + 1} if state.x < 2 else None\n",
            {"__name__": "made_up_module"},
            scope,
        )
        assert bundle.function_identity(scope["step"]) is None
        CompiledSpec(self.spec_with(scope["step"]), debug=True)
        assert entries(disk) == []

    def test_an_opaque_config_is_derive_only(self, disk):
        class Slotted:
            __slots__ = ("bound",)

        def step(config, state):
            return {"x": state.x + 1} if state.x < 2 else None

        CompiledSpec(self.spec_with(step, config=Slotted()))
        assert entries(disk) == []


class TestOnlyTrustedBundlesAreWritten:
    def test_untrusted_spec_is_never_persisted(self, disk):
        for _ in range(2):  # every "process" computes the verdict itself
            with pytest.warns(RuntimeWarning, match="IncY fails lint rule D01"):
                core = CompiledSpec(lying_spec())
            assert core.kernel is None
            spec_cache.clear()
        assert entries(disk) == []

    def test_debug_lane_does_not_write_an_untrusted_kernel_either(self, disk):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and stays silent about it
            core = CompiledSpec(lying_spec(), debug=True)
        assert core.kernel is not None and core.compile == "fresh"
        assert entries(disk) == []
        # ... so the next plain compile of the same spec still warns
        with pytest.warns(RuntimeWarning, match="not kernel-trusted"):
            assert kernel_trusted(lying_spec()) is False

    def test_lying_spec_warns_in_two_successive_processes(self, tmp_path):
        script = (
            "import glob, os, sys, warnings\n"
            "sys.path.insert(0, os.environ['TESTS'])\n"
            "from test_kernels import lying_spec\n"
            "from repro.checker.engine import compiled_for\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    core = compiled_for(lying_spec())\n"
            "assert core.kernel is None\n"
            "print(sum('IncY fails lint rule D01' in str(w.message) for w in caught),\n"
            "      len(glob.glob(os.environ['REPRO_SPEC_CACHE_DIR'] + '/kernels-*/*.pkl')))\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": SRC,
            "TESTS": os.path.dirname(os.path.abspath(__file__)),
            "REPRO_SPEC_CACHE_DIR": str(tmp_path / "disk"),
        }
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout.split() == ["1", "0"]


class TestDiskDiscipline:
    def test_off_is_derive_only(self, disk):
        disk_cache.set_disk_cache_dir("off")
        core = CompiledSpec(counter_spec())
        assert core.kernel is not None and core.compile == "fresh"
        assert entries(disk) == [] and sum(bundle.stats().values()) == 0

    def test_read_only_directory_is_derive_only(self, tmp_path):
        if os.geteuid() == 0:
            # root ignores mode bits: make the namespace unwritable by
            # putting a file where the directory would go
            blocked = tmp_path / "disk"
            blocked.write_text("not a directory")
        else:
            blocked = tmp_path / "disk"
            blocked.mkdir()
            blocked.chmod(0o500)
        disk_cache.set_disk_cache_dir(str(blocked))
        spec_cache.clear()
        try:
            for _ in range(2):
                core = CompiledSpec(counter_spec())
                assert core.kernel is not None and core.compile == "fresh"
            assert bundle.stats()["bundle_hits"] == 0
        finally:
            disk_cache.set_disk_cache_dir(None)
            spec_cache.clear()

    def test_two_processes_racing_to_store_one_bundle(self, tmp_path):
        script = (
            "from repro.checker.engine import compiled_for\n"
            "from repro.zookeeper import ZkConfig\n"
            "from repro.zookeeper.specs import SELECTIONS, build_spec\n"
            "core = compiled_for(build_spec('mSpec-1', SELECTIONS['mSpec-1'], ZkConfig()))\n"
            "print(core.compile)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC, "REPRO_SPEC_CACHE_DIR": str(tmp_path / "disk")}
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            for _ in range(2)
        ]
        for racer in racers:
            out, err = racer.communicate(timeout=120)
            assert racer.returncode == 0, err
            assert out.strip() in ("fresh", "loaded")
        (path,) = entries(tmp_path / "disk")
        assert glob.glob(str(tmp_path / "disk" / "kernels-*" / "*.tmp")) == []
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        assert payload["trusted"] is True
        assert all(isinstance(p, GuardPrefix) for p in payload["guard_prefixes"])
        after = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert after.returncode == 0 and after.stdout.strip() == "loaded", after.stderr


class TestObservability:
    KEYS = ("bundle_hits", "bundle_misses", "bundle_stale")

    def test_spec_cache_stats_carry_the_bundle_counters(self, disk):
        stats = spec_cache.stats()
        assert all(type(stats[key]) is int for key in self.KEYS + ("disk_hits", "disk_misses"))
        CompiledSpec(counter_spec())
        CompiledSpec(counter_spec())
        stats = spec_cache.stats()
        assert (stats["bundle_misses"], stats["bundle_hits"], stats["bundle_stale"]) == (1, 1, 0)
        # prefix traffic keeps its own keys
        assert stats["disk_hits"] == stats["disk_misses"] == 0
        spec_cache.clear()
        assert all(spec_cache.stats()[key] == 0 for key in self.KEYS)

    def test_memo_stats_say_where_the_kernel_came_from(self, disk):
        assert CompiledSpec(counter_spec()).memo_stats()["compile"] == "fresh"
        assert CompiledSpec(counter_spec()).memo_stats()["compile"] == "loaded"
        assert "compile" not in CompiledSpec(counter_spec(), reference=True).memo_stats()


class TestNegativePrefixEntries:
    """A coordinate that cannot be scripted is an answer, cached like one."""

    COORDINATE = ("election", "message-duplicate", 2, 0)

    def config(self):
        return system_plugin("zookeeper").campaign_config()

    def raised(self):
        with pytest.raises(ScenarioError) as caught:
            spec_cache.cached_prefix("mSpec-1", self.config(), *self.COORDINATE)
        return str(caught.value)

    def test_message_replays_verbatim_from_memory_and_disk(self, disk):
        scripted = self.raised()
        assert "is not enabled" in scripted
        stats = spec_cache.stats()
        assert (stats["disk_hits"], stats["disk_misses"], stats["prefix_misses"]) == (0, 1, 1)
        assert self.raised() == scripted
        assert spec_cache.stats()["prefix_hits"] == 1
        assert spec_cache.stats()["disk_misses"] == 1  # not scripted again
        spec_cache.clear()  # a fresh process, same disk
        assert self.raised() == scripted
        stats = spec_cache.stats()
        assert (stats["disk_hits"], stats["disk_misses"]) == (1, 0)

    def test_a_warm_campaign_misses_nothing_and_reports_the_same_bytes(self, disk):
        from repro.remix.campaign import CampaignRequest, run_campaign

        def report():
            payload = run_campaign(
                CampaignRequest(seed=7, grains=("mSpec-1",), traces=1, max_steps=6)
            ).to_json()
            payload["campaign"].pop("elapsed_seconds", None)
            return payload

        cold = report()
        inapplicable = [c for c in cold["cells"] if c["status"] == "inapplicable"]
        assert inapplicable and all(c["reason"] for c in inapplicable)
        assert spec_cache.stats()["disk_misses"] > 0
        spec_cache.clear()
        warm = report()
        stats = spec_cache.stats()
        assert stats["disk_misses"] == 0 and stats["disk_hits"] > 0, stats
        assert stats["bundle_hits"] == 1 and stats["bundle_misses"] == 0, stats
        assert warm == cold
        disk_cache.set_disk_cache_dir("off")
        spec_cache.clear()
        assert report() == cold
