"""Span recorder for the traced pass.

The program has no tracing of its own, so the benchmark records spans
from the outside: :func:`install` replaces the public callables at each
layer boundary with wrappers that note (name, start, end, parent span,
pass id), and :meth:`Tracer.restore` puts the originals back.  Spans
and counters stay in memory; :meth:`Tracer.write` dumps them as JSON
lines when the pass is over.  Span names are constants (never built
from arguments), so two runs' traces diff by name.

Self time of a span is its duration minus the part its direct children
cover.  End-to-end metrics never come from a traced pass.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """In-memory spans + counters, and the patches that feed them."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        #: (id, name, start, end, parent id or None, attrs or None)
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, attrs: Optional[dict] = None):
        """Record one span around the ``with`` body; yields the attrs
        dict so the body can annotate the span with what it learned."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        attrs = {} if attrs is None else attrs
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, attrs or None))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Any,
        after: Optional[Callable[[dict, tuple, dict, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a constant, or a function of the call's positional
        arguments choosing among constants (``None`` = no span for this
        call).  ``after(attrs, args, kwargs, result)`` runs inside the
        span once the call returned, to count what the call produced."""
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            with tracer.span(label) as attrs:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(attrs, args, kwargs, result)
                return result

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        self.patch(owner, attr, kind(wrapper) if kind else wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering the original for restore."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every replaced callable back (idempotent)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ---------------------------------------------------------- results

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        covered: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        rows: Dict[str, Dict[str, float]] = {}
        for sid, name, start, end, _, _ in self.spans:
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered.get(sid, 0.0)
        return rows

    def named(self, name: str) -> List[tuple]:
        return [span for span in self.spans if span[1] == name]

    def write(self, path: str) -> None:
        """Append this pass's spans and counters to ``path`` (JSONL)."""
        with open(path, "a") as fh:
            for sid, name, start, end, parent, attrs in self.spans:
                record = {"pass": self.pass_id, "id": sid, "name": name,
                          "start": start, "end": end, "parent": parent}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"pass": self.pass_id,
                                 "counts": dict(self.counts)}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer the workloads cross.

    One entry per row of the per-layer table in ``bench/README.md``.
    ``repro`` is imported here, not at module import, so the driver can
    import this file without the program on its path."""
    from repro.checker import engine
    from repro.checker.backends import base as backends_base
    from repro.checker.backends import sockets
    from repro.impl.ensemble import Ensemble
    from repro.remix import campaign, coordinator, journal, mapping
    from repro.remix import minimize, request, service, trace_validation
    from repro.remix.registry import registered_systems, system_plugin
    from repro.tla import codegen
    from repro.tla.spec import Specification

    counts = tracer.counts
    wrap = tracer.wrap

    # tla / analysis / engine
    for system in registered_systems():
        wrap(type(system_plugin(system)), "make_spec", "tla.compose")
    wrap(engine, "kernel_trusted", "analysis.kernel_trusted")

    def emitted(attrs, args, kwargs, result):
        counts["tla.codegen.kernel_lines"] += result[0].count("\n") + 1

    wrap(codegen, "emit_kernel", "tla.codegen.emit", emitted)
    wrap(engine.CompiledSpec, "__init__", "engine.compile")
    wrap(engine.CompiledSpec, "expand_batch", "engine.expand_batch")
    wrap(engine.CompiledSpec, "step", "engine.step")
    wrap(engine.ExplorationEngine, "run", "engine.run")
    wrap(Specification, "replay", "engine.trace_rebuild")

    # campaign cell, coordinator, validation, impl
    def task_name(message):
        return "campaign.cell" if message.get("kind") == "cell" else "campaign.shrink_task"

    def task_done(attrs, args, kwargs, result):
        if isinstance(result, dict) and result.get("findings"):
            attrs["findings"] = len(result["findings"])

    wrap(campaign, "execute_campaign_task", task_name, task_done)
    wrap(campaign, "run_campaign", "campaign.run")
    wrap(campaign, "merge_cells", "campaign.merge")

    def replayed(attrs, args, kwargs, result):
        counts["coordinator.steps"] += result.steps_executed

    wrap(coordinator.Coordinator, "replay", "coordinator.replay", replayed)

    def explored(attrs, args, kwargs, result):
        counts["validation.executed_labels"] += len(result[0])

    wrap(trace_validation.ImplExplorer, "explore", "validation.explore", explored)
    wrap(trace_validation.TraceValidator, "validate_labels",
         "validation.validate_labels")
    wrap(Ensemble, "snapshot", "impl.snapshot")
    _wrap_mapped_steps(tracer, mapping.ActionMapping)

    # shrink, journal
    wrap(minimize, "shrink_finding", "minimize.shrink_finding")

    def judged(attrs, args, kwargs, result):
        counts["minimize.oracle_calls"] += 1
        counts["minimize.oracle_accepts"] += bool(result)

    wrap(minimize.ConformanceOracle, "__call__", "minimize.oracle", judged)
    wrap(minimize.ValidationOracle, "__call__", "minimize.oracle", judged)
    wrap(journal.CampaignJournal, "record", "journal.record")

    # backends, service
    _wrap_backend_map(tracer, backends_base.InlineBackend)
    _wrap_backend_map(tracer, sockets.SocketBackend)
    wrap(request.CampaignRequest, "from_json", "service.request_parse")
    wrap(service, "serve_request", "service.serve_request")
    # service.py binds run_campaign by name at import: give it the
    # wrapped one so "serve_request minus run_campaign" is a self time.
    tracer.patch(service, "run_campaign", campaign.run_campaign)


def _wrap_mapped_steps(tracer: Tracer, mapping_cls: Any) -> None:
    """``MappedAction.step`` is a dataclass field, not a method: reach it
    by wrapping ``ActionMapping.lookup`` to hand out copies whose step
    is timed (one copy per entry, made on first lookup)."""
    original = vars(mapping_cls)["lookup"]
    proxies: Dict[int, tuple] = {}

    def timed(step):
        def timed_step(ensemble, label):
            with tracer.span("impl.step"):
                return step(ensemble, label)

        return timed_step

    def lookup(self, label):
        mapped = original(self, label)
        if mapped is None:
            return None
        entry = proxies.get(id(mapped))
        if entry is None:
            # keep `mapped` referenced so its id is never reused
            entry = proxies[id(mapped)] = (
                mapped, dataclasses.replace(mapped, step=timed(mapped.step)))
        return entry[1]

    tracer.patch(mapping_cls, "lookup", lookup)


def _wrap_backend_map(tracer: Tracer, backend_cls: Any) -> None:
    """Span ``backend.map`` and stamp the first ``on_result`` callback
    (time to the first completed task) on the span."""
    original = vars(backend_cls)["map"]

    def map_(self, tasks, deadline=None, on_result=None):
        with tracer.span("backends.map") as attrs:
            started = time.perf_counter()

            def hook(index, task, result):
                attrs.setdefault("first_result_s", time.perf_counter() - started)
                if on_result is not None:
                    on_result(index, task, result)

            return original(self, tasks, deadline=deadline, on_result=hook)

    tracer.patch(backend_cls, "map", map_)
