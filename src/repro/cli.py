"""Command-line interface: ``python -m repro <command>``.

Exposes the main workflows without writing Python:

- ``check``       model-check one of the Table 1 specifications
- ``conformance`` run conformance checking against the simulator
- ``campaign``    run a parallel conformance campaign over the
                  (grain x scenario x fault x seed) matrix of any
                  registered system plugin (``--system``)
- ``serve``       run the long-lived campaign server (streams
                  ``repro.campaign.event/1`` JSON-lines per request)
- ``client``      send one campaign request to a server and stream
                  its events to stdout
- ``worker``      join a socket-backend listener as a remote worker
- ``systems``     list the registered system plugins
- ``bugs``        hunt each of the six paper bugs (a mini Table 4)
- ``protocol``    verify the Zab protocol variants (§5.4)
- ``efforts``     print the Table 3 effort metrics
- ``lineage``     print the Figure 8 bug lineage

The ``campaign``/``serve``/``client`` trio all speak the same
serialized :class:`~repro.remix.request.CampaignRequest`:
``campaign --dry-run`` prints it, ``campaign --request FILE`` (or
``-`` for stdin) runs it, and ``serve``/``client`` move it over a
socket.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.checker import STRATEGIES, ExplorationEngine, format_trace
from repro.zookeeper import ZkConfig, make_spec, zk4394_mask
from repro.zookeeper.specs import SELECTIONS


def _add_config_args(parser: argparse.ArgumentParser):
    parser.add_argument("--servers", type=int, default=3)
    parser.add_argument("--txns", type=int, default=1)
    parser.add_argument("--crashes", type=int, default=1)
    parser.add_argument("--partitions", type=int, default=0)
    parser.add_argument("--max-epoch", type=int, default=3)
    parser.add_argument("--max-states", type=int, default=500_000)
    parser.add_argument("--max-time", type=float, default=120.0)


def _add_engine_args(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--strategy",
        choices=list(STRATEGIES),
        default="bfs",
        help="exploration strategy (default: bfs)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for parallel BFS (the other strategies run in-process)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the random strategy",
    )
    parser.add_argument(
        "--debug-deps",
        action="store_true",
        help="emit the generated kernel even for a spec the static "
        "analyzer does not trust and cross-check every batch against "
        "the reference expander (slow; validates reads/writes/"
        "update_sources declarations)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the successor-path mode (compiled | reference, with "
        "the blocking lint finding) and per-outcome-group memo hit/miss "
        "statistics after the run",
    )


def _engine(args, spec, **overrides) -> ExplorationEngine:
    kwargs = dict(
        strategy=getattr(args, "strategy", "bfs"),
        workers=getattr(args, "workers", 1),
        seed=getattr(args, "seed", 0),
        debug=getattr(args, "debug_deps", False),
        max_states=args.max_states,
        max_time=args.max_time,
    )
    kwargs.update(overrides)
    return ExplorationEngine(spec, **kwargs)


def _print_stats(engine: ExplorationEngine) -> None:
    core = getattr(engine, "core", None)
    if core is None:
        print("(no memo statistics: engine ran without a compiled core)")
        return
    stats = core.memo_stats()
    print(json.dumps(stats, indent=2, sort_keys=True))


def _config(args) -> ZkConfig:
    return ZkConfig(
        n_servers=args.servers,
        max_txns=args.txns,
        max_crashes=args.crashes,
        max_partitions=args.partitions,
        max_epoch=args.max_epoch,
    )


def cmd_check(args) -> int:
    spec = make_spec(args.spec, _config(args))
    mask = None if args.unmask_zk4394 else zk4394_mask
    engine = _engine(args, spec, mask=mask)
    result = engine.run()
    print(result.summary())
    if getattr(args, "stats", False):
        _print_stats(engine)
    if result.found_violation and args.trace:
        print()
        print(format_trace(result.first_violation.trace))
    return 1 if result.found_violation else 0


def cmd_conformance(args) -> int:
    from repro.checker.random_walk import RandomWalker
    from repro.impl import Ensemble
    from repro.remix import Coordinator, mapping_for
    from repro.zookeeper import V391

    spec = make_spec(args.spec, _config(args))
    coordinator = Coordinator(
        mapping_for(SELECTIONS[args.spec]),
        lambda: Ensemble(args.servers, V391),
    )
    results = [
        coordinator.replay(trace)
        for trace in RandomWalker(spec, seed=args.seed).traces(
            count=args.traces, max_steps=args.steps
        )
    ]
    discrepancies = [d for result in results for d in result.discrepancies]
    bugs = [result for result in results if result.impl_error is not None]
    print(
        f"conformance: {len(results)} traces, "
        f"{sum(result.steps_executed for result in results)} steps replayed, "
        f"{len(discrepancies)} discrepancies, "
        f"{len(bugs)} implementation bug reports"
    )
    for discrepancy in discrepancies[:10]:
        print(f"  {discrepancy}")
    for result in bugs[:10]:
        error = result.impl_error
        tag = f" [{error.bug_id}]" if error.bug_id else ""
        print(
            f"  implementation bug{tag} at step {result.impl_error_step}: "
            f"{type(error).__name__}: {error}"
        )
    return 1 if discrepancies else 0


def request_from_args(args):
    """Build a :class:`CampaignRequest` straight from the ``campaign``
    argparse namespace (the one flags->request seam; no per-flag
    plumbing anywhere else)."""
    from repro.remix.request import DIRECTIONS, CampaignRequest

    directions = (
        DIRECTIONS if args.directions == "both" else (args.directions,)
    )
    return CampaignRequest(
        system=args.system,
        directions=directions,
        grains=args.grains,
        scenarios=args.scenarios,
        faults=args.faults,
        seeds=args.seeds,
        traces=args.traces,
        max_steps=args.steps,
        seed=args.seed,
        workers=args.workers,
        backend=args.backend,
        budget=args.budget,
        shrink=args.shrink,
        task_timeout=args.task_timeout,
        task_retries=args.task_retries,
        auth_token=args.auth_token,
    )


def _load_request(source: str):
    """Read a serialized ``CampaignRequest`` from a file (``-`` =
    stdin).  Accepts either the bare request JSON or a server envelope
    ``{"request": {...}}``."""
    import json

    from repro.remix.request import CampaignRequest

    text = sys.stdin.read() if source == "-" else open(source).read()
    data = json.loads(text)
    if isinstance(data, dict) and "request" in data:
        data = data["request"]
    return CampaignRequest.from_json(data)


def cmd_campaign(args) -> int:
    import json

    from repro.remix import spec_cache
    from repro.remix.campaign import CampaignReport, new_fingerprints, run_campaign
    from repro.remix.request import RequestError

    try:
        request = (
            _load_request(args.request)
            if args.request
            else request_from_args(args)
        )
    except (RequestError, KeyError, ValueError, OSError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"campaign: {message}", file=sys.stderr)
        return 2
    if args.resume and not args.journal:
        print("campaign: --resume requires --journal DIR", file=sys.stderr)
        return 2
    if args.dry_run:
        print(json.dumps(request.to_json(), indent=2))
        return 0
    baseline = None
    if args.baseline:
        # Load and validate before the (multi-minute) campaign runs: a
        # missing or stale baseline should fail in milliseconds.
        try:
            with open(args.baseline) as fh:
                baseline = CampaignReport.from_json(json.load(fh))
        except (OSError, ValueError) as error:
            print(f"campaign: baseline {args.baseline}: {error}", file=sys.stderr)
            return 2
    report = run_campaign(
        request, journal_dir=args.journal, resume=args.resume
    )
    payload = report.to_json()
    # Warm-start accounting goes to stderr so `--json -` stdout stays
    # pure JSON; disk hits > 0 means this invocation reused prefixes a
    # previous invocation persisted (the on-disk spec cache), bundle hits
    # > 0 that it loaded kernels instead of compiling them.
    cache_stats = spec_cache.stats()
    print(
        f"spec cache: {cache_stats['disk_hits']} disk hits, "
        f"{cache_stats['disk_misses']} disk misses, "
        f"{cache_stats['prefix_hits']} warm prefix reuses; "
        f"{cache_stats['bundle_hits']} bundle hits, "
        f"{cache_stats['bundle_misses']} bundle misses, "
        f"{cache_stats['bundle_stale']} bundle stale",
        file=sys.stderr,
    )
    if args.json_path == "-":
        print(json.dumps(payload, indent=2))
    else:
        print(report.summary())
        for finding in report.findings[:10]:
            line = f"  [{finding['fingerprint']}] {finding['detail']}"
            min_trace = finding.get("min_trace", {})
            if min_trace.get("status") == "ok":
                line += (
                    f" (minimized {min_trace['witness_steps']}"
                    f" -> {min_trace['steps']} steps)"
                )
            print(line)
        if len(report.findings) > 10:
            print(f"  ... ({len(report.findings) - 10} more)")
        if args.json_path:
            with open(args.json_path, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            print(f"report written to {args.json_path}")
    if args.repros:
        # Keep stdout clean when the JSON report goes there.
        _write_repros(
            args.repros,
            report,
            stream=sys.stderr if args.json_path == "-" else sys.stdout,
        )
    if baseline is not None:
        fresh = new_fingerprints(report, baseline)
        # Keep stdout clean when the JSON report goes there.
        stream = sys.stderr if args.json_path == "-" else sys.stdout
        if fresh:
            print(
                f"NEW impl-bug fingerprints vs {args.baseline}: "
                f"{', '.join(fresh)}",
                file=sys.stderr,
            )
            return 2
        print(f"no new impl-bug fingerprints vs {args.baseline}", file=stream)
    return 0


def _write_repros(directory: str, report, stream=sys.stdout) -> None:
    """Dump one replayable repro JSON per finding (the nightly artifact
    uploaded next to the campaign report)."""
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    for finding in report.findings:
        path = os.path.join(directory, f"{finding['fingerprint']}.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    key: finding[key]
                    for key in (
                        "fingerprint",
                        "kind",
                        "grain",
                        "detail",
                        "witness",
                        "min_trace",
                    )
                    if key in finding
                },
                fh,
                indent=2,
            )
            fh.write("\n")
    print(
        f"{len(report.findings)} repro traces written to {directory}/",
        file=stream,
    )


def cmd_serve(args) -> int:
    import json

    from repro.remix.service import CampaignServer

    server = CampaignServer(
        host=args.host,
        port=args.port,
        heartbeat=args.heartbeat,
        max_requests=args.max_requests,
        request_timeout=args.request_timeout,
    )
    host, port = server.start()
    # The first stdout line announces the bound address (ephemeral
    # ports included), so scripts can connect without racing logs.
    print(
        json.dumps({"event": "serving", "host": host, "port": port}),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover
        pass
    finally:
        server.stop()
    return 0


def cmd_client(args) -> int:
    import json
    import socket

    from repro.remix.request import RequestError

    try:
        request = _load_request(args.request)
    except (RequestError, ValueError, OSError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"client: {message}", file=sys.stderr)
        return 2
    payload = {"request": request.to_json()}
    if args.deadline is not None:
        payload["deadline"] = args.deadline
    try:
        sock = socket.create_connection((args.host, args.port), timeout=30)
    except OSError as error:
        print(f"client: {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    outcome = 1  # stream ended without a report
    with sock:
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        sock.settimeout(None)
        with sock.makefile("r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                print(line, flush=True)
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if event.get("event") == "report":
                    outcome = 0
                elif event.get("event") == "error":
                    outcome = 1
    return outcome


def cmd_worker(args) -> int:
    import os

    from repro.checker.backends.sockets import TOKEN_ENV, worker_main

    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        print(f"worker: expected HOST:PORT, got {args.address!r}", file=sys.stderr)
        return 2
    # The token prefers the environment (how spawned workers get it,
    # keeping secrets out of `ps`); --auth-token overrides for hand-run
    # external workers.
    token = args.auth_token or os.environ.get(TOKEN_ENV) or None
    worker_main(host, int(port), token=token, reconnect=args.reconnect)
    return 0


def cmd_hunt(args) -> int:
    from repro.zookeeper.specs import HUNTS, hunt_spec

    failures = 0
    for name, (grain, *_) in HUNTS.items():
        spec, mask = hunt_spec(name)
        result = _engine(args, spec, mask=mask).run()
        if result.found_violation:
            violation = result.first_violation
            print(
                f"{name}: FOUND by {grain} "
                f"({violation.invariant.ident}, depth {violation.depth}, "
                f"{result.states_explored} states, "
                f"{result.elapsed_seconds:.1f}s)"
            )
        else:
            failures += 1
            print(f"{name}: not found within budget")
    return failures


def cmd_protocol(args) -> int:
    from repro.zab import ZabConfig, zab_spec

    failures = 0
    for variant in ("original", "improved", "epoch_first"):
        config = ZabConfig(
            max_txns=1, max_crashes=2, max_epoch=3, variant=variant
        )
        result = _engine(args, zab_spec(config)).run()
        expected_violation = variant == "epoch_first"
        ok = result.found_violation == expected_violation
        failures += 0 if ok else 1
        outcome = (
            f"violates {result.first_violation.invariant.ident}"
            if result.found_violation
            else "passes"
        )
        print(f"{variant:12s}: {outcome} "
              f"({result.states_explored} states, "
              f"{result.elapsed_seconds:.1f}s)")
    return failures


def cmd_systems(args) -> int:
    from repro.remix.registry import registered_systems, system_plugin

    for name in registered_systems():
        plugin = system_plugin(name)
        print(f"{name:12s} {plugin.title}")
        print(f"{'':12s}   grains:    {', '.join(plugin.grains)}")
        print(f"{'':12s}   scenarios: {', '.join(plugin.scenario_names())}")
        print(f"{'':12s}   faults:    {', '.join(plugin.fault_names())}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.findings import (
        baseline_error,
        new_fingerprints,
    )
    from repro.analysis.lint import lint_systems
    from repro.remix.registry import registered_systems

    names = args.system or registered_systems()
    baseline = None
    if args.baseline:
        # Validate before any analysis runs: a missing or stale
        # baseline should fail immediately.
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as error:
            print(f"lint: baseline {args.baseline}: {error}", file=sys.stderr)
            return 2
        problem = baseline_error(baseline)
        if problem is not None:
            print(f"lint: baseline {args.baseline}: {problem}", file=sys.stderr)
            return 2

    try:
        report = lint_systems(names)
    except KeyError as error:
        print(f"lint: {error.args[0]}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        for finding in report.findings:
            print(finding.format())
        print(report.summary(), file=sys.stderr)

    if baseline is not None:
        fresh = new_fingerprints(report, baseline)
        if fresh:
            print(
                f"NEW lint fingerprints vs {args.baseline}: "
                f"{', '.join(fresh)}",
                file=sys.stderr,
            )
            return 2
        print(
            f"no new lint fingerprints vs {args.baseline}", file=sys.stderr
        )
        return 0
    return 1 if report.findings else 0


def cmd_efforts(args) -> int:
    from repro.analysis.efforts import table3

    for row in table3():
        print(row)
    return 0


def cmd_lineage(args) -> int:
    from repro.analysis.lineage import render_ascii

    print(render_ascii())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-grained specification model checking (EuroSys '25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="model-check a specification")
    p_check.add_argument("spec", choices=list(SELECTIONS))
    p_check.add_argument("--trace", action="store_true", help="print the counterexample")
    p_check.add_argument("--unmask-zk4394", action="store_true")
    _add_config_args(p_check)
    _add_engine_args(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_conf = sub.add_parser("conformance", help="conformance-check a spec")
    p_conf.add_argument(
        "spec", choices=[n for n in SELECTIONS if n not in ("SysSpec", "mSpec-4")]
    )
    p_conf.add_argument("--traces", type=int, default=30)
    p_conf.add_argument("--steps", type=int, default=25)
    p_conf.add_argument("--seed", type=int, default=0)
    _add_config_args(p_conf)
    p_conf.set_defaults(fn=cmd_conformance)

    p_camp = sub.add_parser(
        "campaign",
        help="parallel conformance campaign over the fault-scenario matrix",
    )
    # Axis values are validated by ConformanceCampaign (not argparse
    # choices) so the remix stack stays a lazy import like the other
    # heavy subcommands.
    p_camp.add_argument(
        "--system", default="zookeeper",
        help="registered system plugin to campaign over "
        "(default: zookeeper; see `python -m repro systems`)",
    )
    p_camp.add_argument(
        "--grains", nargs="+", default=None,
        help="spec grains to campaign over (default: all the system's "
        "mappable grains, e.g. mSpec-1..3 for zookeeper)",
    )
    p_camp.add_argument(
        "--scenarios", nargs="+", default=None,
        help="scenario prefixes (default: all the system's prefixes)",
    )
    p_camp.add_argument(
        "--faults", nargs="+", default=None,
        help="fault schedules (default: all the system's schedules)",
    )
    p_camp.add_argument(
        "--directions", choices=["topdown", "bottomup", "both"],
        default="topdown",
        help="conformance directions: topdown model-driven replay, "
        "bottomup implementation-driven lockstep validation, or both "
        "(default: topdown)",
    )
    p_camp.add_argument(
        "--seeds", type=int, default=1,
        help="seeds per (direction, grain, scenario, fault) cell",
    )
    p_camp.add_argument(
        "--traces", type=int, default=2, help="random suffix walks per cell"
    )
    p_camp.add_argument(
        "--steps", type=int, default=12, help="max random suffix steps"
    )
    p_camp.add_argument(
        "--budget", default=None,
        help='wall-clock budget like "5s" or "2m"; undispatched cells are skipped',
    )
    p_camp.add_argument(
        "--workers", type=int, default=1,
        help="campaign workers (1 = inline for the fork backend)",
    )
    p_camp.add_argument(
        "--backend", choices=["fork", "socket", "chaos"], default="fork",
        help="execution backend: 'fork' (forked workers over pipes, the "
        "default), 'socket' (TCP worker subprocesses; reports are "
        "bitwise-identical across backends), or 'chaos' (the socket "
        "backend under seeded fault injection -- testing the harness)",
    )
    p_camp.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="hard per-cell wall clock: a cell running longer has its "
        "worker killed and is retried (default: no watchdog)",
    )
    p_camp.add_argument(
        "--task-retries", type=int, default=2, metavar="N",
        help="transient failures (worker death, timeout) one cell may "
        "survive before it is quarantined as poison (default: 2)",
    )
    p_camp.add_argument(
        "--auth-token", default=None,
        help="shared secret for the socket backend's worker handshake "
        "(spawned workers inherit it; external workers pass it to "
        "`python -m repro worker`)",
    )
    p_camp.add_argument(
        "--journal", default=None, metavar="DIR",
        help="crash-safe mode: append completed cell/shrink results to "
        "DIR/journal.jsonl as they finish",
    )
    p_camp.add_argument(
        "--resume", action="store_true",
        help="with --journal: skip cells already journaled for this "
        "request and replay their results (the resumed report is "
        "bitwise-identical to an uninterrupted run)",
    )
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument(
        "--shrink", action=argparse.BooleanOptionalAction, default=True,
        help="minimize each distinct finding's witness after the merge "
        "(attaches a replayable min_trace per finding; on by default, "
        "disable with --no-shrink)",
    )
    p_camp.add_argument(
        "--repros", default=None, metavar="DIR",
        help="write one replayable repro JSON per finding into DIR",
    )
    p_camp.add_argument(
        "--json", dest="json_path", nargs="?", const="-", default=None,
        help="emit the JSON report (to stdout, or to the given path)",
    )
    p_camp.add_argument(
        "--baseline", default=None,
        help="campaign report JSON to diff impl-bug fingerprints against; "
        "exits 2 on new ones (the nightly CI gate)",
    )
    p_camp.add_argument(
        "--request", default=None, metavar="FILE",
        help="run a serialized CampaignRequest JSON instead of flags "
        "('-' reads stdin; the same JSON serve/client speak)",
    )
    p_camp.add_argument(
        "--dry-run", action="store_true",
        help="print the normalized CampaignRequest JSON and exit "
        "(feed it back via --request or to serve/client)",
    )
    p_camp.set_defaults(fn=cmd_campaign)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived campaign server streaming repro.campaign.event/1 "
        "JSON-lines per request",
        # the removed `serve --request FILE` must not read as an
        # abbreviation of --request-timeout
        allow_abbrev=False,
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; the bound address is "
        "announced as the first stdout line)",
    )
    p_serve.add_argument(
        "--heartbeat", type=float, default=5.0,
        help="seconds between heartbeat events on an active stream",
    )
    p_serve.add_argument(
        "--max-requests", type=int, default=None,
        help="shut down after serving this many requests (CI harness)",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="seconds a fresh connection gets to send its request line "
        "before it is answered with an error event and closed "
        "(default: 30)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="send one campaign request to a server, stream events to stdout",
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, required=True)
    p_client.add_argument(
        "--request", default="-", metavar="FILE",
        help="CampaignRequest JSON to send (default '-' = stdin)",
    )
    p_client.add_argument(
        "--deadline", type=float, default=None,
        help="per-request wall-clock deadline in seconds (the server "
        "folds it into the campaign budget)",
    )
    p_client.set_defaults(fn=cmd_client)

    p_worker = sub.add_parser(
        "worker",
        help="join a socket-backend listener as a remote campaign worker",
    )
    p_worker.add_argument(
        "address", metavar="HOST:PORT",
        help="the socket backend's listener address",
    )
    p_worker.add_argument(
        "--auth-token", default=None,
        help="shared secret for the backend's hello handshake (default: "
        "$REPRO_WORKER_TOKEN, which is how spawned workers receive it)",
    )
    p_worker.add_argument(
        "--reconnect", action=argparse.BooleanOptionalAction, default=True,
        help="reconnect with exponential backoff when the connection "
        "drops mid-session (clean shutdown always exits; on by default)",
    )
    p_worker.set_defaults(fn=cmd_worker)

    p_hunt = sub.add_parser("bugs", help="hunt the six paper bugs")
    p_hunt.add_argument("--max-states", type=int, default=1_000_000)
    p_hunt.add_argument("--max-time", type=float, default=240.0)
    _add_engine_args(p_hunt)
    p_hunt.set_defaults(fn=cmd_hunt)

    p_proto = sub.add_parser("protocol", help="verify the Zab variants (§5.4)")
    p_proto.add_argument("--max-states", type=int, default=300_000)
    p_proto.add_argument("--max-time", type=float, default=180.0)
    _add_engine_args(p_proto)
    p_proto.set_defaults(fn=cmd_protocol)

    p_lint = sub.add_parser(
        "lint",
        help="static spec analysis: dependency declarations, purity and "
        "plugin conformance, before anything runs",
    )
    p_lint.add_argument(
        "--system", action="append", default=None,
        help="system to lint (repeatable; default: all registered)",
    )
    p_lint.add_argument(
        "--all", action="store_true",
        help="lint every registered system (the default; explicit for CI)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text findings (default) or the repro.lint/1 JSON report",
    )
    p_lint.add_argument(
        "--baseline", default=None,
        help="lint report JSON to diff finding fingerprints against; "
        "exits 2 on new ones (the CI gate), 0 otherwise",
    )
    p_lint.set_defaults(fn=cmd_lint)

    sub.add_parser(
        "systems", help="list registered system plugins"
    ).set_defaults(fn=cmd_systems)

    sub.add_parser("efforts", help="Table 3 effort metrics").set_defaults(
        fn=cmd_efforts
    )
    sub.add_parser("lineage", help="Figure 8 bug lineage").set_defaults(
        fn=cmd_lineage
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro lineage | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
