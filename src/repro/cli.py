"""Command-line interface: ``python -m repro <command>``.

Exposes the main workflows without writing Python:

- ``check``       model-check one of the Table 1 specifications
- ``campaign``    check model-code conformance: random model traces
                  replayed in lockstep on the implementation simulator,
                  over the (grain x scenario x fault x seed) matrix of
                  any registered system plugin (``--system``)
- ``serve``       run the long-lived campaign server (streams
                  ``repro.campaign.event/1`` JSON-lines per request)
- ``client``      send one campaign request to a server and stream
                  its events to stdout
- ``worker``      join a socket-backend listener as a remote worker
- ``systems``     list the registered system plugins
- ``bugs``        hunt each of the six paper bugs (a mini Table 4)
- ``protocol``    verify the Zab protocol variants (§5.4)
- ``lint``        static spec analysis before anything runs

The ``campaign``/``serve``/``client`` trio all speak the same
serialized :class:`~repro.remix.request.CampaignRequest`:
``campaign --dry-run`` prints it, ``campaign --request FILE`` (or
``-`` for stdin) runs it, and ``serve``/``client`` move it over a
socket.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro.checker import STRATEGIES, ExplorationEngine, format_trace


def _positive(text: str) -> int:
    """``--max-states`` and ``serve --max-requests``: a positive integer
    (a budget of no states is no run, a quota of no requests no
    server)."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _seconds(text: str) -> float:
    """``--max-time`` and ``serve --heartbeat``: finite seconds, at least
    zero (NaN would turn the clock off; a heartbeat of 0 is off)."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """``serve --request-timeout``: finite seconds above zero (a socket
    timeout of 0 never waits, and a negative one is refused)."""
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {value}")
    return value


def _port(text: str) -> int:
    """``serve --port``, ``client --port`` and the port of ``worker
    HOST:PORT``: 0-65535 (the resolver would wrap a larger one modulo
    65536 and reach another port)."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be between 0 and 65535, got {value}")
    return value


def _add_budget_args(parser: argparse.ArgumentParser, max_states: int, max_time: float):
    parser.add_argument("--max-states", type=_positive, default=max_states)
    parser.add_argument("--max-time", type=_seconds, default=max_time)


def _add_config_args(parser: argparse.ArgumentParser):
    parser.add_argument("--servers", type=int, default=3)
    parser.add_argument("--txns", type=int, default=1)
    parser.add_argument("--crashes", type=int, default=1)
    parser.add_argument("--partitions", type=int, default=0)
    parser.add_argument("--max-epoch", type=int, default=3)
    _add_budget_args(parser, 500_000, 120.0)


def _add_engine_args(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--strategy",
        choices=list(STRATEGIES),
        default="bfs",
        help="exploration strategy (default: bfs)",
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
        debug=getattr(args, "debug_deps", False),
        max_states=args.max_states,
        max_time=args.max_time,
    )
    kwargs.update(overrides)
    return ExplorationEngine(spec, **kwargs)


def _print_stats(engine: ExplorationEngine) -> None:
    print(json.dumps(engine.core.memo_stats(), indent=2, sort_keys=True))


def cmd_check(args) -> int:
    from repro.zookeeper import ZkConfig, make_spec, zk4394_mask

    # An impossible config (no servers, a negative bound) or an unknown
    # spec name ends the run with exit 2 and no verdict.
    try:
        spec = make_spec(
            args.spec,
            ZkConfig(
                n_servers=args.servers,
                max_txns=args.txns,
                max_crashes=args.crashes,
                max_partitions=args.partitions,
                max_epoch=args.max_epoch,
            ),
        )
    except (KeyError, ValueError) as error:
        print(f"check: {error.args[0]}", file=sys.stderr)
        raise SystemExit(2) from None
    mask = None if args.unmask_zk4394 else zk4394_mask
    engine = _engine(args, spec, mask=mask)
    result = engine.run()
    print(result.summary())
    if args.stats:
        _print_stats(engine)
    if result.found_violation and args.trace:
        print()
        print(format_trace(result.first_violation.trace))
    return 1 if result.found_violation else 0


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
    stdin): the bare request JSON or a server envelope
    (:func:`~repro.remix.request.from_envelope`)."""
    import json

    from repro.remix.request import from_envelope

    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source) as fh:
            text = fh.read()
    return from_envelope(json.loads(text))


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
    _refuse_unusable_outputs(args)
    report = run_campaign(
        request, journal_dir=args.journal, resume=args.resume
    )
    payload = report.to_json()
    # Warm-start accounting goes to stderr so `--json -` stdout stays
    # pure JSON; disk hits > 0 means this invocation reused prefixes a
    # previous invocation persisted (the on-disk spec cache), bundle hits
    # > 0 that it loaded kernels instead of compiling them, resume hits
    # runs that entered past a prefix this process judged once (counted
    # where the cells ran: forked workers keep their own).
    cache_stats = spec_cache.stats()
    print(
        f"spec cache: {cache_stats['disk_hits']} disk hits, "
        f"{cache_stats['disk_misses']} disk misses, "
        f"{cache_stats['prefix_hits']} warm prefix reuses; "
        f"{cache_stats['bundle_hits']} bundle hits, "
        f"{cache_stats['bundle_misses']} bundle misses, "
        f"{cache_stats['bundle_stale']} bundle stale; "
        f"{cache_stats['resume_hits']} resume hits, "
        f"{cache_stats['resume_misses']} resume misses, "
        f"{cache_stats['resume_negative']} resume negative",
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


def _refuse_unusable_outputs(args) -> None:
    """End the run with exit 2 and one line if an output location cannot
    be written, before any cell runs: ``--journal`` and ``--repros`` are
    the directories the run would make, ``--json PATH`` a file opened
    for appending (and removed again if this made it)."""
    import os

    json_path = None if args.json_path == "-" else args.json_path
    for flag, path, directory in (
        ("--journal", args.journal, True),
        ("--repros", args.repros, True),
        ("--json", json_path, False),
    ):
        if path is None:
            continue
        try:
            if directory:
                os.makedirs(path, exist_ok=True)
            else:
                made = not os.path.exists(path)
                open(path, "a").close()
                if made:
                    os.remove(path)
        except OSError as error:
            print(f"campaign: {flag} {path}: {error.strerror or error}", file=sys.stderr)
            raise SystemExit(2) from None


def _write_repros(directory: str, report, stream=sys.stdout) -> None:
    """Dump one replayable repro JSON per finding (the nightly artifact
    uploaded next to the campaign report) into ``directory``, which
    :func:`_refuse_unusable_outputs` made before the run."""
    import json
    import os

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

    # An address this host cannot bind ends the run with exit 2 and no
    # announcement (a port out of range is argparse's to refuse).
    try:
        server = CampaignServer(
            host=args.host,
            port=args.port,
            heartbeat=args.heartbeat,
            max_requests=args.max_requests,
            request_timeout=args.request_timeout,
        )
    except OSError as error:
        print(f"serve: cannot listen on {args.host}:{args.port}: {error}", file=sys.stderr)
        raise SystemExit(2) from None
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
        # This thread waits for every band before the interpreter exits
        # (which would cut a daemon thread's reap short): stop() for the
        # idle ones, serve_forever() for those in-flight requests hold.
        server.stop()
        server.serve_forever()
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


#: How a worker that served no shutdown frame ends, by ``worker_main``'s
#: reason: exit 2 when no session ever began, 1 when one was lost.
WORKER_EXITS = {
    "rejected": (2, "the listener rejected our hello (wrong token or protocol)"),
    "unreachable": (2, "no listener reached; gave up"),
    "lost": (1, "the session was lost and reconnecting gave up"),
}


def cmd_worker(args) -> int:
    import os

    from repro.checker.backends.sockets import TOKEN_ENV, worker_main

    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        print(f"worker: expected HOST:PORT, got {args.address!r}", file=sys.stderr)
        return 2
    try:
        port = _port(port)
    except argparse.ArgumentTypeError as error:
        print(f"worker: HOST:PORT: port {error}", file=sys.stderr)
        return 2
    # The token prefers the environment (how spawned workers get it,
    # keeping secrets out of `ps`); --auth-token overrides for hand-run
    # external workers.
    token = args.auth_token or os.environ.get(TOKEN_ENV) or None
    reason = worker_main(host, port, token=token)
    if reason == "shutdown":
        return 0
    print(f"worker: {args.address}: {WORKER_EXITS[reason][1]}", file=sys.stderr)
    return WORKER_EXITS[reason][0]


def cmd_hunt(args) -> int:
    from repro.zookeeper.specs import HUNTS, hunt_spec

    failures = 0
    for name, (grain, *_) in HUNTS.items():
        spec, mask = hunt_spec(name)
        engine = _engine(args, spec, mask=mask)
        result = engine.run()
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
        if args.stats:
            _print_stats(engine)
    return failures


def cmd_protocol(args) -> int:
    from repro.zab import ZabConfig, zab_spec

    failures = 0
    for variant in ("original", "improved", "epoch_first"):
        config = ZabConfig(
            max_txns=1, max_crashes=2, max_epoch=3, variant=variant
        )
        engine = _engine(args, zab_spec(config))
        result = engine.run()
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
        if args.stats:
            _print_stats(engine)
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
    from repro.analysis.lint import lint_systems
    from repro.remix.registry import registered_systems

    names = args.system or registered_systems()
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
    return 1 if report.findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-grained specification model checking (EuroSys '25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="model-check a specification")
    # The spec name is validated by make_spec (exit 2 with the options),
    # so parsing imports no system package.
    p_check.add_argument("spec", help="Table 1 specification, e.g. mSpec-3")
    p_check.add_argument("--trace", action="store_true", help="print the counterexample")
    p_check.add_argument("--unmask-zk4394", action="store_true")
    _add_config_args(p_check)
    _add_engine_args(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_camp = sub.add_parser(
        "campaign",
        help="parallel conformance campaign over the fault-scenario matrix",
    )
    # Axis values are validated by CampaignRequest (not argparse
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
        help="timeouts and worker deaths one cell may survive "
        "before it is quarantined as poison (default: 2); a cell whose "
        "worker dies twice is quarantined whatever N is",
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
        "--port", type=_port, default=0,
        help="TCP port (default 0 = ephemeral; the bound address is "
        "announced as the first stdout line)",
    )
    p_serve.add_argument(
        "--heartbeat", type=_seconds, default=5.0,
        help="seconds between heartbeat events on an active stream "
        "(0 = no heartbeats)",
    )
    p_serve.add_argument(
        "--max-requests", type=_positive, default=None,
        help="shut down after serving this many requests (CI harness)",
    )
    p_serve.add_argument(
        "--request-timeout", type=_positive_seconds, default=30.0,
        metavar="SECONDS",
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
    p_client.add_argument("--port", type=_port, required=True)
    p_client.add_argument(
        "--request", default="-", metavar="FILE",
        help="CampaignRequest JSON to send (default '-' = stdin)",
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
    p_worker.set_defaults(fn=cmd_worker)

    p_hunt = sub.add_parser("bugs", help="hunt the six paper bugs")
    _add_budget_args(p_hunt, 1_000_000, 240.0)
    _add_engine_args(p_hunt)
    p_hunt.set_defaults(fn=cmd_hunt)

    p_proto = sub.add_parser("protocol", help="verify the Zab variants (§5.4)")
    _add_budget_args(p_proto, 300_000, 180.0)
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
        "--format", choices=("text", "json"), default="text",
        help="text findings (default) or the repro.lint/1 JSON report",
    )
    p_lint.set_defaults(fn=cmd_lint)

    sub.add_parser(
        "systems", help="list registered system plugins"
    ).set_defaults(fn=cmd_systems)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro systems | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
