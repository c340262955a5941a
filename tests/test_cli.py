"""Tests for the command-line interface."""

import functools
import json
import socket
import threading

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_config_args(self):
        args = build_parser().parse_args(
            ["check", "mSpec-2", "--txns", "2", "--crashes", "3"]
        )
        assert args.txns == 2 and args.crashes == 3

    def test_engine_args(self):
        args = build_parser().parse_args(["check", "mSpec-3", "--strategy", "dfs"])
        assert args.strategy == "dfs"

    def test_campaign_keeps_its_seed(self):
        # `--seed` left check, bugs and protocol with the random
        # strategy; a campaign's walks are still seeded.
        args = build_parser().parse_args(["campaign", "--seed", "7"])
        assert args.seed == 7

    def test_engine_args_on_bugs_and_protocol(self):
        args = build_parser().parse_args(["bugs"])
        assert args.strategy == "bfs"
        args = build_parser().parse_args(["protocol", "--strategy", "dfs"])
        assert args.strategy == "dfs"

    @pytest.mark.parametrize("command", (["check", "mSpec-1"], ["bugs"], ["protocol"]))
    def test_dedupe_flag_is_gone(self, command):
        build_parser().parse_args(command + ["--strategy", "bfs"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--strategy", "bfs", "--dedupe", "rounds"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "mSpec-1", "--strategy", "portfolio"],
            ["bugs", "--strategy", "portfolio"],
            ["protocol", "--strategy", "portfolio"],
            # the random strategy is gone, and the seed only it read;
            # `campaign --seed` seeds the walks and stays
            ["check", "mSpec-3", "--strategy", "random"],
            ["bugs", "--strategy", "random"],
            ["check", "mSpec-3", "--seed", "4"],
            ["bugs", "--seed", "4"],
            ["protocol", "--seed", "4"],
            # parallel BFS is gone; `campaign --workers` is not
            ["check", "mSpec-1", "--workers", "2"],
            ["bugs", "--workers", "2"],
            ["protocol", "--workers", "2"],
            ["campaign", "--adaptive"],
            ["campaign", "--spec-cache", "off"],  # REPRO_SPEC_CACHE_DIR says it
            ["serve", "--spec-cache", "off"],
            # campaign --request is the one-shot; "5" must not parse as an
            # abbreviated --request-timeout
            ["serve", "--request", "5"],
            # `campaign --steps 25` is the one way into conformance
            ["conformance", "mSpec-3"],
            # Table 3 and Figure 8 are rendered by their benchmarks
            ["efforts"],
            ["lineage"],
            # lint gates on zero findings; workers always reconnect; a
            # deadline rides in a request envelope, not a client flag
            ["lint", "--baseline", "lint.json"],
            ["worker", "127.0.0.1:7700", "--no-reconnect"],
            ["client", "--port", "7700", "--deadline", "5"],
        ],
        ids=" ".join,
    )
    def test_removed_surface_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--request-timeout", "-1"],
            ["serve", "--request-timeout", "0"],
            ["serve", "--request-timeout", "nan"],
            ["serve", "--request-timeout", "inf"],
            ["serve", "--heartbeat", "-1"],
            ["serve", "--heartbeat", "nan"],
            ["serve", "--heartbeat", "inf"],
        ],
        ids=" ".join,
    )
    def test_serve_refuses_timeouts_that_would_kill_requests(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert f"argument {argv[1]}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_serve_refuses_a_quota_that_serves_nothing(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--max-requests", value])
        assert exit_info.value.code == 2
        assert "argument --max-requests: must be positive" in capsys.readouterr().err

    def test_serve_heartbeat_zero_is_off(self):
        args = build_parser().parse_args(
            ["serve", "--heartbeat", "0", "--request-timeout", "0.5"]
        )
        assert (args.heartbeat, args.request_timeout) == (0.0, 0.5)

    def test_campaign_keeps_workers(self):
        assert build_parser().parse_args(["campaign", "--workers", "2"]).workers == 2

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "mSpec-1", "--strategy", "zen"])

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            pytest.param(argv, complaint, id=" ".join(argv))
            for argv, complaint in [
                (["check", "mSpec-3", "--txns", "-1", "--max-states", "100"],
                 "max_txns must be at least 0"),
                (["check", "mSpec-3", "--crashes", "-1", "--max-states", "100"],
                 "max_crashes must be at least 0"),
                (["check", "mSpec-3", "--servers", "0"], "n_servers must be at least 1"),
                # the spec name is make_spec's to validate, not argparse's
                (["check", "nope"], "unknown specification 'nope'; options: ['SysSpec',"),
                (["check", "mSpec-3", "--max-states", "-5"], "argument --max-states: must be positive"),
                (["bugs", "--max-states", "0"], "argument --max-states: must be positive"),
                (["check", "mSpec-3", "--max-states", "100", "--max-time", "nan"],
                 "argument --max-time"),
                (["bugs", "--max-states", "50", "--max-time", "inf"], "argument --max-time"),
                (["protocol", "--max-time", "-1"], "argument --max-time"),
                # the resolver would wrap a port above 65535 modulo 65536
                (["serve", "--port", "70000"],
                 "argument --port: must be between 0 and 65535, got 70000"),
                (["serve", "--port", "-1"], "argument --port: must be between 0 and 65535"),
                # an address of no local interface (TEST-NET-1, RFC 5737):
                # the bind fails without a name lookup
                (["serve", "--host", "192.0.2.1"], "serve: cannot listen on 192.0.2.1:0"),
            ]
        ],
    )
    def test_nonsense_inputs_exit_2_without_a_verdict(self, argv, complaint, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert complaint in err


    def test_a_campaign_of_no_traces_exits_2(self, capsys):
        argv = ["campaign", "--grains", "mSpec-1", "--scenarios", "election",
                "--faults", "none", "--traces", "0", "--no-shrink"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "traces: traces must be at least 1, got 0" in err


class TestRequestEnvelope:
    """``campaign --request FILE`` reads a ``serve`` envelope the way the
    server does: its deadline folds into the budget, and a key that is
    neither ``request`` nor ``deadline`` is refused."""

    def dry_run(self, tmp_path, envelope):
        path = tmp_path / "request.json"
        path.write_text(json.dumps(envelope))
        return main(["campaign", "--request", str(path), "--dry-run"])

    @pytest.mark.parametrize("budget, deadline, folded", [(None, 1e-06, 1e-06), (5, 9, 5.0)])
    def test_deadline_folds_into_the_printed_budget(
        self, tmp_path, capsys, budget, deadline, folded
    ):
        request = {"grains": ["mSpec-1"], "budget": budget}
        assert self.dry_run(tmp_path, {"request": request, "deadline": deadline}) == 0
        assert json.loads(capsys.readouterr().out)["budget"] == folded

    @pytest.mark.parametrize(
        "extra, complaint",
        [
            ({"deadline": 1e-06, "bogus": 1}, "unknown envelope key(s) ['bogus']"),
            ({"deadline": True}, "deadline: expected seconds"),
            ({"deadline": -1}, "deadline: deadline must be finite and positive"),
        ],
    )
    def test_envelope_it_cannot_honour_exits_2(self, tmp_path, capsys, extra, complaint):
        envelope = {"request": {"grains": ["mSpec-1"]}, **extra}
        assert self.dry_run(tmp_path, envelope) == 2
        out, err = capsys.readouterr()
        assert out == "" and complaint in err


class TestCommands:
    def test_check_finds_zk4394(self, capsys):
        code = main(
            [
                "check",
                "mSpec-1",
                "--unmask-zk4394",
                "--max-states",
                "50000",
                "--max-time",
                "60",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # violation found
        assert "I-14" in out

    def test_check_with_trace(self, capsys):
        code = main(
            [
                "check",
                "mSpec-1",
                "--unmask-zk4394",
                "--trace",
                "--max-states",
                "50000",
                "--max-time",
                "60",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # violation found
        assert "State 0 (initial):" in out

    def test_check_masked_passes(self, capsys):
        code = main(
            ["check", "mSpec-1", "--max-states", "30000", "--max-time", "30"]
        )
        assert code == 0

    @pytest.mark.parametrize("command, runs", ((["bugs"], 6), (["protocol"], 3)))
    def test_stats_prints_one_memo_report_per_run(self, command, runs, capsys):
        main(command + ["--stats", "--max-states", "300", "--max-time", "30"])
        out = capsys.readouterr().out
        assert out.count('"mode": "compiled"') == runs
        assert out.count('"expand_calls"') == runs


class TestPortRange:
    """A port above 65535 is refused before anything connects: the
    resolver would wrap it modulo 65536 (``client --port 70000`` reached
    a listener on 4464)."""

    @pytest.fixture
    def connects(self, monkeypatch):
        from repro.checker.backends import sockets

        attempts = []
        monkeypatch.setattr(socket, "create_connection", lambda *a, **k: attempts.append(a))
        monkeypatch.setattr(sockets, "worker_main", lambda *a, **k: attempts.append(a))
        return attempts

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_client_refuses_the_port(self, port, connects, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["client", "--port", port, "--request", "-"])
        assert exit_info.value.code == 2
        assert "argument --port: must be between 0 and 65535" in capsys.readouterr().err
        assert connects == []

    @pytest.mark.parametrize("port", ["70000", "65536"])
    def test_worker_refuses_the_port(self, port, connects, capsys):
        assert main(["worker", f"127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err == f"worker: HOST:PORT: port must be between 0 and 65535, got {port}\n"
        assert connects == []


class TestWorkerExit:
    """``repro worker`` exits 0 only after a shutdown frame; a worker
    that served nothing says why on stderr and exits non-zero."""

    @pytest.fixture(autouse=True)
    def fast_backoff(self, monkeypatch):
        from repro.checker.backends import sockets

        monkeypatch.setattr(
            sockets, "worker_main", functools.partial(sockets.worker_main, backoff=0.01)
        )

    @staticmethod
    def listener(answer):
        """A one-connection listener that reads the hello, then hands
        the connection and listening socket to ``answer`` in a thread."""
        server = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = server.accept()
            with conn:
                conn.makefile().readline()
                answer(conn, server)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return server, thread

    def test_shutdown_frame_exits_0(self, capsys):
        server, thread = self.listener(lambda conn, _: conn.sendall(b'{"type": "shutdown"}\n'))
        with server:
            assert main(["worker", "127.0.0.1:%d" % server.getsockname()[1]]) == 0
        thread.join()
        assert capsys.readouterr().err == ""

    def test_wrong_token_exits_2(self, capsys):
        from repro.checker.backends.sockets import SocketBackend

        backend = SocketBackend(
            "repro.checker.backends.testing:add_one", workers=1, spawn=False,
            auth_token="right", connect_timeout=1.0,
        )
        refused = []

        def run_map():  # the band polls while it maps, so the hello is answered
            try:
                backend.map([{"value": 1}])
            except RuntimeError as error:  # no verified worker ever joined
                refused.append(error)

        mapping = threading.Thread(target=run_map)
        mapping.start()
        try:
            address = "%s:%d" % backend.address
            assert main(["worker", address, "--auth-token", "wrong"]) == 2
        finally:
            mapping.join()
            backend.close()
        assert refused
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"worker: {address}: the listener rejected our hello")

    def test_unreachable_listener_exits_2(self, capsys):
        # bound, never listening: every connect is refused
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            address = "127.0.0.1:%d" % closed.getsockname()[1]
            assert main(["worker", address]) == 2
        err = capsys.readouterr().err
        assert err == f"worker: {address}: no listener reached; gave up\n"

    def test_lost_session_exits_1(self, capsys):
        def hang_up(conn, server):
            server.close()  # first, so no reconnect is accepted

        server, thread = self.listener(hang_up)
        address = "127.0.0.1:%d" % server.getsockname()[1]
        assert main(["worker", address]) == 1
        thread.join()
        err = capsys.readouterr().err
        assert err == f"worker: {address}: the session was lost and reconnecting gave up\n"
