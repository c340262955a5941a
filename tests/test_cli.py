"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_check_spec_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "nope"])

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
                (["check", "mSpec-3", "--max-states", "-5"], "argument --max-states: must be positive"),
                (["bugs", "--max-states", "0"], "argument --max-states: must be positive"),
                (["check", "mSpec-3", "--max-states", "100", "--max-time", "nan"],
                 "argument --max-time"),
                (["bugs", "--max-states", "50", "--max-time", "inf"], "argument --max-time"),
                (["protocol", "--max-time", "-1"], "argument --max-time"),
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

    def test_efforts(self, capsys):
        assert main(["efforts"]) == 0
        out = capsys.readouterr().out
        assert "mSpec-1 - SysSpec" in out

    def test_lineage(self, capsys):
        assert main(["lineage"]) == 0
        out = capsys.readouterr().out
        assert "ZK-2678" in out
