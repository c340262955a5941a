"""Tests for the command-line interface."""

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
        args = build_parser().parse_args(
            ["check", "mSpec-3", "--workers", "4", "--strategy", "random"]
        )
        assert args.workers == 4 and args.strategy == "random"

    def test_engine_args_on_bugs_and_protocol(self):
        args = build_parser().parse_args(["bugs", "--workers", "2"])
        assert args.workers == 2 and args.strategy == "bfs"
        args = build_parser().parse_args(["protocol", "--strategy", "dfs"])
        assert args.strategy == "dfs"

    @pytest.mark.parametrize("command", (["check", "mSpec-1"], ["bugs"], ["protocol"]))
    def test_dedupe_flag_is_gone(self, command):
        build_parser().parse_args(command + ["--workers", "2"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--workers", "2", "--dedupe", "rounds"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "mSpec-1", "--strategy", "portfolio"],
            ["bugs", "--strategy", "portfolio"],
            ["protocol", "--strategy", "portfolio"],
            ["campaign", "--adaptive"],
            ["campaign", "--spec-cache", "off"],  # REPRO_SPEC_CACHE_DIR says it
            ["serve", "--spec-cache", "off"],
            # campaign --request is the one-shot; "5" must not parse as an
            # abbreviated --request-timeout
            ["serve", "--request", "5"],
        ],
        ids=" ".join,
    )
    def test_removed_surface_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "mSpec-1", "--strategy", "zen"])


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

    def test_check_parallel_matches_sequential(self, capsys):
        argv = [
            "check",
            "mSpec-1",
            "--unmask-zk4394",
            "--max-states",
            "20000",
            "--max-time",
            "60",
        ]
        code_seq = main(argv + ["--workers", "1"])
        out_seq = capsys.readouterr().out
        code_par = main(argv + ["--workers", "2"])
        out_par = capsys.readouterr().out
        assert code_seq == code_par == 1
        # identical states/transitions/violation counts, timing aside
        strip = lambda s: s.split(" states")[0].split("] ")[1]  # noqa: E731
        assert strip(out_seq) == strip(out_par)

    def test_conformance(self, capsys):
        code = main(
            ["conformance", "mSpec-3", "--traces", "10", "--steps", "15"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 discrepancies" in out

    def test_efforts(self, capsys):
        assert main(["efforts"]) == 0
        out = capsys.readouterr().out
        assert "mSpec-1 - SysSpec" in out

    def test_lineage(self, capsys):
        assert main(["lineage"]) == 0
        out = capsys.readouterr().out
        assert "ZK-2678" in out
