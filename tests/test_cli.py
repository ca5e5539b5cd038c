"""Tests for the command line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_topology_defaults(self):
        args = build_parser().parse_args(["topology", "fattree"])
        assert args.command == "topology" and args.kind == "fattree" and args.k == 4

    def test_pmc_flags(self):
        args = build_parser().parse_args(
            ["pmc", "vl2", "--da", "8", "--di", "6", "--alpha", "2", "--no-symmetry", "--no-lazy"]
        )
        assert args.kind == "vl2" and args.no_symmetry and args.no_lazy

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table3"])
        assert args.name == "table3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nope"])

    def test_experiment_all_flags(self):
        args = build_parser().parse_args(
            ["experiment", "all", "--scale", "quick", "--output-dir", "/tmp/x"]
        )
        assert args.name == "all" and args.scale == "quick" and args.output_dir == "/tmp/x"


class TestCommands:
    def test_topology_command(self, capsys):
        assert main(["topology", "fattree", "--k", "4"]) == 0
        output = capsys.readouterr().out
        assert "Fattree(4)" in output
        assert "switch_links" in output

    def test_topology_bcube(self, capsys):
        assert main(["topology", "bcube", "--n", "3", "--levels", "1"]) == 0
        assert "BCube(3,1)" in capsys.readouterr().out

    def test_pmc_command(self, capsys):
        assert main(["pmc", "fattree", "--k", "4", "--alpha", "1", "--beta", "1"]) == 0
        output = capsys.readouterr().out
        assert "selected" in output
        assert "achieved identifiability: 1" in output

    def test_monitor_command(self, capsys):
        code = main(
            [
                "monitor",
                "--k",
                "4",
                "--windows",
                "2",
                "--failures",
                "1",
                "--probes-per-second",
                "10",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "controller:" in output
        assert "overall: accuracy" in output
