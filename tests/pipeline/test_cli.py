"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "pipeline" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.scale == 0.5
        assert args.sessions == 200


class TestBadValues:
    """Out-of-domain flag values exit 2 with one line naming the spec
    field (or the ``--job`` string and key, or the workload scale) —
    never a traceback, never plausible numbers."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["pipeline", "--num-readers", "0"],
                "repro: error: ReaderSpec.num_readers must be positive, "
                "got 0\n",
            ),
            (
                ["pipeline", "--prefetch-depth", "0"],
                "repro: error: ReaderSpec.prefetch_depth must be "
                "positive, got 0\n",
            ),
            (
                ["multijob", "--job", "RM1:sessions=abc"],
                "repro: error: --job 'RM1:sessions=abc': sessions needs "
                "int, got 'abc'\n",
            ),
            # the workloads floor every magnitude, so these used to
            # print plausible speedups for a nonsense scale
            (
                ["fig7", "--scale", "-1"],
                "repro: error: workload scale must be positive, got -1.0\n",
            ),
            (
                ["scribe", "--scale", "0"],
                "repro: error: workload scale must be positive, got 0.0\n",
            ),
            # was numpy's "zero-size array to reduction operation maximum"
            (
                ["fig3", "--sessions-large", "0"],
                "repro: error: num_sessions must be positive, got 0\n",
            ),
            (
                ["fig4", "--sessions-large", "0"],
                "repro: error: num_sessions must be positive, got 0\n",
            ),
        ],
    )
    def test_exits_2_naming_the_field(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""


class TestSmallRuns:
    def test_dedupe_model(self, capsys):
        assert main(["dedupe-model"]) == 0
        assert "modeled" in capsys.readouterr().out

    def test_partial(self, capsys):
        assert main(["partial", "--sessions", "60"]) == 0
        out = capsys.readouterr().out
        assert "partial factor" in out

    def test_scribe(self, capsys):
        assert main(
            ["scribe", "--scale", "0.1", "--sessions", "60"]
        ) == 0
        assert "session" in capsys.readouterr().out

    def test_pipeline_baseline(self, capsys):
        assert main(
            ["pipeline", "--rm", "RM2", "--scale", "0.1", "--sessions", "80"]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "trainer throughput" in out

    def test_pipeline_epochs_partitions(self, capsys):
        assert main(
            [
                "pipeline",
                "--rm",
                "RM2",
                "--scale",
                "0.1",
                "--sessions",
                "80",
                "--num-partitions",
                "2",
                "--train-epochs",
                "2",
                "--num-readers",
                "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("RM2 (baseline):\n")
        assert re.search(
            r"^  partitions          : 2 \(\d+ rows\), 2 epoch\(s\)$",
            out,
            re.MULTILINE,
        )
        assert "overlap (stream)" in out and "reader-stall" in out

    def test_pipeline_no_streaming(self, capsys):
        assert main(
            [
                "pipeline",
                "--rm",
                "RM2",
                "--scale",
                "0.1",
                "--sessions",
                "80",
                "--no-streaming",
            ]
        ) == 0
        assert "overlap (materi)" in capsys.readouterr().out

    def test_pipeline_recd(self, capsys):
        assert main(
            [
                "pipeline",
                "--rm",
                "RM2",
                "--recd",
                "--scale",
                "0.1",
                "--sessions",
                "80",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("RM2 (RecD):\n")
        assert ", 1 epoch(s)\n" in out

    def test_fig3_small(self, capsys):
        assert main(["fig3", "--sessions-large", "5000"]) == 0
        assert "partition mean" in capsys.readouterr().out
