"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.experiments.figures import FIGURES


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


#: the flags (and defaults) every run subcommand shares
_RUN_DEFAULTS = {
    "scale": 0.5,
    "sessions": 200,
    "sessions_large": 50_000,
    "seed": 0,
    "rm": "RM1",
    "recd": False,
    "num_partitions": 1,
    "num_readers": 1,
    "reader_executor": "inprocess",
    "transport": "copy",
    "streaming": True,
    "dedup": False,
    "train_epochs": 1,
    "train_batches": 2,
    "autoscale": False,
    "target_stall": 0.1,
    "max_readers": 32,
    "retain_partitions": None,
}
_SHARED_DEFAULTS = {
    **_RUN_DEFAULTS,
    "num_readers": 8,
    "train_epochs": 2,
    "jobs": 2,
    "policy": "stall_weighted",
}


class TestFlagTable:
    """The subparsers are derived from one flag table; what they parse
    to is pinned here, flag for flag."""

    @pytest.mark.parametrize(
        "command, defaults",
        [
            ("pipeline", _RUN_DEFAULTS),
            ("multijob", {**_SHARED_DEFAULTS, "job": []}),
            (
                "stream",
                {
                    **_SHARED_DEFAULTS,
                    "stream_interval": 60.0,
                    "land_latency": 5.0,
                    "stream_rows_per_file": 256,
                    "freshness_slo": None,
                    "verify": False,
                },
            ),
            (
                "simulate",
                {
                    "scale": 0.5,
                    "sessions": 200,
                    "sessions_large": 50_000,
                    "seed": 0,
                    "scenario": "crash-resume",
                    "verify": False,
                },
            ),
        ],
    )
    def test_dest_defaults(self, command, defaults):
        """Equal to the hand-written parsers this table replaced, but
        for ``reader_executor`` (was ``"auto"``)."""
        parsed = vars(build_parser().parse_args([command]))
        assert parsed == {"command": command, **defaults}


#: a figure flag (argparse dest) -> a value its driver rejects, and
#: what the flag must be
_BAD_FIGURE_VALUES = {
    "seed": ("-1", "non-negative"),
    "sessions": ("0", "positive"),
    "sessions_large": ("0", "positive"),
}


class TestBadValues:
    """One error contract for every knob: a bad value exits 2 with a
    usage error naming the *flag* the user typed (or the ``--job``
    string) — never a traceback, never plausible numbers."""

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["pipeline", "--num-readers", "0"], "--num-readers must be"),
            (
                ["pipeline", "--autoscale", "--target-stall", "1.5"],
                "--target-stall must be in (0, 1), got 1.5",
            ),
            (
                ["pipeline", "--retain-partitions", "0"],
                "--retain-partitions must be positive, got 0",
            ),
            (["stream", "--stream-interval", "0"], "--stream-interval must be"),
            (["multijob", "--jobs", "0"], "--jobs must be positive, got 0"),
            (["stream", "--jobs", "0"], "--jobs must be positive, got 0"),
            (["multijob", "--job", "RM9"], "--job 'RM9': workload must be"),
            (
                ["multijob", "--job", "RM1:bogus"],
                "--job 'RM1:bogus': unknown token 'bogus'",
            ),
            (
                ["multijob", "--job", "RM1:sessions=x"],
                "--job 'RM1:sessions=x': sessions needs int, got 'x'",
            ),
            (
                ["multijob", "--job", "RM1:nope=3"],
                "--job 'RM1:nope=3': unknown token 'nope=3'",
            ),
            (
                ["multijob", "--job", "RM1:batch_size=0"],
                "--job key 'batch_size' must be positive, got 0",
            ),
            # a JobSpec field (no section) and a Session keyword used
            # to print the spec field / keyword instead of the flag
            (
                ["multijob", "--job", "RM1:weight=0"],
                "--job key 'weight' must be positive and finite",
            ),
            (
                ["stream", "--freshness-slo", "-1"],
                "--freshness-slo must be positive, got -1.0",
            ),
            (
                ["multijob", "--job", "RM1:weight=nan"],
                "--job key 'weight' must be positive and finite, got nan",
            ),
            (
                ["stream", "--freshness-slo", "0"],
                "--freshness-slo must be positive, got 0.0",
            ),
            (
                ["stream", "--freshness-slo", "nan"],
                "--freshness-slo must be positive, got nan",
            ),
            (
                ["pipeline", "--autoscale", "--target-stall", "0"],
                "--target-stall must be in (0, 1), got 0.0",
            ),
            (
                ["pipeline", "--autoscale", "--max-readers", "0"],
                "--max-readers must be positive, got 0",
            ),
            (
                ["pipeline", "--num-partitions", "0"],
                "--num-partitions must be positive, got 0",
            ),
            (
                ["pipeline", "--train-epochs", "0"],
                "--train-epochs must be positive, got 0",
            ),
            (
                ["pipeline", "--train-batches", "0"],
                "--train-batches must be positive, got 0",
            ),
            (
                ["stream", "--stream-rows-per-file", "0"],
                "--stream-rows-per-file must be positive, got 0",
            ),
            (
                ["stream", "--land-latency", "-1"],
                "--land-latency must be non-negative and finite, got -1.0",
            ),
            (
                ["pipeline", "--reader-executor", "auto"],
                "argument --reader-executor: invalid choice: 'auto'",
            ),
            (
                ["pipeline", "--reader-executor", "async"],
                "invalid choice: 'async' (choose from 'inprocess', "
                "'process')",
            ),
            # too small for one batch: found by prepare(), before any
            # reader or trainer ran
            (["pipeline", "--sessions", "3"], "raise --sessions or"),
            (
                ["multijob", "--num-readers", "40", "--autoscale"],
                "--max-readers (32) must be >= --num-readers (40)",
            ),
            # the workloads floor every magnitude, so these used to
            # print plausible speedups for a nonsense scale
            (["fig7", "--scale", "-1"], "--scale must be positive, got -1.0"),
            (["scribe", "--scale", "0"], "--scale must be positive, got 0.0"),
            (["simulate", "--scale", "0"], "--scale must be positive, got 0.0"),
            # were OverflowError tracebacks from int(48 * scale)
            (["pipeline", "--scale", "inf"], "--scale must be finite, got inf"),
            (["simulate", "--scale", "inf"], "--scale must be finite, got inf"),
            # exited 2 with the workload's "workload scale" wording,
            # which names no flag
            (["pipeline", "--scale", "0"], "--scale must be positive, got 0.0"),
            (["stream", "--scale", "-1"], "--scale must be positive, got -1.0"),
            (
                ["simulate", "--scenario", "burst", "--scale", "0"],
                "--scale must be positive, got 0.0",
            ),
            (
                ["multijob", "--job", "RM1:scale=0"],
                "--job key 'scale' must be positive, got 0.0",
            ),
            # a key a --job spec set is named as that key, not as the
            # flag the job would otherwise inherit it from
            (
                ["multijob", "--job", "RM1:epochs=0"],
                "--job key 'epochs' must be positive, got 0",
            ),
            # numpy's seed error named no flag; simulate raised it mid-run,
            # and must name the seed typed, not a job's derived one
            (["pipeline", "--seed", "-5"], "--seed must be non-negative, got -5"),
            (["simulate", "--seed", "-5"], "--seed must be non-negative, got -5"),
            # every figure subcommand's --seed / --sessions /
            # --sessions-large: these were numpy's "expected
            # non-negative integer", a driver's "num_sessions must be
            # positive" (or a KeyError traceback, for partial), and for
            # freshness --seed -1 an exit 0
            *(
                pytest.param(
                    [name, "--" + flag.replace("_", "-"), bad],
                    f"--{flag.replace('_', '-')} must be {rule}, got {bad}",
                    id=f"{name} --{flag.replace('_', '-')} {bad}",
                )
                for name, fig in FIGURES.items()
                for flag, (bad, rule) in _BAD_FIGURE_VALUES.items()
                if flag in fig.flags
            ),
        ],
        ids=lambda v: " ".join(v[1:]) if isinstance(v, list) else None,
    )
    def test_exits_2_naming_the_flag(self, argv, names, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        last = captured.err.splitlines()[-1]
        assert last.startswith("repro") and ": error: " in last
        assert names in last
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_run_time_error_is_not_a_usage_error(self, monkeypatch):
        """The boundary ends where scheduling starts: a ``ValueError``
        out of a tier round is a bug to read the traceback of, not a
        flag to retype."""
        from repro.reader.tier_scheduler import SharedReaderTier

        def step(self):
            raise ValueError("raised mid-run")

        monkeypatch.setattr(SharedReaderTier, "step", step)
        with pytest.raises(ValueError, match="raised mid-run"):
            main(["pipeline", "--scale", "0.1", "--sessions", "80"])


class TestSmallRuns:
    def test_dedupe_model(self, capsys):
        assert main(["dedupe-model"]) == 0
        assert "modeled" in capsys.readouterr().out

    def test_partial(self, capsys):
        assert main(["partial", "--sessions", "60"]) == 0
        out = capsys.readouterr().out
        assert "partial  dedupe factor" in out

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
        assert "partition samples/session" in capsys.readouterr().out
