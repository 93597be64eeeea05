"""``repro experiments {run,list,query,report}`` end to end."""

import os

import pytest

from repro.cli import main
from repro.experiments import RunStore


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "runs.sqlite")


def _run_ingest_overlap(store_path) -> None:
    assert (
        main(
            [
                "experiments",
                "run",
                "--profile",
                "smoke",
                "--experiment",
                "ingest_overlap",
                "--store",
                store_path,
            ]
        )
        == 0
    )


class TestList:
    def test_lists_profiles_and_grids(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke:" in out and "paper:" in out
        for name in ("fig7", "fig8", "ablation", "fig10", "single-node"):
            assert f"  {name} (" in out

    def test_verbose_lists_run_ids(self, capsys):
        assert main(["experiments", "list", "-v"]) == 0
        out = capsys.readouterr().out
        # content-addressed IDs are 16 hex chars
        assert any(
            len(tok) == 16 and all(c in "0123456789abcdef" for c in tok)
            for tok in out.split()
        )


class TestRunAndQuery:
    def test_run_query_report_round_trip(self, store_path, capsys):
        _run_ingest_overlap(store_path)
        out = capsys.readouterr().out
        assert "executed 2, skipped 0" in out

        # resume-on-rerun through the CLI: nothing re-executes
        _run_ingest_overlap(store_path)
        assert "executed 0, skipped 2" in capsys.readouterr().out

        assert (
            main(
                [
                    "experiments",
                    "query",
                    "--store",
                    store_path,
                    "--experiment",
                    "ingest_overlap",
                    "--metric",
                    "trainer_qps",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ingest_overlap/streaming=True" in out
        assert "trainer_qps =" in out

        assert (
            main(
                [
                    "experiments",
                    "report",
                    "--store",
                    store_path,
                    "--profile",
                    "smoke",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # the one populated experiment renders; the others degrade to
        # notes instead of crashing the report
        assert "streaming" in out

    def test_query_empty_store_fails(self, store_path, capsys):
        RunStore(store_path)
        assert (
            main(["experiments", "query", "--store", store_path]) == 1
        )
        assert "no matching runs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "report"])
    def test_missing_store_exits_2_creating_nothing(
        self, command, store_path, capsys
    ):
        """A mistyped ``--store`` is a usage error, not a new empty store
        reported as one with no runs."""
        with pytest.raises(SystemExit) as exc:
            main(["experiments", command, "--store", store_path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--store {store_path}: no results store there" in err
        assert not os.path.exists(store_path)

    def test_unknown_experiment_rejected(self, store_path):
        with pytest.raises(KeyError):
            main(
                [
                    "experiments",
                    "run",
                    "--experiment",
                    "bogus",
                    "--store",
                    store_path,
                ]
            )
