"""The ``FIGURES`` table is the only declaration of a figure: the CLI,
``repro list``, the docs and the store report all agree with it, every
figure is printed by the one ``render``, and the live and store paths
compute Fig 7 / Fig 9 with the same code."""

import inspect
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    FIGURES,
    RunStore,
    expand_grid,
    get_profile,
    render_report,
    run_grid,
)
from repro.experiments.figures import (
    Figure,
    ablation_from_store,
    ablation_stages,
    fig7_from_store,
    render,
    speedup_row,
)
from repro.experiments.profiles import ABLATION_STAGES
from repro.experiments.runner import headline_metrics
from repro.pipeline import Session

DOCS = Path(__file__).resolve().parents[2] / "docs" / "experiments.md"


class TestOneTable:
    def test_every_figure_is_listed(self, capsys):
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        assert set(FIGURES) <= set(listed)
        assert "accuracy" in listed  # the subcommand the table added

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_subcommand_registers_exactly_the_drivers_flags(self, name):
        fig = FIGURES[name]
        args = vars(build_parser().parse_args([name]))
        assert set(args) - {"command"} == set(fig.flags)
        # ...and they set every parameter the driver shares with a flag
        params = list(fig.flags.values())
        flaggable = {p for f in FIGURES.values() for p in f.flags.values()}
        accepted = set(inspect.signature(fig.run).parameters)
        assert len(set(params)) == len(params)
        assert set(params) == accepted & flaggable

    def test_unread_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["partial", "--scale", "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scale" in capsys.readouterr().err

    def test_docs_table_matches(self):
        """docs/experiments.md "Figures": subcommand, driver and the
        from-the-store column agree with the table, row for row."""
        section = DOCS.read_text().split("## Figures", 1)[1].split("\n## ")[0]
        documented = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                name, driver, _, stored = (
                    cell.strip() for cell in line.strip("|").split("|")
                )
                documented[name.strip("`")] = (
                    driver.strip("`"),
                    stored.startswith("yes"),
                )
        assert documented == {
            name: (fig.run.__name__, fig.stored is not None)
            for name, fig in FIGURES.items()
        }


class TestOneRenderer:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_every_paper_key_names_a_cell(self, name, small):
        """A typo in a ``paper`` key would silently print no paper
        value; it fails here, at the golden's sizes, not nightly."""
        fig = FIGURES[name]
        assert fig.paper.keys() <= fig.cells(small(name)).keys()

    def test_paper_beside_declared_cells_one_line_per_label(self):
        fig = Figure(
            run=None,
            cells=lambda rows: {
                ("a", "x"): rows[0],
                ("a", "share"): rows[1],
                ("b", ""): rows[2],
            },
            flags={},
            title="three cells",
            formats={"share": "{:.0%}", "": "{:.1f}x"},
            paper={("a", "share"): 0.5, ("b", ""): "~3x"},
        )
        # cells are padded to line up by position
        assert render(fig, [1.234, 0.25, 2.0]) == [
            "a  x 1.23            share 25% (paper 50%)",
            "b  2.0x (paper ~3x)",
        ]


@pytest.fixture(scope="module")
def small_grids():
    """The smoke profile's Fig 7 / Fig 9 grids, shrunk to RM1 at 40
    sessions: the real declarations (labels, include points), CI-sized."""
    smoke = get_profile("smoke")
    fig7 = smoke.grid("fig7_throughput")
    fig9 = smoke.grid("fig9_ablation")
    return (
        replace(
            fig7,
            base={**fig7.base, "data.num_sessions": 40},
            axes={**fig7.axes, "workload.rm": ["RM1"]},
        ),
        replace(fig9, base={**fig9.base, "data.num_sessions": 40}),
    )


@pytest.fixture(scope="module")
def store(small_grids, tmp_path_factory):
    store = RunStore(tmp_path_factory.mktemp("figures") / "runs.sqlite")
    for grid in small_grids:
        run_grid(grid, store, profile="test")
    return store


class TestLiveAndStoreShareTheCode:
    """Rows from live ``PipelineResult``s equal, field for field, the
    rows from the ``RunRecord``s ``run_point`` stored for the same specs."""

    def test_fig7(self, small_grids, store):
        live = {
            p.values["toggles"]: headline_metrics(Session(p.job_spec()).run())
            for p in expand_grid(small_grids[0])
        }
        rows = [speedup_row("RM1", live["baseline"], live["recd"])]
        assert fig7_from_store(store) == rows
        # ...and print as the same text, paper column included, in the
        # report's stored section as on the CLI
        text = render(FIGURES["fig7"], fig7_from_store(store))
        assert text == render(FIGURES["fig7"], rows)
        assert "trainer" in text[0] and "(paper 2.48x)" in text[0]
        assert "\n".join(text) in render_report(store, "test")

    def test_fig9(self, small_grids, store):
        live = {
            p.label: Session(p.job_spec()).run().trainer_qps
            for p in expand_grid(small_grids[1])
        }
        stages = ablation_from_store(store)
        assert stages == ablation_stages(
            (label, live[label]) for label, _ in ABLATION_STAGES
        )
        assert [s.normalized for s in stages][0] == 1.0

    def test_report_renders_the_tables_stored_sections(self, store):
        report = render_report(store, "test")
        titles = [
            block.splitlines()[0] for block in report.split("\n\n")
        ]
        assert titles[:2] == [
            fig.stored[0] for fig in FIGURES.values() if fig.stored
        ]
        assert len(titles) == 4
        # the two grids this store lacks degrade to a note
        assert report.count("(not in store: ") == 2
