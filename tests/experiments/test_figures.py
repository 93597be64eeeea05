"""The ``FIGURES`` table is the only declaration of a figure: the CLI,
``repro list``, the docs, the profiles and the store report all agree
with it, every figure is printed by the one ``render``, and a stored
figure's report section is its live rows."""

import inspect
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    FIGURES,
    PROFILES,
    RunRecord,
    RunStore,
    get_profile,
    render_report,
    run_grid,
)
from repro.experiments import figures
from repro.experiments.figures import FLEET_SCALING, Figure, render
from tests.conftest import SMALL

#: the figures whose cells are stored run data
STORED = [name for name, fig in FIGURES.items() if fig.grid]

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
        """docs/experiments.md "Figures": subcommand, driver and grid
        agree with the table, row for row."""
        section = DOCS.read_text().split("## Figures", 1)[1].split("\n## ")[0]
        documented = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                name, driver, _, grid = (
                    cell.strip() for cell in line.strip("|").split("|")
                )
                documented[name.strip("`")] = (driver.strip("`"), grid)
        assert documented == {
            name: (fig.run.__name__, f"`{name}`" if fig.grid else "—")
            for name, fig in FIGURES.items()
        }


class TestDriverInputs:
    """Every route into a driver runs its input check: a direct call of
    the module's name is the same checked callable the table, the CLI
    and the benchmark harness call."""

    @pytest.mark.parametrize(
        ("driver", "args", "message"),
        [
            ("per_session_downsampling", (0, 1), "num_sessions must be positive, got 0"),
            ("partial_vs_exact", (0, 1), "num_sessions must be positive, got 0"),
            ("fig3_session_histogram", (0, 1), "num_sessions must be positive, got 0"),
            ("fig4_duplication", (0, 1), "num_sessions must be positive, got 0"),
            ("per_session_downsampling", (5, -1), "seed must be non-negative, got -1"),
        ],
    )
    def test_direct_call_names_the_parameter(self, driver, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(figures, driver)(*args)

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_module_name_is_the_checked_driver(self, name):
        run = FIGURES[name].run
        assert getattr(figures, run.__name__) is run
        with pytest.raises(ValueError, match="^seed must be non-negative"):
            run(**{param: -1 if param == "seed" else 1 for param in FIGURES[name].flags.values()})


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


class TestOneDefinitionPerFigure:
    """A stored figure has one grid: the live driver runs it, every
    profile stores it under the figure's name, and the report reads it
    back into the same rows."""

    @pytest.mark.parametrize("name", STORED)
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_profile_runs_the_figures_grid(self, name, profile):
        profile = PROFILES[profile]
        assert profile.grid(name) == FIGURES[name].grid(**profile.sizes)

    def test_no_other_grid_in_a_profile(self):
        for profile in PROFILES.values():
            assert [g.name for g in profile.grids] == [*STORED, "fleet_scaling", "ingest_overlap"]


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """Every stored figure's grid at the golden's sizes, run into one
    store and rendered: ``{section title: its lines}``."""
    store = RunStore(tmp_path_factory.mktemp("figures") / "runs.sqlite")
    for name in STORED:
        grid = FIGURES[name].grid(SMALL["scale"], SMALL["sessions"], SMALL["seed"])
        run_grid(grid, store, profile="small")
    blocks = render_report(store, "small").rstrip("\n").split("\n\n")
    return {block.splitlines()[0]: block.splitlines()[2:] for block in blocks}


class TestStoredIsLive:
    @pytest.mark.parametrize("name", STORED)
    def test_report_section_is_the_live_figure(self, name, small, small_report):
        fig = FIGURES[name]
        assert small_report[fig.title] == render(fig, small(name))

    def test_stored_fig7_and_fig9_print_the_paper_column(self, small_report):
        fig7 = small_report[FIGURES["fig7"].title]
        assert "(paper 2.48x)" in fig7[0] and fig7[0].startswith("RM1")
        fig9 = dict(line.split("  ", 1) for line in small_report[FIGURES["ablation"].title])
        assert "(paper 2.42x)" in fig9["+O7 DC B2x"]

    def test_grids_this_store_lacks_are_noted(self, small_report):
        titles = list(small_report)
        assert titles[: len(STORED)] == [FIGURES[name].title for name in STORED]
        noted = [small_report[title][0].startswith("(not in store: ") for title in titles]
        assert noted == [False] * len(STORED) + [True, True]


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    """The smoke ``fleet_scaling`` grid at widths 1 and 4 and 40 sessions,
    with one wide pair and the width-4 ``stream-retained`` point: every
    kind of point its report section must keep apart."""
    grid = get_profile("smoke").grid("fleet_scaling")
    keep = {"wide-16-copy", "wide-16-shm", "stream-retained"}
    small = replace(
        grid,
        base={**grid.base, "data.num_sessions": 40},
        axes={**grid.axes, "reader.num_readers": [1, 4]},
        include=tuple(p for p in grid.include if p["label"] in keep),
    )
    store = RunStore(tmp_path_factory.mktemp("fleet") / "runs.sqlite")
    return store, run_grid(small, store, profile="test").records


class TestStoredFleetScaling:
    """The report's "Fleet scaling" section once keyed runs by width
    alone, so the last stored run per width won: a dedup run at width 1,
    the stream point's 3-partition table at width 4, the batch-24 wide
    points as the curve's widest widths."""

    def test_each_axis_point_prints_on_its_own_series_line(self, fleet_store):
        store, records = fleet_store
        section = render_report(store, "test").split("Fleet scaling")[1].split("\n\n")[0]
        # the stream point's 3-partition table is no width's throughput
        stream = next(r for r in records if r.label == "stream-retained")
        assert f"{stream.metrics['fleet_modeled_samples_per_second']:.1f}" not in section
        lines = {line.split("  ")[0]: line for line in section.splitlines()[2:]}
        for r in records:
            if "label" in r.spec:
                continue
            series = r.spec["reader.transport"] + (" dedup" if r.spec["reader.dedup"] else "")
            line = lines[f"{series} x{r.spec['reader.num_readers']}"]
            assert f"samples/s {r.metrics['fleet_modeled_samples_per_second']:.1f} " in line

    def test_include_points_stay_out_of_the_curves(self, fleet_store):
        _, records = fleet_store
        rows = FLEET_SCALING.rows(records)
        curve_ids = {r.run_id for curve in rows.curves.values() for r in curve.values()}
        assert curve_ids == {r.run_id for r in records if "label" not in r.spec}
        assert {t: list(points) for t, points in rows.wide.items()} == {"copy": [16], "shm": [16]}
        assert [w for curve in rows.curves.values() for w in curve] == [1, 4] * 4


class TestReportKeepsProfilesApart:
    """With no ``--profile`` the report once kept the newest run per
    label across every profile, and the labels are the same at every
    size: a store that ran ``paper`` and then ``smoke`` printed paper's
    x2 over smoke's x1 as "copy x2 vs serial"."""

    def test_each_profile_renders_under_its_own_heading(self, tmp_path):
        store = RunStore(tmp_path / "runs.sqlite")
        for profile, width, qps, day in (
            ("paper", 1, 100.0, 1), ("paper", 2, 190.0, 1), ("smoke", 1, 40.0, 2)
        ):
            store.record(
                RunRecord(
                    run_id=f"{profile}-x{width}",
                    experiment="fleet_scaling",
                    label=f"dedup=False,num_readers={width},transport=copy",
                    profile=profile,
                    created_at=f"2026-01-0{day}T00:00:00+00:00",
                    spec={"reader.num_readers": width, "reader.dedup": False,
                          "reader.transport": "copy"},
                    metrics={"fleet_modeled_samples_per_second": qps,
                             "fleet_modeled_wall_seconds": 1.0 / qps},
                )
            )
        report = render_report(store)
        assert "vs serial 4.75x" not in report  # 190 / 40: two sizes mixed
        paper, smoke = report.split("Profile 'smoke'")
        assert paper.startswith("Profile 'paper'")
        assert paper.count("copy x") == 2 and "vs serial 1.90x" in paper
        assert smoke.count("copy x") == 1 and "samples/s 40.0" in smoke
        assert render_report(store, "smoke") in smoke
