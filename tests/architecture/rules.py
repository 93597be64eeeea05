"""The architecture rules: each structural invariant RecD's gains rest on
(one columnar data path, one dedup key build and one IKJT buffer per batch,
one event log, no option or public name without a caller) as a named rule
of text and AST facts about one source tree.  A rule's docstring says why
it holds; each of its checks carries its failure text and the regression it
was written for, as a snippet appended to a file ``(path, source)`` or
swapped in ``(path, old, new)``.  To add a guard, add a check and its
fixture here."""

from __future__ import annotations

import ast
import functools
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: where src/ is called from outside tests/: the benchmarks, the examples and the executed docs
CALLERS = ("benchmarks/", "examples/", "docs/", "README.md")
_FENCE = re.compile(r"```python\n(.*?)```", re.S)


def _full(path: str) -> str:
    """``reader/fill.py`` -> ``src/repro/reader/fill.py``; a ``CALLERS`` path stays."""
    return path if path.startswith(CALLERS) else f"src/repro/{path}"


@functools.cache
def _nodes(source: str) -> tuple[ast.AST, ...]:
    return tuple(ast.walk(ast.parse(source)))


class Tree(dict):
    """``path -> source`` of every ``src/repro/**.py``, ``benchmarks/**.py`` and ``examples/*.py``,
    and of the ``python`` fences of ``README.md`` and ``docs/*.md`` (one source per page, the
    snippets tests/docs executes)."""

    @classmethod
    def load(cls, root: Path = ROOT) -> Tree:
        paths = sorted([*root.glob("src/repro/**/*.py"), *root.glob("benchmarks/**/*.py"),
                        *root.glob("examples/*.py")])
        docs = [root / "README.md", *sorted(root.glob("docs/*.md"))]
        return cls({**{p.relative_to(root).as_posix(): p.read_text() for p in paths},
                    **{p.relative_to(root).as_posix(): "\n".join(_FENCE.findall(p.read_text())) for p in docs}})

    def overlay(self, path: str, *edit: str) -> Tree:
        """This tree with ``edit`` (a snippet to append, or ``old, new``) applied to ``path``."""
        path, source = _full(path), self.get(_full(path), "")
        if len(edit) == 1:
            return Tree({**self, path: f"{source}\n{edit[0]}\n"})
        assert source.count(edit[0]) == 1, f"{path} holds {edit[0]!r} {source.count(edit[0])} times"
        return Tree({**self, path: source.replace(*edit)})

    def files(self, *paths: str, skip: tuple[str, ...] = ()) -> list[str]:
        prefixes, skip = tuple(map(_full, paths or ("",))), set(map(_full, skip))
        return [p for p in self if p.startswith(prefixes) and p not in skip]

    def grep(self, pattern: str, *paths: str, skip: tuple[str, ...] = ()) -> list[str]:
        """``path:line: text`` of every line under ``paths`` matching ``pattern``."""
        rx = re.compile(pattern, re.M)
        return [f"{p}:{n}: {line.strip()}" for p in self.files(*paths, skip=skip) if rx.search(self[p])
                for n, line in enumerate(self[p].splitlines(), 1) if rx.search(line)]

    def nodes(self, kind: type, *paths: str, needle: str = "") -> list[tuple[str, ast.AST]]:
        """``(path, node)`` of every ``kind`` node in the files under ``paths`` holding ``needle``."""
        return [(p, node) for p in self.files(*paths) if needle in self[p]
                for node in _nodes(self[p]) if isinstance(node, kind)]


def grep(pattern: str, *paths: str, skip: tuple[str, ...] = (), most: int = 0,
         files: bool = False) -> Callable[[Tree], list[str]]:
    """Lines matching ``pattern`` (``files``: the files holding one), past ``most`` of them."""
    def find(tree: Tree) -> list[str]:
        hits = tree.grep(pattern, *paths, skip=skip)
        hits = sorted({h.split(":", 1)[0] for h in hits}) if files else hits
        return hits if len(hits) > most else []
    return find


def _params(tree: Tree, path: str, fn: str, cls: str | None = None) -> list[str]:
    """Parameter names of ``cls.fn`` (or module-level ``fn``) defined in ``path``."""
    return [a.arg for _, o in tree.nodes(ast.ClassDef if cls else ast.Module, path)
            if getattr(o, "name", None) == cls
            for d in o.body if isinstance(d, ast.FunctionDef) and d.name == fn
            for a in (*d.args.posonlyargs, *d.args.args, *d.args.kwonlyargs, d.args.vararg,
                      d.args.kwarg) if a]


def _queue_homes(tree: Tree) -> list[str]:
    homes = [f"{p}:{f.lineno}: {c.name}.{f.target.id}"
             for p, c in tree.nodes(ast.ClassDef, needle="QueueWaitBreakdown") for f in c.body
             if isinstance(f, ast.AnnAssign) and "QueueWaitBreakdown" in ast.unparse(f.annotation)]
    return [] if [h.rsplit(": ", 1)[1] for h in homes] == ["FleetReport.queue"] else homes or ["none"]


def _queue_wait_writes(tree: Tree) -> list[str]:
    """Every ``.put_wait`` / ``.get_wait`` store or keyword outside ``ReaderFleet._iter_multiprocess``."""
    measured = {id(n) for _, c in tree.nodes(ast.ClassDef, "reader/fleet.py") if c.name == "ReaderFleet"
                for d in c.body if isinstance(d, ast.FunctionDef) and d.name == "_iter_multiprocess"
                for n in ast.walk(d)}
    return [f"{p}:{n.lineno}: {ast.unparse(n)}" for p, n in tree.nodes(ast.AST, needle="_wait")
            if id(n) not in measured and getattr(n, "attr", getattr(n, "arg", None)) in ("put_wait", "get_wait")
            and (isinstance(n, ast.keyword) or isinstance(getattr(n, "ctx", None), ast.Store))]


def _rescale_floor(tree: Tree) -> list[str]:
    calls = [n for _, n in tree.nodes(ast.Call, "reader/tier_scheduler.py")
             if ast.unparse(n.func) == "rescale"]
    passed = any(ast.unparse(a) == "planned.floor"
                 for c in calls for a in (*c.args, *(kw.value for kw in c.keywords)))
    return [] if passed else ["src/repro/reader/tier_scheduler.py: no rescale(..., planned.floor, ...)"]


def _event_appends(tree: Tree) -> list[str]:
    calls = [(p, n) for p, n in tree.nodes(ast.Call, needle="events")
             if isinstance(n.func, ast.Attribute) and n.func.attr == "append"
             and ast.unparse(n.func.value).endswith("events")]
    emit = [n for _, c in tree.nodes(ast.ClassDef, "reader/tier_scheduler.py")
            if c.name == "SharedReaderTier" for d in c.body
            if isinstance(d, ast.FunctionDef) and d.name == "emit" for n in ast.walk(d)]
    if len(calls) == 1 and any(calls[0][1] is n for n in emit):
        return []
    return [f"{p}:{n.lineno}: {ast.unparse(n)}" for p, n in calls] or ["no events.append("]


#: public names in src/repro that only tests/ call, each kept for what it gives the tests
TEST_ONLY = {
    # the oracles tests compare the fast paths against
    "FeatureLogRecord.deserialize": "the per-record decode the ETL's columnar payload parse is checked against",
    "EventLogRecord.deserialize": "the same per-record decode for event records",
    "decode_int64": "the one-stream varint decode the chunked run decoder is checked against",
    "JaggedTensor.to_lists": "the plain-list view jagged, KJT and IKJT results are compared through",
    "KeyedJaggedTensor.from_columns": "the per-batch pack the cuts of RowBlock.keyed are checked against",
    "exact_duplicate_fraction": "the list-based Fig 4 statistic the characterization trace is checked with",
    "partial_duplicate_fraction": "the partial-overlap twin of exact_duplicate_fraction",
    # the views tests read state through
    "spec_field_names": "every spec field, the view the API manifest test diffs",
    "TierReport.max_consecutive_skips": "the starvation bound the tier and chaos properties assert",
    "SparseFeatureSpec.is_sequence": "the pooling-kind view the schema and workload tests read",
}


def _public_defs(tree: Tree) -> list[tuple[str, str]]:
    """``(path:line, name)`` of every public function and class in src/repro and every public
    method of such a class (``Class.method``)."""
    defs = []
    for p in tree.files():
        for d in _nodes(tree[p])[0].body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
                continue
            defs.append((f"{p}:{d.lineno}", d.name))
            if isinstance(d, ast.ClassDef):
                defs += [(f"{p}:{m.lineno}", f"{d.name}.{m.name}") for m in d.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return defs


@functools.cache
def _refs(source: str) -> frozenset[str]:
    return frozenset(getattr(n, "id", None) or n.attr for n in _nodes(source)
                     if isinstance(n, (ast.Name, ast.Attribute)))


def _called(tree: Tree) -> set[str]:
    """Every name or attribute src/repro or a ``CALLERS`` file refers to."""
    return set().union(*(_refs(tree[p]) for p in tree.files("", *CALLERS)))


def _uncalled(tree: Tree) -> list[str]:
    called = _called(tree)
    return [f"{at}: {name}" for at, name in _public_defs(tree)
            if name.rsplit(".", 1)[-1] not in called and name not in TEST_ONLY]


def _stale_test_only(tree: Tree) -> list[str]:
    defined, called = {name for _, name in _public_defs(tree)}, _called(tree)
    return [f"TEST_ONLY[{name!r}]: " + ("no longer defined" if name not in defined else "called outside tests/")
            for name in TEST_ONLY if name not in defined or name.rsplit(".", 1)[-1] in called]


@dataclass(frozen=True)
class Check:
    """One sub-check: what ``find`` reports on a tree breaks the rule, and ``error`` says why."""

    error: str
    find: Callable[[Tree], list[str]]
    fixture: tuple[str, ...]


class Rule:
    """A named invariant: its docstring is the reason, its checks the facts that hold it."""

    def __init__(self, doc: str, *checks: Check):
        self.__doc__, self.checks = doc, checks

    def failures(self, tree: Tree) -> list[str]:
        """Each failing check's error (``{n}``: its hit count), then its hits."""
        return [c.error.replace("{n}", str(len(hits))) + "".join(f"\n  {h}" for h in hits)
                for c in self.checks if (hits := c.find(tree))]


DATA_PATH = ("reader/", "storage/", "etl/", "scribe/", "streaming/")
IKJT_CORE = ("core/dedup.py", "core/ikjt.py")
TIER_CLOCK = "        self.clock += rnd.modeled_wall_seconds\n"
MAX_READERS = "    max_readers: int = 32\n"
#: (path, class or None, function, parameter, fixture edit) of each parameter no caller outside
#: tests/ ever set: its value is now a constant of the function
RETIRED_PARAMS = (
    ("reader/node.py", "ReaderNode", "__init__", "cost_model",
     ("    def __init__(self, config: DataLoaderConfig):", "    def __init__(self, config: DataLoaderConfig, cost_model=None):")),
    ("reader/fleet.py", "ReaderFleet", "__init__", "cost_model",
     ('        config: DataLoaderConfig,\n        executor: str = "inprocess",',
      '        config: DataLoaderConfig,\n        cost_model: ReaderCostModel | None = None,\n        executor: str = "inprocess",')),
    ("trainer/attention.py", "AttentionPooling", "__init__", "hidden",
     ('projection is ``dim`` wide."""\n\n    def __init__(self, dim: int,',
      'projection is ``dim`` wide."""\n\n    def __init__(self, dim: int, hidden: int | None = None,')),
    ("trainer/attention.py", "TransformerPooling", "__init__", "ffn_hidden",
     ('mean-pooled."""\n\n    def __init__(self, dim: int,', 'mean-pooled."""\n\n    def __init__(self, dim: int, ffn_hidden: int | None = None,')),
    ("datagen/characterization.py", None, "characterization_schema", "user_fraction",
     ("    num_features: int = 733, seed", "    num_features: int = 733, user_fraction: float = 0.85, seed")),
    ("datagen/workloads.py", None, "_dedup_groups_from_schema", "include_solo",
     ("    schema: DatasetSchema,\n) ->", "    schema: DatasetSchema, include_solo: bool = True,\n) ->")),
    ("datagen/workloads.py", None, "_elementwise_features", "prefix",
     ("    count: int, avg_length: int = 8\n", '    count: int, prefix: str = "ew", avg_length: int = 8\n')),
    ("trainer/checkpoint.py", "ModelStore", "__init__", "prefix",
     ("    def __init__(self, fs: TectonicFS):", '    def __init__(self, fs: TectonicFS, prefix: str = "model_store"):')),
)

RULES: dict[str, Rule] = {
    "columnar_data_path": Rule("""Rows move as column slices (RowBlock) in both directions: scribe
        payloads -> ETL -> DWRF stripes, and stripes -> reader -> tensors.  A row object built under
        any of these packages is the per-row round trip growing back; rows are materialised on
        demand in one place only, RowBlock.__iter__ (storage/rowblock.py).  Below the scribe
        RowBlock is the only row shape, so the word Sample (a `list[Sample]` parameter, a row-list
        return) has no business in etl/, storage/, reader/ or streaming/, and the row-list twins of
        the ETL rules and of S stay deleted.""",
        Check("a row object is built on the data path; keep scribe -> ETL -> DWRF -> reader on RowBlock columns",
              grep(r"from_rows\(|Sample\(", *DATA_PATH, skip=("storage/rowblock.py",)),
              ("scribe/bus.py", "rows = [Sample(s, {}, {}) for s in sessions]")),
        Check("Sample named under etl/, storage/, reader/ or streaming/; take and return RowBlock, and columnarise rows once with RowBlock.from_samples",
              grep(r"\bSample\b", "etl/", "storage/", "reader/", "streaming/", skip=("storage/rowblock.py",)),
              ("etl/join.py", "def join_samples(rows: list[Sample]) -> RowBlock:\n    return RowBlock.from_samples(rows)")),
        Check("a row-list twin of an ETL rule is back under src/; apply join_rows / cluster_order / keep_samples / keep_sessions to a RowBlock, and take S from repro.etl.samples_per_session",
              grep(r"join_logs|cluster_by_session|is_clustered|downsample_per_|run_from_records|measure_samples_per_session"),
              ("etl/cluster.py", "def cluster_by_session(samples):\n    return samples"))),
    "byte_counters_on_the_ledger": Rule("""The reader byte counters are declared once, on ByteLedger; a
        report growing its own copy is the hand-threading coming back.  An overlap report attributes
        wall-clock only: a run's bytes are ReaderReport.bytes, its mode spec.reader.streaming, its
        batch count len(training.iterations), its queue waits FleetReport.queue, the one
        QueueWaitBreakdown a run reports.  The autoscaler reads a round's two modeled times, not a
        report.""",
        Check("byte counter declared outside metrics/ledger.py; carry a ByteLedger as .bytes instead",
              grep(r"^\s+(read_bytes|send_bytes|decoded_bytes|expanded_bytes|bytes_copied|copies_avoided): int = 0",
                   skip=("metrics/ledger.py",)), ("reader/node.py", "class ScanStats:\n    send_bytes: int = 0")),
        Check("OverlapReport carries a byte ledger, batch count, streaming flag or queue waits again; read them off the reader report, the spec, the training report or FleetReport.queue",
              grep(r"^\s+(bytes|batches|streaming|queue)\s*:|QueueWaitBreakdown", "metrics/overlap.py"),
              ("metrics/overlap.py", "    wall_seconds: float = 0.0\n", "    wall_seconds: float = 0.0\n    streaming: bool = True\n")),
        Check("a ledger, reader report, streaming flag or queue is handed to OverlapReport.modeled/from_run again",
              lambda tree: [f"{p}:{n.lineno}: {n.func.attr}(..., {kw.arg}=...)"
                            for p, n in tree.nodes(ast.Call, needle="OverlapReport")
                            if isinstance(n.func, ast.Attribute) and n.func.attr in ("modeled", "from_run")
                            for kw in n.keywords if kw.arg in ("bytes", "reader", "streaming", "queue")],
              ("metrics/tier.py", "=self.trainer_busy_seconds,\n", "=self.trainer_busy_seconds,\n            bytes=self.bytes,\n")),
        Check("a report other than FleetReport declares a QueueWaitBreakdown; read the fleet's queue waits off FleetReport.queue",
              _queue_homes, ("metrics/tier.py", "    freshness: FreshnessReport | None = None\n\n    def __post_init__",
                             "    freshness: FreshnessReport | None = None\n    queue: QueueWaitBreakdown | None = None\n\n    def __post_init__")),
        Check("rescale() takes an overlap report again; hand it TierRound.reader_wall_seconds and .trainer_busy_seconds",
              lambda tree: ["rescale(overlap=...)"] * ("overlap" in _params(tree, "reader/autoscale.py", "rescale")),
              ("reader/autoscale.py", "    streak: int,\n) ->", "    streak: int,\n    overlap: OverlapReport | None = None,\n) ->"))),
    "figures_in_the_figure_table": Rule("""A paper figure is declared once, in the FIGURES table; a driver
        or a per-figure CLI command anywhere else is the second experiment system growing back
        (cli.py's one table-driven `_cmd_figure` is the command that replaced them).""",
        Check("figure driver or _cmd_fig* outside experiments/figures.py; add a FIGURES entry instead",
              grep(r"^def (fig[0-9]+|table[0-9]+)_|^def _cmd_(fig|table)[0-9]", skip=("experiments/figures.py",)),
              ("cli.py", "def _cmd_fig7(args):\n    return 0")),
        Check("benchmarks/test_figures.py builds a run itself; it is a harness over FIGURES — put the driver in experiments/figures.py",
              grep(r"\b(JobSpec|Session)\(", "benchmarks/test_figures.py"),
              ("benchmarks/test_figures.py", "RESULT = Session(JobSpec(data=None)).run()"))),
    "stored_figure_is_its_grid": Rule("""A stored figure is its grid: Figure.grid declares a figure's
        runs once, its driver runs that grid into a throwaway store, the report reads it back, and a
        profile is every figure's grid at one size.  A *_from_store twin, a stage table or a
        `stored=` section is the second definition growing back; so is a figure's grid written out
        in profiles.py (only fleet_scaling and ingest_overlap belong to no figure), or a Session(
        beyond what the three live drivers need (table2, accuracy, freshness: a RunRecord does not
        hold their per-iteration memory, update counts or three-job tier).""",
        Check("a second stored-figure definition is back under src/repro; give the figure a Figure.grid and Figure.rows instead",
              grep(r"fig7_from_store|ablation_from_store|ABLATION_STAGES|stored="),
              ("experiments/figures.py", "ABLATION_STAGES = ('baseline', 'recd')")),
        Check("profiles.py declares {n} grids; a figure's runs are its Figure.grid, and a profile builds it at its sizes (only fleet_scaling and ingest_overlap are declared there)",
              grep(r"GridSpec\(", "experiments/profiles.py", most=2), ("experiments/profiles.py", "FIG7 = GridSpec(name='fig7')")),
        Check("experiments/figures.py builds {n} Sessions; a figure whose cells are stored run data runs its Figure.grid through run_grid",
              grep(r"Session\(", "experiments/figures.py", most=3),
              ("experiments/figures.py", "def _fig7_cells(specs):\n    return Session(specs).run()"))),
    "paper_values_in_the_figure_table": Rule("""A paper value is written once, in a FIGURES row's
        `paper` mapping, and printed by the one `render`; a string literal anywhere in a line that
        names the paper beside a number (`lines.append("paper RM1 ... ~1.8x")`), a printed "(paper
        …" literal or a `paper = {…}` table anywhere else is the second declaration (and the second
        renderer) growing back.  A comment giving an assertion's reason ("# ... (paper: 33-50%)") is
        not a hit: the literal's span stops at a `#`, and a quote that closes a word inside a
        docstring opens none.""",
        Check("a paper value is typed outside experiments/figures.py; add it to the figure's paper mapping and let render print it",
              grep(r"""(^|\W)f?["'][^"'#]*\bpaper\b[^"'#]*[0-9]|^\s*f?["'].*\(paper|paper = [{\[]""",
                   "", "benchmarks/", skip=("experiments/figures.py",)),
              ("experiments/runner.py", "NOTE = 'paper RM1 reader ~1.8x'"))),
    "one_benchmark_harness": Rule("""benchmarks/ is one harness: a printed claim is a FIGURES row (or a
        stored grid's section) checked by its CASES entry in test_figures.py, and measured time is
        the stopwatch's; a second test file or a pytest-benchmark timing is a one-off harness
        growing back.""",
        Check("benchmarks/ holds a one-off benchmark file; add a FIGURES row (driver, cells, CASES check) instead",
              lambda tree: [p for p in tree.files("benchmarks/test_") if p != "benchmarks/test_figures.py"],
              ("benchmarks/test_fleet_scaling.py", "def test_width_bend():\n    assert True")),
        Check("a benchmarks/*.py test times itself with the pytest-benchmark fixture; measured time is the stopwatch's (benchmarks/stopwatch/)",
              grep(r"def [a-z_0-9]+\(([^)]*[ ,])?benchmark[,)]|\bbenchmark(\.pedantic)?\(", "benchmarks/"),
              ("benchmarks/test_figures.py", "def test_fig7_speed(benchmark):\n    benchmark(print)"))),
    "pipeline_below_experiments": Rule("""The import graph is pipeline <- experiments <- cli, one
        direction.""",
        Check("src/repro/pipeline/ imports from repro.experiments; the run surface must not depend on the figure table",
              grep(r"^\s*(from|import) +(repro|\.\.)\.?experiments", "pipeline/"),
              ("pipeline/session.py", "from ..experiments import FIGURES"))),
    "one_landing_path_one_drive_loop": Rule("""A JobSpec becomes landed partitions in one place (the
        Lander in streaming/lander.py) and one loop drives the tier (Session.tick); a second scribe
        cluster / table construction under pipeline/ or streaming/, or one of the retired names, is
        the second landing path or drive loop growing back.  A fault plan is played by the Session
        (Session(plan=...)): pending-event queues or a tick loop in repro.sim are the scenario
        runner's second scheduling loop growing back.""",
        Check("a retired landing/drive-loop name is back under src/repro; land through streaming.Lander and drive through Session.tick",
              grep(r"LiveLoop|_prepare_table|plan_retention_windows|plan_stream_windows|has_streams"),
              ("pipeline/session.py", "class LiveLoop:\n    pass")),
        Check("a retired scenario-scheduling name is back under src/repro; the Session plays the plan inside tick()",
              grep(r"_take_due|pending_(resumes|arrivals|preempts)"), ("sim/scenarios.py", "pending_resumes: list = []")),
        Check("src/repro/sim calls tick() or sets the fault hook; hand the plan to Session(plan=...) instead",
              grep(r"\.tick\(|fault_injector *=", "sim/"),
              ("sim/scenarios.py", "def drive(session):\n    while session.tick():\n        pass")),
        *(Check(f"'{needle}' appears {{n}} times under pipeline/ + streaming/; the Lander is the only code that builds a job's transport and table",
                grep(re.escape(needle), "pipeline/", "streaming/", most=1), ("pipeline/session.py", snippet))
          for needle, snippet in (("ScribeCluster(", "SCRIBE = ScribeCluster(num_shards=8)"),
                                  ("HiveTable(", "TABLE = HiveTable('events')"),
                                  ("rows_per_file=8192", "TABLE = dict(rows_per_file=8192)")))),
    "cli_builds_no_spec": Rule("""The CLI describes jobs as flat points and hands them to
        experiments.grid.build_job_spec, the one flat -> JobSpec constructor; a spec dataclass built
        in cli.py is the second, hand-written constructor growing back.""",
        Check("cli.py constructs a spec dataclass; add a _FLAGS row and let build_job_spec build it",
              grep(r"\b(Data|Reader|Train|Scaling|Retention|Stream|Job)Spec\(", "cli.py"),
              ("cli.py", "def _spec(args):\n    return JobSpec(data=DataSpec(num_sessions=args.sessions))"))),
    "executors_run_only_when_named": Rule("""The executor is named, never guessed, and a process fleet
        that cannot run fails instead of re-running in-process.""",
        Check("the auto executor or its fallback plumbing is back under src/repro; executors run only when named",
              grep(r'"auto"|inprocess-fallback|fallback_reason'), ("reader/fleet.py", 'DEFAULT_EXECUTOR = "auto"'))),
    "choices_declared_once": Rule("""EXECUTORS (reader/fleet.py), TRANSPORT_MODES
        (reader/costmodel.py) and POLICIES (reader/tier_scheduler.py) are each declared once; specs
        and the CLI import them.""",
        *(Check(f"the ({choices}) choice tuple is declared in {{n}} files; import the reader layer's tuple instead",
                grep(rf'= *\("({choices})", *"({choices})"', files=True, most=1),
                ("pipeline/spec.py", 'CHOICES = ("%s", "%s")' % tuple(choices.split("|"))))
          for choices in ("inprocess|process", "copy|shm", "round_robin|stall_weighted"))),
    "scan_hot_path_is_array_passes": Rule("""The scan hot path stays a fixed number of array passes:
        IKJT dedup keys rows by columns (no per-row `jt.row(i).tobytes()` loop; the Fig 4
        characterisation helpers in dedup.py iterate Python lists and use neither name), and a
        reader decodes each stream once per run of stripes through decode_int64_chunks (no
        per-stream-per-stripe decode_int64 beside it).""",
        Check("a per-row loop is back in IKJT dedup; dedup_grouped_rows keys rows by array passes",
              grep(r"_row_key|\.row\(", *IKJT_CORE),
              ("core/dedup.py", "def _keys(jt):\n    return {jt.row(i).tobytes() for i in range(jt.num_rows)}")),
        Check("dwrf.py decodes a stream per stripe; decode the run's chunks once with decode_int64_chunks",
              grep(r"decode_int64\(", "storage/dwrf.py"), ("storage/dwrf.py", "def _ints(data):\n    return decode_int64(data)"))),
    "varint_decode_per_value": Rule("""The varint decoder works per value: one gather of every value's
        k-th 7-bit group per k below the widest value's byte count.  A per-byte rank (np.repeat of
        the value starts) summed with reduceat is the kernel it replaced, and it stays out, whether
        instead of the gather or beside it.""",
        Check("storage/encoding.py decodes varints per byte again; gather each value's k-th 7-bit group for k below the widest value's width",
              grep(r"reduceat|np\.repeat\(starts", "storage/encoding.py"),
              ("storage/encoding.py", "def _sum(groups, starts):\n    return np.add.reduceat(groups, starts)"))),
    "ikjt_conversion_per_batch": Rule("""A batch's dedup groups are converted in one pass: the reader
        makes one InverseKeyedJaggedTensor.from_groups call per batch (no from_kjt per group), and
        the one key builder scatters every member's values into one matrix (no to_dense per member
        beside it).""",
        Check("the reader converts dedup groups one from_kjt at a time again; make one from_groups call per batch",
              grep(r"InverseKeyedJaggedTensor\.from_kjt\(", "reader/"),
              ("reader/convert.py", "def _groups(kjts):\n    return [InverseKeyedJaggedTensor.from_kjt(g) for g in kjts]")),
        Check("a per-member to_dense padding is back in the dedup path; dedup_groups pads every member in one scatter",
              grep(r"to_dense\(", *IKJT_CORE), ("core/dedup.py", "def _pad(members):\n    return [m.to_dense() for m in members]"))),
    "batch_sparse_is_one_buffer": Rule("""A KJT is one jagged buffer in TorchRec's layout (key k owns
        rows k*B ... (k+1)*B of one values/offsets pair) and an IKJT the same over its unique rows:
        convert_rows cuts both of a batch's KJTs out of its run's columns, packed and checked once
        per run (RowBlock.keyed), so a JaggedTensor built per feature there is the dict of per-key
        tensors growing back, and a from_columns call or a read of the block's .sparse there is the
        per-batch pack (and the per-column rebase) back.  A batch's IKJT groups are one buffer
        (Batch.unique) from dedup to the wire: gather_groups keys the groups straight from the
        grouped KJT's buffer, so a kjt[key] view or a dedup_groups call in core/ikjt.py is the
        per-key key build back, and apply_transforms runs each transform once per KJT and once per
        batch buffer, so a per-key .items() loop, an IKJT's .flat or a per-group
        InverseKeyedJaggedTensor.from_flat there is the per-feature or per-group transform.""",
        Check("reader/preprocess.py loops over a tensor's keys; apply the transform once to kjt.flat and once to batch.unique",
              grep(r"for .+ in .+\.items\(\)", "reader/preprocess.py"),
              ("reader/preprocess.py", "def _per_key(t, kjt):\n    return {k: t.apply(jt) for k, jt in kjt.items()}")),
        Check("reader/preprocess.py applies a transform once per IKJT group; apply it once to batch.unique and keep the batch layout",
              grep(r"InverseKeyedJaggedTensor\.from_flat\(|DedupPreprocWrapper|\bik\w*\.flat\b", "reader/preprocess.py"),
              ("reader/preprocess.py", "def _per_group(t, ikjt):\n    return t.apply(ikjt.flat)")),
        Check("core/ikjt.py keys dedup groups from per-key kjt[key] views; key them straight from kjt.flat with dedup_flat",
              grep(r"dedup_groups\(|\bkjt\[", "core/ikjt.py"), ("core/ikjt.py", "def _members(kjt, keys):\n    return [kjt[k] for k in keys]")),
        Check("reader/convert.py builds a jagged tensor per feature; cut the batch's KJTs from its run with RowBlock.keyed",
              grep(r"JaggedTensor\(", "reader/convert.py"),
              ("reader/convert.py", "def _per_feature(cols):\n    return {k: JaggedTensor(v, o) for k, (v, o) in cols.items()}")),
        Check("reader/convert.py packs or rebases a batch's columns per batch; cut the batch's KJTs from its run's packed columns with RowBlock.keyed",
              grep(r"from_columns|\.sparse\b", "reader/convert.py"),
              ("reader/convert.py", "def _pack(block, keys):\n    return KeyedJaggedTensor.from_columns(block.sparse, keys)"))),
    "batch_cut_from_decoded_run": Rule("""Fill cuts each batch as a row range of its file's decoded run,
        which DwrfReader hands over through run_of after each read_stripe (the call that decodes and
        meters); a private DwrfReader attribute read under reader/ is a second way to the run,
        bypassing that metering and the run's hand-off.""",
        Check("src/repro/reader/ reads a private DwrfReader attribute; take the run's block from DwrfReader.run_of after read_stripe",
              grep(r"\._(run|planned|decode|fetch|stripes|stripe_rows|blob)\b", "reader/"),
              ("reader/fill.py", "def _run(reader):\n    return reader._run"))),
    "batch_is_kjts_and_ikjts": Rule("""A Batch is dense features, labels, one KJT and one IKJT per
        dedup group; the §7 partial encoding is a measured tensor (the partial figure), not a loader
        option or a third batch shape.  Per-GPU memory is DistributedTrainer's arithmetic and SDD
        placement is bytes / num_gpus: a device object, a memory tracker or a sharding planner
        beside them is a second model nothing calls, and so is a second max-pool or an element-wise
        jagged sum.""",
        Check("a retired partial-batch, device, memory-tracker, sharding-planner or jagged-kernel name is back under src/repro; a batch carries a KJT and IKJTs, memory is DistributedTrainer's, placement is bytes / num_gpus",
              grep(r"partial_dedup_sparse_features|PartialKeyedJaggedTensor|GPUDevice|MemoryTracker|ShardingPlan|plan_sharding|\bsegment_max\b|jagged_elementwise_sum"),
              ("distributed/device.py", "class MemoryTracker:\n    pass")),
        Check("a partial-IKJT branch is back on the reader -> trainer seam; measure PartialJaggedTensor through the partial figure instead",
              grep(r"(batch|self)\.partial\b|\bpartial *=", "reader/", "trainer/", "distributed/"),
              ("trainer/model.py", "def _sparse(batch):\n    return batch.partial or batch.ikjts"))),
    "one_shard_scan_one_serial_loop": Rule("""A shard becomes batches in one function (_scan_shard) and
        the deterministic executor is one plain loop (_iter_serial: no "async" executor, no clocked
        branch, no modeled queue); queue waits are measured by the forked executor alone, so put_wait
        and get_wait are written only in _iter_multiprocess; a ScalingSpec reaches the tier whole,
        so the session has no fallback numbers to retype.""",
        Check("a second serial fleet loop is back; the inprocess executor is ReaderFleet._iter_serial",
              grep(r"_iter_inprocess|_iter_async"), ("reader/fleet.py", "def _iter_async(fleet):\n    return iter(())")),
        Check('an "async" executor name is back under src/repro; the serial executor is "inprocess", a plain loop over the shards',
              grep(r'"async"'), ("reader/fleet.py", 'SERIAL = ("inprocess", "async")')),
        Check("reader/fleet.py has a clocked switch again; _iter_serial models no queue",
              grep(r"clocked", "reader/fleet.py"), ("reader/fleet.py", "def _serial(fleet, clocked=True):\n    return clocked")),
        Check("reader/fleet.py scans a shard in {n} places; call _scan_shard",
              grep(r"node\.run\(", "reader/fleet.py", most=1), ("reader/fleet.py", "def _scan(node, shard):\n    return list(node.run(shard))")),
        Check("session.py retypes the autoscaler's defaults; pass the ScalingSpec to SharedReaderTier(scaling=...)",
              grep(r"else 0\.10|else 32", "pipeline/session.py"),
              ("pipeline/session.py", "def _target(spec):\n    return spec.target_stall if spec else 0.10")),
        Check("put_wait or get_wait is written outside ReaderFleet._iter_multiprocess; the serial schedule has no queue, only forked workers' waits are measured",
              _queue_wait_writes, ("reader/fleet.py", "def _model(report, finish, ready):\n    report.queue.put_wait += ready - finish"))),
    "one_fault_vocabulary": Rule("""A fault is a FaultPlan event (repro.sim) and the Session it is
        handed to is the only injector: a per-job fault spec, its grid builder or its epoch-keyed
        lookup is the second fault vocabulary growing back, and so is a tier hook called with the
        job's epoch beside the round and name (FaultPlan.fleet_faults takes exactly those two).
        Resume state is the preempting session's own: a checkpoint spec, a model-store parameter or
        a scenario runner is a second way to resume or to run a plan growing back.""",
        Check("a per-job fault spec is back under src/repro; declare faults as FaultPlan events and hand the plan to Session(..., plan=...)",
              grep(r"FaultSpec|_build_faults|for_epoch"), ("pipeline/spec.py", "class FaultSpec:\n    pass")),
        *(Check("a second resume or scenario-run surface is back under src/repro; the session that preempts a job resumes it, and Scenario.run() plays a plan",
                find, fixture) for find, fixture in (
            (grep(r"ScenarioRunner|CheckpointSpec|restore_from|save_as|model_store="),
             ("pipeline/session.py", "def _resume(job, model_store=None):\n    return model_store")),
            (lambda tree: tree.files("sim/runner.py"), ("sim/runner.py", "def run(plan):\n    return plan")))),
        Check("fault_injector( is called with three or more arguments; the hook is fault_injector(round_index, job_name)",
              grep(r"fault_injector\(([^,()]|\([^()]*\))*,([^,()]|\([^()]*\))*,"),
              ("reader/tier_scheduler.py", "def _faults(tier, rnd, job):\n    return tier.fault_injector(rnd.index, job.name, job.epoch)"))),
    "one_codec_owner": Rule("""Write-side compression runs on one pool that storage/compression.py
        owns: a zlib.compress call or a thread pool anywhere else is a second codec call site or a
        second pool growing back.""",
        Check("zlib.compress( or ThreadPoolExecutor( outside storage/compression.py; call compress_many / deflate_later",
              grep(r"zlib\.compress\(|ThreadPoolExecutor\(", skip=("storage/compression.py",)),
              ("scribe/bus.py", "def _deflate(payload):\n    return zlib.compress(payload)"))),
    "tier_decisions_in_one_state": Rule("""Every scheduling and scaling decision is one frozen
        TierState value run through the pure core (admit / remove / plan_round / settle in
        reader/tier_scheduler.py, rescale in reader/autoscale.py); a mutable scheduler attribute on
        SharedReaderTier, a stateful autoscaler object, a second list of rounds, or a second source
        of the autoscaler's floor is the spread-out state that let the floor and gate holes in.""",
        Check("SharedReaderTier keeps scheduling state outside its TierState; fold it into TierState and change it through admit/remove/plan_round/settle",
              grep(r"self\._(starved|demand|progress|cursor|lag)\b", "reader/tier_scheduler.py"),
              ("reader/tier_scheduler.py", TIER_CLOCK, TIER_CLOCK + "        self._starved = set()\n")),
        Check("scaling state lives outside TierState again; the streak and the spec are TierState fields, the control law is the pure rescale(), and the rounds are the tier's round events",
              grep(r"ReaderAutoscaler|_shrink_streak|self\._autoscaler|self\._rounds"),
              ("reader/autoscale.py", "class ReaderAutoscaler:\n    pass")),
        Check("min_readers is back; the autoscaler's floor is TierState.floor, handed to rescale() as its floor per decision",
              grep(r"min_readers"), ("reader/autoscale.py", MAX_READERS, MAX_READERS + "    min_readers: int = 1\n")),
        Check("rescale( is called outside SharedReaderTier.step; the floor and streak it steers from must come from the tier's TierState",
              grep(r"rescale\(", skip=("reader/autoscale.py", "reader/tier_scheduler.py")),
              ("pipeline/session.py", "def _scale(spec, rnd):\n    return rescale(spec, rnd.reader_wall_seconds, 0.0, 0, 1, 1, 0)")),
        Check("SharedReaderTier.step no longer hands rescale() the planned state's floor", _rescale_floor,
              ("reader/tier_scheduler.py", "planned.floor, planned.streak,", "1, planned.streak,  # not planned.floor"))),
    "one_event_log": Rule("""What the tier decided is one list of events: the round and scale events
        it logs and the plan events its session applies all go through SharedReaderTier.emit, and
        every report is a fold over that list; a second append site is a second log growing
        back.""",
        Check("events.append( appears outside SharedReaderTier.emit; log through tier.emit(kind, job, **fields)",
              _event_appends, ("pipeline/session.py", "def _log(tier, event):\n    tier.events.append(event)"))),
    "every_option_has_a_caller": Rule("""An option no run sets to anything but its default is a second
        code path with no workload behind it: the value is a constant.  These were options once
        (autoscaler smoothing and shrink tunables, the sparse Adagrad optimizer, the ETL's
        downsampling config, StreamSpec.compact, TierJob.track_freshness, the Session's pool-level
        scaling override, GridSpec.exclude, DataSpec.num_scribe_shards, the fleet's prefetch_depth,
        and the RETIRED_PARAMS: the reader node's and fleet's cost_model, the poolings' hidden
        widths, the characterization schema's user fraction, the workload helpers' include_solo and
        prefix, ModelStore's prefix) and must not come back unused.  The forked workers' queue
        depth is fleet.py's constant _PREFETCH_DEPTH.  The Scribe shard count is DataSpec's class
        constant (the stopwatch reads spec.data.num_scribe_shards), never a field.""",
        Check("a retired option is back in src/repro; give it a caller that sets another value, or keep it a constant",
              grep(r"ewma_alpha|RowWiseAdagrad|sparse_optimizer|apply_optimizer|downsample_by|shrink_patience|shrink_trainer_stall"),
              ("reader/autoscale.py", MAX_READERS, MAX_READERS + "    ewma_alpha: float = 1.0\n")),
        Check("ETLJob downsamples again; the downsampling figure calls keep_samples/keep_sessions itself",
              grep(r"keep_rate", "etl/pipeline.py"), ("etl/pipeline.py", "def _keep(block, keep_rate=1.0):\n    return block")),
        Check("StreamSpec.compact is back; a streamed job always compacts", grep(r"^\s+compact:", "pipeline/spec.py"),
              ("pipeline/spec.py", "    rows_per_file: int = 256\n", "    rows_per_file: int = 256\n    compact: bool = True\n")),
        Check("TierJob.track_freshness is back; a job tracks freshness exactly when it has a ready gate",
              grep(r"track_freshness"), ("reader/tier_scheduler.py", "    ready: Callable[[int], bool] | None = None\n",
                                         "    ready: Callable[[int], bool] | None = None\n    track_freshness: bool = False\n")),
        Check("Session(scaling=) is back; the pool's ScalingSpec comes from the jobs' own specs",
              lambda tree: ["Session(scaling=)"] * ("scaling" in _params(tree, "pipeline/session.py", "__init__", "Session")),
              ("pipeline/session.py", "        plan: FaultPlan | None = None,\n    ):",
               "        plan: FaultPlan | None = None,\n        scaling: ScalingSpec | None = None,\n    ):")),
        Check("GridSpec.exclude is back; no grid filters its product, list its points as include entries instead",
              lambda tree: [f"{p}:{n.lineno}: {type(n).__name__} exclude" for p, n in tree.nodes(ast.AST, needle="exclude")
                            if "exclude" in (getattr(n, a, None) for a in ("id", "attr", "arg", "name", "asname", "value"))],
              ("experiments/grid.py", "    include: tuple = ()\n", "    include: tuple = ()\n    exclude: tuple = ()\n")),
        *(Check("DataSpec.num_scribe_shards is settable again; the lander logs through the constant 8", find, fixture)
          for find, fixture in (
            (grep(r"num_scribe_shards\s*="), ("experiments/grid.py", "SHARDS = dict(num_scribe_shards=8)")),
            (lambda tree: [f"{p}:{f.lineno}: DataSpec.num_scribe_shards" for p, c in tree.nodes(ast.ClassDef, "pipeline/spec.py")
                           if c.name == "DataSpec" for f in c.body if isinstance(f, ast.AnnAssign)
                           and ast.unparse(f.target) == "num_scribe_shards" and "ClassVar" not in ast.unparse(f.annotation)],
             ("pipeline/spec.py", "num_scribe_shards: ClassVar[int] = 8", "num_scribe_shards: int = 8")))),
        Check("prefetch_depth is an option again; the forked workers' queue depth is the constant _PREFETCH_DEPTH",
              grep(r"prefetch[_-]depth"), ("pipeline/spec.py", "    num_readers: int = 1\n", "    num_readers: int = 1\n    prefetch_depth: int = 2\n")),
        *(Check(f"{cls + '.' if cls else ''}{fn}({param}=) is an option again; no caller outside tests/ sets it, so its value stays a constant",
                lambda tree, at=(path, fn, cls), param=param: [f"{_full(at[0])}: {param}"] * (param in _params(tree, *at)),
                (path, *edit))
          for path, cls, fn, param, edit in RETIRED_PARAMS)),
    "public_names_have_callers": Rule("""A public name in src/repro is there for a caller: src/ itself,
        benchmarks/, examples/ or an executed python snippet of README.md or docs/*.md (an AST name
        or attribute reference; a re-export or an __all__ string is not one).  A function, class or
        method only tests/ reach is capability no run has, kept working for nothing: FaultPlan.seeded,
        trainer/evaluation.py, RunStore.experiments, ScalingTrace.actions, lengths_from_offsets and
        ScribeShard.seal (flush's twin) went for that.  TEST_ONLY names the oracles and views tests
        need, each with its reason, and stays exact: an entry whose name is gone or has gained a
        caller goes.  A name an example or a doc snippet calls (readers_required,
        measure_feature_stats, RunStore.latest, OverlapReport.fractions) has its caller, so it needs
        no entry.""",
        Check("a public name in src/repro has no caller outside tests/; delete it, call it from src/, benchmarks/, examples/ or an executed doc snippet, or list a test oracle in TEST_ONLY with its reason",
              _uncalled, ("sim/faults.py", "def orphan_plan():\n    return None")),
        Check("TEST_ONLY lists a name src/repro no longer defines, or one that has a caller outside tests/ now; drop the entry",
              _stale_test_only, ("examples/quickstart.py", "FIELDS = spec_field_names()"))),
}
