"""The field-wise fold (``repro.metrics.ledger``) under every report
class that uses it: identity, associativity, no aliasing, pickling,
and the serialized form pinned to what the hand-written methods
produced."""

import copy
import json
import pickle
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.trainer import IterationResult, TrainingReport
from repro.metrics import (
    ByteLedger,
    FreshnessReport,
    IterationBreakdown,
    JobRoundStat,
    JobSLO,
    OverlapReport,
    QueueWaitBreakdown,
    ReaderCpuBreakdown,
    ScalingDecision,
    ScalingTrace,
    SLOReport,
    TierReport,
    TierRound,
)
from repro.metrics.ledger import Folded
from repro.reader.fleet import FleetReport
from repro.reader.node import ReaderReport
from repro.scribe import ScribeStats

FOLDED = [
    ByteLedger,
    ReaderCpuBreakdown,
    QueueWaitBreakdown,
    IterationBreakdown,
    ScribeStats,
    FreshnessReport,
    ReaderReport,
    OverlapReport,
    FleetReport,
]


def _default(f):
    return f.default if f.default is not MISSING else f.default_factory()


def instances(cls):
    """A strategy for ``cls`` built field by field from its defaults."""
    kwargs = {}
    for f in fields(cls):
        default = _default(f)
        if isinstance(default, Folded):
            kwargs[f.name] = instances(type(default))
        elif f.name == "workers":
            kwargs[f.name] = st.lists(instances(ReaderReport), max_size=2)
        elif isinstance(default, list):
            kwargs[f.name] = st.lists(st.floats(0.0, 1e6), max_size=4)
        elif isinstance(default, int):
            kwargs[f.name] = st.integers(0, 2**48)
        elif isinstance(default, float):
            kwargs[f.name] = st.floats(0.0, 1e9)
        else:
            kwargs[f.name] = st.sampled_from(["inprocess", "process"])
    return st.builds(cls, **kwargs)


def folded(*reports):
    """Left-to-right merge of deep copies (the inputs stay untouched)."""
    out = copy.deepcopy(reports[0])
    for rep in reports[1:]:
        out.merge(copy.deepcopy(rep))
    return out


def assert_grouping_equal(left, right, a, b, c):
    """``left = (a+b)+c`` and ``right = a+(b+c)`` field by field: equal
    on integers, lists and nested reports; on floats each side equals
    its own grouping of the three addends to the bit."""
    for f in fields(left):
        default = _default(f)
        lv, rv = getattr(left, f.name), getattr(right, f.name)
        av, bv, cv = (getattr(x, f.name) for x in (a, b, c))
        if isinstance(default, Folded):
            assert_grouping_equal(lv, rv, av, bv, cv)
        elif isinstance(default, list):
            assert lv == rv == [*av, *bv, *cv]
        elif isinstance(default, int):
            assert lv == rv == av + bv + cv
        elif isinstance(default, float):
            assert lv == (av + bv) + cv
            assert rv == av + (bv + cv)


@pytest.mark.parametrize("cls", FOLDED, ids=lambda c: c.__name__)
class TestFoldProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_default_instance_is_identity(self, cls, data):
        a = data.draw(instances(cls))
        assert folded(cls(), a) == a
        if cls is not FleetReport:
            # an empty fleet report still carries an executor name, so
            # on the right it degrades a different one to "mixed"
            assert folded(a, cls()) == a

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_associative(self, cls, data):
        a, b, c = (data.draw(instances(cls)) for _ in range(3))
        assert_grouping_equal(
            folded(folded(a, b), c), folded(a, folded(b, c)), a, b, c
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_merge_never_aliases(self, cls, data):
        a, b, c = (data.draw(instances(cls)) for _ in range(3))
        a.merge(b)
        before = copy.deepcopy(a)
        b.merge(c)
        b.merge(c)
        assert a == before


class TestLedgerOwnership:
    def test_fold_is_a_fresh_total_that_skips_none(self):
        parts = [ByteLedger(read=1), None, ByteLedger(read=2, avoided=5)]
        total = ByteLedger.fold(parts)
        assert total == ByteLedger(read=3, avoided=5)
        assert ByteLedger.fold([]) == ByteLedger.fold([None]) == ByteLedger()
        copy_ = ByteLedger.fold([parts[0]])
        copy_.read += 10
        assert parts[0].read == 1

    def test_round_rows_sum_to_job_ledgers(self):
        """A tier's bytes are its (round, job) rows, and reading them
        writes through to no stat."""
        stats = [
            JobRoundStat(
                job=name,
                workers=1,
                reader_cpu_seconds=1.0,
                trainer_busy_seconds=1.0,
                bytes=ByteLedger(read=n, decoded=2 * n, expanded=3 * n),
            )
            for name, n in (("a", 5), ("b", 7))
        ]
        report = TierReport(rounds=[TierRound(index=0, width=2, stats=stats)])
        rows = report.as_rows()
        total = {
            key: sum(row[key] for row in rows) for key in ByteLedger().counters()
        }
        assert total == ByteLedger(read=12, decoded=24, expanded=36).counters()
        assert stats[0].bytes.read == 5

    @settings(max_examples=40, deadline=None)
    @given(report=instances(ReaderReport))
    def test_reader_report_pickles(self, report):
        """The ``process`` executor ships worker reports over a queue."""
        assert pickle.loads(pickle.dumps(report)) == report


class TestDerivedValues:
    def test_saved_and_factor(self):
        ledger = ByteLedger(decoded=20_000, expanded=100_000)
        assert ledger.saved == 80_000
        assert ledger.dedupe_factor == 5.0
        assert ByteLedger().dedupe_factor == 1.0

    def test_counters_are_the_fields_under_serialized_keys(self):
        ledger = ByteLedger(read=1, decoded=2, expanded=3, copied=4, avoided=5)
        assert ledger.counters() == {
            "read_bytes": 1,
            "decoded_bytes": 2,
            "expanded_bytes": 3,
            "bytes_copied": 4,
            "copies_avoided": 5,
        }
        assert list(ledger.as_dict())[:5] == list(ledger.counters())


class TestPlanGuards:
    def test_non_additive_field_needs_a_merge_override(self):
        @dataclass
        class Labelled(Folded):
            label: str = ""
            count: int = 0

        with pytest.raises(TypeError, match="Labelled.label is not additive"):
            Labelled().merge(Labelled())

    def test_field_without_default_is_rejected(self):
        @dataclass
        class Required(Folded):
            count: int

        with pytest.raises(TypeError, match="Required.count needs a default"):
            Required(1).merge(Required(2))

    def test_policy_override_folds_the_rest(self):
        @dataclass
        class Flagged(Folded):
            ok: bool = True
            count: int = 0
            parts: list = field(default_factory=list)

            def merge(self, other):
                self.ok = self.ok and other.ok
                super().merge(other)

        a = Flagged(count=1, parts=[1])
        a.merge(Flagged(ok=False, count=2, parts=[2]))
        assert a == Flagged(ok=False, count=3, parts=[1, 2])
        assert a.as_dict() == {"ok": False, "count": 3}


# -- the serialized form ------------------------------------------------------

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_as_dict.json")).read_text()
)


def _golden_instances() -> dict:
    """The fixed instances ``golden_as_dict.json`` was recorded from (at
    the commit before the fold, with the five flat byte fields; the
    ``SLOReport`` / ``ScalingTrace`` / ``TrainingReport`` entries at
    10d2e2e, while their row dicts were still typed out by hand)."""
    cpu = ReaderCpuBreakdown(fill=1.5, convert=0.25, process=0.125)
    queue = QueueWaitBreakdown(put_wait=0.5, get_wait=0.25, transport=0.125)
    copied = ByteLedger(read=1000, decoded=4000, expanded=6000, copied=4000)
    avoided = ByteLedger(read=1000, decoded=4000, expanded=6000, avoided=4000)
    reader = ReaderReport(
        cpu=cpu,
        samples=640,
        batches=5,
        bytes=copied,
        batch_event_times=[1.0, 2.0],
    )
    freshness = FreshnessReport(lags=[3.0, 1.0, 2.0])
    stat = JobRoundStat(
        job="a",
        workers=2,
        reader_cpu_seconds=3.0,
        trainer_busy_seconds=1.0,
        batches=5,
        bytes=copied,
        freshness=freshness,
    )
    breakdown = IterationBreakdown(
        emb_lookup=1.0, gemm=2.0, a2a=0.5, other=0.25
    )
    scaling = ScalingTrace(
        target_stall=0.125,
        decisions=[
            ScalingDecision(0, 0.5, 0.25, 2, "grow", 4, "reader-stall"),
            ScalingDecision(1, 0.0625, 0.75, 4, "hold", 4),
        ],
    )
    return {
        "SLOReport": SLOReport(
            jobs=[
                JobSLO("a", 0, 2, 6.0, 4.5, 1, 2, 10),
                JobSLO("b", 1, 2, 3.0, 3.0, 0, 2, 6),
            ],
            total_wall_seconds=8.0,
            reader_cpu_seconds=12.0,
            wasted_cpu_seconds=1.5,
            crashes=1,
            straggler_shards=2,
            preemptions=1,
            freshness=freshness,
        ),
        "ScalingTrace": scaling,
        "TrainingReport": TrainingReport(
            iterations=[
                IterationResult(
                    loss=loss,
                    breakdown=breakdown,
                    iteration_seconds=3.75,
                    samples_per_second=rate,
                    max_mem_bytes=3.0e9,
                    static_mem_bytes=1.0e9,
                    dynamic_mem_bytes=2.0e9,
                    max_mem_util=util,
                    avg_mem_util=0.25,
                    flops_per_gpu_second=flops,
                )
                for loss, rate, util, flops in [
                    (0.75, 128.0, 0.5, 2.0e12),
                    (0.625, 64.0, 0.375, 1.0e12),
                ]
            ],
            ingest_wait_seconds=0.5,
            step_wall_seconds=1.5,
            run_wall_seconds=2.25,
        ),
        "ReaderCpuBreakdown": cpu,
        "QueueWaitBreakdown": queue,
        "IterationBreakdown": breakdown,
        "ReaderReport": reader,
        "OverlapReport": OverlapReport(
            wall_seconds=4.0,
            reader_stall_seconds=1.0,
            trainer_busy_seconds=2.5,
        ),
        "FreshnessReport": freshness,
        "FleetReport": FleetReport(
            workers=[reader],
            queue=queue,
            # a plain string to the report; the golden keeps the name
            # it was captured with
            executor_used="async",
            num_shards=1,
            wall_seconds=0.75,
            crashes=1,
            straggler_shards=2,
            wasted_cpu_seconds=0.5,
        ),
        "TierReport": TierReport(
            rounds=[TierRound(index=0, width=2, stats=[stat], skipped=["b"])]
        ),
    }


def _ordered(value):
    """Nested dicts as ordered item lists, so ``==`` checks key order."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_ordered(v) for v in value]
    return value


def _send_renamed(value):
    """The one deliberate change: a serialized ``ReaderReport`` names
    its egress bytes ``decoded_bytes``, as every other report does."""
    if isinstance(value, dict):
        return {
            ("decoded_bytes" if k == "send_bytes" else k): _send_renamed(v)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [_send_renamed(v) for v in value]
    return value


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_as_dict_matches_the_hand_written_form(name):
    got = _golden_instances()[name].as_dict()
    assert _ordered(got) == _ordered(_send_renamed(GOLDEN[name]))
    # survives the run store's JSON round trip unchanged
    assert json.loads(json.dumps(got)) == got
