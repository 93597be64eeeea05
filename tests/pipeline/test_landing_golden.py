"""Golden landing: what reaches storage, pinned across the landing paths.

``golden_landing.json`` was captured at parent 32bc75e — when static,
retention and streamed jobs still landed through three separate code
paths — by running this module as a script (``PYTHONPATH=src python
tests/pipeline/test_landing_golden.py``).  Each case records the sha256
over every landed file's path and bytes in landing order (read as
``HiveTable._commit`` writes them, the one write step of
``land_partition`` and of ``compact_partition``, so before any drop or
compaction deletes them; a compaction's rewrite is a landing too),
the partition name of every such landing, the epoch plan, the dropped
and recorded partitions, the transport stats and the losses as hex
floats.  File and scribe byte counts go through zlib, so the golden is
tied to the image's zlib build like ``benchmarks/baselines/*.json``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RecDToggles,
    RetentionSpec,
    Session,
    StreamSpec,
    TrainSpec,
)
from repro.storage.hive import HiveTable

GOLDEN_PATH = Path(__file__).with_name("golden_landing.json")

#: landing schedule → the spec parts that select it
SCHEDULES = {
    "static": {},
    "retention": {"retention": RetentionSpec(window=2)},
    "streamed": {"stream": StreamSpec()},
    "streamed-retention": {
        "stream": StreamSpec(),
        "retention": RetentionSpec(window=2),
    },
}
TOGGLES = {"baseline": RecDToggles.baseline, "full": RecDToggles.full}
CASES = [f"{s}/{t}" for s in SCHEDULES for t in TOGGLES]


def _spec(case: str) -> JobSpec:
    schedule, toggles = case.split("/")
    # 120 sessions: at 60 a full-toggles micro-partition (146 rows) is
    # smaller than its batch (153) and admission refuses the job.
    return JobSpec(
        data=DataSpec(
            workload=rm1(scale=0.2),
            toggles=TOGGLES[toggles](),
            num_sessions=120,
            num_partitions=4,
            seed=7,
        ),
        reader=ReaderSpec(num_readers=2, executor="inprocess"),
        train=TrainSpec(train_epochs=5, train_batches=2),
        **SCHEDULES[schedule],
    )


def capture(case: str, monkeypatch) -> dict:
    """Run the case's session with every landing hashed as it happens."""
    digest = hashlib.sha256()
    landings: list[str] = []
    real_commit = HiveTable._commit

    def land(table, partition, *args, **kwargs):
        info = real_commit(table, partition, *args, **kwargs)
        landings.append(partition)
        for path in info.files:
            digest.update(path.encode())
            digest.update(table.fs.read(path))
        return info

    monkeypatch.setattr(HiveTable, "_commit", land)
    res = Session(_spec(case)).run()
    return {
        "files_sha256": digest.hexdigest(),
        "landings": landings,
        "epoch_partitions": res.epoch_partitions,
        "dropped_partitions": res.dropped_partitions,
        "partitions": [p.name for p in res.partitions],
        "samples_landed": res.samples_landed,
        "scribe": res.scribe.as_dict(),
        "losses": [float(x).hex() for x in res.training.losses],
    }


@pytest.mark.parametrize("case", CASES)
def test_landing_matches_parent_golden(case, monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = json.loads(json.dumps(capture(case, monkeypatch)))
    assert got == golden[case]


if __name__ == "__main__":
    out = {}
    for case in CASES:
        with pytest.MonkeyPatch.context() as mp:
            out[case] = capture(case, mp)
    GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
