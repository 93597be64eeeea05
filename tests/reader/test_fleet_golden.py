"""Golden fleet accounting: the in-process executor's modeled numbers, pinned.

The serial schedule's modeled accounting is checked against no second
implementation, so ``golden_fleet.json`` pins its absolute values:
``FleetReport.queue`` (transport only — the schedule has no queue, so
its waits are 0), ``wasted_cpu_seconds`` and every worker's CPU
breakdown as ``float.hex()``, for a width-3 fleet over a two-partition
epoch (six shards), clean and under one crash + two stragglers.
Regenerate it only on purpose by running this module as a script
(``PYTHONPATH=src:. python tests/reader/test_fleet_golden.py``).
"""

import json
from pathlib import Path

import pytest

from repro.reader import FleetFaults, ReaderFleet
from repro.storage import HiveTable, TectonicFS
from tests.conftest import make_reader_schema, make_trace
from tests.reader.test_fleet import _plain_cfg

GOLDEN_PATH = Path(__file__).with_name("golden_fleet.json")

FAULTS = FleetFaults(
    crashed_shards=(1,),
    straggler_factors={1: 2.5, 4: 1.75},
    lost_fraction=0.3,
)
CASES = ["clean", "faulted"]


def capture(case: str) -> dict:
    schema = make_reader_schema()
    table = HiveTable("t", schema, TectonicFS(), stripe_rows=64)
    for seed, partition in enumerate(("p", "q"), start=31):
        table.land_partition(partition, make_trace(schema, seed=seed))
    fleet = ReaderFleet(
        3,
        _plain_cfg(),
        executor="inprocess",
        faults=FAULTS if case == "faulted" else None,
    )
    batches = fleet.run_epoch(table, ["p", "q"])
    report = fleet.report
    return {
        "batches": len(batches),
        "num_shards": report.num_shards,
        "queue": {
            k: float(v).hex() for k, v in report.queue.as_dict().items()
        },
        "wasted_cpu_seconds": report.wasted_cpu_seconds.hex(),
        "workers": [
            [w.cpu.fill.hex(), w.cpu.convert.hex(), w.cpu.process.hex()]
            for w in report.workers
        ],
    }


@pytest.mark.parametrize("case", CASES)
def test_serial_accounting_matches_golden(case):
    assert capture(case) == json.loads(GOLDEN_PATH.read_text())[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({c: capture(c) for c in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
