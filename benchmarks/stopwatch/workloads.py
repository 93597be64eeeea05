"""The seven stopwatch workloads: what each sets up, times, and verifies.

Every workload drives this repo's *public* layer functions from outside
— nothing under ``src/`` changes.  A workload has four parts:

``setup(tracer)``
    builds its inputs from the seed (trace, landed table, batch list);
``run_pass(tracer)``
    the timed pass.  With a disabled tracer it is the plain call a user
    makes (``ReaderFleet.iter_epoch``, ``DistributedTrainer.run``,
    ``Session.run``); with tracing on, the same public functions are
    called by hand — or public methods are wrapped on the instances
    built here — so each layer boundary records a span;
``verify()``
    one untimed pass that checks full content against a reference path;
``replay(tracer, ...)``
    trace-only extras that are not part of the pass (the core tensor
    conversions and the pickle hand-off replayed on the pass's data).

Sizes are chosen for a 2-core box: a pass takes roughly 0.5–1 s, so one
``--seconds 8`` run holds about ten passes.  Trainer workloads are
quarter-scale models because larger ones did not repeat between runs.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import time
from dataclasses import dataclass, field, replace

import numpy as np
from spans import Tracer

from repro.core import InverseKeyedJaggedTensor, KeyedJaggedTensor
from repro.datagen import TraceConfig, TraceGenerator, rm1, rm2, rm3
from repro.etl.pipeline import ETLConfig, ETLJob
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RecDToggles,
    Session,
    TrainSpec,
    build_trainer,
    land_table,
)
from repro.reader import (
    ReaderCostModel,
    ReaderFleet,
    ReaderNode,
    apply_transforms,
    convert_rows,
    fill_batches,
)
from repro.reader.fleet import FleetReport
from repro.scribe.bus import ScribeCluster
from repro.scribe.message import split_sample
from repro.scribe.sharding import ShardKeyPolicy
from repro.storage.hive import HiveTable
from repro.storage.tectonic import TectonicFS

# -- digests -------------------------------------------------------------------


def _update(h, array: np.ndarray) -> None:
    h.update(np.ascontiguousarray(array))


def digest_batch(h, batch) -> None:
    """Fold one batch's full tensor content into ``h``."""
    _update(h, batch.dense)
    _update(h, batch.labels)
    keyed = ([batch.kjt] if batch.kjt is not None else []) + list(batch.ikjts)
    for tensors in keyed:
        for key, jt in tensors.items():
            h.update(key.encode())
            _update(h, jt.values)
            _update(h, jt.offsets)
    for ikjt in batch.ikjts:
        _update(h, ikjt.inverse_lookup)


def digest_rows(rows, schema) -> str:
    """Content digest of sample rows, over every schema column."""
    h = hashlib.sha256()
    for r in rows:
        h.update(
            struct.pack("<qqdq", r.sample_id, r.session_id, r.timestamp, r.label)
        )
        for spec in schema.sparse:
            values = np.asarray(r.sparse.get(spec.name, ()), dtype=np.int64)
            h.update(struct.pack("<q", values.size))
            _update(h, values)
        for spec in schema.dense:
            h.update(struct.pack("<d", r.dense.get(spec.name, 0.0)))
    return h.hexdigest()


def digest_losses(losses) -> str:
    """Bit-exact digest of a loss trajectory."""
    return hashlib.sha256(np.asarray(losses, dtype=np.float64)).hexdigest()


def digest_files(table: HiveTable, partitions) -> str:
    """Digest of every landed file's bytes, in landing order."""
    h = hashlib.sha256()
    for part in partitions:
        for path in part.files:
            h.update(table.fs.read(path))
    return h.hexdigest()


# -- layer calls, by hand ------------------------------------------------------


def generate(spec: JobSpec, tracer: Tracer):
    """The job's trace from its seed (stage 1 of ``land_table``)."""
    d = spec.data
    with tracer.span("datagen.generate"):
        rows = TraceGenerator(
            d.workload.schema,
            TraceConfig(
                seed=d.seed,
                mean_samples_per_session=d.mean_samples_per_session,
            ),
        ).generate_partition(d.num_sessions)
    tracer.count("datagen.samples", len(rows))
    return rows


def ingest(spec: JobSpec, rows, tracer: Tracer):
    """Stages 2–4 of ``land_table``: scribe → ETL → DWRF partitions.

    The same public calls in the same order, so the landed bytes equal
    ``land_table(spec)``'s (``Ingest.verify`` checks that).

    Returns:
        ``(table, partitions, etl_rows)``.
    """
    d = spec.data
    scribe = ScribeCluster(
        num_shards=d.num_scribe_shards,
        policy=(
            ShardKeyPolicy.SESSION_ID
            if d.toggles.o1_shard_by_session
            else ShardKeyPolicy.RANDOM
        ),
    )
    tracer.wrap(scribe, "read_all", "scribe.read_all")
    with tracer.span("scribe.log"):
        for sample in rows:
            features, event = split_sample(sample)
            scribe.log_features(features)
            scribe.log_event(event)
        scribe.flush()
    with tracer.span("etl.run"):
        etl_rows = (
            ETLJob(ETLConfig(cluster=d.toggles.o2_cluster_table))
            .run_from_scribe(scribe)
            .samples
        )
    table = HiveTable(
        f"{d.workload.name.lower()}_table",
        d.workload.schema,
        TectonicFS(),
        rows_per_file=8192,
        stripe_rows=64,
    )
    base, extra = divmod(len(etl_rows), d.num_partitions)
    partitions = []
    start = 0
    for i in range(d.num_partitions):
        stop = start + base + (1 if i < extra else 0)
        with tracer.span("storage.land"):
            partitions.append(
                table.land_partition(f"p{i}", etl_rows[start:stop])
            )
        start = stop
    stats = scribe.stats
    tracer.count("scribe.messages", stats.num_messages)
    tracer.count("scribe.raw_bytes", stats.raw_bytes)
    tracer.count("scribe.compressed_bytes", stats.compressed_bytes)
    tracer.count("etl.rows_out", len(etl_rows))
    tracer.count("storage.land_rows", sum(p.num_rows for p in partitions))
    tracer.count("storage.raw_bytes", sum(p.raw_bytes for p in partitions))
    tracer.count(
        "storage.compressed_bytes", sum(p.compressed_bytes for p in partitions)
    )
    tracer.count("storage.files", sum(len(p.files) for p in partitions))
    return table, partitions, etl_rows


class Sink:
    """The null consumer of a scan: counts what a batch carries and, when
    asked, digests its content, keeps it, or stamps its arrival."""

    def __init__(self, digest=False, keep=False, clock=False):
        self.samples = self.batches = self.wire_bytes = 0
        self.hash = hashlib.sha256() if digest else None
        self.kept: list | None = [] if keep else None
        self.rows: list | None = [] if keep else None
        self.arrivals: list | None = [] if clock else None

    def __call__(self, batch, rows=None) -> None:
        self.samples += batch.batch_size
        self.batches += 1
        self.wire_bytes += batch.wire_nbytes
        if self.hash is not None:
            digest_batch(self.hash, batch)
        if self.kept is not None:
            self.kept.append(batch)
            self.rows.append(rows)
        if self.arrivals is not None:
            self.arrivals.append(time.perf_counter())

    def latencies(self, started: float) -> list[float]:
        """Seconds between successive deliveries (first: since start)."""
        stamps = [started] + self.arrivals
        return [b - a for a, b in zip(stamps, stamps[1:])]


def scan_by_hand(table, names, cfg, tracer: Tracer, sink: Sink) -> None:
    """One epoch of ``ReaderNode.run`` over each partition, spelled out
    so fill, convert and process each record a span and their work
    units; the batch stream equals the fleet's (``Scan.verify``)."""
    cm = ReaderCostModel()
    for name in names:
        with tracer.span("storage.open_readers"):
            readers = table.open_readers(name)
        for reader in readers:
            tracer.wrap(reader, "read_stripe", "storage.read_stripe")
        for rows, fill in tracer.timed_iter(
            "reader.fill", fill_batches(readers, cfg.batch_size)
        ):
            with tracer.span("reader.convert"):
                batch, conv = convert_rows(rows, cfg)
            with tracer.span("reader.process"):
                batch, proc = apply_transforms(batch, cfg.transforms)
            tracer.count("storage.values_decoded", fill.values_decoded)
            tracer.count("storage.read_bytes", fill.compressed_bytes)
            tracer.count("reader.batches", 1)
            tracer.count("reader.samples", batch.batch_size)
            tracer.count("reader.send_bytes", batch.wire_nbytes)
            tracer.count("reader.expanded_bytes", batch.expanded_nbytes)
            tracer.count("reader.values_copied", conv.values_copied)
            tracer.count("reader.values_hashed", conv.values_hashed)
            tracer.count("reader.values_processed", proc.values_processed)
            tracer.count(
                "_model.fill",
                cm.fill_seconds(fill.compressed_bytes, fill.values_decoded),
            )
            tracer.count(
                "_model.convert",
                cm.convert_seconds(conv.values_copied, conv.values_hashed),
            )
            tracer.count(
                "_model.process",
                cm.process_seconds(proc.values_processed, proc.rows_processed),
            )
            sink(batch, rows)


def trace_trainer(trainer, tracer: Tracer) -> None:
    """Wrap the public step methods of one trainer instance and the
    model, optimizer, tables and pooling modules it owns."""
    model = trainer.model
    tracer.wrap(trainer, "run_iteration", "distributed.run_iteration")
    tracer.wrap(model, "train_step", "_trainer.train_step")
    tracer.wrap(model, "forward", "trainer.forward")
    tracer.wrap(model, "backward", "trainer.backward")
    tracer.wrap(model.optimizer, "step", "trainer.update")
    arch = model.sparse_arch
    tracer.wrap(arch, "forward", "trainer.sparse_forward")
    tracer.wrap(arch, "backward", "trainer.sparse_backward")
    for feature in arch.features.values():
        # the IKJT backward re-runs pooling.forward on the expanded
        # rows; that time counts as pooling_forward_s too
        tracer.wrap(feature.pooling, "forward", "trainer.pooling_forward")
        tracer.wrap(feature.pooling, "backward", "trainer.pooling_backward")
        tracer.wrap(feature.table, "lookup", "trainer.emb_lookup")
        tracer.wrap(feature.table, "apply_sgd", "trainer.update")


def count_training(trainer, samples: int, tracer: Tracer) -> None:
    """Record a finished trainer's counters and modeled-vs-measured rate."""
    report = trainer.report
    counters = trainer.model.counters
    for name in ("emb_lookups", "pooling_flops", "mlp_flops"):
        tracer.count(f"trainer.{name}", counters.get(name))
    tracer.count("trainer.steps", len(report.iterations))
    tracer.count("distributed.ingest_wait_s", report.ingest_wait_seconds)
    tracer.count("distributed.step_wall_s", report.step_wall_seconds)
    tracer.count("distributed.run_wall_s", report.run_wall_seconds)
    modeled = report.mean_samples_per_second
    tracer.count("distributed.modeled_samples_per_s", modeled)
    tracer.count(
        "distributed.model_ratio",
        modeled / (samples / report.run_wall_seconds),
    )


def replay_core(rows_per_batch, cfg, tracer: Tracer) -> None:
    """The core tensor conversions ``convert_rows`` performs, replayed
    on the pass's filled rows so each records its own span."""
    original = deduped = 0
    for rows in rows_per_batch:
        sparse = [r.sparse for r in rows]
        if cfg.sparse_features:
            with tracer.span("core.kjt_from_rows"):
                KeyedJaggedTensor.from_rows(sparse, keys=cfg.sparse_features)
        for group in cfg.dedup_sparse_features:
            with tracer.span("core.kjt_from_rows"):
                kjt = KeyedJaggedTensor.from_rows(sparse, keys=group)
            with tracer.span("core.ikjt_from_kjt"):
                ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, list(group))
            with tracer.span("core.ikjt_to_kjt"):
                ikjt.to_kjt()
            original += kjt.total_values
            deduped += ikjt.total_values
    tracer.count("core.dedupe_factor", original / deduped if deduped else 1.0)


def replay_pickle(batches, tracer: Tracer) -> None:
    """What the process executor's mp queue does to every batch."""
    for batch in batches:
        with tracer.span("reader.pickle"):
            blob = pickle.dumps(batch)
        with tracer.span("reader.unpickle"):
            pickle.loads(blob)
        tracer.count("reader.pickle_bytes", len(blob))


# -- workloads -----------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass did and the cheap exact values it must repeat."""

    samples: int
    #: verified operations: partitions landed, batches delivered, steps
    ops: int
    #: must equal the workload's ``expected`` or every op of the pass fails
    invariant: tuple
    #: seconds per op (traced passes only)
    latencies: list = field(default_factory=list)


def stored_of(partitions) -> tuple[int, int]:
    """``(compressed bytes, rows)`` of a landed table."""
    return (
        sum(p.compressed_bytes for p in partitions),
        sum(p.num_rows for p in partitions),
    )


class Workload:
    """Base: holds the job spec; subclasses fill in the four parts."""

    name = ""
    sessions = 0
    smoke_sessions = 0

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.num_sessions = self.smoke_sessions if smoke else self.sessions
        self.spec = self.job_spec()
        #: the invariant every pass must repeat (set from the warm-up pass)
        self.expected: tuple = ()
        #: ``(compressed bytes, rows)`` of the table landed or scanned
        self.stored = (0, 0)

    def job_spec(self) -> JobSpec:
        raise NotImplementedError

    def setup(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer) -> PassResult:
        raise NotImplementedError

    def expect(self, warm: PassResult) -> None:
        """Fix the per-pass invariant from the warm-up pass."""
        self.expected = warm.invariant

    def verify(self) -> tuple[int, list[str], str]:
        """Full-content check: ``(ops, failed check names, fingerprint)``."""
        raise NotImplementedError

    def replay(self, tracer: Tracer) -> None:
        """Trace-only extras outside the pass (default: none)."""

    def _land(self, tracer: Tracer):
        rows = generate(self.spec, tracer)
        table, partitions, _ = ingest(self.spec, rows, tracer)
        self.stored = stored_of(partitions)
        return table, partitions


class Ingest(Workload):
    """Scribe, ETL and the storage write path; no reader, no trainer."""

    name = "ingest"
    sessions = 350
    smoke_sessions = 40

    def job_spec(self) -> JobSpec:
        return JobSpec(
            data=DataSpec(
                workload=rm2(0.25),
                toggles=RecDToggles.full(),
                num_sessions=self.num_sessions,
                num_partitions=4,
                seed=self.seed,
            )
        )

    def setup(self, tracer: Tracer) -> None:
        self.rows = generate(self.spec, tracer)

    def run_pass(self, tracer: Tracer) -> PassResult:
        self.table, self.partitions, self.etl_rows = ingest(
            self.spec, self.rows, tracer
        )
        parts = self.partitions
        self.stored = stored_of(parts)
        return PassResult(
            samples=self.stored[1],
            ops=len(parts),
            invariant=(
                self.stored[1],
                tuple(p.compressed_bytes for p in parts),
            ),
            latencies=tracer.durations("storage.land"),
        )

    def expect(self, warm: PassResult) -> None:
        # every generated row must land, whatever the warm-up pass did
        self.expected = (len(self.rows), warm.invariant[1])

    def verify(self):
        failed = []
        schema = self.spec.data.workload.schema
        start = 0
        for part in self.partitions:
            landed = self.etl_rows[start : start + part.num_rows]
            start += part.num_rows
            if digest_rows(
                self.table.read_partition(part.name), schema
            ) != digest_rows(landed, schema):
                failed.append(f"read_partition({part.name}) round trip")
        fingerprint = digest_files(self.table, self.partitions)
        ref_table, _, _, ref_parts, _ = land_table(self.spec)
        if digest_files(ref_table, ref_parts) != fingerprint:
            failed.append("landed bytes == land_table(spec)")
        return len(self.partitions), failed, fingerprint


class Scan(Workload):
    """A reader fleet scanning a landed RM3 table into a null sink."""

    sessions = 200
    smoke_sessions = 40
    toggles = RecDToggles.baseline()
    dedup = False
    readers = 1
    executor = "inprocess"
    epochs = 2

    def job_spec(self) -> JobSpec:
        return JobSpec(
            data=DataSpec(
                workload=rm3(0.25),
                toggles=self.toggles,
                num_sessions=self.num_sessions,
                num_partitions=2,
                seed=self.seed,
            ),
            reader=ReaderSpec(
                num_readers=self.readers,
                executor=self.executor,
                dedup=self.dedup,
            ),
        )

    def setup(self, tracer: Tracer) -> None:
        self.table, self.partitions = self._land(tracer)
        self.names = [p.name for p in self.partitions]
        self.cfg = self.spec.dataloader_config()
        #: the last fleet pass's merged report (transport counters)
        self.fleet_report = FleetReport()

    def fleet_pass(self, sink: Sink, epochs: int) -> FleetReport:
        """``epochs`` epochs of ``ReaderFleet.iter_epoch`` into ``sink``."""
        fleet = ReaderFleet(self.readers, self.cfg, executor=self.executor)
        merged = FleetReport()
        for _ in range(epochs):
            for batch in fleet.iter_epoch(self.table, self.names):
                sink(batch)
            merged.merge(fleet.report)
        return merged

    def run_pass(self, tracer: Tracer) -> PassResult:
        by_hand = tracer.enabled and self.executor == "inprocess"
        sink = Sink(clock=tracer.enabled, keep=by_hand)
        started = time.perf_counter()
        if by_hand:
            for _ in range(self.epochs):
                scan_by_hand(self.table, self.names, self.cfg, tracer, sink)
            executor_used = self.executor
            self.traced_rows = sink.rows[: sink.batches // self.epochs]
        else:
            self.fleet_report = self.fleet_pass(sink, self.epochs)
            executor_used = self.fleet_report.executor_used
        return PassResult(
            samples=sink.samples,
            ops=sink.batches,
            invariant=(sink.batches, sink.wire_bytes, executor_used),
            latencies=sink.latencies(started) if tracer.enabled else [],
        )

    def expect(self, warm: PassResult) -> None:
        # the plan, not the warm-up, says how many batches an epoch has;
        # a silent inprocess-fallback must not pass under the process name
        planned = self.epochs * sum(
            p.num_rows // self.cfg.batch_size for p in self.partitions
        )
        self.expected = (planned, warm.invariant[1], self.executor)

    def verify(self):
        # one epoch is the whole content: every epoch scans the same rows
        failed = []
        off = Tracer(enabled=False)
        fleet = Sink(digest=True)
        self.fleet_pass(fleet, epochs=1)
        serial = Sink(digest=True)
        for name in self.names:
            for batch in ReaderNode(self.cfg).run_all(
                self.table.open_readers(name)
            ):
                serial(batch)
        by_hand = Sink(digest=True, keep=self.dedup)
        scan_by_hand(self.table, self.names, self.cfg, off, by_hand)
        fingerprint = fleet.hash.hexdigest()
        if serial.hash.hexdigest() != fingerprint:
            failed.append("fleet batches == serial ReaderNode.run_all")
        if by_hand.hash.hexdigest() != fingerprint:
            failed.append("by-hand scan batches == fleet batches")
        if self.dedup:
            expanded = Sink(digest=True)
            for batch in by_hand.kept:
                expanded(batch.to_kjt_only())
            plain = Sink(digest=True)
            scan_by_hand(
                self.table, self.names, self.cfg.without_dedup(), off, plain
            )
            if expanded.hash.hexdigest() != plain.hash.hexdigest():
                failed.append("IKJT.to_kjt() == KJT conversion of the rows")
        return fleet.batches, failed, fingerprint

    def replay(self, tracer: Tracer) -> None:
        if self.executor == "process":
            sink = Sink(keep=True)
            scan_by_hand(self.table, self.names, self.cfg, tracer, sink)
            self.traced_rows = sink.rows
            replay_pickle(sink.kept, tracer)
        replay_core(self.traced_rows, self.cfg, tracer)
        report = self.fleet_report
        spawned = report.executor_used == "process"
        tracer.count("reader.fleet_wall_s", report.wall_seconds)
        tracer.count("reader.queue_get_wait_s", report.queue.get_wait)
        tracer.count("reader.queue_put_wait_s", report.queue.put_wait)
        tracer.count("reader.worker_spawns", report.num_shards if spawned else 0)
        tracer.count(
            "reader.executor_fallbacks",
            int(report.executor_used != self.executor),
        )


class ScanKjt(Scan):
    name = "scan-kjt"


class ScanIkjt(Scan):
    name = "scan-ikjt"
    toggles = RecDToggles.full()
    dedup = True


class ScanProcess(Scan):
    name = "scan-process"
    readers = 2
    executor = "process"


#: steps of the slow KJT-path reference run; a loss prefix is already an
#: exact check because every step depends on all earlier ones
REFERENCE_STEPS = 2


class TrainIkjt(Workload):
    """Trainer forward/backward/update over a pre-scanned IKJT batch list."""

    name = "train-ikjt"
    sessions = 90
    smoke_sessions = 30

    def job_spec(self) -> JobSpec:
        return JobSpec(
            data=DataSpec(
                workload=rm1(0.25),
                toggles=RecDToggles.full(),
                num_sessions=self.num_sessions,
                seed=self.seed,
            ),
            reader=ReaderSpec(executor="inprocess", dedup=True),
            train=TrainSpec(train_batches=None),
        )

    def setup(self, tracer: Tracer) -> None:
        self.table, self.partitions = self._land(tracer)
        self.names = [p.name for p in self.partitions]
        self.cfg = self.spec.dataloader_config()
        sink = Sink(keep=True)
        scan_by_hand(self.table, self.names, self.cfg, tracer, sink)
        self.batches = sink.kept
        self.traced_rows = sink.rows

    def run_pass(self, tracer: Tracer) -> PassResult:
        trainer = build_trainer(self.spec)
        trace_trainer(trainer, tracer)
        report = trainer.run(self.batches)
        samples = sum(b.batch_size for b in self.batches)
        if tracer.enabled:
            count_training(trainer, samples, tracer)
        self.losses = report.losses
        return PassResult(
            samples=samples,
            ops=len(report.losses),
            invariant=(len(self.batches), digest_losses(report.losses)),
            latencies=tracer.durations("distributed.run_iteration"),
        )

    def reference_losses(self) -> list[float]:
        """Losses of the first steps on the plain KJT path (no IKJT, no
        trainer dedup) over the same table at the same batch size."""
        spec = self.spec
        ref = replace(
            spec,
            data=replace(
                spec.data,
                toggles=spec.data.toggles.with_(
                    o3_ikjt=False,
                    o5_dedup_emb=False,
                    o6_jagged_index_select=False,
                    o7_dedup_compute=False,
                ),
            ),
            reader=replace(spec.reader, dedup=False),
            train=replace(spec.train, batch_size=spec.effective_batch_size),
        )
        fleet = ReaderFleet(1, ref.dataloader_config(), executor="inprocess")
        batches = fleet.run_epoch(
            self.table, self.names, max_batches=REFERENCE_STEPS
        )
        return build_trainer(ref).run(batches).losses

    def verify(self):
        failed = []
        reference = self.reference_losses()
        if self.losses[: len(reference)] != reference:
            failed.append("losses == dedup=False reference (bitwise)")
        return len(self.losses), failed, digest_losses(self.losses)

    def replay(self, tracer: Tracer) -> None:
        replay_core(self.traced_rows, self.cfg, tracer)


class SessionRun(Workload):
    """The whole pipeline as a user runs it: ``Session(JobSpec).run()``."""

    sessions = 80
    smoke_sessions = 40
    toggles = RecDToggles.baseline()
    dedup = False

    def job_spec(self) -> JobSpec:
        return self.session_spec(self.toggles, self.dedup)

    def session_spec(self, toggles, dedup) -> JobSpec:
        return JobSpec(
            data=DataSpec(
                workload=rm1(0.25),
                toggles=toggles,
                num_sessions=self.num_sessions,
                num_partitions=2,
                seed=self.seed,
            ),
            reader=ReaderSpec(executor="inprocess", dedup=dedup),
            train=TrainSpec(train_batches=None),
        )

    def setup(self, tracer: Tracer) -> None:
        """Nothing: landing, scanning and training are all in the pass."""

    def run_pass(self, tracer: Tracer) -> PassResult:
        session = Session(self.spec)
        if not tracer.enabled:
            result = session.run()
        else:
            # Session.run for a static job, spelled out with its public
            # open-loop methods so the trainer can be wrapped in between
            with tracer.span("pipeline.session_run"):
                with tracer.span("pipeline.land_table"):
                    tier = session.prepare()
                trainer = session.runtime(session.names[0]).trainer
                trace_trainer(trainer, tracer)
                started = time.perf_counter()
                tier.run()
                result = session.collect(time.perf_counter() - started)
            count_training(trainer, result.reader.samples, tracer)
            inclusive, _ = tracer.totals()
            tracer.count(
                "pipeline.overhead_s",
                inclusive["pipeline.session_run"]
                - inclusive["pipeline.land_table"]
                - result.training.run_wall_seconds,
            )
        self.result = result
        self.stored = (result.partition.compressed_bytes, result.samples_landed)
        losses = result.training.losses
        return PassResult(
            samples=result.reader.samples,
            ops=len(losses),
            invariant=(result.samples_landed, digest_losses(losses)),
            latencies=tracer.durations("distributed.run_iteration"),
        )

    def reference_losses(self) -> list[float]:
        """Losses of a materialized (``streaming=False``) run."""
        ref = replace(self.spec, reader=replace(self.spec.reader, streaming=False))
        return Session(ref).run().training.losses

    def verify(self):
        failed = []
        losses = self.result.training.losses
        if losses != self.reference_losses():
            failed.append("losses == streaming=False reference (bitwise)")
        return len(losses), failed, digest_losses(losses)

    def replay(self, tracer: Tracer) -> None:
        # the layers Session.run drives internally, once more by hand
        rows = generate(self.spec, tracer)
        table, partitions, _ = ingest(self.spec, rows, tracer)
        cfg = self.spec.dataloader_config()
        sink = Sink(keep=True)
        scan_by_hand(table, [p.name for p in partitions], cfg, tracer, sink)
        replay_core(sink.rows, cfg, tracer)
        # the measured and modeled counterpart of the paper's 2.48x
        runs = {}
        for label, toggles, dedup in (
            ("baseline", RecDToggles.baseline(), False),
            ("recd", RecDToggles.full(), True),
        ):
            started = time.perf_counter()
            result = Session(self.session_spec(toggles, dedup)).run()
            wall = time.perf_counter() - started
            runs[label] = (result.reader.samples / wall, result.trainer_qps)
        tracer.count(
            "pipeline.recd_speedup_measured",
            runs["recd"][0] / runs["baseline"][0],
        )
        tracer.count(
            "pipeline.recd_speedup_modeled",
            runs["recd"][1] / runs["baseline"][1],
        )


class SessionBaseline(SessionRun):
    name = "session-baseline"


class SessionRecd(SessionRun):
    name = "session-recd"
    toggles = RecDToggles.full()
    dedup = True


WORKLOADS = {
    w.name: w
    for w in (
        Ingest,
        ScanKjt,
        ScanIkjt,
        ScanProcess,
        TrainIkjt,
        SessionBaseline,
        SessionRecd,
    )
}
