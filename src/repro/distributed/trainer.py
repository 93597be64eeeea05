"""Hybrid-parallel distributed training simulation (§2.2, Fig 2, Fig 6).

MLPs are data-parallel (gradients all-reduced); EMBs are model-parallel
(features sharded across GPUs; inputs and pooled outputs all-to-all'd).
The functional math runs once on the NumPy DLRM — every GPU would compute
identical results — while per-phase latencies are modeled from measured
resource counters (bytes, lookups, FLOPs) against the cluster envelope.

Per-iteration phases (Fig 6):

1. SDD all-to-all of sparse inputs (RecD: dedup values/offsets only).
2. EMB lookups (HBM bandwidth; RecD: unique rows only).
3. Pooling + interaction + MLP compute (GEMM; RecD: dedup compute).
4. All-to-all of pooled embeddings back to data-parallel ranks.
5. Backward: mirrored all-to-alls, EMB gradient scatter, MLP all-reduce.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..metrics.breakdown import IterationBreakdown
from ..reader.batch import Batch
from ..trainer.model import DLRM
from .comm import all_reduce_seconds, all_to_all_seconds
from .costmodel import TrainerCostConstants
from .device import ClusterSpec
from .sdd import sdd_volume

__all__ = ["IterationResult", "TrainingReport", "DistributedTrainer"]


@dataclass
class IterationResult:
    """One synchronous iteration's modeled outcome."""

    loss: float
    breakdown: IterationBreakdown
    iteration_seconds: float
    samples_per_second: float
    max_mem_bytes: float
    static_mem_bytes: float
    dynamic_mem_bytes: float
    max_mem_util: float
    avg_mem_util: float
    flops_per_gpu_second: float


@dataclass
class TrainingReport:
    """Aggregates over a training run.

    Besides the modeled per-iteration results, the report keeps three
    *measured* wall-clock tallies from :meth:`DistributedTrainer.run`'s
    ingestion loop — the raw material for the pipeline's
    :class:`~repro.metrics.OverlapReport`:

    * ``ingest_wait_seconds`` — time blocked pulling the next batch from
      the input iterator.  Streaming from a reader fleet, this is the
      trainer starving on the readers (reader-stall).
    * ``step_wall_seconds`` — time inside ``run_iteration`` calls; while
      the trainer computes, upstream readers can only run ahead as far
      as their bounded prefetch queues allow (trainer-stall upstream).
    * ``run_wall_seconds`` — the whole ingestion loop, accumulating
      across epochs when ``run`` is called once per epoch.
    """

    iterations: list[IterationResult] = field(default_factory=list)
    ingest_wait_seconds: float = 0.0
    step_wall_seconds: float = 0.0
    run_wall_seconds: float = 0.0

    @property
    def losses(self) -> list[float]:
        """Per-iteration losses (the bit-identity fingerprint)."""
        return [r.loss for r in self.iterations]

    @property
    def mean_samples_per_second(self) -> float:
        if not self.iterations:
            return 0.0
        return sum(r.samples_per_second for r in self.iterations) / len(
            self.iterations
        )

    @property
    def mean_breakdown(self) -> IterationBreakdown:
        out = IterationBreakdown.fold(r.breakdown for r in self.iterations)
        n = max(len(self.iterations), 1)
        out.emb_lookup /= n
        out.gemm /= n
        out.a2a /= n
        out.other /= n
        return out

    @property
    def max_mem_util(self) -> float:
        return max((r.max_mem_util for r in self.iterations), default=0.0)

    @property
    def mean_flops_per_gpu_second(self) -> float:
        if not self.iterations:
            return 0.0
        return sum(r.flops_per_gpu_second for r in self.iterations) / len(
            self.iterations
        )

    def as_dict(self) -> dict:
        """Serialize to a plain JSON-ready dict (the run-store form):
        the loss trajectory (the bit-identity fingerprint), the modeled
        throughput summary, the mean phase breakdown, and the measured
        ingestion-loop wall tallies.  Hand-written as a policy: the
        per-iteration results reduce to losses and means, not fields."""
        return {
            "steps": len(self.iterations),
            "losses": self.losses,
            "mean_samples_per_second": self.mean_samples_per_second,
            "mean_breakdown": self.mean_breakdown.as_dict(),
            "max_mem_util": self.max_mem_util,
            "mean_flops_per_gpu_second": self.mean_flops_per_gpu_second,
            "ingest_wait_seconds": self.ingest_wait_seconds,
            "step_wall_seconds": self.step_wall_seconds,
            "run_wall_seconds": self.run_wall_seconds,
        }


class DistributedTrainer:
    """Runs a DLRM under the hybrid-parallel latency model."""

    def __init__(
        self,
        model: DLRM,
        cluster: ClusterSpec,
        constants: TrainerCostConstants | None = None,
    ):
        self.model = model
        self.cluster = cluster
        self.constants = constants or TrainerCostConstants()
        self.report = TrainingReport()

    # -- memory accounting --------------------------------------------------

    def _static_bytes_per_gpu(self) -> float:
        """EMB shard + replicated dense params (fp32 production dtype)."""
        cc = self.constants
        emb = self.model.embedding_nbytes() / 2  # fp64 sim -> fp32 prod
        dense = (
            cc.param_mem_scale
            * sum(p.nbytes for p in self.model.dense_params())
            / 2
        )
        return emb / self.cluster.num_gpus + dense

    def _dynamic_bytes_per_gpu(self, delta: dict[str, float], batch: Batch) -> float:
        """Activations (stash + grads + workspace) + input buffers +
        densify overhead, per GPU."""
        cc = self.constants
        act = (
            cc.activation_mem_factor
            * delta.get("activation_bytes", 0.0)
            / 2  # fp64 sim -> fp32
        )
        densify = delta.get("densify_bytes", 0.0) / 2
        inputs = batch.wire_nbytes
        return (act + densify + inputs) / self.cluster.num_gpus

    def _logical_fwd_flops(self, delta: dict[str, float], batch: Batch) -> float:
        """FLOPs the *baseline* (KJT) path would execute for this batch.

        The paper's Table 2 "compute efficiency" is realized useful work
        per GPU-second: deduplicated compute finishes the same logical
        work in less time, so efficiency must be measured in logical (not
        executed) FLOPs.  MLP/interaction FLOPs are path-independent;
        pooling FLOPs are re-counted over the *expanded* value counts.
        """
        features = self.model.sparse_arch.features
        dim = self.model.config.embedding_dim
        flops = delta.get("mlp_flops", 0.0)
        if batch.kjt is not None:
            for key in batch.kjt.keys:
                jt = batch.kjt[key]
                flops += features[key].pooling.flops(
                    jt.total_values, dim, jt.num_rows
                )
        for ikjt in batch.ikjts:
            for key in ikjt.keys:
                jt = ikjt[key]
                expanded = int(jt.lengths[ikjt.inverse_lookup].sum())
                flops += features[key].pooling.flops(
                    expanded, dim, ikjt.batch_size
                )
        return flops

    # -- iteration ------------------------------------------------------------

    def run_iteration(self, batch: Batch, track_updates: bool = False) -> IterationResult:
        model, cluster, cc = self.model, self.cluster, self.constants
        before = dict(model.counters.as_dict())
        loss = model.train_step(batch, track_updates=track_updates)
        after = model.counters.as_dict()
        delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}

        n = cluster.num_gpus
        dim = model.config.embedding_dim
        vol = sdd_volume(batch, dedup_output=model.flags.dedup_compute)

        # -- all-to-all phases (forward input, forward output, both mirrored
        # in the backward pass for gradients)
        t_sdd = all_to_all_seconds(vol.input_bytes / n, cluster)
        out_bytes = vol.output_bytes(dim, cc.emb_dtype_bytes)
        t_emb_out = all_to_all_seconds(out_bytes / n, cluster)
        t_a2a_raw = 2.0 * (t_sdd + t_emb_out)

        # -- EMB lookups: gather forward + scatter-update backward
        lookup_bytes = delta.get("emb_lookups", 0.0) * dim * cc.emb_dtype_bytes
        t_emb = 2.0 * lookup_bytes / n / cluster.gpu.hbm_bw

        # -- GEMM compute: pooling + MLPs, forward + backward
        fwd_flops = delta.get("pooling_flops", 0.0) + delta.get("mlp_flops", 0.0)
        total_flops = fwd_flops * (1.0 + cc.backward_flops_factor)
        t_gemm = total_flops / n / cluster.gpu.flops

        # overlap: a slice of A2A hides under compute; only the exposed
        # remainder contributes to iteration latency (Fig 8 semantics)
        t_a2a = max(0.0, t_a2a_raw - cc.comm_overlap_fraction * t_gemm)

        # -- other: exposed slice of the dense-gradient all-reduce + fixed
        # overhead (the all-reduce itself overlaps with backward compute)
        param_bytes = sum(p.nbytes for p in model.dense_params()) / 2
        t_other = (
            cc.allreduce_exposure * all_reduce_seconds(param_bytes, cluster)
            + cc.fixed_overhead
        )

        breakdown = IterationBreakdown(
            emb_lookup=t_emb, gemm=t_gemm, a2a=t_a2a, other=t_other
        )
        iteration_seconds = breakdown.total

        static = self._static_bytes_per_gpu()
        dynamic = self._dynamic_bytes_per_gpu(delta, batch)
        capacity = cluster.gpu.memory_bytes
        max_mem = static + dynamic
        logical_flops = self._logical_fwd_flops(delta, batch) * (
            1.0 + cc.backward_flops_factor
        )
        result = IterationResult(
            loss=loss,
            breakdown=breakdown,
            iteration_seconds=iteration_seconds,
            samples_per_second=batch.batch_size / iteration_seconds,
            max_mem_bytes=max_mem,
            static_mem_bytes=static,
            dynamic_mem_bytes=dynamic,
            max_mem_util=max_mem / capacity,
            avg_mem_util=(static + cc.avg_dynamic_fraction * dynamic) / capacity,
            flops_per_gpu_second=logical_flops / n / iteration_seconds,
        )
        self.report.iterations.append(result)
        return result

    def run(
        self, batches: Iterable[Batch], track_updates: bool = False
    ) -> TrainingReport:
        """Train over any batch source — a list or a live iterator.

        Fed a reader fleet's lazy batch stream, the trainer ingests while
        the readers decode ahead (the paper's reader→trainer overlap);
        the time blocked in ``next()`` vs inside steps is measured into
        the report so the pipeline can attribute wall-clock to
        reader-stall vs trainer-stall.  The functional results are
        bit-identical for any batch source with the same contents.
        """
        rep = self.report
        run_started = time.perf_counter()
        it = iter(batches)
        while True:
            t0 = time.perf_counter()
            try:
                batch = next(it)
            except StopIteration:
                rep.ingest_wait_seconds += time.perf_counter() - t0
                break
            rep.ingest_wait_seconds += time.perf_counter() - t0
            t1 = time.perf_counter()
            self.run_iteration(batch, track_updates=track_updates)
            rep.step_wall_seconds += time.perf_counter() - t1
        rep.run_wall_seconds += time.perf_counter() - run_started
        return rep
