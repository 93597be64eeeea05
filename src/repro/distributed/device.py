"""Simulated GPU envelope and cluster topology (§6.1's ZionEX testbed).

Each ZionEX node has 8 A100s (NVLink intra-node) with a 200 Gbps RoCE NIC
per GPU for inter-node collectives.  We keep the *ratios* of those
constants and scale the magnitudes to the reproduction's workload sizes —
only relative phase times matter for Fig 8/9 and Table 2.

These are specs, not devices: there is one memory model and it is the
trainer's (``DistributedTrainer._static_bytes_per_gpu`` /
``_dynamic_bytes_per_gpu`` against ``GPUSpec.memory_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUSpec", "ClusterSpec"]


@dataclass(frozen=True)
class GPUSpec:
    """Per-GPU performance envelope (simulation units)."""

    name: str = "a100-like"
    memory_bytes: int = 40 * 2**30
    #: HBM bandwidth, bytes/s (A100: ~1.55 TB/s)
    hbm_bw: float = 1.55e12
    #: achievable dense-compute rate, flop/s (A100 fp16 w/ realistic eff.)
    flops: float = 120e12
    #: inter-node NIC bandwidth, bytes/s (200 Gbps RoCE)
    nic_bw: float = 25e9
    #: intra-node NVLink bandwidth, bytes/s (~600 GB/s aggregate)
    nvlink_bw: float = 300e9


@dataclass(frozen=True)
class ClusterSpec:
    """A training cluster: N GPUs across one or more nodes."""

    num_gpus: int = 8
    gpus_per_node: int = 8
    gpu: GPUSpec = GPUSpec()
    #: base per-collective latency, seconds
    collective_latency: float = 30e-6

    def __post_init__(self) -> None:
        if self.num_gpus <= 0 or self.gpus_per_node <= 0:
            raise ValueError("GPU counts must be positive")
        if self.num_gpus % self.gpus_per_node and self.num_gpus > self.gpus_per_node:
            raise ValueError("num_gpus must be a multiple of gpus_per_node")

    @property
    def num_nodes(self) -> int:
        return max(1, self.num_gpus // self.gpus_per_node)

    @property
    def single_node(self) -> bool:
        return self.num_gpus <= self.gpus_per_node

    @property
    def collective_bw(self) -> float:
        """Effective per-GPU bandwidth for collectives.

        Single-node jobs ride NVLink; multi-node collectives bottleneck on
        the RoCE NICs (§6.2, Single-node Training).
        """
        return self.gpu.nvlink_bw if self.single_node else self.gpu.nic_bw
