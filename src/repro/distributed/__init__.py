"""Distributed-training simulation: devices, collectives, SDD, latency."""

from .comm import all_reduce_seconds, all_to_all_seconds
from .costmodel import TrainerCostConstants, sim_cluster, sim_gpu
from .device import ClusterSpec, GPUSpec
from .sdd import SDDVolume, sdd_volume
from .trainer import DistributedTrainer, IterationResult, TrainingReport

__all__ = [
    "GPUSpec",
    "ClusterSpec",
    "all_to_all_seconds",
    "all_reduce_seconds",
    "TrainerCostConstants",
    "sim_gpu",
    "sim_cluster",
    "SDDVolume",
    "sdd_volume",
    "DistributedTrainer",
    "IterationResult",
    "TrainingReport",
]
