"""Tests for device specs and collective cost models."""

import pytest

from repro.distributed import (
    ClusterSpec,
    GPUSpec,
    all_reduce_seconds,
    all_to_all_seconds,
    sim_cluster,
    sim_gpu,
)


class TestClusterSpec:
    def test_single_node_uses_nvlink(self):
        c = ClusterSpec(num_gpus=8, gpus_per_node=8)
        assert c.single_node
        assert c.collective_bw == c.gpu.nvlink_bw

    def test_multi_node_uses_nic(self):
        c = ClusterSpec(num_gpus=48, gpus_per_node=8)
        assert not c.single_node
        assert c.num_gpus // c.gpus_per_node == 6
        assert c.collective_bw == c.gpu.nic_bw

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_gpus=0)
        with pytest.raises(ValueError):
            ClusterSpec(num_gpus=12, gpus_per_node=8)

    def test_part_of_one_node_is_single_node(self):
        """Any count up to one node is legal, multiple or not."""
        c = ClusterSpec(num_gpus=3, gpus_per_node=8)
        assert c.single_node
        assert max(1, c.num_gpus // c.gpus_per_node) == 1
        assert c.collective_bw == c.gpu.nvlink_bw

    def test_gpu_spec_carries_the_memory_capacity(self):
        assert ClusterSpec().gpu.memory_bytes == GPUSpec().memory_bytes
        assert GPUSpec().memory_bytes == 40 * 2**30
        assert sim_cluster(memory_bytes=2**20).gpu.memory_bytes == 2**20


class TestCollectives:
    def test_single_gpu_free(self):
        c = ClusterSpec(num_gpus=1, gpus_per_node=1)
        assert all_to_all_seconds(10**9, c) == 0.0
        assert all_reduce_seconds(10**9, c) == 0.0

    def test_a2a_scales_with_bytes(self):
        c = sim_cluster(num_gpus=16)
        t1 = all_to_all_seconds(10**6, c)
        t2 = all_to_all_seconds(2 * 10**6, c)
        assert t2 > t1

    def test_a2a_latency_floor(self):
        c = sim_cluster(num_gpus=16)
        assert all_to_all_seconds(0, c) == pytest.approx(
            c.collective_latency
        )

    def test_allreduce_volume_factor(self):
        """all-reduce moves ~2x the payload of an all-to-all of the same
        per-GPU bytes."""
        c = sim_cluster(num_gpus=16)
        lat = c.collective_latency
        a2a = all_to_all_seconds(10**6, c) - lat
        ar = all_reduce_seconds(10**6, c) - lat
        assert ar == pytest.approx(2 * a2a)

    def test_negative_bytes_rejected(self):
        c = sim_cluster()
        with pytest.raises(ValueError):
            all_to_all_seconds(-1, c)
        with pytest.raises(ValueError):
            all_reduce_seconds(-1, c)

    def test_nvlink_faster_than_roce(self):
        """Single-node collectives must be faster (§6.2 single-node)."""
        single = sim_cluster(num_gpus=8)
        multi = sim_cluster(num_gpus=64)
        nbytes = 10**6
        assert all_to_all_seconds(nbytes, single) < all_to_all_seconds(
            nbytes, multi
        )

    def test_sim_gpu_ratios(self):
        g = sim_gpu()
        # HBM : NIC ratio preserved from the real envelope (~62:1)
        assert g.hbm_bw / g.nic_bw == pytest.approx(62.0, rel=0.05)
