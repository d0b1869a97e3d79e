import dataclasses

import numpy as np
import pytest

from infercarbon.arch import DataType, RangeError, enumerate_layer_kernels
from infercarbon.costmodel import CostTriple
from infercarbon.features import GraphMismatch, raw_featurize
from infercarbon.kvfile import ConfigError
from infercarbon.roofline import (
    GpuSpec,
    MissingThroughput,
    ZeroTraffic,
    arithmetic_intensity,
    builtin_gpu_catalog,
    node_performance,
    parse_gpu_catalog,
    ridge_points,
    validate_gpu,
)


def synthetic_gpu(**overrides):
    base = dict(
        name="synthetic",
        th_max={DataType.FP32: 1e12, DataType.FP16: 2e12, DataType.INT8: 4e12},
        bw_max=1e11,
        net_max=5e10,
        power_w=100.0,
        area_mm2=100.0,
    )
    base.update(overrides)
    return GpuSpec(**base)


class TestRidgePoints:
    def test_a100_fp16_reference_values(self):
        a100 = builtin_gpu_catalog()["a100"]
        points = ridge_points(a100, DataType.FP16)
        assert points.mrp == pytest.approx(624e12 / 2039e9, rel=1e-12)
        assert points.nrp == pytest.approx(1040.0, rel=1e-12)

    def test_unit_ratio(self):
        gpu = synthetic_gpu(th_max={DataType.FP16: 1e11}, bw_max=1e11)
        assert ridge_points(gpu, DataType.FP16).mrp == 1.0

    def test_missing_dtype(self):
        gpu = synthetic_gpu(th_max={DataType.FP16: 1e12})
        with pytest.raises(MissingThroughput):
            ridge_points(gpu, DataType.INT8)

    def test_homogeneous_in_throughput(self):
        gpu = synthetic_gpu()
        scaled = synthetic_gpu(th_max={k: 3.0 * v for k, v in gpu.th_max.items()})
        for dtype in DataType:
            base = ridge_points(gpu, dtype)
            up = ridge_points(scaled, dtype)
            assert up.mrp == pytest.approx(3.0 * base.mrp, rel=1e-12)
            assert up.nrp == pytest.approx(3.0 * base.nrp, rel=1e-12)

    def test_catalog_dtype_ordering(self):
        # narrower types run faster on the same bandwidth, so their ridge
        # points sit further right
        for gpu in builtin_gpu_catalog().values():
            fp32 = ridge_points(gpu, DataType.FP32)
            fp16 = ridge_points(gpu, DataType.FP16)
            int8 = ridge_points(gpu, DataType.INT8)
            assert int8.mrp > fp16.mrp > fp32.mrp
            assert int8.nrp > fp16.nrp > fp32.nrp

    def test_carries_the_ceilings(self):
        gpu = synthetic_gpu()
        points = ridge_points(gpu, DataType.INT8)
        assert (points.th, points.bw_max, points.net_max) == (4e12, 1e11, 5e10)
        assert (points.mrp, points.nrp) == (4e12 / 1e11, 4e12 / 5e10)


class TestIntensity:
    def test_plain_ratio(self):
        assert arithmetic_intensity(CostTriple(1000, 2000, 0), False) == 0.5

    def test_allreduce_uses_network_bytes(self):
        assert arithmetic_intensity(CostTriple(4, 16, 24), True) == pytest.approx(1 / 6)

    def test_zero_traffic(self):
        with pytest.raises(ZeroTraffic):
            arithmetic_intensity(CostTriple(0, 0, 0), False)


class TestPerformance:
    A100 = None

    @classmethod
    def setup_class(cls):
        cls.A100 = builtin_gpu_catalog()["a100"]

    def test_memory_bound_value(self):
        cost = CostTriple(1000, 2000, 0)  # MAI = 0.5
        perf = ridge_points(self.A100, DataType.FP16).attainable(cost, False)
        assert perf == pytest.approx(2039e9 * 0.5, rel=1e-12)

    def test_compute_bound_value(self):
        cost = CostTriple(400_000, 1000, 0)  # MAI = 400 > 306.03
        perf = ridge_points(self.A100, DataType.FP16).attainable(cost, False)
        assert perf == pytest.approx(624e12, rel=1e-12)

    def test_branches_agree_at_ridge(self):
        points = ridge_points(self.A100, DataType.FP16)
        assert self.A100.bw_max * points.mrp == pytest.approx(
            self.A100.th_max[DataType.FP16], rel=1e-12
        )
        assert self.A100.net_max * points.nrp == pytest.approx(
            self.A100.th_max[DataType.FP16], rel=1e-12
        )

    def test_never_exceeds_peak_and_monotone(self):
        rng = np.random.Generator(np.random.PCG64(11))
        catalog = list(builtin_gpu_catalog().values())
        for _ in range(2000):
            gpu = catalog[int(rng.integers(len(catalog)))]
            dtype = list(DataType)[int(rng.integers(3))]
            ops = int(rng.integers(1, 10**12))
            mem = int(rng.integers(1, 10**9))
            net = int(rng.integers(1, 10**9))
            is_ar = bool(rng.integers(2))
            ceilings = ridge_points(gpu, dtype)
            perf = ceilings.attainable(CostTriple(ops, mem, net), is_ar)
            assert perf <= gpu.th_max[dtype] * (1 + 1e-12)
            # more ops on the same traffic can never be slower
            perf_bigger = ceilings.attainable(CostTriple(2 * ops, mem, net), is_ar)
            assert perf_bigger >= perf

    def test_zero_cost_convention(self):
        ceilings = ridge_points(self.A100, DataType.FP16)
        assert node_performance(CostTriple(0, 0, 0), ceilings, False) == 0.0
        with pytest.raises(ZeroTraffic):
            ceilings.attainable(CostTriple(0, 0, 0), False)

    def test_given_ceilings_equal_the_gpu_lookup(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for gpu in builtin_gpu_catalog().values():
            for dtype in gpu.th_max:
                ceilings = ridge_points(gpu, dtype)
                th = gpu.th_max[dtype]
                for _ in range(50):
                    cost = CostTriple(*(int(v) for v in rng.integers(0, 10**9, size=3)))
                    is_ar = bool(rng.integers(2))
                    # the ceiling test written out on the GPU's own fields
                    bandwidth = gpu.net_max if is_ar else gpu.bw_max
                    traffic = cost.net_bytes if is_ar else cost.mem_bytes
                    if cost.is_zero():
                        want = 0.0
                    elif cost.ops / traffic < th / bandwidth:
                        want = bandwidth * (cost.ops / traffic)
                    else:
                        want = th
                    assert node_performance(cost, ceilings, is_ar) == want


class TestLayerGraphCheck:
    A100 = builtin_gpu_catalog()["a100"]

    def test_single_gpu_graph_refused_for_tensor_parallel_request(self, tiny_arch, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, gpu_count=2)
        with pytest.raises(GraphMismatch, match="TP degree 2") as err:
            raw_featurize(enumerate_layer_kernels(tiny_arch, 1), tiny_arch, cfg, self.A100)
        assert "flash-attention" in str(err.value)
        assert isinstance(err.value, ValueError)

    def test_flash_graph_refused_for_unfused_architecture(self, tiny_arch, tiny_cfg):
        unfused = dataclasses.replace(tiny_arch, flash_attention=False)
        with pytest.raises(GraphMismatch, match="unfused-attention") as err:
            raw_featurize(enumerate_layer_kernels(tiny_arch, 1), unfused, tiny_cfg, self.A100)
        assert "TP degree 1" in str(err.value)

    def test_graph_of_other_dimensions_refused(self, tiny_arch, tiny_cfg):
        # a graph is its topology: another arch's same-topology graph is this one's
        wider = dataclasses.replace(tiny_arch, intermediate_size=256)
        own = raw_featurize(enumerate_layer_kernels(tiny_arch, 1), tiny_arch, tiny_cfg, self.A100)
        given = raw_featurize(enumerate_layer_kernels(wider, 1), tiny_arch, tiny_cfg, self.A100)
        assert np.array_equal(given.node_numeric, own.node_numeric)
        assert np.array_equal(given.global_numeric, own.global_numeric)

    def test_equal_graphs_are_accepted(self, tiny_arch, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, gpu_count=4)
        # TP 2 and TP 4 layers have the same kernels
        own = raw_featurize(enumerate_layer_kernels(tiny_arch, 4), tiny_arch, cfg, self.A100)
        rebuilt = dataclasses.replace(enumerate_layer_kernels(tiny_arch, 4))
        for graph in (enumerate_layer_kernels(tiny_arch, 2), rebuilt):
            given = raw_featurize(graph, tiny_arch, cfg, self.A100)
            assert np.array_equal(given.node_numeric, own.node_numeric)
            assert np.array_equal(given.global_numeric, own.global_numeric)


class TestCatalog:
    def test_builtin_reference_rows(self):
        catalog = builtin_gpu_catalog()
        assert set(catalog) == {"t4", "l4", "a100", "h100"}
        t4 = catalog["t4"]
        assert t4.th_max[DataType.FP32] == pytest.approx(8.1e12)
        assert t4.bw_max == pytest.approx(320e9)
        assert t4.net_max == pytest.approx(64e9)
        assert t4.power_w == 70
        assert t4.area_mm2 == 545
        h100 = catalog["h100"]
        assert h100.th_max[DataType.INT8] == pytest.approx(3958e12)
        assert h100.tech_nm == 5

    def test_unknown_field_rejected(self):
        text = "[g]\nfp16_tops = 1\nmemory_gbs = 1\nnetwork_gbs = 1\npower_w = 1\nwarp_size = 32\n"
        with pytest.raises(ConfigError) as err:
            parse_gpu_catalog(text, source="g.cfg")
        assert "warp_size" in str(err.value)

    def test_rates_must_be_positive(self):
        with pytest.raises(RangeError):
            validate_gpu(synthetic_gpu(bw_max=0.0))

    def test_s_block_minimum(self):
        with pytest.raises(RangeError):
            validate_gpu(synthetic_gpu(s_block=0))

    def test_roundtrip_dict(self):
        gpu = synthetic_gpu()
        assert GpuSpec.from_dict(gpu.to_dict()) == gpu
