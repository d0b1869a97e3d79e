"""The shared layer cost table against independent re-pricing by its consumers'
former paths: per-node kernel_cost + node_performance, layer_totals, and the
per-phase Roofline sums."""

import dataclasses

import numpy as np
import pytest

from infercarbon.arch import (
    DivisibilityError,
    InferenceConfig,
    KernelKind,
    RangeError,
    enumerate_layer_kernels,
)
from infercarbon.carbon import (
    DatacenterParams,
    EmbodiedParams,
    ModelEnergyPredictor,
    estimate_request,
)
from infercarbon.cli import load_archs
from infercarbon.costmodel import PartitionError, Phase, kernel_cost, layer_totals, model_totals
from infercarbon.features import (
    GLOBAL_FEATURE_WIDTH,
    NODE_FEATURE_WIDTH,
    identity_stats,
    raw_featurize,
)
from infercarbon.gnn import init_params
from infercarbon.roofline import builtin_gpu_catalog, cost_layer, node_performance
from infercarbon.sampler import (
    SamplePoint,
    SyntheticEnergyOracle,
    desk_prior_space,
    initial_sample,
    roofline_phase_times,
)


@pytest.fixture(scope="module")
def gpus():
    return builtin_gpu_catalog()


@pytest.fixture(scope="module")
def sweep(gpus):
    """Seeded desk-prior points plus catalog requests on every arch, with
    gen=1, TP 1/2/4 and both attention variants."""
    points = initial_sample(desk_prior_space(gpus), 40, seed=2410)
    rng = np.random.Generator(np.random.PCG64(2410))
    gpu_list = [gpus[name] for name in sorted(gpus)]
    for _, arch in sorted(load_archs(None).items()):
        for tp in (1, 2, 4):
            if arch.hidden_size % tp:
                continue
            for gen in (1, int(rng.integers(2, 300))):
                cfg = InferenceConfig(batch_size=int(rng.integers(1, 5)),
                                      prompt_length=int(rng.integers(1, 2000)),
                                      generated_tokens=gen, gpu_count=tp)
                gpu = gpu_list[int(rng.integers(len(gpu_list)))]
                points.append(SamplePoint(arch=arch, cfg=cfg, gpu=gpu))
    return points


def test_sweep_covers_the_variants(sweep):
    assert any(p.cfg.generated_tokens == 1 for p in sweep)
    assert {p.cfg.gpu_count for p in sweep} == {1, 2, 4}
    assert {p.arch.flash_attention for p in sweep} == {True, False}


def test_raw_features_equal_rows_priced_per_node(sweep):
    for p in sweep:
        graph = enumerate_layer_kernels(p.arch, p.cfg.gpu_count)
        rows = []
        for node in graph.nodes:
            row = list(node.dims)
            for phase in Phase:
                cost = kernel_cost(node, p.arch, p.cfg, p.gpu.s_block, phase)
                perf = node_performance(cost, p.gpu, p.arch.activation_dtype,
                                        node.kind is KernelKind.ALL_REDUCE)
                row += [cost.ops, cost.mem_bytes, cost.net_bytes, perf]
            rows.append(row)
        raw = raw_featurize(graph, p.arch, p.cfg, p.gpu)
        assert np.array_equal(raw.node_numeric, np.array(rows, dtype=np.float64)), p.describe()


def test_table_totals_equal_layer_totals(sweep):
    for p in sweep:
        graph = enumerate_layer_kernels(p.arch, p.cfg.gpu_count)
        totals = model_totals(layer_totals(graph, p.arch, p.cfg, p.gpu.s_block),
                              p.arch.layer_count)
        assert model_totals(cost_layer(p.arch, p.cfg, p.gpu).totals(),
                            p.arch.layer_count) == totals
        summed = [totals.prefill.ops + totals.decode.ops,
                  totals.prefill.mem_bytes + totals.decode.mem_bytes,
                  totals.prefill.net_bytes + totals.decode.net_bytes]
        raw = raw_featurize(graph, p.arch, p.cfg, p.gpu)
        assert np.array_equal(raw.global_numeric[8:], np.array(summed, dtype=np.float64))


def test_phase_times_equal_a_per_kernel_sum(sweep):
    # the Roofline sum as written before the table: graph order, zero-op
    # kernels skipped, no decode time for a single generated token
    for p in sweep:
        expected = {}
        for phase in Phase:
            total = 0.0
            if not (phase is Phase.DECODE and p.cfg.generated_tokens == 1):
                for node in enumerate_layer_kernels(p.arch, p.cfg.gpu_count).nodes:
                    cost = kernel_cost(node, p.arch, p.cfg, p.gpu.s_block, phase)
                    if cost.ops:
                        total += cost.ops / node_performance(
                            cost, p.gpu, p.arch.activation_dtype,
                            node.kind is KernelKind.ALL_REDUCE)
            expected[phase] = total
        assert roofline_phase_times(p) == expected, p.describe()


def predictors():
    params = init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, seed=3)
    return [SyntheticEnergyOracle(), ModelEnergyPredictor(params, identity_stats())]


def test_exec_seconds_equal_oracle_roofline_seconds(sweep):
    oracle = SyntheticEnergyOracle()
    dc, ep = DatacenterParams(), EmbodiedParams()
    for predictor in predictors():
        for p in sweep:
            report = estimate_request(predictor, p.arch, p.cfg, p.gpu, dc, ep)
            assert report.exec_seconds == oracle.measure_breakdown(p)["roofline_seconds"]


@pytest.mark.parametrize(
    "change, error",
    [
        (dict(batch_size=0), RangeError),
        (dict(prompt_length=0), RangeError),
        (dict(generated_tokens=0), RangeError),
        (dict(gpu_count=3), PartitionError),
    ],
)
def test_invalid_requests_are_refused(sweep, change, error):
    # a TP degree of 3 does not divide the hidden size
    p = next(p for p in sweep if p.arch.hidden_size % 3)
    cfg = dataclasses.replace(p.cfg, **change)
    for predictor in predictors():
        with pytest.raises(error):
            estimate_request(predictor, p.arch, cfg, p.gpu, DatacenterParams(), EmbodiedParams())


def test_invalid_architecture_is_refused(sweep):
    p = sweep[0]
    arch = dataclasses.replace(p.arch, head_count=p.arch.hidden_size + 1)
    for predictor in predictors():
        with pytest.raises((RangeError, DivisibilityError)):
            estimate_request(predictor, arch, p.cfg, p.gpu, DatacenterParams(), EmbodiedParams())
