"""The shared layer cost table against independent re-pricing: per-node
kernel_cost + node_performance rows, per-node sums of the cost triples, and
the per-phase Roofline sums written out kernel by kernel."""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from infercarbon.arch import (
    DivisibilityError,
    InferenceConfig,
    KernelKind,
    RangeError,
    enumerate_layer_kernels,
    node_dims,
)
from infercarbon.carbon import (
    DatacenterParams,
    EmbodiedParams,
    ModelEnergyPredictor,
    estimate_request,
)
from infercarbon.cli import load_archs
from infercarbon.costmodel import (
    CostTriple,
    LayerTotals,
    PartitionError,
    Phase,
    kernel_cost,
    model_totals,
)
from infercarbon.features import (
    GLOBAL_FEATURE_WIDTH,
    NODE_FEATURE_WIDTH,
    identity_stats,
    raw_featurize,
)
from infercarbon.gnn import init_params
from infercarbon.roofline import builtin_gpu_catalog, cost_layer, node_performance, ridge_points
from infercarbon.sampler import SamplePoint, SyntheticEnergyOracle, desk_prior_space, initial_sample


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
        ceilings = ridge_points(p.gpu, p.arch.activation_dtype)
        rows = []
        for node in graph.nodes:
            row = list(node_dims(node.kind, p.arch))
            for phase in Phase:
                cost = kernel_cost(node, p.arch, p.cfg, p.gpu.s_block, phase)
                perf = node_performance(cost, ceilings, node.kind is KernelKind.ALL_REDUCE)
                row += [cost.ops, cost.mem_bytes, cost.net_bytes, perf]
            rows.append(row)
        raw = raw_featurize(graph, p.arch, p.cfg, p.gpu)
        assert np.array_equal(raw.node_numeric, np.array(rows, dtype=np.float64)), p.describe()


def per_node_sums(p) -> LayerTotals:
    """Component-wise per-phase sums of every node's kernel_cost."""
    graph = enumerate_layer_kernels(p.arch, p.cfg.gpu_count)
    sums = {}
    for phase in Phase:
        costs = [kernel_cost(node, p.arch, p.cfg, p.gpu.s_block, phase) for node in graph.nodes]
        sums[phase] = CostTriple(sum(c.ops for c in costs), sum(c.mem_bytes for c in costs),
                                 sum(c.net_bytes for c in costs))
    return LayerTotals(prefill=sums[Phase.PREFILL], decode=sums[Phase.DECODE])


def test_table_totals_equal_per_node_sums(sweep):
    for p in sweep:
        graph = enumerate_layer_kernels(p.arch, p.cfg.gpu_count)
        layer = per_node_sums(p)
        assert cost_layer(p.arch, p.cfg, p.gpu).totals() == layer, p.describe()
        totals = model_totals(layer, p.arch.layer_count)
        summed = [totals.prefill.ops + totals.decode.ops,
                  totals.prefill.mem_bytes + totals.decode.mem_bytes,
                  totals.prefill.net_bytes + totals.decode.net_bytes]
        raw = raw_featurize(graph, p.arch, p.cfg, p.gpu)
        assert np.array_equal(raw.global_numeric[8:], np.array(summed, dtype=np.float64))


def test_phase_times_equal_a_per_kernel_sum(sweep):
    # the Roofline sum as written before the table: graph order, zero-op
    # kernels skipped, no decode time for a single generated token
    for p in sweep:
        ceilings = ridge_points(p.gpu, p.arch.activation_dtype)
        expected = {}
        for phase in Phase:
            total = 0.0
            if not (phase is Phase.DECODE and p.cfg.generated_tokens == 1):
                for node in enumerate_layer_kernels(p.arch, p.cfg.gpu_count).nodes:
                    cost = kernel_cost(node, p.arch, p.cfg, p.gpu.s_block, phase)
                    if cost.ops:
                        total += cost.ops / node_performance(
                            cost, ceilings, node.kind is KernelKind.ALL_REDUCE)
            expected[phase] = total
        assert cost_layer(p.arch, p.cfg, p.gpu).phase_seconds() == expected, p.describe()


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


def test_each_estimate_validates_once(sweep, monkeypatch):
    # wrap every package attribute that holds a validator, as a tracer would
    from infercarbon import arch as arch_mod

    calls = Counter()
    for name in ("validate_architecture", "validate_inference"):
        original = getattr(arch_mod, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "infercarbon"
                                      or module_name.startswith("infercarbon.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    dc, ep = DatacenterParams(), EmbodiedParams()
    for predictor in predictors():
        for p in sweep[:5]:
            estimate_request(predictor, p.arch, p.cfg, p.gpu, dc, ep)  # fills the graph cache
            calls.clear()
            for _ in range(3):
                estimate_request(predictor, p.arch, p.cfg, p.gpu, dc, ep)
            assert calls == {"validate_architecture": 3, "validate_inference": 3}, p.describe()
