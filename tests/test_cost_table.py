"""The shared layer cost table against independent re-pricing: per-node
kernel_cost + node_performance rows, per-node sums of the cost triples, and
the per-phase Roofline sums written out kernel by kernel."""

import dataclasses
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from infercarbon.arch import (
    DataType,
    DivisibilityError,
    InferenceConfig,
    KernelGraph,
    KernelKind,
    LlmArchitecture,
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
)
from infercarbon.features import (
    GLOBAL_FEATURE_WIDTH,
    NODE_FEATURE_WIDTH,
    GraphMismatch,
    featurize_raw,
    fit_stats,
    raw_featurize,
    raw_features,
)
from infercarbon.gnn import init_params, predict_energy
from infercarbon.roofline import (
    GpuSpec,
    MissingThroughput,
    builtin_gpu_catalog,
    cost_layer,
    node_performance,
    ridge_points,
)
from infercarbon.sampler import SamplePoint, SyntheticEnergyOracle, desk_prior_space, initial_sample

from conftest import identity_stats


@pytest.fixture(scope="module")
def gpus():
    return builtin_gpu_catalog()


@pytest.fixture(scope="module")
def sweep(gpus):
    """Seeded desk-prior points plus catalog requests on every arch, with
    gen=1, TP 1/2/4 and both attention variants; and every catalog arch on
    every catalog GPU at TP 1/2/4, generating 1 and 7 tokens."""
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
            for gpu in gpu_list:
                for gen in (1, 7):
                    cfg = InferenceConfig(batch_size=2, prompt_length=37, generated_tokens=gen,
                                          gpu_count=tp)
                    points.append(SamplePoint(arch=arch, cfg=cfg, gpu=gpu))
    return points


def test_sweep_covers_the_variants(sweep, gpus):
    assert any(p.cfg.generated_tokens == 1 for p in sweep)
    assert {p.cfg.gpu_count for p in sweep} == {1, 2, 4}
    assert {p.arch.flash_attention for p in sweep} == {True, False}
    grid = {(p.arch, p.gpu.name, p.cfg.gpu_count, p.cfg.generated_tokens) for p in sweep}
    assert grid >= {(arch, gpu, tp, gen) for arch in load_archs(None).values() for gpu in gpus
                    for tp in (1, 2, 4) for gen in (1, 7)}


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
        # the walk keeps the exact numbers, and reads each phase's pair back from them
        costs = cost_layer(p.arch, p.cfg, p.gpu)
        assert costs.rows == rows, p.describe()
        for i, row in enumerate(rows):
            assert costs.priced(i, Phase.PREFILL) == (CostTriple(*row[6:9]), row[9])
            assert costs.priced(i, Phase.DECODE) == (CostTriple(*row[10:13]), row[13])


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
        assert cost_layer(p.arch, p.cfg, p.gpu).totals == layer, p.describe()
        n = p.arch.layer_count
        summed = [n * (layer.prefill.ops + layer.decode.ops),
                  n * (layer.prefill.mem_bytes + layer.decode.mem_bytes),
                  n * (layer.prefill.net_bytes + layer.decode.net_bytes)]
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
        assert cost_layer(p.arch, p.cfg, p.gpu).phase_seconds == expected, p.describe()


def test_model_breakdown_is_the_step_by_step_composition(sweep):
    params = init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, seed=3)
    stats = fit_stats([raw_features(cost_layer(p.arch, p.cfg, p.gpu)) for p in sweep])
    predictor = ModelEnergyPredictor(params, stats)
    for p in sweep:
        graph = enumerate_layer_kernels(p.arch, p.cfg.gpu_count)
        fg = featurize_raw(raw_featurize(graph, p.arch, p.cfg, p.gpu), stats)
        total = max(0.0, predict_energy(fg, params))
        seconds = cost_layer(p.arch, p.cfg, p.gpu).phase_seconds
        span = seconds[Phase.PREFILL] + seconds[Phase.DECODE]
        share = seconds[Phase.PREFILL] / span if span > 0 else 1.0
        assert predictor.measure_breakdown(p) == {
            "prefill_joules": total * share,
            "decode_joules": total * (1.0 - share),
            "total_joules": total,
            "roofline_seconds": span * p.arch.layer_count,
        }, p.describe()


def test_kept_ceilings_still_refuse_a_missing_data_type(sweep):
    p = next(p for p in sweep if p.gpu.name == "t4")
    gpu = dataclasses.replace(p.gpu, th_max={DataType.FP16: 65e12})
    assert ridge_points(gpu, DataType.FP16) is ridge_points(gpu, DataType.FP16)  # built once
    for call in (lambda: ridge_points(gpu, DataType.INT8),
                 lambda: cost_layer(dataclasses.replace(p.arch, activation_dtype=DataType.INT8),
                                    p.cfg, gpu)):
        with pytest.raises(MissingThroughput, match="^GPU 't4' has no peak throughput for INT8$"):
            call()
    # a record built from another keeps ceilings of its own rates
    faster = dataclasses.replace(gpu, bw_max=2 * gpu.bw_max)
    assert ridge_points(faster, DataType.FP16).mrp == ridge_points(gpu, DataType.FP16).mrp / 2


def test_a_foreign_graph_is_still_refused(sweep):
    for p in sweep:
        other = dataclasses.replace(p.arch, flash_attention=not p.arch.flash_attention)
        with pytest.raises(GraphMismatch):
            raw_featurize(enumerate_layer_kernels(other, p.cfg.gpu_count), p.arch, p.cfg, p.gpu)
    # an equal graph that is not the shared one is accepted, and featurizes alike
    p = sweep[0]
    shared = enumerate_layer_kernels(p.arch, p.cfg.gpu_count)
    copy = KernelGraph(nodes=tuple(shared.nodes), edges=tuple(shared.edges))
    stats = identity_stats()
    first = featurize_raw(raw_featurize(shared, p.arch, p.cfg, p.gpu), stats)
    raw = raw_featurize(copy, p.arch, p.cfg, p.gpu)
    second = featurize_raw(dataclasses.replace(raw, graph=copy), stats)
    assert np.array_equal(first.features, second.features)
    assert np.array_equal(first.agg, second.agg)


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
    # a TP degree of 3 does not divide the hidden size; the request refuses a
    # count below 1 when it is built, the estimate refuses the partition
    p = next(p for p in sweep if p.arch.hidden_size % 3)
    for predictor in predictors():
        with pytest.raises(error):
            cfg = dataclasses.replace(p.cfg, **change)
            estimate_request(predictor, p.arch, cfg, p.gpu, DatacenterParams(), EmbodiedParams())


def test_invalid_architecture_is_refused(sweep):
    p = sweep[0]
    for predictor in predictors():
        with pytest.raises((RangeError, DivisibilityError)):
            arch = dataclasses.replace(p.arch, head_count=p.arch.hidden_size + 1)
            estimate_request(predictor, arch, p.cfg, p.gpu, DatacenterParams(), EmbodiedParams())


def test_each_estimate_validates_once(sweep, monkeypatch):
    # an architecture, a request and a GPU validate once, when they are built,
    # so a warm estimate runs no validation
    calls = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for cls in (LlmArchitecture, InferenceConfig, GpuSpec):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
    dc, ep = DatacenterParams(), EmbodiedParams()
    for predictor in predictors():
        for p in sweep[:5]:
            estimate_request(predictor, p.arch, p.cfg, p.gpu, dc, ep)  # fills the graph cache
            calls.clear()
            for _ in range(3):
                estimate_request(predictor, p.arch, p.cfg, p.gpu, dc, ep)
            assert calls == {}, p.describe()
    dataclasses.replace(sweep[0].cfg)  # the counters are live: a build counts
    assert calls == {"InferenceConfig": 1}


# bench/workloads.output_digest at the commit that recorded it; a change that
# keeps every cost triple, oracle energy and raw feature bit for bit keeps it
RECORDED_DIGEST = "1750602a0d76d3e32e2e8e00466f86e8e31d64f3603b4aa760dc8f54f0616c13"


def test_bench_output_digest_is_the_recorded_one():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        assert workloads.output_digest() == RECORDED_DIGEST
    finally:
        del sys.modules[spec.name]
