import dataclasses
import json

import numpy as np
import pytest

from infercarbon.arch import (
    KIND_ORDER,
    InferenceConfig,
    KernelKind,
    enumerate_layer_kernels,
)
from infercarbon.costmodel import Phase, kernel_cost
from infercarbon.features import (
    GLOBAL_FEATURE_WIDTH,
    GLOBAL_SLOT_NAMES,
    NODE_FEATURE_WIDTH,
    NUM_KINDS,
    UnknownFormat,
    export_graph,
    featurize_raw,
    fit_stats,
    raw_featurize,
)
from infercarbon.roofline import builtin_gpu_catalog

from conftest import identity_stats, random_small_arch, random_small_cfg


@pytest.fixture
def a100():
    return builtin_gpu_catalog()["a100"]


class TestEncoding:
    def test_node_vector_layout(self, tiny_arch, tiny_cfg, a100):
        graph = enumerate_layer_kernels(tiny_arch, 2)
        raw = raw_featurize(graph, tiny_arch, tiny_cfg_with_gpus(tiny_cfg, 2), a100)
        fg = featurize_raw(raw, identity_stats())
        assert fg.features.shape == (15, NODE_FEATURE_WIDTH)
        # exactly one 1 in each one-hot block
        onehot = fg.features[:, :NUM_KINDS]
        assert np.all(onehot.sum(axis=1) == 1.0)
        assert np.all((onehot == 0) | (onehot == 1))

    def test_allreduce_node_has_network_feature(self, tiny_arch, tiny_cfg, a100):
        cfg = tiny_cfg_with_gpus(tiny_cfg, 2)
        graph = enumerate_layer_kernels(tiny_arch, 2)
        raw = raw_featurize(graph, tiny_arch, cfg, a100)
        nodes = raw.graph.nodes
        ar_rows = [i for i, n in enumerate(nodes) if n.kind is KernelKind.ALL_REDUCE]
        assert ar_rows
        for i in ar_rows:
            # raw net bytes sit in numeric slots 8 (prefill) and 12 (decode)
            assert raw.node_numeric[i, 8] > 0
            assert raw.node_numeric[i, 12] > 0
        others = [i for i in range(len(nodes)) if i not in ar_rows]
        assert all(raw.node_numeric[i, 8] == 0 for i in others)

    def test_single_token_decode_gets_zero_slots(self, tiny_arch, a100):
        cfg = InferenceConfig(batch_size=1, prompt_length=8, generated_tokens=1, gpu_count=1)
        graph = enumerate_layer_kernels(tiny_arch, 1)
        raw = raw_featurize(graph, tiny_arch, cfg, a100)
        fg = featurize_raw(raw, identity_stats())
        q = [n.kind for n in raw.graph.nodes].index(KernelKind.Q_PROJ)
        assert np.all(raw.node_numeric[q, 10:14] == 0)
        assert np.all(fg.features[q, NUM_KINDS + 10 : NUM_KINDS + 14] == np.log1p(0.0))

    def test_encode_node_deterministic(self, tiny_arch, tiny_cfg, a100):
        graph = enumerate_layer_kernels(tiny_arch, 1)
        raw = raw_featurize(graph, tiny_arch, tiny_cfg, a100)
        stats = fit_stats([raw])
        first = featurize_raw(raw, stats)
        second = featurize_raw(raw, stats)
        assert np.array_equal(first.features, second.features)
        # each node row: one-hot kind, then its standardized log1p numerics
        node = graph.nodes[1]
        onehot = np.zeros(NUM_KINDS)
        onehot[KIND_ORDER.index(node.kind)] = 1.0
        transformed = np.log1p(raw.node_numeric[1])
        nonzero = stats.node_std != 0
        numeric = np.zeros(len(transformed))
        numeric[nonzero] = (transformed[nonzero] - stats.node_mean[nonzero]) / stats.node_std[
            nonzero]
        assert np.array_equal(first.features[1], np.concatenate([onehot, numeric]))

    def test_global_vector_layout(self, tiny_arch, tiny_cfg, a100):
        graph = enumerate_layer_kernels(tiny_arch, 1)
        # whole-model totals: every node's cost in both phases, times the layers
        costs = [kernel_cost(node, tiny_arch, tiny_cfg, a100.s_block, phase)
                 for node in graph.nodes for phase in Phase]
        layers = tiny_arch.layer_count
        raw = raw_featurize(graph, tiny_arch, tiny_cfg, a100)
        vec = featurize_raw(raw, identity_stats()).global_features
        assert vec.shape == (GLOBAL_FEATURE_WIDTH,)
        expected = [
            16,  # weight bitwidth
            tiny_arch.hidden_size,
            tiny_arch.intermediate_size,
            tiny_arch.head_count,
            tiny_arch.layer_count,
            tiny_cfg.batch_size,
            tiny_cfg.prompt_length,
            tiny_cfg.generated_tokens,
            layers * sum(c.ops for c in costs),
            layers * sum(c.mem_bytes for c in costs),
            layers * sum(c.net_bytes for c in costs),
        ]
        assert np.array_equal(vec, np.log1p(np.array(expected, dtype=np.float64)))

    def test_aggregation_matrix_shared_per_topology(self, tiny_arch, a100):
        graph = enumerate_layer_kernels(tiny_arch, 1)
        first, second = (
            featurize_raw(raw_featurize(graph, tiny_arch, InferenceConfig(
                batch_size=b, prompt_length=8, generated_tokens=2), a100), identity_stats())
            for b in (1, 3)
        )
        assert first.agg is second.agg
        assert not first.agg.flags.writeable
        neighbors = [set() for _ in graph.nodes]
        for src, dst in graph.edges:
            neighbors[src].add(dst)
            neighbors[dst].add(src)
        expected = np.zeros((len(graph.nodes), len(graph.nodes)))
        for v, nset in enumerate(neighbors):
            for u in nset:
                expected[v, u] = 1.0 / len(nset)
        assert np.array_equal(first.agg, expected)

    def test_global_flops_double_with_layers(self, tiny_arch, tiny_cfg, a100):
        flops = []
        for layers in (1, 2):
            arch = dataclasses.replace(tiny_arch, layer_count=layers)
            raw = raw_featurize(enumerate_layer_kernels(arch, 1), arch, tiny_cfg, a100)
            flops.append(raw.global_numeric[GLOBAL_SLOT_NAMES.index("total_flops")])
        assert flops[0] > 0
        assert flops[1] == 2 * flops[0]

    def test_featurize_deterministic(self, tiny_arch, tiny_cfg, a100):
        graph = enumerate_layer_kernels(tiny_arch, 1)
        first, second = (
            featurize_raw(raw_featurize(graph, tiny_arch, tiny_cfg, a100), identity_stats())
            for _ in range(2)
        )
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.global_features, second.global_features)

    def test_mismatched_variant_rejected(self, tiny_arch, tiny_cfg, a100):
        non_flash = dataclasses.replace(tiny_arch, flash_attention=False)
        graph = enumerate_layer_kernels(tiny_arch, 1)  # fused node inside
        with pytest.raises(Exception):
            raw_featurize(graph, non_flash, tiny_cfg, a100)

    def test_width_constant_across_variants(self, a100):
        rng = np.random.Generator(np.random.PCG64(5))
        widths = set()
        for _ in range(30):
            arch = random_small_arch(rng)
            cfg = random_small_cfg(rng)
            if arch.hidden_size % cfg.gpu_count:
                continue
            graph = enumerate_layer_kernels(arch, cfg.gpu_count)
            fg = featurize_raw(raw_featurize(graph, arch, cfg, a100), identity_stats())
            widths.add(fg.features.shape[1])
            assert fg.global_features.shape == (GLOBAL_FEATURE_WIDTH,)
        assert widths == {NODE_FEATURE_WIDTH}


class TestStats:
    def test_training_split_standardization(self, a100):
        rng = np.random.Generator(np.random.PCG64(17))
        raws = []
        while len(raws) < 80:
            arch = random_small_arch(rng)
            cfg = random_small_cfg(rng)
            if arch.hidden_size % cfg.gpu_count:
                continue
            graph = enumerate_layer_kernels(arch, cfg.gpu_count)
            raws.append(raw_featurize(graph, arch, cfg, a100))
        stats = fit_stats(raws)
        node_rows = np.vstack(
            [np.asarray(
                featurize_like(r, stats)
            ) for r in raws]
        )
        mean = node_rows.mean(axis=0)
        var = node_rows.var(axis=0)
        zero_var = np.log1p(np.vstack([r.node_numeric for r in raws])).std(axis=0) == 0
        assert np.all(np.abs(mean[~zero_var]) < 1e-9)
        assert np.all(np.abs(var[~zero_var] - 1.0) < 1e-6)
        # zero-variance slots pass through as zero
        assert np.all(node_rows[:, zero_var] == 0.0)


def featurize_by_masks(raw, stats):
    """featurize_raw written with boolean fancy indexing over the slots of
    nonzero std, the reference the standardization must equal bit for bit."""
    def standardize(values, mean, std):
        transformed = np.log1p(values.astype(np.float64))
        out = np.zeros_like(transformed)
        nonzero = std != 0
        out[..., nonzero] = (transformed[..., nonzero] - mean[nonzero]) / std[nonzero]
        return out

    onehot = np.eye(NUM_KINDS)[[node.kind.index for node in raw.graph.nodes]]
    return (np.hstack([onehot, standardize(raw.node_numeric, stats.node_mean, stats.node_std)]),
            standardize(raw.global_numeric, stats.global_mean, stats.global_std))


def test_featurize_raw_equals_the_masked_reference_bitwise(a100):
    rng = np.random.Generator(np.random.PCG64(29))
    raws = []
    while len(raws) < 60:
        arch = random_small_arch(rng)
        cfg = random_small_cfg(rng)
        if arch.hidden_size % cfg.gpu_count == 0:
            graph = enumerate_layer_kernels(arch, cfg.gpu_count)
            raws.append(raw_featurize(graph, arch, cfg, a100))
    fitted = fit_stats(raws)
    # a zero-std slot on each side, beside any the split already has
    node_std, global_std = fitted.node_std.copy(), fitted.global_std.copy()
    node_std[7], global_std[8] = 0.0, 0.0
    stats = dataclasses.replace(fitted, node_std=node_std, global_std=global_std)
    for raw in raws:
        fg = featurize_raw(raw, stats)
        features, global_features = featurize_by_masks(raw, stats)
        assert fg.features.tobytes() == features.tobytes()
        assert fg.global_features.tobytes() == global_features.tobytes()
        assert np.all(fg.features[:, NUM_KINDS + 7] == 0.0)
        assert fg.global_features[8] == 0.0


def featurize_like(raw, stats):
    from infercarbon.features import featurize_raw

    return featurize_raw(raw, stats).features[:, NUM_KINDS:]


def tiny_cfg_with_gpus(cfg, n):
    return InferenceConfig(
        batch_size=cfg.batch_size,
        prompt_length=cfg.prompt_length,
        generated_tokens=cfg.generated_tokens,
        gpu_count=n,
    )


class TestExport:
    def test_dot_output_structure(self, tiny_arch, tiny_cfg, a100):
        graph = enumerate_layer_kernels(tiny_arch, 2)
        raw = raw_featurize(graph, tiny_arch, tiny_cfg_with_gpus(tiny_cfg, 2), a100)
        dot = export_graph(raw, "dot")
        assert dot.startswith("digraph layer {") and dot.endswith("}")
        assert dot.count("[label=") == 15
        assert dot.count("->") == len(graph.edges)
        assert 'n0 [label="norm_attn"];' in dot

    def test_json_roundtrip_structure(self, tiny_arch, tiny_cfg, a100):
        graph = enumerate_layer_kernels(tiny_arch, 1)
        raw = raw_featurize(graph, tiny_arch, tiny_cfg, a100)
        payload = json.loads(export_graph(raw, "json"))
        assert payload["format"] == "infercarbon-graph"
        assert len(payload["nodes"]) == len(graph.nodes)
        assert payload["edges"] == [[s, d] for s, d in graph.edges]
        # raw, pre-transform features in the export
        q = next(n for n in payload["nodes"] if n["kind"] == "q_proj")
        assert q["decode"]["ops"] > 0
        assert payload == json.loads(export_graph(raw, "json"))

    def test_unknown_format(self, tiny_arch, tiny_cfg, a100):
        graph = enumerate_layer_kernels(tiny_arch, 1)
        raw = raw_featurize(graph, tiny_arch, tiny_cfg, a100)
        with pytest.raises(UnknownFormat):
            export_graph(raw, "xml")
