import dataclasses

import numpy as np
import pytest

from infercarbon.arch import (
    DataType,
    DivisibilityError,
    InferenceConfig,
    KernelKind,
    LlmArchitecture,
    RangeError,
    derive_head_dim,
    enumerate_layer_kernels,
    node_dims,
    parse_arch_catalog,
    validate_architecture,
    validate_inference,
)
from infercarbon.kvfile import ConfigError

from conftest import random_small_arch


def make_arch(**overrides):
    base = dict(
        hidden_size=4096, intermediate_size=11008, head_count=32, kv_head_count=8, layer_count=32
    )
    base.update(overrides)
    return LlmArchitecture(**base)


class TestValidation:
    def test_valid_architecture_roundtrips(self):
        arch = make_arch()
        assert validate_architecture(arch) is arch
        assert derive_head_dim(arch) == 128

    def test_indivisible_heads_rejected(self):
        with pytest.raises(DivisibilityError):
            validate_architecture(make_arch(hidden_size=100))

    def test_zero_layer_count_rejected(self):
        with pytest.raises(RangeError):
            validate_architecture(make_arch(layer_count=0))

    def test_kv_heads_must_divide_heads(self):
        with pytest.raises(DivisibilityError):
            validate_architecture(make_arch(kv_head_count=3))

    def test_kv_heads_cannot_exceed_heads(self):
        with pytest.raises(RangeError):
            validate_architecture(make_arch(kv_head_count=64))

    def test_inference_config_bounds(self):
        validate_inference(InferenceConfig(1, 1, 1, 1))
        with pytest.raises(RangeError):
            validate_inference(InferenceConfig(0, 1, 1, 1))
        with pytest.raises(RangeError):
            validate_inference(InferenceConfig(1, 1, 0, 1))

    def test_head_dim_examples(self):
        assert derive_head_dim(make_arch(hidden_size=8, head_count=2, kv_head_count=2)) == 4
        assert derive_head_dim(make_arch(hidden_size=32, head_count=32, kv_head_count=32)) == 1

    def test_dtype_widths(self):
        assert DataType.FP32.width == 4
        assert DataType.FP16.width == 2
        assert DataType.INT8.width == 1
        assert DataType.INT8.bitwidth == 8
        assert [d.bitwidth for d in (DataType.FP32, DataType.FP16)] == [32, 16]
        for dtype in DataType:
            assert (dtype.width, dtype.bitwidth) == (dtype.value, 8 * dtype.value)


class TestLayerGraph:
    def test_flash_gated_tensor_parallel(self, tiny_arch):
        graph = enumerate_layer_kernels(tiny_arch, 4)
        kinds = [n.kind for n in graph.nodes]
        assert len(graph.nodes) == 15
        assert kinds.count(KernelKind.ALL_REDUCE) == 2
        assert KernelKind.FUSE_ATTN in kinds
        assert KernelKind.MATMUL_QK not in kinds

    def test_nonflash_single_gpu(self, tiny_arch):
        arch = dataclasses.replace(tiny_arch, flash_attention=False)
        graph = enumerate_layer_kernels(arch, 1)
        kinds = [n.kind for n in graph.nodes]
        assert len(graph.nodes) == 15
        assert kinds.count(KernelKind.ALL_REDUCE) == 0
        for kind in (KernelKind.MATMUL_QK, KernelKind.SOFTMAX, KernelKind.MATMUL_SV):
            assert kind in kinds
        assert KernelKind.FUSE_ATTN not in kinds

    def test_flash_ungated_single_gpu(self, tiny_arch):
        arch = dataclasses.replace(tiny_arch, gated_mlp=False)
        graph = enumerate_layer_kernels(arch, 1)
        kinds = [n.kind for n in graph.nodes]
        assert len(graph.nodes) == 12
        assert KernelKind.GATE_PROJ not in kinds
        assert KernelKind.ALL_REDUCE not in kinds

    @pytest.mark.parametrize("flash", [True, False])
    @pytest.mark.parametrize("gated", [True, False])
    @pytest.mark.parametrize("n_gpu", [1, 2, 4])
    def test_every_variant_is_acyclic(self, tiny_arch, flash, gated, n_gpu):
        arch = dataclasses.replace(tiny_arch, flash_attention=flash, gated_mlp=gated)
        graph = enumerate_layer_kernels(arch, n_gpu)
        assert [n.id for n in graph.nodes] == list(range(len(graph.nodes)))
        # ids follow a topological order, so no edge can close a cycle
        assert all(src < dst for src, dst in graph.edges)
        allreduce = sum(1 for n in graph.nodes if n.kind is KernelKind.ALL_REDUCE)
        assert allreduce == (2 if n_gpu >= 2 else 0)

    def test_every_nonsource_node_has_an_input(self, tiny_arch):
        graph = enumerate_layer_kernels(tiny_arch, 2)
        targets = {dst for _, dst in graph.edges}
        for node in graph.nodes:
            if node.id != 0:
                assert node.id in targets

    def test_kind_vocabulary_covered_across_variants(self, tiny_arch):
        seen = set()
        for flash in (True, False):
            arch = dataclasses.replace(
                tiny_arch,
                flash_attention=flash,
                gated_mlp=True,
            )
            seen |= {n.kind for n in enumerate_layer_kernels(arch, 2).nodes}
        assert seen == set(KernelKind)

    def test_enumeration_is_deterministic(self, tiny_arch):
        first = enumerate_layer_kernels(tiny_arch, 4)
        second = enumerate_layer_kernels(tiny_arch, 4)
        assert first == second

    def test_residual_edges_present(self, tiny_arch):
        graph = enumerate_layer_kernels(tiny_arch, 1)
        by_kind = {n.kind: n.id for n in graph.nodes}
        assert (by_kind[KernelKind.NORM_ATTN], by_kind[KernelKind.ADD_ATTN]) in graph.edges
        assert (by_kind[KernelKind.ADD_ATTN], by_kind[KernelKind.ADD_MLP]) in graph.edges

    def test_dims_are_six_slots_nonnegative(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(50):
            arch = random_small_arch(rng)
            for kind in KernelKind:
                dims = node_dims(kind, arch)
                assert len(dims) == 6
                assert all(d >= 0 for d in dims)

    def test_dims_fill_the_slot_layout(self):
        arch = make_arch()  # 32 heads of dim 128, 8 KV heads
        h, inter, kv_out = 4096, 11008, 1024
        expected = {
            KernelKind.Q_PROJ: (h, h, h, h, 0, 32),
            KernelKind.V_PROJ: (h, kv_out, h, kv_out, 0, 8),
            KernelKind.OUT_PROJ: (h, h, h, h, 0, 0),
            KernelKind.GATE_PROJ: (h, inter, h, inter, 0, 0),
            KernelKind.DOWN_PROJ: (inter, h, inter, h, 0, 0),
            KernelKind.MATMUL_QK: (h, h, 0, 0, 128, 32),
            KernelKind.SOFTMAX: (h, h, 0, 0, 0, 32),
            KernelKind.ACT_MLP: (inter, inter, 0, 0, 0, 0),
            KernelKind.ALL_REDUCE: (h, h, 0, 0, 0, 0),
        }
        for kind, dims in expected.items():
            assert node_dims(kind, arch) == dims, kind

    def test_rejects_bad_gpu_count(self, tiny_arch):
        with pytest.raises(RangeError):
            enumerate_layer_kernels(tiny_arch, 0)


class TestSharedLayerGraph:
    def test_equal_arguments_share_one_graph(self, tiny_arch):
        graph = enumerate_layer_kernels(tiny_arch, 2)
        assert enumerate_layer_kernels(dataclasses.replace(tiny_arch), 2) is graph
        assert enumerate_layer_kernels(tiny_arch, 1) is not graph
        # TP 2 and TP 4 layers have the same kernels
        assert enumerate_layer_kernels(tiny_arch, 4) == graph

    def test_shared_graph_is_immutable(self, tiny_arch):
        graph = enumerate_layer_kernels(tiny_arch, 2)
        assert isinstance(graph.nodes, tuple) and isinstance(graph.edges, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.nodes = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.nodes[0].kind = KernelKind.ADD_MLP

    def test_errors_are_raised_on_every_call(self, tiny_arch):
        bad = dataclasses.replace(tiny_arch, head_count=3)
        for _ in range(2):
            with pytest.raises(DivisibilityError):
                enumerate_layer_kernels(bad, 1)
            with pytest.raises(RangeError):
                enumerate_layer_kernels(tiny_arch, 0)

    def test_cache_is_bounded_by_a_constant(self):
        rng = np.random.Generator(np.random.PCG64(11))
        by_topology = {}
        for _ in range(200):
            arch = random_small_arch(rng)
            n_gpu = int(rng.integers(1, 5))
            graph = enumerate_layer_kernels(arch, n_gpu)
            key = (arch.flash_attention, arch.gated_mlp, n_gpu >= 2)
            assert by_topology.setdefault(key, graph) is graph
        assert len(by_topology) == 8
        assert len({id(g) for g in by_topology.values()}) == 8


class TestArchCatalog:
    def test_parse_catalog(self):
        text = """
        [demo]
        hidden_size = 64
        intermediate_size = 128
        head_count = 4
        kv_head_count = 2
        layer_count = 2
        weight_dtype = INT8
        flash_attention = false
        """
        catalog = parse_arch_catalog(text)
        assert catalog["demo"].weight_dtype is DataType.INT8
        assert catalog["demo"].flash_attention is False
        assert catalog["demo"].activation_dtype is DataType.FP16  # default

    def test_unknown_field_reports_name_and_line(self):
        text = "[x]\nhidden_size = 64\nintermediate_size = 1\nhead_count = 4\n" \
               "kv_head_count = 2\nlayer_count = 1\nbogus_field = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_arch_catalog(text, source="t.cfg")
        assert "bogus_field" in str(err.value)
        assert "t.cfg:7" in str(err.value)

    def test_bad_value_reports_line(self):
        text = "[x]\nhidden_size = sixty-four\n"
        with pytest.raises(ConfigError) as err:
            parse_arch_catalog(text, source="t.cfg")
        assert "t.cfg:2" in str(err.value)
        assert "hidden_size" in str(err.value)

    def test_invalid_architecture_rejected(self):
        text = "[x]\nhidden_size = 100\nintermediate_size = 8\nhead_count = 32\n" \
               "kv_head_count = 32\nlayer_count = 1\n"
        with pytest.raises(ConfigError):
            parse_arch_catalog(text)
