from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infercarbon.arch import (
    CATALOG_PARSERS,
    JSON_DECODERS,
    DataType,
    DivisibilityError,
    InferenceConfig,
    KernelKind,
    LlmArchitecture,
    RangeError,
    Record,
    enumerate_layer_kernels,
    node_dims,
    parse_arch_catalog,
)
from infercarbon.kvfile import ConfigError, SectionReader, parse_sections
from infercarbon.roofline import GpuSpec, builtin_gpu_catalog

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
        assert LlmArchitecture.from_dict(arch.to_dict()) == arch
        assert node_dims(KernelKind.MATMUL_QK, arch)[4] == 128  # the head-dim slot

    def test_indivisible_heads_rejected(self):
        with pytest.raises(DivisibilityError):
            make_arch(hidden_size=100)

    def test_zero_layer_count_rejected(self):
        with pytest.raises(RangeError):
            make_arch(layer_count=0)

    def test_kv_heads_must_divide_heads(self):
        with pytest.raises(DivisibilityError):
            make_arch(kv_head_count=3)

    def test_kv_heads_cannot_exceed_heads(self):
        with pytest.raises(RangeError):
            make_arch(kv_head_count=64)

    def test_inference_config_bounds(self):
        InferenceConfig(1, 1, 1, 1)
        with pytest.raises(RangeError):
            InferenceConfig(0, 1, 1, 1)
        with pytest.raises(RangeError):
            InferenceConfig(1, 1, 0, 1)

    @pytest.mark.parametrize(
        "record, change, error, message",
        [
            (make_arch(), dict(head_count=3), DivisibilityError,
             "hidden_size 4096 is not divisible by head_count 3"),
            (make_arch(), dict(kv_head_count=0), RangeError, "kv_head_count must be >= 1, got 0"),
            (InferenceConfig(1, 1, 1, 1), dict(batch_size=0), RangeError,
             "batch_size must be >= 1, got 0"),
        ],
    )
    def test_every_way_of_building_checks(self, record, change, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            dataclasses.replace(record, **change)
        with pytest.raises(error, match=f"^{message}$"):
            type(record).from_dict({**record.to_dict(), **change})
        with pytest.raises(error, match=f"^{message}$"):
            type(record)(**{**vars(record), **change})

    def test_head_dim_examples(self):
        def head_dim(**overrides):
            return node_dims(KernelKind.FUSE_ATTN, make_arch(**overrides))[4]

        assert head_dim(hidden_size=8, head_count=2, kv_head_count=2) == 4
        assert head_dim(hidden_size=32, head_count=32, kv_head_count=32) == 1

    def test_dtype_widths(self):
        assert DataType.FP32.width == 4
        assert DataType.FP16.width == 2
        assert DataType.INT8.width == 1
        assert DataType.INT8.bitwidth == 8
        assert [d.bitwidth for d in (DataType.FP32, DataType.FP16)] == [32, 16]
        for dtype in DataType:
            assert (dtype.width, dtype.bitwidth) == (dtype.value, 8 * dtype.value)


RECORD_CLASSES = (LlmArchitecture, InferenceConfig, GpuSpec)


@st.composite
def valid_records(draw):
    """A random valid architecture or request, or a catalog GPU with a random
    board power."""
    which = draw(st.sampled_from(RECORD_CLASSES))
    counts = st.integers(1, 10**6)
    if which is InferenceConfig:
        return InferenceConfig(draw(counts), draw(counts), draw(counts), draw(counts))
    if which is GpuSpec:
        gpu = draw(st.sampled_from(sorted(builtin_gpu_catalog().values(), key=repr)))
        return dataclasses.replace(gpu, power_w=draw(st.floats(1e-3, 1e4)))
    heads = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    dtypes = st.sampled_from(list(DataType))
    return LlmArchitecture(
        hidden_size=heads * draw(st.integers(1, 256)),
        intermediate_size=draw(counts),
        head_count=heads,
        kv_head_count=heads // draw(st.sampled_from([g for g in (1, 2, 4, 8) if heads % g == 0])),
        layer_count=draw(st.integers(1, 200)),
        weight_dtype=draw(dtypes),
        activation_dtype=draw(dtypes),
        kv_dtype=draw(dtypes),
        flash_attention=draw(st.booleans()),
        gated_mlp=draw(st.booleans()),
    )


class TestRecordCodec:
    @pytest.mark.parametrize("record_class", RECORD_CLASSES, ids=lambda c: c.__name__)
    def test_every_field_annotation_has_a_decoder(self, record_class):
        for field in dataclasses.fields(record_class):
            assert field.type in JSON_DECODERS, f"{record_class.__name__}.{field.name}"

    # the fields a catalog parser converts from other keys and passes in
    CATALOG_GIVEN = {LlmArchitecture: (), GpuSpec: ("name", "th_max", "bw_max", "net_max")}

    @pytest.mark.parametrize("record_class", CATALOG_GIVEN, ids=lambda c: c.__name__)
    def test_every_catalog_read_field_has_a_parser(self, record_class):
        for field in dataclasses.fields(record_class):
            if field.name not in self.CATALOG_GIVEN[record_class]:
                assert field.type in CATALOG_PARSERS, f"{record_class.__name__}.{field.name}"

    @settings(max_examples=200, deadline=None)
    @given(valid_records())
    def test_json_round_trip(self, record):
        assert type(record).from_dict(json.loads(json.dumps(record.to_dict()))) == record

    def test_writes_each_field_by_name_in_declaration_order(self):
        t4 = builtin_gpu_catalog()["t4"]
        assert list(t4.to_dict()) == [field.name for field in dataclasses.fields(GpuSpec)]
        assert t4.to_dict()["th_max"] == {dtype.name: rate for dtype, rate in t4.th_max.items()}
        arch = make_arch(kv_dtype=DataType.INT8, gated_mlp=False)
        assert arch.to_dict() == {
            "hidden_size": 4096, "intermediate_size": 11008, "head_count": 32,
            "kv_head_count": 8, "layer_count": 32, "weight_dtype": "FP16",
            "activation_dtype": "FP16", "kv_dtype": "INT8", "flash_attention": True,
            "gated_mlp": False,
        }

    def test_a_record_must_be_an_object(self):
        with pytest.raises(ConfigError, match=r"^InferenceConfig must be an object, got \[1\]$"):
            InferenceConfig.from_dict([1])


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
        for _ in range(2):
            with pytest.raises(DivisibilityError):
                enumerate_layer_kernels(dataclasses.replace(tiny_arch, head_count=3), 1)
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


DEMO = "[x]\nhidden_size = 64\nintermediate_size = 128\nhead_count = 4\n" \
       "kv_head_count = 2\nlayer_count = 2\n"


@dataclasses.dataclass(frozen=True)
class Probe(Record):
    """A record declared only here: the catalog reads it with no parser edit."""

    count: int
    scale: float = 0.5
    enabled: bool = True
    dtype: DataType = DataType.FP16


def probe_section(text: str) -> SectionReader:
    return SectionReader("p", parse_sections(f"[p]\n{text}", "p.cfg")["p"], "p.cfg")


class TestParseSections:
    def test_keeps_each_value_and_its_line(self):
        text = "# comment\n[a]\nx = 1\n\n; note\n[b]\ny = two words \n"
        assert parse_sections(text, "t.cfg") == {"a": {"x": ("1", 3)},
                                                  "b": {"y": ("two words", 7)}}

    @pytest.mark.parametrize("text, message", [
        ("[ ]\n", "t.cfg:1: empty section name"),
        ("[a]\nx = 1\n[a]\n", "t.cfg:3: duplicate section 'a'"),
        ("[a]\nx 1\n", "t.cfg:2: expected 'key = value', got 'x 1'"),
        ("x = 1\n[a]\n", "t.cfg:1: key/value pair outside any [section]"),
        ("[a]\n = 1\n", "t.cfg:2: missing key before '='"),
        ("[a]\nx = 1\nx = 2\n", "t.cfg:3: duplicate field 'x' in section 'a'"),
    ])
    def test_refuses_malformed_text_naming_source_and_line(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_sections(text, "t.cfg")


class TestFromSection:
    def test_reads_each_declared_field_under_its_name(self):
        reader = probe_section("count = 3\nscale = 2\nenabled = no\ndtype = int8\n")
        assert Probe.from_section(reader) == Probe(3, 2.0, False, DataType.INT8)

    def test_an_absent_field_takes_its_default(self):
        assert Probe.from_section(probe_section("count = 3\n")) == Probe(3)

    def test_an_undeclared_key_is_refused(self):
        with pytest.raises(ConfigError, match=r"^p\.cfg:3: unknown field 'width' in section 'p'$"):
            Probe.from_section(probe_section("count = 3\nwidth = 2\n"))

    def test_a_given_field_is_not_read(self):
        assert Probe.from_section(probe_section("scale = 4\n"), count=7) == Probe(7, 4.0)
        with pytest.raises(ConfigError, match=r"^p\.cfg:2: unknown field 'count'"):
            Probe.from_section(probe_section("count = 3\n"), count=7)


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

    @pytest.mark.parametrize("text, message", [
        ("[x]\nhidden_size = 6.5\n", "t.cfg:2: field 'hidden_size' must be an integer, got '6.5'"),
        ("[x]\nhidden_size = 64\n",
         "t.cfg: section 'x' is missing required field 'intermediate_size'"),
        (DEMO + "kv_dtype = fp8\n",
         "t.cfg:7: field 'kv_dtype' must be one of FP32, FP16, INT8, got 'fp8'"),
        (DEMO + "gated_mlp = maybe\n", "t.cfg:7: field 'gated_mlp' must be a boolean, got 'maybe'"),
        (DEMO + "bogus_field = 3\n", "t.cfg:7: unknown field 'bogus_field' in section 'x'"),
    ])
    def test_error_names_the_field(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_arch_catalog(text, source="t.cfg")

    def test_booleans_and_data_types_in_any_case(self):
        for text, flag in (("true", True), ("YES", True), ("1", True),
                           ("False", False), ("no", False), ("0", False)):
            arch = parse_arch_catalog(DEMO + f"gated_mlp = {text}\nkv_dtype = Int8\n")["x"]
            assert (arch.gated_mlp, arch.kv_dtype) == (flag, DataType.INT8)

    def test_invalid_architecture_rejected(self):
        text = "[x]\nhidden_size = 100\nintermediate_size = 8\nhead_count = 32\n" \
               "kv_head_count = 32\nlayer_count = 1\n"
        with pytest.raises(ConfigError):
            parse_arch_catalog(text)
