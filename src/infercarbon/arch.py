"""LLM architectures, inference requests, and the kernel DAG of one transformer layer.

A transformer layer is modelled as a directed acyclic graph of typed kernels.
Two layer variants exist: with fused (flash) attention the whole attention
computation is one kernel, without it the score matmul, softmax and value
matmul appear as separate kernels.  When the layer runs tensor-parallel across
two or more GPUs, an all-reduce kernel follows each of the two GEMM blocks.
A graph is pure topology: its nodes carry a kind and an id, and a kernel's
dimensions come from ``node_dims(kind, arch)``.  So there is one graph per
(attention, MLP, TP>=2) topology, at most eight, each built once and shared.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

from .kvfile import ConfigError, SectionReader, parse_sections


class RangeError(ValueError):
    """A count or size field is outside its allowed range."""


class DivisibilityError(ValueError):
    """A dimension does not divide evenly (head dim, KV grouping, partitioning)."""


class DataType(enum.Enum):
    """Element storage formats; the enum value is the width in bytes."""

    FP32 = 4
    FP16 = 2
    INT8 = 1

    def __init__(self, width: int):
        # plain attributes: the cost equations read them per kernel
        self.width = width
        self.bitwidth = 8 * width


def parse_dtype(name: str) -> DataType:
    try:
        return DataType[name.strip().upper()]
    except KeyError:
        raise ConfigError(f"unknown data type '{name}' (expected FP32, FP16 or INT8)") from None


class KernelKind(enum.Enum):
    """Fixed kernel vocabulary; declaration order defines the one-hot layout."""

    NORM_ATTN = "norm_attn"
    Q_PROJ = "q_proj"
    K_PROJ = "k_proj"
    V_PROJ = "v_proj"
    FUSE_ATTN = "fuse_attn"
    MATMUL_QK = "matmul_qk"
    SOFTMAX = "softmax"
    MATMUL_SV = "matmul_sv"
    OUT_PROJ = "out_proj"
    ADD_ATTN = "add_attn"
    NORM_MLP = "norm_mlp"
    GATE_PROJ = "gate_proj"
    UP_PROJ = "up_proj"
    ACT_MLP = "act_mlp"
    DOWN_PROJ = "down_proj"
    ADD_MLP = "add_mlp"
    ALL_REDUCE = "all_reduce"


KIND_ORDER = tuple(KernelKind)

LINEAR_KINDS = frozenset(
    {
        KernelKind.Q_PROJ,
        KernelKind.K_PROJ,
        KernelKind.V_PROJ,
        KernelKind.OUT_PROJ,
        KernelKind.GATE_PROJ,
        KernelKind.UP_PROJ,
        KernelKind.DOWN_PROJ,
    }
)

ATTN_MATMUL_KINDS = frozenset({KernelKind.MATMUL_QK, KernelKind.MATMUL_SV})

ELEMENTWISE_KINDS = frozenset(
    {
        KernelKind.NORM_ATTN,
        KernelKind.NORM_MLP,
        KernelKind.ADD_ATTN,
        KernelKind.ADD_MLP,
        KernelKind.ACT_MLP,
    }
)


@dataclass(frozen=True)
class LlmArchitecture:
    """Structural description of a decoder-only LLM (one repeated layer)."""

    hidden_size: int
    intermediate_size: int
    head_count: int
    kv_head_count: int
    layer_count: int
    weight_dtype: DataType = DataType.FP16
    activation_dtype: DataType = DataType.FP16
    kv_dtype: DataType = DataType.FP16
    flash_attention: bool = True
    gated_mlp: bool = True

    def to_dict(self) -> dict:
        return {
            "hidden_size": self.hidden_size,
            "intermediate_size": self.intermediate_size,
            "head_count": self.head_count,
            "kv_head_count": self.kv_head_count,
            "layer_count": self.layer_count,
            "weight_dtype": self.weight_dtype.name,
            "activation_dtype": self.activation_dtype.name,
            "kv_dtype": self.kv_dtype.name,
            "flash_attention": self.flash_attention,
            "gated_mlp": self.gated_mlp,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LlmArchitecture":
        return cls(
            hidden_size=int(d["hidden_size"]),
            intermediate_size=int(d["intermediate_size"]),
            head_count=int(d["head_count"]),
            kv_head_count=int(d["kv_head_count"]),
            layer_count=int(d["layer_count"]),
            weight_dtype=DataType[d["weight_dtype"]],
            activation_dtype=DataType[d["activation_dtype"]],
            kv_dtype=DataType[d["kv_dtype"]],
            flash_attention=bool(d["flash_attention"]),
            gated_mlp=bool(d["gated_mlp"]),
        )


@dataclass(frozen=True)
class InferenceConfig:
    """One inference request: batch size, prompt length, generation length, GPUs."""

    batch_size: int
    prompt_length: int
    generated_tokens: int
    gpu_count: int = 1

    def to_dict(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "prompt_length": self.prompt_length,
            "generated_tokens": self.generated_tokens,
            "gpu_count": self.gpu_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InferenceConfig":
        return cls(
            batch_size=int(d["batch_size"]),
            prompt_length=int(d["prompt_length"]),
            generated_tokens=int(d["generated_tokens"]),
            gpu_count=int(d["gpu_count"]),
        )


def validate_architecture(arch: LlmArchitecture) -> LlmArchitecture:
    """Check all architecture invariants; returns the architecture unchanged."""
    for name in ("hidden_size", "intermediate_size", "head_count", "kv_head_count", "layer_count"):
        value = getattr(arch, name)
        if value < 1:
            raise RangeError(f"{name} must be >= 1, got {value}")
    if arch.hidden_size % arch.head_count != 0:
        raise DivisibilityError(
            f"hidden_size {arch.hidden_size} is not divisible by head_count {arch.head_count}"
        )
    if arch.kv_head_count > arch.head_count:
        raise RangeError(
            f"kv_head_count {arch.kv_head_count} exceeds head_count {arch.head_count}"
        )
    if arch.head_count % arch.kv_head_count != 0:
        raise DivisibilityError(
            f"head_count {arch.head_count} is not divisible by kv_head_count {arch.kv_head_count}"
        )
    return arch


def validate_inference(cfg: InferenceConfig) -> InferenceConfig:
    """Check all inference-request invariants; returns the config unchanged."""
    for name in ("batch_size", "prompt_length", "generated_tokens", "gpu_count"):
        value = getattr(cfg, name)
        if value < 1:
            raise RangeError(f"{name} must be >= 1, got {value}")
    return cfg


def derive_head_dim(arch: LlmArchitecture) -> int:
    """Attention head dimension: hidden size divided by the number of heads."""
    validate_architecture(arch)
    return arch.hidden_size // arch.head_count


@dataclass(frozen=True)
class KernelNode:
    """One kernel in the layer graph."""

    kind: KernelKind
    id: int


@dataclass(frozen=True)
class KernelGraph:
    """Directed acyclic kernel graph of one transformer layer; every edge
    runs from a lower node id to a higher one."""

    nodes: tuple[KernelNode, ...]
    edges: tuple[tuple[int, int], ...]


# node_dims runs for every node of every request, so it reads each slot from
# a table rather than testing the kind.  An entry names the architecture
# quantity in each of a kernel's six slots, as an index into the tuple
# node_dims builds; _ZERO pads the slots a kernel does not use.
_ZERO, _HIDDEN, _INTER, _HEAD_DIM, _KV_OUT, _HEADS, _KV_HEADS = range(7)
_SLOT_SOURCES = {
    KernelKind.Q_PROJ: (_HIDDEN, _HIDDEN, _HIDDEN, _HIDDEN, _ZERO, _HEADS),
    **dict.fromkeys((KernelKind.K_PROJ, KernelKind.V_PROJ),
                    (_HIDDEN, _KV_OUT, _HIDDEN, _KV_OUT, _ZERO, _KV_HEADS)),
    KernelKind.OUT_PROJ: (_HIDDEN, _HIDDEN, _HIDDEN, _HIDDEN, _ZERO, _ZERO),
    **dict.fromkeys((KernelKind.GATE_PROJ, KernelKind.UP_PROJ),
                    (_HIDDEN, _INTER, _HIDDEN, _INTER, _ZERO, _ZERO)),
    KernelKind.DOWN_PROJ: (_INTER, _HIDDEN, _INTER, _HIDDEN, _ZERO, _ZERO),
    **dict.fromkeys((KernelKind.FUSE_ATTN, KernelKind.MATMUL_QK, KernelKind.MATMUL_SV),
                    (_HIDDEN, _HIDDEN, _ZERO, _ZERO, _HEAD_DIM, _HEADS)),
    KernelKind.SOFTMAX: (_HIDDEN, _HIDDEN, _ZERO, _ZERO, _ZERO, _HEADS),
    KernelKind.ACT_MLP: (_INTER, _INTER, _ZERO, _ZERO, _ZERO, _ZERO),
    # norm / residual-add / all-reduce operate on hidden-size activations
    **dict.fromkeys((KernelKind.NORM_ATTN, KernelKind.ADD_ATTN, KernelKind.NORM_MLP,
                     KernelKind.ADD_MLP, KernelKind.ALL_REDUCE),
                    (_HIDDEN, _HIDDEN, _ZERO, _ZERO, _ZERO, _ZERO)),
}
_SLOTS_OF = {kind: operator.itemgetter(*slots) for kind, slots in _SLOT_SOURCES.items()}


def node_dims(kind: KernelKind, arch: LlmArchitecture) -> tuple[int, int, int, int, int, int]:
    """A kernel's fixed 6-slot dims vector (in_dim, out_dim, weight_rows,
    weight_cols, head_dim, head_count), zero-padded for slots the kernel does
    not use; a linear kernel's first two are its weight matrix's (input,
    output) dimensions."""
    d_h = arch.hidden_size // arch.head_count
    return _SLOTS_OF[kind]((0, arch.hidden_size, arch.intermediate_size, d_h,
                            d_h * arch.kv_head_count, arch.head_count, arch.kv_head_count))


def enumerate_layer_kernels(arch: LlmArchitecture, n_gpu: int) -> KernelGraph:
    """The kernel DAG of one transformer layer of `arch` on `n_gpu` GPUs.

    All-reduce kernels are present only when n_gpu >= 2: with a single GPU
    there is no tensor parallelism and no communication step at all.
    Residual-path edges run from the attention-input juncture (norm_attn) to
    add_attn, and from add_attn to add_mlp.  Arguments of one topology return
    the same shared, immutable graph; invalid ones raise on every call.
    """
    validate_architecture(arch)
    if n_gpu < 1:
        raise RangeError(f"n_gpu must be >= 1, got {n_gpu}")
    return _layer_graph(arch.flash_attention, arch.gated_mlp, n_gpu >= 2)


@functools.cache
def _layer_graph(flash_attention: bool, gated_mlp: bool, tensor_parallel: bool) -> KernelGraph:
    """The layer graph of one topology; node ids follow insertion order, so
    each edge is added after both of its ends."""
    nodes: list[KernelNode] = []
    edges: list[tuple[int, int]] = []

    def add(kind: KernelKind) -> int:
        node = KernelNode(kind=kind, id=len(nodes))
        nodes.append(node)
        return node.id

    norm_attn = add(KernelKind.NORM_ATTN)
    q = add(KernelKind.Q_PROJ)
    k = add(KernelKind.K_PROJ)
    v = add(KernelKind.V_PROJ)
    edges += [(norm_attn, q), (norm_attn, k), (norm_attn, v)]

    if flash_attention:
        fuse = add(KernelKind.FUSE_ATTN)
        edges += [(q, fuse), (k, fuse), (v, fuse)]
        attn_tail = fuse
    else:
        qk = add(KernelKind.MATMUL_QK)
        edges += [(q, qk), (k, qk)]
        sm = add(KernelKind.SOFTMAX)
        edges.append((qk, sm))
        sv = add(KernelKind.MATMUL_SV)
        edges += [(sm, sv), (v, sv)]
        attn_tail = sv

    out = add(KernelKind.OUT_PROJ)
    edges.append((attn_tail, out))
    tail = out
    if tensor_parallel:
        allr = add(KernelKind.ALL_REDUCE)
        edges.append((tail, allr))
        tail = allr

    add_attn = add(KernelKind.ADD_ATTN)
    edges += [(tail, add_attn), (norm_attn, add_attn)]

    norm_mlp = add(KernelKind.NORM_MLP)
    edges.append((add_attn, norm_mlp))

    act_inputs: list[int] = []
    if gated_mlp:
        gate = add(KernelKind.GATE_PROJ)
        edges.append((norm_mlp, gate))
        act_inputs.append(gate)
    up = add(KernelKind.UP_PROJ)
    edges.append((norm_mlp, up))
    act_inputs.append(up)

    act = add(KernelKind.ACT_MLP)
    edges += [(src, act) for src in act_inputs]
    down = add(KernelKind.DOWN_PROJ)
    edges.append((act, down))
    tail = down
    if tensor_parallel:
        allr = add(KernelKind.ALL_REDUCE)
        edges.append((tail, allr))
        tail = allr

    add_mlp = add(KernelKind.ADD_MLP)
    edges += [(tail, add_mlp), (add_attn, add_mlp)]

    return KernelGraph(nodes=tuple(nodes), edges=tuple(edges))


_ARCH_FIELDS = (
    "hidden_size",
    "intermediate_size",
    "head_count",
    "kv_head_count",
    "layer_count",
    "weight_dtype",
    "activation_dtype",
    "kv_dtype",
    "flash_attention",
    "gated_mlp",
)


def parse_arch_catalog(text: str, source: str = "<arch catalog>") -> dict[str, LlmArchitecture]:
    """Parse an architecture catalog file: one [section] per architecture."""
    catalog: dict[str, LlmArchitecture] = {}
    for name, fields in parse_sections(text, source).items():
        reader = SectionReader(name, fields, source)
        arch = LlmArchitecture(
            hidden_size=reader.get_int("hidden_size"),
            intermediate_size=reader.get_int("intermediate_size"),
            head_count=reader.get_int("head_count"),
            kv_head_count=reader.get_int("kv_head_count"),
            layer_count=reader.get_int("layer_count"),
            weight_dtype=parse_dtype(reader.get_str("weight_dtype", "FP16")),
            activation_dtype=parse_dtype(reader.get_str("activation_dtype", "FP16")),
            kv_dtype=parse_dtype(reader.get_str("kv_dtype", "FP16")),
            flash_attention=reader.get_bool("flash_attention", True),
            gated_mlp=reader.get_bool("gated_mlp", True),
        )
        reader.reject_unknown()
        try:
            validate_architecture(arch)
        except (RangeError, DivisibilityError) as exc:
            raise ConfigError(f"{source}: section '{name}': {exc}") from exc
        catalog[name] = arch
    return catalog


def load_arch_catalog(path) -> dict[str, LlmArchitecture]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_arch_catalog(handle.read(), source=str(path))
