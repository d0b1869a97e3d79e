"""LLM architectures, inference requests, and the kernel DAG of one transformer layer.

A transformer layer is modelled as a directed acyclic graph of typed kernels.
Two layer variants exist: with fused (flash) attention the whole attention
computation is one kernel, without it the score matmul, softmax and value
matmul appear as separate kernels.  When the layer runs tensor-parallel across
two or more GPUs, an all-reduce kernel follows each of the two GEMM blocks.
A graph is pure topology: its nodes carry a kind and an id, and a kernel's
dimensions come from ``node_dims(kind, arch)``.  So there is one graph per
(attention, MLP, TP>=2) topology, at most eight, each built once and shared.

What a kernel's kind decides (its one-hot position, its cost-equation family,
its dims slots and the all-reduce and K/V store flags) is written once, in
the ``KernelKind`` table, and carried by each kind as plain attributes.
"""

from __future__ import annotations

import enum
import functools
import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass, fields

from .kvfile import ConfigError, SectionReader, parse_sections


class RangeError(ValueError):
    """A count or size field is outside its allowed range; ``field`` names
    the field when the error is about one alone."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_minimums(record, minimums: tuple[tuple[str, int], ...]) -> None:
    """Refuse the first of `record`'s fields below its least value, given as
    (field name, least value) pairs, with a RangeError naming that field."""
    for name, least in minimums:
        if getattr(record, name) < least:
            raise RangeError(f"{name} must be >= {least}, got {getattr(record, name)}",
                             field=name)


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


def dtype_named(name: str) -> DataType:
    """The data type called exactly `name`, as dataset and checkpoint files write it."""
    try:
        return DataType[name]
    except KeyError:
        raise ConfigError(f"unknown data type '{name}'") from None


def _shown(value) -> str:
    """A value as JSON text, for an error message."""
    return json.dumps(value, default=repr)


def _json_typed(json_types: tuple[type, ...], what: str):
    """A decoder that passes a value of one of `json_types` as it is (by exact
    type, so a bool is not an integer) and refuses any other, naming the field."""

    def decode(name: str, value):
        if type(value) not in json_types:
            raise ConfigError(f"field '{name}' must be {what}, got {_shown(value)}")
        return value

    return decode


_json_number = _json_typed((int, float), "a number")
_json_str = _json_typed((str,), "a string")
_json_object = _json_typed((dict,), "an object")

# field annotation -> decoder(field name, JSON value) -> field value
JSON_DECODERS = {
    "int": _json_typed((int,), "an integer"),
    "float": lambda name, value: float(_json_number(name, value)),
    "bool": _json_typed((bool,), "true or false"),
    "str": _json_str,
    "DataType": lambda name, value: dtype_named(_json_str(name, value)),
    "Mapping[DataType, float]": lambda name, value: {
        dtype_named(key): JSON_DECODERS["float"](f"{name}.{key}", rate)
        for key, rate in _json_object(name, value).items()
    },
}


def check_keys(obj, keys: tuple[str, ...], what: str, optional: tuple[str, ...] = ()) -> None:
    """Refuse `obj` unless it is a JSON object holding each of `keys`, and
    of `optional` any or none, and nothing else: a ConfigError names `what`,
    and the first undefined key (before any missing one) or missing key."""
    if type(obj) is not dict:
        raise ConfigError(f"{what} must be an object, got {_shown(obj)}")
    defined = (*keys, *optional)
    for key in obj:
        if key not in defined:
            raise ConfigError(f"{what} has an undefined key '{key}' "
                              f"(the keys are {', '.join(defined)})")
    for key in keys:
        if key not in obj:
            raise ConfigError(f"{what} has no key '{key}'")


def _any_case(table: dict):
    """A catalog parser that looks its text up in `table`, in any case."""

    def parse(text: str):
        try:
            return table[text.lower()]
        except KeyError:
            raise ValueError(text) from None

    return parse


# field annotation -> (parser of a catalog value's text, what that text must be)
CATALOG_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (_any_case({"true": True, "yes": True, "1": True,
                        "false": False, "no": False, "0": False}), "a boolean"),
    "DataType": (_any_case({dtype.name.lower(): dtype for dtype in DataType}),
                 "one of " + ", ".join(DataType.__members__)),
}


def _encode(value):
    """A field value as its JSON record writes it."""
    if isinstance(value, DataType):
        return value.name
    if isinstance(value, Mapping):  # th_max: data type -> rate
        return {dtype.name: rate for dtype, rate in value.items()}
    return value


class Record:
    """A frozen dataclass that reads JSON and catalog sections, and writes
    JSON, from its own fields.

    ``to_dict`` writes each field under its name, in declaration order.
    ``from_dict`` takes exactly those keys, each a JSON value of its field's
    annotation (see ``JSON_DECODERS``), and builds the record, which then
    checks itself; a missing, undefined (see ``check_keys``) or mistyped key
    is a ``ConfigError`` naming it.  ``from_section`` reads a catalog section
    the same way, each field's text decoded by ``CATALOG_PARSERS`` and an
    absent key taking the field's declared default.  Adding a field to a record means declaring it,
    nothing more: its JSON key and its catalog key follow.
    """

    def to_dict(self) -> dict:
        return {field.name: _encode(getattr(self, field.name)) for field in fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        decoders = {field.name: JSON_DECODERS[field.type] for field in fields(cls)}
        check_keys(d, tuple(decoders), cls.__name__)
        return cls(**{name: decode(name, d[name]) for name, decode in decoders.items()})

    @classmethod
    def from_section(cls, reader: SectionReader, **given):
        """The record one catalog section describes.  Each field not in
        `given` is read under its own name, decoded by its annotation's
        ``CATALOG_PARSERS`` entry, and takes the field's default when the key
        is absent; a key left unread is refused, and a record that fails its
        own checks is reported with its section."""
        values = dict(given)
        for field in fields(cls):
            if field.name not in given:
                values[field.name] = reader.get(field.name, *CATALOG_PARSERS[field.type],
                                                field.default)
        reader.reject_unknown()
        try:
            return cls(**values)
        except (RangeError, DivisibilityError) as exc:
            raise ConfigError(f"{reader.source}: section '{reader.name}': {exc}") from exc


# A kernel's dims vector has six slots (see node_dims); a kind's row names
# the architecture quantity in each, as an index into the tuple node_dims
# builds.  _ZERO pads the slots a kernel does not use.
_ZERO, _HIDDEN, _INTER, _HEAD_DIM, _KV_OUT, _HEADS, _KV_HEADS = range(7)
_HIDDEN_ACT = (_HIDDEN, _HIDDEN, _ZERO, _ZERO, _ZERO, _ZERO)  # hidden-size activations
_KV_PROJ = (_HIDDEN, _KV_OUT, _HIDDEN, _KV_OUT, _ZERO, _KV_HEADS)
_UP_PROJ = (_HIDDEN, _INTER, _HIDDEN, _INTER, _ZERO, _ZERO)
_ATTN_MATMUL = (_HIDDEN, _HIDDEN, _ZERO, _ZERO, _HEAD_DIM, _HEADS)


class KernelKind(enum.Enum):
    """Fixed kernel vocabulary, one row per kind: its name (the enum value),
    the family of cost equations that prices it and its six dims slots.

    Each kind carries what its row decides as plain attributes, set once here,
    since the cost equations and the features read them per kernel: ``index``
    (its one-hot position, which is declaration order), ``family``,
    ``pick_dims`` (the dims slot getter of ``node_dims``), ``is_allreduce``
    (it roofs against the interconnect) and ``stores_activation`` (a linear
    kernel whose store stream is plain activations, not the KV cache).
    """

    NORM_ATTN = ("norm_attn", "elementwise", _HIDDEN_ACT)
    Q_PROJ = ("q_proj", "linear", (_HIDDEN, _HIDDEN, _HIDDEN, _HIDDEN, _ZERO, _HEADS))
    K_PROJ = ("k_proj", "linear", _KV_PROJ)
    V_PROJ = ("v_proj", "linear", _KV_PROJ)
    FUSE_ATTN = ("fuse_attn", "fused_attention", _ATTN_MATMUL)
    MATMUL_QK = ("matmul_qk", "attention_matmul", _ATTN_MATMUL)
    SOFTMAX = ("softmax", "softmax", (_HIDDEN, _HIDDEN, _ZERO, _ZERO, _ZERO, _HEADS))
    MATMUL_SV = ("matmul_sv", "attention_matmul", _ATTN_MATMUL)
    OUT_PROJ = ("out_proj", "linear", (_HIDDEN, _HIDDEN, _HIDDEN, _HIDDEN, _ZERO, _ZERO))
    ADD_ATTN = ("add_attn", "elementwise", _HIDDEN_ACT)
    NORM_MLP = ("norm_mlp", "elementwise", _HIDDEN_ACT)
    GATE_PROJ = ("gate_proj", "linear", _UP_PROJ)
    UP_PROJ = ("up_proj", "linear", _UP_PROJ)
    ACT_MLP = ("act_mlp", "elementwise", (_INTER, _INTER, _ZERO, _ZERO, _ZERO, _ZERO))
    DOWN_PROJ = ("down_proj", "linear", (_INTER, _HIDDEN, _INTER, _HIDDEN, _ZERO, _ZERO))
    ADD_MLP = ("add_mlp", "elementwise", _HIDDEN_ACT)
    ALL_REDUCE = ("all_reduce", "allreduce", _HIDDEN_ACT)

    def __new__(cls, value: str, family: str, slots: tuple[int, ...]):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.index = len(cls.__members__)
        kind.family = family
        kind.pick_dims = operator.itemgetter(*slots)
        kind.is_allreduce = family == "allreduce"
        kind.stores_activation = value in ("k_proj", "v_proj")
        return kind


KIND_ORDER = tuple(KernelKind)


@dataclass(frozen=True)
class LlmArchitecture(Record):
    """Structural description of a decoder-only LLM (one repeated layer);
    an invalid one cannot be built."""

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

    def __post_init__(self):
        check_minimums(self, (("hidden_size", 1), ("intermediate_size", 1), ("head_count", 1),
                              ("kv_head_count", 1), ("layer_count", 1)))
        if self.hidden_size % self.head_count != 0:
            raise DivisibilityError(
                f"hidden_size {self.hidden_size} is not divisible by head_count {self.head_count}"
            )
        if self.kv_head_count > self.head_count:
            raise RangeError(
                f"kv_head_count {self.kv_head_count} exceeds head_count {self.head_count}"
            )
        if self.head_count % self.kv_head_count != 0:
            raise DivisibilityError(f"head_count {self.head_count} is not divisible by "
                                    f"kv_head_count {self.kv_head_count}")


@dataclass(frozen=True)
class InferenceConfig(Record):
    """One inference request: batch size, prompt length, generation length, GPUs;
    every count is at least 1."""

    batch_size: int
    prompt_length: int
    generated_tokens: int
    gpu_count: int = 1

    def __post_init__(self):
        check_minimums(self, (("batch_size", 1), ("prompt_length", 1), ("generated_tokens", 1),
                              ("gpu_count", 1)))


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


def node_dims(kind: KernelKind, arch: LlmArchitecture) -> tuple[int, int, int, int, int, int]:
    """A kernel's fixed 6-slot dims vector (in_dim, out_dim, weight_rows,
    weight_cols, head_dim, head_count), zero-padded for slots the kernel does
    not use; a linear kernel's first two are its weight matrix's (input,
    output) dimensions."""
    return kind.pick_dims(dims_quantities(arch))


def dims_quantities(arch: LlmArchitecture) -> tuple[int, int, int, int, int, int, int]:
    """The architecture quantities a kind's dims slots index, in slot-name
    order (_ZERO, _HIDDEN, ...); a caller that reads many kernels' dims
    builds them once and hands them to each ``kind.pick_dims``."""
    d_h = arch.hidden_size // arch.head_count
    return (0, arch.hidden_size, arch.intermediate_size, d_h, d_h * arch.kv_head_count,
            arch.head_count, arch.kv_head_count)


def enumerate_layer_kernels(arch: LlmArchitecture, n_gpu: int) -> KernelGraph:
    """The kernel DAG of one transformer layer of `arch` on `n_gpu` GPUs.

    All-reduce kernels are present only when n_gpu >= 2: with a single GPU
    there is no tensor parallelism and no communication step at all.
    Residual-path edges run from the attention-input juncture (norm_attn) to
    add_attn, and from add_attn to add_mlp.  Arguments of one topology return
    the same shared, immutable graph; an invalid GPU count raises on every call.
    """
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


def parse_arch_catalog(text: str, source: str = "<arch catalog>") -> dict[str, LlmArchitecture]:
    """Parse an architecture catalog file: one [section] per architecture."""
    return {name: LlmArchitecture.from_section(SectionReader(name, fields, source))
            for name, fields in parse_sections(text, source).items()}


def load_arch_catalog(path) -> dict[str, LlmArchitecture]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_arch_catalog(handle.read(), source=str(path))
