"""Per-kernel operation counts, memory traffic and network traffic.

Every cost is evaluated for the prefill phase (all prompt tokens at once) and
the decode phase (token-by-token generation against the KV cache) in one
call: each equation works out its phase-independent terms once, scales them
by each phase's tokens (the prompt in prefill, the tokens after the first in
decode) and returns a ``(prefill, decode)`` pair of triples.  A kernel kind's
``family`` names the equation that prices it: ``phase_costs`` dispatches on
it, and each equation that takes a kind rejects a kind of another family
with ``UnsupportedKind``.

Each quantity is a sum of integer products divided by the GPU count (and by
the /2 factors of the attention terms).  The terms are put over their common
denominator (``g`` or ``2g``), their numerators summed in plain integers,
and the sum floor-divided exactly once; that equals the floor of the exact
rational sum, so the equality tests against the brute-force counting oracle
stay free of float drift.  Decode attention attends over
(2 * prompt + gen) * gen / 2 cached positions summed over its steps, so its
terms sit over 2g; prefill attention spans the prompt, over g.

Two deliberate quirks of the cost equations are preserved rather than
silently repaired:

* the fused-attention memory total counts the KV-cache load twice and omits
  the activation store,
* linear kernels reload their weights once per generated token during decode,
  while prefill loads them a single time.

A layer's per-phase totals are summed by the walk that prices its kernels
(``roofline.cost_layer(...).totals``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .arch import (
    DataType,
    InferenceConfig,
    KernelKind,
    KernelNode,
    LlmArchitecture,
    RangeError,
    dims_quantities,
)


class UnsupportedKind(ValueError):
    """Kernel kind is not handled by the requested cost equation."""


class PartitionError(ValueError):
    """All-reduce partition dimension does not divide across the GPUs."""


class Phase(enum.Enum):
    PREFILL = "prefill"
    DECODE = "decode"


class CostTriple(NamedTuple):
    """Operation count, memory bytes and network bytes of one kernel."""

    ops: int
    mem_bytes: int
    net_bytes: int

    def is_zero(self) -> bool:
        return self.ops == 0 and self.mem_bytes == 0 and self.net_bytes == 0


# The equations build each triple as ``_new_tuple(CostTriple, (ops, mem, net))``,
# which skips the named tuple's own constructor frame and takes half its time.
_new_tuple = tuple.__new__

# elementwise kind -> its ops per element and its (prefill, decode) memory
# streams per element: ACT_MLP's decode total triples the (doubled) load
# stream, its prefill sums the load and store streams as written
_ELEMENTWISE = {
    KernelKind.NORM_ATTN: (7, 2, 2),
    KernelKind.NORM_MLP: (7, 2, 2),
    KernelKind.ADD_ATTN: (1, 2, 2),
    KernelKind.ADD_MLP: (1, 2, 2),
    KernelKind.ACT_MLP: (2, 3, 6),
}


@dataclass(frozen=True)
class LayerTotals:
    """Component-wise cost sums over every kernel of one layer, per phase."""

    prefill: CostTriple
    decode: CostTriple


def linear_cost(
    kind: KernelKind, arch: LlmArchitecture, cfg: InferenceConfig
) -> tuple[CostTriple, CostTriple]:
    """Projection / MLP GEMM cost, (prefill, decode).

    Memory is weight load + activation load + one store stream.  Only K and V
    projections store plain activations; every other linear kernel stores into
    the KV cache instead (the roles differ only when the activation and
    KV-cache data types differ).
    """
    if kind.family != "linear":
        raise UnsupportedKind(f"{kind.name} is not a linear kernel")
    d_in, d_out = kind.pick_dims(dims_quantities(arch))[:2]  # node_dims, one call fewer
    b = cfg.batch_size
    g = cfg.gpu_count
    d_a = arch.activation_dtype.width
    d_store = d_a if kind.stores_activation else arch.kv_dtype.width
    t_pre, t_dec = cfg.prompt_length, cfg.generated_tokens - 1

    ops = 2 * b * d_in * d_out  # per token
    m_weight = d_in * d_out * arch.weight_dtype.width
    m_stream = (d_in * d_a + d_out * d_store) * b  # activation load + store, per token
    return (_new_tuple(CostTriple, (ops * t_pre // g, (m_weight + m_stream * t_pre) // g, 0)),
            _new_tuple(CostTriple, (ops * t_dec // g, (m_weight + m_stream) * t_dec // g, 0)))


def attention_matmul_cost(
    kind: KernelKind, arch: LlmArchitecture, cfg: InferenceConfig
) -> tuple[CostTriple, CostTriple]:
    """Score (QK) or value (SV) matmul of the unfused attention variant, (prefill, decode)."""
    if kind.family != "attention_matmul":
        raise UnsupportedKind(f"{kind.name} is not an attention matmul kernel")
    b = cfg.batch_size
    n_h = arch.head_count
    d_h = arch.hidden_size // n_h
    p, gen, g = cfg.prompt_length, cfg.generated_tokens, cfg.gpu_count
    span = (2 * p + gen) * gen  # decode's attended positions, over 2g

    ops = 2 * b * d_h * n_h  # per attended position
    mem = (2 * b * n_h * arch.activation_dtype.width  # act load + store, KV load
           + b * d_h * arch.kv_head_count * arch.kv_dtype.width)
    return (_new_tuple(CostTriple, (ops * p // g, mem * p // g, 0)),
            _new_tuple(CostTriple, (ops * span // (2 * g), mem * span // (2 * g), 0)))


def softmax_cost(arch: LlmArchitecture, cfg: InferenceConfig) -> tuple[CostTriple, CostTriple]:
    """Softmax over attention scores (unfused variant only), (prefill, decode)."""
    units = cfg.batch_size * arch.head_count  # per attended position
    p, gen, g = cfg.prompt_length, cfg.generated_tokens, cfg.gpu_count
    span = (2 * p + gen) * gen  # decode's attended positions, over 2g
    ops, mem = 5 * units, 2 * units * arch.activation_dtype.width  # memory: act load + store
    return (_new_tuple(CostTriple, (ops * p // g, mem * p // g, 0)),
            _new_tuple(CostTriple, (ops * span // (2 * g), mem * span // (2 * g), 0)))


def fused_attention_cost(
    arch: LlmArchitecture, cfg: InferenceConfig, gpu_s_block: int
) -> tuple[CostTriple, CostTriple]:
    """Fused (flash) attention kernel cost, (prefill, decode).

    Operation count is the unfused matmul+softmax total (times the prompt
    length in prefill).  The memory total follows the faithful accounting:
    activation load plus the KV-cache load counted twice, with no
    activation-store term.  `gpu_s_block` is a ``GpuSpec.s_block``, which the
    GPU record holds at 1 or more.
    """
    b = cfg.batch_size
    n_h = arch.head_count
    d_h = arch.hidden_size // n_h
    p, gen, g = cfg.prompt_length, cfg.generated_tokens, cfg.gpu_count
    span = (2 * p + gen) * gen  # decode's attended positions, over 2g

    ops = (4 * d_h + 5) * b * n_h  # per position: twice the matmuls, plus the softmax
    m_act = d_h * b * n_h * arch.activation_dtype.width  # per token, over g (so twice over 2g)
    # per position: the KV-cache load, counted twice
    m_kv = 4 * b * gpu_s_block * d_h * arch.kv_head_count * arch.kv_dtype.width
    return (_new_tuple(CostTriple, (ops * p * p // g, (m_act + m_kv) * p // g, 0)),
            _new_tuple(CostTriple, (ops * span // (2 * g),
                                    (2 * m_act * (gen - 1) + m_kv * span) // (2 * g), 0)))


def elementwise_cost(
    kind: KernelKind, arch: LlmArchitecture, cfg: InferenceConfig
) -> tuple[CostTriple, CostTriple]:
    """Normalization, residual-add and MLP-activation kernels, (prefill, decode)."""
    if kind.family != "elementwise":
        raise UnsupportedKind(f"{kind.name} is not an elementwise kernel")
    ops, mem_pre, mem_dec = _ELEMENTWISE[kind]
    units = cfg.batch_size * arch.hidden_size  # elements per token
    stream = units * arch.activation_dtype.width
    t_pre, t_dec, g = cfg.prompt_length, cfg.generated_tokens - 1, cfg.gpu_count
    return (_new_tuple(CostTriple, (ops * units * t_pre // g, mem_pre * stream * t_pre // g, 0)),
            _new_tuple(CostTriple, (ops * units * t_dec // g, mem_dec * stream * t_dec // g, 0)))


def check_partition(n: int, l: int) -> None:
    """n rows split evenly across l GPUs, or PartitionError."""
    if n % l != 0:
        raise PartitionError(f"partition dim {n} is not divisible by gpu count {l}")


def allreduce_cost(
    n: int, m: int, l: int, cfg: InferenceConfig, d_a: DataType
) -> tuple[CostTriple, CostTriple]:
    """All-reduce of an n x m matrix partitioned row-wise across l GPUs, (prefill, decode).

    Operations happen in the reduce-scatter step; network bytes cover the
    ring exchange of the partitions, per token processed in the phase.
    """
    if l < 2:
        raise RangeError(f"all-reduce needs at least 2 GPUs, got {l}")
    check_partition(n, l)
    width = d_a.width
    pre = n * m * cfg.prompt_length
    dec = n * m * (cfg.generated_tokens - 1)
    return (_new_tuple(CostTriple, (pre // l, 2 * pre * width // l, pre * (l - 1) * width // l)),
            _new_tuple(CostTriple, (dec // l, 2 * dec * width // l, dec * (l - 1) * width // l)))


def phase_costs(
    node: KernelNode, arch: LlmArchitecture, cfg: InferenceConfig, gpu_s_block: int
) -> tuple[CostTriple, CostTriple]:
    """The (prefill, decode) costs of a kernel node, from the cost equation
    its kind's family names; the equations are called through their module
    names."""
    kind = node.kind
    family = kind.family
    if family == "linear":
        return linear_cost(kind, arch, cfg)
    if family == "elementwise":
        return elementwise_cost(kind, arch, cfg)
    if family == "allreduce":
        # reduced matrix is the per-token activation block: hidden x batch
        return allreduce_cost(
            arch.hidden_size, cfg.batch_size, cfg.gpu_count, cfg, arch.activation_dtype
        )
    if family == "fused_attention":
        if not arch.flash_attention:
            raise UnsupportedKind("fuse_attn kernel in a non-flash-attention architecture")
        return fused_attention_cost(arch, cfg, gpu_s_block)
    # the unfused attention kernels
    if arch.flash_attention:
        raise UnsupportedKind(f"{kind.name} kernel in a flash-attention architecture")
    if family == "softmax":
        return softmax_cost(arch, cfg)
    return attention_matmul_cost(kind, arch, cfg)


def kernel_cost(
    node: KernelNode, arch: LlmArchitecture, cfg: InferenceConfig, gpu_s_block: int, phase: Phase
) -> CostTriple:
    """The cost of a kernel node in `phase`: that phase's element of ``phase_costs``."""
    prefill, decode = phase_costs(node, arch, cfg, gpu_s_block)
    return decode if phase is Phase.DECODE else prefill
