"""Per-kernel operation counts, memory traffic and network traffic.

Every cost is evaluated for the prefill phase (all prompt tokens at once) and
the decode phase (token-by-token generation against the KV cache).  A kernel
kind's ``family`` names the equation that prices it: ``kernel_cost``
dispatches on it, and each equation that takes a kind rejects a kind of
another family with ``UnsupportedKind``.

Each quantity is a sum of integer products divided by the GPU count (and by
the /2 factors of the attention terms).  The terms are put over their common
denominator (``g`` or ``2g``), their numerators summed in plain integers,
and the sum floor-divided exactly once; that equals the floor of the exact
rational sum, so the equality tests against the brute-force counting oracle
stay free of float drift.

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
    node_dims,
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


# The equations run once per kernel and phase, and a module-level name loads
# several times faster than an enum class attribute.
_PREFILL, _DECODE = Phase.PREFILL, Phase.DECODE
_NORMS = (KernelKind.NORM_ATTN, KernelKind.NORM_MLP)
_ADDS = (KernelKind.ADD_ATTN, KernelKind.ADD_MLP)


@dataclass(frozen=True)
class LayerTotals:
    """Component-wise cost sums over every kernel of one layer, per phase."""

    prefill: CostTriple
    decode: CostTriple


def _token_factor(cfg: InferenceConfig, phase: Phase) -> int:
    # decode iterates over the generated tokens after the first; prefill over
    # the whole prompt
    if phase is _DECODE:
        return cfg.generated_tokens - 1
    return cfg.prompt_length


def _attention_span(cfg: InferenceConfig, phase: Phase) -> tuple[int, int]:
    """(span, denominator) of the attention terms.  Decode attends over
    (2 * prompt + gen) * gen / 2 cached positions summed over its steps, so
    its terms sit over 2g; prefill spans the prompt, over g."""
    if phase is _DECODE:
        gen = cfg.generated_tokens
        return (2 * cfg.prompt_length + gen) * gen, 2 * cfg.gpu_count
    return cfg.prompt_length, cfg.gpu_count


def linear_cost(
    kind: KernelKind, arch: LlmArchitecture, cfg: InferenceConfig, phase: Phase
) -> CostTriple:
    """Projection / MLP GEMM cost.

    Memory is weight load + activation load + one store stream.  Only K and V
    projections store plain activations; every other linear kernel stores into
    the KV cache instead (the roles differ only when the activation and
    KV-cache data types differ).
    """
    if kind.family != "linear":
        raise UnsupportedKind(f"{kind.name} is not a linear kernel")
    d_in, d_out = node_dims(kind, arch)[:2]
    b = cfg.batch_size
    g = cfg.gpu_count
    d_w = arch.weight_dtype.width
    d_a = arch.activation_dtype.width
    d_kv = arch.kv_dtype.width
    t = _token_factor(cfg, phase)

    ops = 2 * b * d_in * d_out * t
    m_weight = d_in * d_out * d_w * (t if phase is _DECODE else 1)
    m_act_load = d_in * b * d_a * t
    d_store = d_a if kind.stores_activation else d_kv
    m_store = d_out * b * d_store * t
    return _new_tuple(CostTriple, (ops // g, (m_weight + m_act_load + m_store) // g, 0))


def attention_matmul_cost(
    kind: KernelKind, arch: LlmArchitecture, cfg: InferenceConfig, phase: Phase
) -> CostTriple:
    """Score (QK) or value (SV) matmul of the unfused attention variant."""
    if kind.family != "attention_matmul":
        raise UnsupportedKind(f"{kind.name} is not an attention matmul kernel")
    b = cfg.batch_size
    n_h = arch.head_count
    n_kv = arch.kv_head_count
    d_h = arch.hidden_size // arch.head_count
    d_a = arch.activation_dtype.width
    d_kv = arch.kv_dtype.width
    span, den = _attention_span(cfg, phase)

    ops = 2 * b * d_h * n_h * span
    mem = 2 * b * n_h * d_a * span + b * d_h * n_kv * d_kv * span  # act load + store, KV load
    return _new_tuple(CostTriple, (ops // den, mem // den, 0))


def softmax_cost(arch: LlmArchitecture, cfg: InferenceConfig, phase: Phase) -> CostTriple:
    """Softmax over attention scores (unfused variant only)."""
    b = cfg.batch_size
    n_h = arch.head_count
    d_a = arch.activation_dtype.width
    span, den = _attention_span(cfg, phase)
    # memory: activation load + store
    return _new_tuple(CostTriple, (5 * b * n_h * span // den, 2 * b * n_h * d_a * span // den, 0))


def fused_attention_cost(
    arch: LlmArchitecture,
    cfg: InferenceConfig,
    gpu_s_block: int,
    phase: Phase,
) -> CostTriple:
    """Fused (flash) attention kernel cost.

    Operation count is the unfused matmul+softmax total (times the prompt
    length in prefill).  The memory total follows the faithful accounting:
    activation load plus the KV-cache load counted twice, with no
    activation-store term.  `gpu_s_block` is a ``GpuSpec.s_block``, which the
    GPU record holds at 1 or more.
    """
    b = cfg.batch_size
    n_h = arch.head_count
    n_kv = arch.kv_head_count
    d_h = arch.hidden_size // arch.head_count
    d_a = arch.activation_dtype.width
    d_kv = arch.kv_dtype.width
    span, den = _attention_span(cfg, phase)

    ops = (4 * b * d_h * n_h + 5 * b * n_h) * span  # twice the matmuls, plus the softmax
    if phase is _PREFILL:
        ops *= cfg.prompt_length
    # the activation stream is per token over g; scaled onto the common denominator
    m_act = d_h * b * n_h * d_a * _token_factor(cfg, phase) * (den // cfg.gpu_count)
    m_kv_load = 2 * b * gpu_s_block * d_h * n_kv * d_kv * span
    mem = m_act + 2 * m_kv_load  # activation load, the KV-cache load twice
    return _new_tuple(CostTriple, (ops // den, mem // den, 0))


def elementwise_cost(
    kind: KernelKind, arch: LlmArchitecture, cfg: InferenceConfig, phase: Phase
) -> CostTriple:
    """Normalization, residual-add and MLP-activation kernels."""
    if kind.family != "elementwise":
        raise UnsupportedKind(f"{kind.name} is not an elementwise kernel")
    b = cfg.batch_size
    g = cfg.gpu_count
    h = arch.hidden_size
    d_a = arch.activation_dtype.width
    t = _token_factor(cfg, phase)

    base = b * h * t
    stream = base * d_a
    if kind in _NORMS:
        ops = 7 * base
        mem = 2 * stream
    elif kind in _ADDS:
        ops = base
        mem = 2 * stream
    else:  # ACT_MLP; decode totals triple the (doubled) load stream, prefill
        # sums the load and store streams as written
        ops = 2 * base
        mem = 6 * stream if phase is _DECODE else 3 * stream
    return _new_tuple(CostTriple, (ops // g, mem // g, 0))


def check_partition(n: int, l: int) -> None:
    """n rows split evenly across l GPUs, or PartitionError."""
    if n % l != 0:
        raise PartitionError(f"partition dim {n} is not divisible by gpu count {l}")


def allreduce_cost(
    n: int, m: int, l: int, cfg: InferenceConfig, d_a: DataType, phase: Phase
) -> CostTriple:
    """All-reduce of an n x m matrix partitioned row-wise across l GPUs.

    Operations happen in the reduce-scatter step; network bytes cover the
    ring exchange of the partitions, per token processed in the phase.
    """
    if l < 2:
        raise RangeError(f"all-reduce needs at least 2 GPUs, got {l}")
    check_partition(n, l)
    t = _token_factor(cfg, phase)
    width = d_a.width
    cells = n * m * t
    return _new_tuple(CostTriple,
                      (cells // l, 2 * cells * width // l, cells * (l - 1) * width // l))


def kernel_cost(
    node: KernelNode,
    arch: LlmArchitecture,
    cfg: InferenceConfig,
    gpu_s_block: int,
    phase: Phase,
) -> CostTriple:
    """Dispatch a kernel node to the cost equation its kind's family names;
    the equations are called through their module names."""
    kind = node.kind
    family = kind.family
    if family == "linear":
        return linear_cost(kind, arch, cfg, phase)
    if family == "elementwise":
        return elementwise_cost(kind, arch, cfg, phase)
    if family == "allreduce":
        # reduced matrix is the per-token activation block: hidden x batch
        return allreduce_cost(
            arch.hidden_size, cfg.batch_size, cfg.gpu_count, cfg, arch.activation_dtype, phase
        )
    if family == "fused_attention":
        if not arch.flash_attention:
            raise UnsupportedKind("fuse_attn kernel in a non-flash-attention architecture")
        return fused_attention_cost(arch, cfg, gpu_s_block, phase)
    # the unfused attention kernels
    if arch.flash_attention:
        raise UnsupportedKind(f"{kind.name} kernel in a flash-attention architecture")
    if family == "softmax":
        return softmax_cost(arch, cfg, phase)
    return attention_matmul_cost(kind, arch, cfg, phase)
