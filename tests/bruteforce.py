"""Independent brute-force counting oracle for the cost equations.

Each quantity is counted by materializing a unit array over the factor ranges
of the accounting stream and summing it, never by evaluating the closed-form
product the production code uses.  Divisors (/2 in the attention terms, the
GPU count) are applied once at the end on the exact rational, and the result
is floored, mirroring the production convention of flooring the exact sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from infercarbon.arch import InferenceConfig, KernelKind, LlmArchitecture
from infercarbon.costmodel import Phase


def count(*dims: int) -> int:
    """Number of cells of a hyper-rectangle, counted one by one."""
    if any(d <= 0 for d in dims):
        return 0
    return int(np.ones(dims, dtype=np.int64).sum())


def floor_div(numer, *divisors) -> int:
    value = Fraction(numer)
    for d in divisors:
        value /= d
    return math.floor(value)


def _dims(kind: KernelKind, arch: LlmArchitecture) -> tuple[int, int]:
    h = arch.hidden_size
    d_h = h // arch.head_count
    table = {
        KernelKind.Q_PROJ: (h, h),
        KernelKind.OUT_PROJ: (h, h),
        KernelKind.K_PROJ: (h, d_h * arch.kv_head_count),
        KernelKind.V_PROJ: (h, d_h * arch.kv_head_count),
        KernelKind.GATE_PROJ: (h, arch.intermediate_size),
        KernelKind.UP_PROJ: (h, arch.intermediate_size),
        KernelKind.DOWN_PROJ: (arch.intermediate_size, h),
    }
    return table[kind]


def _tokens(cfg: InferenceConfig, phase: Phase) -> int:
    return cfg.generated_tokens - 1 if phase is Phase.DECODE else cfg.prompt_length


def bf_linear(kind, arch, cfg, phase):
    d_in, d_out = _dims(kind, arch)
    b, g = cfg.batch_size, cfg.gpu_count
    d_w, d_a, d_kv = arch.weight_dtype.width, arch.activation_dtype.width, arch.kv_dtype.width
    t = _tokens(cfg, phase)

    ops = floor_div(2 * count(b, d_in, d_out, t), g)
    if phase is Phase.DECODE:
        w_bytes = count(d_in, d_out, t) * d_w
    else:
        w_bytes = count(d_in, d_out) * d_w
    a_load = count(d_in, b, t) * d_a
    if kind in (KernelKind.K_PROJ, KernelKind.V_PROJ):
        store = count(d_out, b, t) * d_a
    else:
        store = count(d_out, b, t) * d_kv
    mem = floor_div(w_bytes + a_load + store, g)
    return ops, mem, 0


def bf_attention_matmul(arch, cfg, phase):
    b, g = cfg.batch_size, cfg.gpu_count
    n_h, n_kv = arch.head_count, arch.kv_head_count
    d_h = arch.hidden_size // arch.head_count
    d_a, d_kv = arch.activation_dtype.width, arch.kv_dtype.width
    seq, gen = cfg.prompt_length, cfg.generated_tokens

    if phase is Phase.DECODE:
        ops = floor_div(count(b, d_h, n_h, 2 * seq + gen, gen), g)
        a_bytes = count(b, n_h, 2 * seq + gen, gen) * d_a
        kv_bytes = count(b, d_h, n_kv, 2 * seq + gen, gen) * d_kv
        mem = floor_div(2 * a_bytes + kv_bytes, 2, g)
    else:
        ops = floor_div(2 * count(b, d_h, n_h, seq), g)
        mem = floor_div(2 * count(b, n_h, seq) * d_a + count(b, d_h, n_kv, seq) * d_kv, g)
    return ops, mem, 0


def bf_softmax(arch, cfg, phase):
    b, g = cfg.batch_size, cfg.gpu_count
    n_h = arch.head_count
    d_a = arch.activation_dtype.width
    seq, gen = cfg.prompt_length, cfg.generated_tokens

    if phase is Phase.DECODE:
        ops = floor_div(5 * count(b, n_h, 2 * seq + gen, gen), 2, g)
        mem = floor_div(2 * count(b, n_h, 2 * seq + gen, gen) * d_a, 2, g)
    else:
        ops = floor_div(5 * count(b, n_h, seq), g)
        mem = floor_div(2 * count(b, n_h, seq) * d_a, g)
    return ops, mem, 0


def bf_fused(arch, cfg, s_block, phase):
    b, g = cfg.batch_size, cfg.gpu_count
    n_h, n_kv = arch.head_count, arch.kv_head_count
    d_h = arch.hidden_size // arch.head_count
    d_a, d_kv = arch.activation_dtype.width, arch.kv_dtype.width
    seq, gen = cfg.prompt_length, cfg.generated_tokens

    if phase is Phase.DECODE:
        o_mm = Fraction(count(b, d_h, n_h, 2 * seq + gen, gen), g)
        o_sm = Fraction(5 * count(b, n_h, 2 * seq + gen, gen), 2 * g)
        ops = math.floor(2 * o_mm + o_sm)
        a_load = Fraction(count(d_h, b, n_h, gen - 1) * d_a, g)
        kv = Fraction(2 * count(b, s_block, d_h, n_kv, 2 * seq + gen, gen) * d_kv, 2 * g)
    else:
        o_mm = Fraction(2 * count(b, d_h, n_h, seq), g)
        o_sm = Fraction(5 * count(b, n_h, seq), g)
        ops = math.floor((2 * o_mm + o_sm) * seq)
        a_load = Fraction(count(d_h, b, n_h, seq) * d_a, g)
        kv = Fraction(2 * count(b, s_block, d_h, n_kv, seq) * d_kv, g)
    mem = math.floor(a_load + 2 * kv)  # the KV-cache load counted twice, no store
    return ops, mem, 0


def bf_elementwise(kind, arch, cfg, phase):
    b, g = cfg.batch_size, cfg.gpu_count
    h = arch.hidden_size
    d_a = arch.activation_dtype.width
    t = _tokens(cfg, phase)
    cells = count(b, h, t)

    if kind in (KernelKind.NORM_ATTN, KernelKind.NORM_MLP):
        ops = floor_div(7 * cells, g)
        mem = floor_div(2 * cells * d_a, g)
    elif kind in (KernelKind.ADD_ATTN, KernelKind.ADD_MLP):
        ops = floor_div(cells, g)
        mem = floor_div(2 * cells * d_a, g)
    elif kind is KernelKind.ACT_MLP:
        ops = floor_div(2 * cells, g)
        factor = 6 if phase is Phase.DECODE else 3
        mem = floor_div(factor * cells * d_a, g)
    else:
        raise AssertionError(kind)
    return ops, mem, 0


def bf_allreduce(n, m, l, cfg, width, phase):
    t = _tokens(cfg, phase)
    ops = floor_div(count(n, m, t), l)
    mem = floor_div(2 * count(n, m, t) * width, l)
    net = floor_div(count(n, m, l - 1, t) * width, l)
    return ops, mem, net


def bf_kernel(kind, arch, cfg, s_block, phase):
    """Dispatch mirror of the production kernel_cost, on the counting paths."""
    if kind in (
        KernelKind.Q_PROJ,
        KernelKind.K_PROJ,
        KernelKind.V_PROJ,
        KernelKind.OUT_PROJ,
        KernelKind.GATE_PROJ,
        KernelKind.UP_PROJ,
        KernelKind.DOWN_PROJ,
    ):
        return bf_linear(kind, arch, cfg, phase)
    if kind in (KernelKind.MATMUL_QK, KernelKind.MATMUL_SV):
        return bf_attention_matmul(arch, cfg, phase)
    if kind is KernelKind.SOFTMAX:
        return bf_softmax(arch, cfg, phase)
    if kind is KernelKind.FUSE_ATTN:
        return bf_fused(arch, cfg, s_block, phase)
    if kind in (
        KernelKind.NORM_ATTN,
        KernelKind.NORM_MLP,
        KernelKind.ADD_ATTN,
        KernelKind.ADD_MLP,
        KernelKind.ACT_MLP,
    ):
        return bf_elementwise(kind, arch, cfg, phase)
    if kind is KernelKind.ALL_REDUCE:
        return bf_allreduce(
            arch.hidden_size,
            cfg.batch_size,
            cfg.gpu_count,
            cfg,
            arch.activation_dtype.width,
            phase,
        )
    raise AssertionError(kind)
