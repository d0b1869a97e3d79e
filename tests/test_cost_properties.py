"""Property tests of the integer cost equations against the brute-force oracle,
and of the costed layer against pricing each kernel and phase on its own.

Sizes stay small enough that the oracle's largest counted array (the fused
KV-cache load: batch x s_block x head_dim x kv_heads x window x gen) holds at
most 4 * 3 * 8 * 4 * 40 * 8 = 122880 cells, far under 2^20.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from infercarbon.arch import (DataType, InferenceConfig, LlmArchitecture, enumerate_layer_kernels,
                              node_dims)
from infercarbon.costmodel import CostTriple, Phase, fused_attention_cost, kernel_cost, phase_costs
from infercarbon.roofline import builtin_gpu_catalog, cost_layer, node_performance, ridge_points

dtypes = st.sampled_from(list(DataType))


@st.composite
def archs(draw):
    heads = draw(st.sampled_from([1, 2, 4]))
    head_dim = draw(st.integers(1, 8))
    kv_heads = heads // draw(st.sampled_from([d for d in (1, 2, 4) if heads % d == 0]))
    return LlmArchitecture(
        hidden_size=heads * head_dim,
        intermediate_size=draw(st.integers(1, 16)),
        head_count=heads,
        kv_head_count=kv_heads,
        layer_count=draw(st.integers(1, 4)),
        weight_dtype=draw(dtypes),
        activation_dtype=draw(dtypes),
        kv_dtype=draw(dtypes),
        flash_attention=draw(st.booleans()),
        gated_mlp=draw(st.booleans()),
    )


@st.composite
def requests(draw):
    """(arch, cfg, s_block): TP 1-4 where it divides the hidden size, gen
    from 1, s_block 1-3."""
    arch = draw(archs())
    tp = draw(st.sampled_from([g for g in (1, 2, 3, 4) if arch.hidden_size % g == 0]))
    cfg = InferenceConfig(
        batch_size=draw(st.integers(1, 4)),
        prompt_length=draw(st.integers(1, 16)),
        generated_tokens=draw(st.sampled_from([1, 1, 2, 3, 5, 8])),
        gpu_count=tp,
    )
    return arch, cfg, draw(st.integers(1, 3))


# every layer variant, whatever the search draws: unfused and ungated on 4
# GPUs with a single generated token, flash and gated on 2 GPUs
UNFUSED_TP4_GEN1 = (
    LlmArchitecture(hidden_size=8, intermediate_size=5, head_count=4, kv_head_count=4,
                    layer_count=1, flash_attention=False, gated_mlp=False),
    InferenceConfig(batch_size=2, prompt_length=7, generated_tokens=1, gpu_count=4),
    1,
)
FLASH_TP2 = (
    LlmArchitecture(hidden_size=12, intermediate_size=9, head_count=4, kv_head_count=2,
                    layer_count=1, kv_dtype=DataType.FP32, activation_dtype=DataType.INT8),
    InferenceConfig(batch_size=3, prompt_length=5, generated_tokens=4, gpu_count=2),
    3,
)

# a request whose op counts pass 2^53, past the integers a float holds
# exactly: batch 1024 of a 131072-token prompt, mixed dtypes, on 4 GPUs
ABOVE_2_53 = (
    LlmArchitecture(hidden_size=4096, intermediate_size=14336, head_count=32, kv_head_count=8,
                    layer_count=1, weight_dtype=DataType.INT8, kv_dtype=DataType.FP32),
    InferenceConfig(batch_size=1024, prompt_length=131072, generated_tokens=3, gpu_count=4),
    2,
)


def triples(arch, cfg, s_block):
    """{(node id, phase): (ops, mem, net)} over every kernel of the layer."""
    out = {}
    for node in enumerate_layer_kernels(arch, cfg.gpu_count).nodes:
        for phase in Phase:
            cost = kernel_cost(node, arch, cfg, s_block, phase)
            out[node.id, phase] = (cost.ops, cost.mem_bytes, cost.net_bytes)
    return out


@settings(max_examples=150, deadline=None)
@given(requests())
@example(UNFUSED_TP4_GEN1)
@example(FLASH_TP2)
def test_kernel_costs_equal_brute_force(request):
    arch, cfg, s_block = request
    graph = enumerate_layer_kernels(arch, cfg.gpu_count)
    for node in graph.nodes:
        for phase in Phase:
            got = kernel_cost(node, arch, cfg, s_block, phase)
            want = bf.bf_kernel(node.kind, arch, cfg, s_block, phase)
            assert (got.ops, got.mem_bytes, got.net_bytes) == tuple(want), (node.kind, phase)


@settings(max_examples=100, deadline=None)
@given(requests())
@example(FLASH_TP2)
def test_fused_attention_equals_brute_force(request):
    arch, cfg, s_block = request
    for phase, got in zip(Phase, fused_attention_cost(arch, cfg, s_block)):
        want = bf.bf_fused(arch, cfg, s_block, phase)
        assert (got.ops, got.mem_bytes, got.net_bytes) == tuple(want), phase


@settings(max_examples=100, deadline=None)
@given(requests(), st.sampled_from(["prompt_length", "generated_tokens"]), st.integers(1, 8))
@example(UNFUSED_TP4_GEN1, "generated_tokens", 1)
@example(FLASH_TP2, "prompt_length", 3)
def test_more_tokens_never_cost_less(request, field, extra):
    arch, cfg, s_block = request
    longer = dataclasses.replace(cfg, **{field: getattr(cfg, field) + extra})
    before = triples(arch, cfg, s_block)
    after = triples(arch, longer, s_block)
    for key, (ops, mem, net) in before.items():
        ops2, mem2, net2 = after[key]
        assert ops2 >= ops and mem2 >= mem and net2 >= net, key


@settings(max_examples=100, deadline=None)
@given(requests())
@example(UNFUSED_TP4_GEN1)
@example(FLASH_TP2)
@example(ABOVE_2_53)
def test_kernel_cost_is_its_phase_of_the_pair(request):
    arch, cfg, s_block = request
    for node in enumerate_layer_kernels(arch, cfg.gpu_count).nodes:
        pair = phase_costs(node, arch, cfg, s_block)
        assert len(pair) == 2
        for phase, cost in zip(Phase, pair):
            assert type(cost) is CostTriple
            assert kernel_cost(node, arch, cfg, s_block, phase) == cost, (node.kind, phase)


@settings(max_examples=100, deadline=None)
@given(requests(), st.sampled_from(sorted(builtin_gpu_catalog())))
@example(UNFUSED_TP4_GEN1, "t4")
@example(FLASH_TP2, "h100")
@example(ABOVE_2_53, "a100")
def test_costed_layer_equals_pricing_each_kernel_and_phase(request, gpu_name):
    arch, cfg, s_block = request
    gpu = dataclasses.replace(builtin_gpu_catalog()[gpu_name], s_block=s_block)
    ceilings = ridge_points(gpu, arch.activation_dtype)
    graph = enumerate_layer_kernels(arch, cfg.gpu_count)
    rows, sums, seconds = [], {phase: [0, 0, 0] for phase in Phase}, dict.fromkeys(Phase, 0.0)
    for node in graph.nodes:
        row = list(node_dims(node.kind, arch))
        for phase in Phase:
            cost = kernel_cost(node, arch, cfg, s_block, phase)
            perf = node_performance(cost, ceilings, node.kind.is_allreduce)
            row += [*cost, perf]
            sums[phase] = [total + part for total, part in zip(sums[phase], cost)]
            if cost.ops:
                seconds[phase] += cost.ops / perf
        rows.append(row)
    if cfg.generated_tokens == 1:
        seconds[Phase.DECODE] = 0.0

    costs = cost_layer(arch, cfg, gpu)
    assert costs.rows == rows
    types = [[type(v) for v in row] for row in rows]
    assert [[type(v) for v in row] for row in costs.rows] == types
    for phase, total in zip(Phase, (costs.totals.prefill, costs.totals.decode)):
        assert type(total) is CostTriple and list(total) == sums[phase], phase
        assert all(type(v) is int for v in total), phase
    assert costs.phase_seconds == seconds


def test_the_large_request_passes_2_53_ops():
    arch, cfg, s_block = ABOVE_2_53
    totals = cost_layer(arch, cfg, dataclasses.replace(builtin_gpu_catalog()["a100"],
                                                        s_block=s_block)).totals
    assert totals.prefill.ops > 2**53
