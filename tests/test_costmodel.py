import dataclasses

import numpy as np
import pytest

from infercarbon.arch import DataType, InferenceConfig, KernelKind, LlmArchitecture
from infercarbon.costmodel import (
    CostTriple,
    PartitionError,
    Phase,
    UnsupportedKind,
    allreduce_cost,
    attention_matmul_cost,
    elementwise_cost,
    fused_attention_cost,
    kernel_cost,
    linear_cost,
    softmax_cost,
)
from infercarbon.arch import enumerate_layer_kernels
from infercarbon.roofline import builtin_gpu_catalog, cost_layer

import bruteforce as bf
from conftest import random_small_arch, random_small_cfg


def arch8(**overrides):
    base = dict(
        hidden_size=8, intermediate_size=8, head_count=2, kv_head_count=1, layer_count=1,
        weight_dtype=DataType.FP16, activation_dtype=DataType.FP16, kv_dtype=DataType.FP16,
    )
    base.update(overrides)
    return LlmArchitecture(**base)


class TestCostTriple:
    def test_value_semantics(self):
        c = CostTriple(3, 5, 7)
        assert c == CostTriple(ops=3, mem_bytes=5, net_bytes=7)
        assert c != CostTriple(3, 5, 8)
        assert hash(c) == hash(CostTriple(3, 5, 7))
        assert len({c, CostTriple(3, 5, 7), CostTriple(0, 0, 0)}) == 2
        assert (c.ops, c.mem_bytes, c.net_bytes) == (3, 5, 7)
        with pytest.raises(AttributeError):
            c.ops = 4

    def test_is_zero(self):
        assert CostTriple(0, 0, 0).is_zero() is True
        for nonzero in (CostTriple(1, 0, 0), CostTriple(0, 1, 0), CostTriple(0, 0, 1)):
            assert nonzero.is_zero() is False

    def test_repr_names_the_fields(self):
        assert repr(CostTriple(3, 5, 7)) == "CostTriple(ops=3, mem_bytes=5, net_bytes=7)"


class TestLinear:
    def test_decode_values(self):
        # K_PROJ: d_in=8, d_out=4; weight reloads per generated token
        arch = arch8()
        cfg = InferenceConfig(batch_size=2, prompt_length=1, generated_tokens=3, gpu_count=1)
        _, cost = linear_cost(KernelKind.K_PROJ, arch, cfg)
        assert cost == CostTriple(256, 224, 0)  # 128 weight + 64 act-load + 32 store

    def test_prefill_values(self):
        # d_in = d_out = 4, weights loaded once
        arch = arch8(hidden_size=4, head_count=1, intermediate_size=4)
        cfg = InferenceConfig(batch_size=1, prompt_length=10, generated_tokens=1, gpu_count=2)
        cost, _ = linear_cost(KernelKind.K_PROJ, arch, cfg)
        assert cost == CostTriple(160, 96, 0)  # 16 weight + 40 load + 40 store

    def test_single_token_decode_is_free(self):
        cfg = InferenceConfig(batch_size=2, prompt_length=5, generated_tokens=1, gpu_count=1)
        assert linear_cost(KernelKind.Q_PROJ, arch8(), cfg)[1] == CostTriple(0, 0, 0)

    def test_kv_store_role_split(self):
        # K/V store activations; the other linears store into the KV cache.
        # The totals differ exactly when the two data types differ.
        arch = arch8(kv_head_count=2, kv_dtype=DataType.FP32)
        cfg = InferenceConfig(batch_size=1, prompt_length=4, generated_tokens=2, gpu_count=1)
        _, k = linear_cost(KernelKind.K_PROJ, arch, cfg)
        _, q = linear_cost(KernelKind.Q_PROJ, arch, cfg)
        # identical shapes (8 -> 8); Q pays the wider KV-cache store
        assert q.mem_bytes - k.mem_bytes == 8 * 1 * (4 - 2)
        assert q.ops == k.ops

    def test_rejects_non_linear_kind(self):
        cfg = InferenceConfig(1, 1, 1, 1)
        with pytest.raises(UnsupportedKind):
            linear_cost(KernelKind.SOFTMAX, arch8(), cfg)


class TestAttention:
    # d_h=4, n_h=n_kv=2, 2-byte types
    ARCH = arch8(kv_head_count=2, flash_attention=False)
    CFG = InferenceConfig(batch_size=1, prompt_length=3, generated_tokens=2, gpu_count=1)

    def test_matmul_decode(self):
        _, cost = attention_matmul_cost(KernelKind.MATMUL_QK, self.ARCH, self.CFG)
        assert cost == CostTriple(128, 192, 0)  # 32 + 32 + 128

    def test_matmul_prefill(self):
        cost, _ = attention_matmul_cost(KernelKind.MATMUL_SV, self.ARCH, self.CFG)
        assert cost.ops == 48  # 2*1*4*2*3

    def test_softmax_decode(self):
        assert softmax_cost(self.ARCH, self.CFG)[1] == CostTriple(80, 64, 0)

    def test_softmax_prefill(self):
        assert softmax_cost(self.ARCH, self.CFG)[0].ops == 30

    def test_fused_decode_counts_kv_twice(self):
        _, cost = fused_attention_cost(self.ARCH, self.CFG, 1)
        assert cost == CostTriple(336, 528, 0)  # 16 + 256 + 256, no act-store

    def test_fused_prefill_quadratic_multiplier(self):
        cost, _ = fused_attention_cost(self.ARCH, self.CFG, 1)
        assert cost.ops == (2 * 48 + 30) * 3  # (matmuls + softmax) * L_seq

    def test_fused_single_token_decode_keeps_kv_traffic(self):
        # the KV-load term carries the full token count, not tokens-1, so a
        # one-token request still moves KV bytes while the act terms vanish
        cfg = dataclasses.replace(self.CFG, generated_tokens=1)
        _, cost = fused_attention_cost(self.ARCH, cfg, 1)
        assert cost.ops == 147  # 2*56 + 35
        assert cost.mem_bytes == 224  # 0 act + 2 * 112 KV

    def test_rejects_wrong_kind(self):
        with pytest.raises(UnsupportedKind):
            attention_matmul_cost(KernelKind.Q_PROJ, self.ARCH, self.CFG)


class TestElementwise:
    ARCH = arch8()
    CFG = InferenceConfig(batch_size=1, prompt_length=5, generated_tokens=3, gpu_count=1)

    def test_norm_decode(self):
        _, cost = elementwise_cost(KernelKind.NORM_ATTN, self.ARCH, self.CFG)
        assert cost == CostTriple(112, 64, 0)

    def test_act_decode(self):
        _, cost = elementwise_cost(KernelKind.ACT_MLP, self.ARCH, self.CFG)
        assert cost == CostTriple(32, 192, 0)

    def test_add_prefill(self):
        cost, _ = elementwise_cost(KernelKind.ADD_MLP, self.ARCH, self.CFG)
        assert cost.ops == 40

    def test_act_prefill_sums_load_and_store(self):
        # prefill activation memory is load(2X) + store(X), not the decode 3*load
        cost, _ = elementwise_cost(KernelKind.ACT_MLP, self.ARCH, self.CFG)
        assert cost.mem_bytes == 3 * 1 * 8 * 2 * 5

    def test_rejects_wrong_kind(self):
        with pytest.raises(UnsupportedKind):
            elementwise_cost(KernelKind.Q_PROJ, self.ARCH, self.CFG)


class TestAllReduce:
    def test_decode_example(self):
        cfg = InferenceConfig(batch_size=4, prompt_length=1, generated_tokens=2, gpu_count=4)
        _, cost = allreduce_cost(4, 4, 4, cfg, DataType.FP16)
        assert cost == CostTriple(4, 16, 24)

    def test_prefill_example(self):
        cfg = InferenceConfig(batch_size=2, prompt_length=5, generated_tokens=1, gpu_count=2)
        cost, _ = allreduce_cost(8, 2, 2, cfg, DataType.FP16)
        assert cost == CostTriple(40, 160, 80)

    def test_single_token_decode_is_free(self):
        cfg = InferenceConfig(batch_size=4, prompt_length=9, generated_tokens=1, gpu_count=4)
        assert allreduce_cost(4, 4, 4, cfg, DataType.FP16)[1] == CostTriple(0, 0, 0)

    def test_partition_must_divide(self):
        cfg = InferenceConfig(batch_size=1, prompt_length=1, generated_tokens=2, gpu_count=3)
        with pytest.raises(PartitionError):
            allreduce_cost(4, 1, 3, cfg, DataType.FP16)

    def test_two_gpu_network_is_half_the_matrix_per_token(self):
        cfg = InferenceConfig(batch_size=1, prompt_length=7, generated_tokens=1, gpu_count=2)
        n, m, width = 16, 3, 2
        cost, _ = allreduce_cost(n, m, 2, cfg, DataType.FP16)
        assert cost.net_bytes == n * m * width * cfg.prompt_length // 2

    def test_network_monotone_in_gpu_count(self):
        cfg_base = dict(batch_size=1, prompt_length=6, generated_tokens=2)
        previous = -1
        for l in (2, 4, 8):
            cfg = InferenceConfig(**cfg_base, gpu_count=l)
            cost, _ = allreduce_cost(16, 4, l, cfg, DataType.FP16)
            assert cost.net_bytes >= previous
            previous = cost.net_bytes


class TestKindTable:
    def test_index_is_declaration_position(self):
        assert [kind.index for kind in KernelKind] == list(range(len(KernelKind)))

    @pytest.mark.parametrize("family, equation", [
        ("linear", linear_cost),
        ("attention_matmul", attention_matmul_cost),
        ("elementwise", elementwise_cost),
    ])
    def test_equation_accepts_exactly_its_family(self, family, equation, tiny_arch, tiny_cfg):
        assert any(kind.family == family for kind in KernelKind)
        for kind in KernelKind:
            if kind.family == family:
                pair = equation(kind, tiny_arch, tiny_cfg)
                assert len(pair) == 2 and all(isinstance(cost, CostTriple) for cost in pair)
            else:
                with pytest.raises(UnsupportedKind):
                    equation(kind, tiny_arch, tiny_cfg)

    def test_flags(self):
        assert {k for k in KernelKind if k.is_allreduce} == {KernelKind.ALL_REDUCE}
        assert {k for k in KernelKind if k.stores_activation} == \
            {KernelKind.K_PROJ, KernelKind.V_PROJ}


class TestDispatchAndTotals:
    def test_dispatch_matches_direct_calls(self, tiny_arch, tiny_cfg):
        graph = enumerate_layer_kernels(tiny_arch, 1)
        by_kind = {n.kind: n for n in graph.nodes}
        assert kernel_cost(by_kind[KernelKind.Q_PROJ], tiny_arch, tiny_cfg, 1, Phase.DECODE) == \
            linear_cost(KernelKind.Q_PROJ, tiny_arch, tiny_cfg)[1]
        assert kernel_cost(by_kind[KernelKind.FUSE_ATTN], tiny_arch, tiny_cfg, 1, Phase.PREFILL) == \
            fused_attention_cost(tiny_arch, tiny_cfg, 1)[0]

    def test_dispatch_allreduce_uses_hidden_by_batch(self, tiny_arch):
        cfg = InferenceConfig(batch_size=3, prompt_length=4, generated_tokens=2, gpu_count=2)
        graph = enumerate_layer_kernels(tiny_arch, 2)
        node = next(n for n in graph.nodes if n.kind is KernelKind.ALL_REDUCE)
        assert kernel_cost(node, tiny_arch, cfg, 1, Phase.PREFILL) == allreduce_cost(
            tiny_arch.hidden_size, 3, 2, cfg, tiny_arch.activation_dtype
        )[0]

    def test_variant_mismatch_rejected(self, tiny_arch, tiny_cfg):
        non_flash = dataclasses.replace(tiny_arch, flash_attention=False)
        flash_graph = enumerate_layer_kernels(tiny_arch, 1)
        fuse = next(n for n in flash_graph.nodes if n.kind is KernelKind.FUSE_ATTN)
        with pytest.raises(UnsupportedKind):
            kernel_cost(fuse, non_flash, tiny_cfg, 1, Phase.DECODE)

    def test_table_totals_match_resum(self, tiny_arch, tiny_cfg):
        gpu = builtin_gpu_catalog()["a100"]
        for tp in (1, 2):
            cfg = dataclasses.replace(tiny_cfg, gpu_count=tp)
            graph = enumerate_layer_kernels(tiny_arch, tp)
            totals = cost_layer(tiny_arch, cfg, gpu).totals
            for phase, total in ((Phase.PREFILL, totals.prefill), (Phase.DECODE, totals.decode)):
                costs = [kernel_cost(n, tiny_arch, cfg, gpu.s_block, phase) for n in graph.nodes]
                ops = sum(c.ops for c in costs)
                mem = sum(c.mem_bytes for c in costs)
                net = sum(c.net_bytes for c in costs)
                assert (total.ops, total.mem_bytes, total.net_bytes) == (ops, mem, net)
            assert (totals.prefill.net_bytes > 0) == (tp > 1)

    def test_nonzero_net_only_on_allreduce(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(60):
            arch = random_small_arch(rng)
            cfg = random_small_cfg(rng)
            if arch.hidden_size % cfg.gpu_count:
                continue
            for node in enumerate_layer_kernels(arch, cfg.gpu_count).nodes:
                for phase in Phase:
                    cost = kernel_cost(node, arch, cfg, 2, phase)
                    if node.kind is not KernelKind.ALL_REDUCE:
                        assert cost.net_bytes == 0


class TestBruteForceAgreement:
    """Every kind, randomized small configs, exact equality with the counting oracle."""

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_kind_matches_oracle(self, kind):
        rng = np.random.Generator(np.random.PCG64(kind.index))
        flash = kind is KernelKind.FUSE_ATTN or kind not in (
            KernelKind.MATMUL_QK, KernelKind.SOFTMAX, KernelKind.MATMUL_SV
        )
        checked = 0
        while checked < 100:
            arch = random_small_arch(rng, flash=flash)
            cfg = random_small_cfg(rng)
            if kind is KernelKind.ALL_REDUCE:
                if cfg.gpu_count < 2 or arch.hidden_size % cfg.gpu_count:
                    continue
            s_block = int(rng.integers(1, 5))
            graph = enumerate_layer_kernels(arch, cfg.gpu_count)
            node = next((n for n in graph.nodes if n.kind is kind), None)
            if node is None:
                continue
            for phase in Phase:
                got = kernel_cost(node, arch, cfg, s_block, phase)
                expected = bf.bf_kernel(kind, arch, cfg, s_block, phase)
                assert (got.ops, got.mem_bytes, got.net_bytes) == expected, (
                    kind, phase, arch, cfg, s_block
                )
            checked += 1
