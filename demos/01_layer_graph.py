"""
Kernel graph of a transformer layer
===================================

A decoder layer is a small DAG of typed kernels.  Its shape depends on three
things: whether attention is fused (flash) or spelled out as matmul/softmax/
matmul, whether the MLP has a gate projection, and whether the layer runs
tensor-parallel (two all-reduce kernels appear for 2+ GPUs).
"""

import dataclasses

from infercarbon import LlmArchitecture, enumerate_layer_kernels, export_graph
from infercarbon.features import raw_features
from infercarbon.arch import InferenceConfig
from infercarbon.roofline import builtin_gpu_catalog, cost_layer

llama_like = LlmArchitecture(
    hidden_size=4096,
    intermediate_size=14336,
    head_count=32,
    kv_head_count=8,
    layer_count=32,
)

# one layer on 4 GPUs: 15 kernels, two of them all-reduce
graph = enumerate_layer_kernels(llama_like, n_gpu=4)
print(f"flash + gated, 4 GPUs: {len(graph.nodes)} kernels, {len(graph.edges)} edges")
for node in graph.nodes:
    consumers = [dst for src, dst in graph.edges if src == node.id]
    print(f"  [{node.id:2d}] {node.kind.value:<12} -> {consumers}")

# dropping tensor parallelism removes the all-reduce kernels
single = enumerate_layer_kernels(llama_like, n_gpu=1)
print(f"\nsame layer on 1 GPU: {len(single.nodes)} kernels (no all-reduce)")

# the unfused variant replaces fuse_attn with matmul_qk -> softmax -> matmul_sv
bloom_like = dataclasses.replace(
    llama_like, flash_attention=False, gated_mlp=False, kv_head_count=32
)
unfused = enumerate_layer_kernels(bloom_like, n_gpu=1)
print(f"unfused + ungated, 1 GPU: {len(unfused.nodes)} kernels")

# costed graphs export to DOT for visualization (or JSON with their raw features)
cfg = InferenceConfig(batch_size=1, prompt_length=64, generated_tokens=8, gpu_count=4)
gpu = builtin_gpu_catalog()["a100"]
raw = raw_features(cost_layer(llama_like, cfg, gpu))
print("\nDOT export (first lines):")
print("\n".join(export_graph(raw, "dot").splitlines()[:6]))
