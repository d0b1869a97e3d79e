"""
Per-kernel costs for the two inference phases
=============================================

Every kernel gets an operation count, a memory-traffic total and (for
all-reduce) a network-traffic total, for prefill and decode separately.
Prefill processes the whole prompt at once; decode walks token by token over
the KV cache, and its costs carry a (generated_tokens - 1) factor.
`cost_layer` prices both phases of every kernel of a layer in one equation
call per kernel, into one table.
"""

from infercarbon import InferenceConfig, LlmArchitecture, Phase, cost_layer
from infercarbon.roofline import builtin_gpu_catalog

arch = LlmArchitecture(
    hidden_size=2048,
    intermediate_size=5632,
    head_count=16,
    kv_head_count=4,
    layer_count=22,
)
cfg = InferenceConfig(batch_size=1, prompt_length=512, generated_tokens=128, gpu_count=2)
costs = cost_layer(arch, cfg, builtin_gpu_catalog()["a100"])

print(f"{'kernel':<12} {'prefill ops':>14} {'prefill MB':>11} {'decode ops':>14} "
      f"{'decode MB':>10} {'net MB':>8}")
for i, node in enumerate(costs.graph.nodes):
    (pre, _), (dec, _) = costs.priced(i, Phase.PREFILL), costs.priced(i, Phase.DECODE)
    print(
        f"{node.kind.value:<12} {pre.ops:>14,} {pre.mem_bytes / 1e6:>11.2f} "
        f"{dec.ops:>14,} {dec.mem_bytes / 1e6:>10.2f} "
        f"{(pre.net_bytes + dec.net_bytes) / 1e6:>8.2f}"
    )

# layer and whole-model totals: every layer is alike, so the whole model is
# the layer's totals times the layer count
totals, layers = costs.totals, arch.layer_count
pre, dec = totals.prefill, totals.decode
print(f"\nper layer:  prefill {pre.ops / 1e9:.2f} GOPs, decode {dec.ops / 1e9:.2f} GOPs")
print(f"whole model ({layers} layers): "
      f"prefill {layers * pre.ops / 1e9:.1f} GOPs / {layers * pre.mem_bytes / 1e9:.2f} GB, "
      f"decode {layers * dec.ops / 1e9:.1f} GOPs / {layers * dec.mem_bytes / 1e9:.2f} GB, "
      f"network {layers * (pre.net_bytes + dec.net_bytes) / 1e9:.2f} GB")

# decode is dominated by memory traffic, prefill by compute: compare the
# ops-per-byte intensity of the two phases (the layer count cancels)
pre_int = pre.ops / pre.mem_bytes
dec_int = dec.ops / dec.mem_bytes
print(f"\narithmetic intensity: prefill {pre_int:.1f} OPs/B vs decode {dec_int:.1f} OPs/B")
