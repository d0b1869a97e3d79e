"""
Per-kernel costs for the two inference phases
=============================================

Every kernel gets an operation count, a memory-traffic total and (for
all-reduce) a network-traffic total, for prefill and decode separately.
Prefill processes the whole prompt at once; decode walks token by token over
the KV cache, and its costs carry a (generated_tokens - 1) factor.
`cost_layer` prices every kernel of a layer once per phase into one table.
"""

from infercarbon import InferenceConfig, LlmArchitecture, Phase, cost_layer, model_totals
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
for node, (pre, _), (dec, _) in zip(costs.graph.nodes, costs.phases[Phase.PREFILL],
                                    costs.phases[Phase.DECODE]):
    print(
        f"{node.kind.value:<12} {pre.ops:>14,} {pre.mem_bytes / 1e6:>11.2f} "
        f"{dec.ops:>14,} {dec.mem_bytes / 1e6:>10.2f} "
        f"{(pre.net_bytes + dec.net_bytes) / 1e6:>8.2f}"
    )

# layer and whole-model totals
per_layer = costs.totals()
whole = model_totals(per_layer, arch.layer_count)
print(f"\nper layer:  prefill {per_layer.prefill.ops / 1e9:.2f} GOPs, "
      f"decode {per_layer.decode.ops / 1e9:.2f} GOPs")
print(f"whole model ({arch.layer_count} layers): "
      f"prefill {whole.prefill.ops / 1e9:.1f} GOPs / {whole.prefill.mem_bytes / 1e9:.2f} GB, "
      f"decode {whole.decode.ops / 1e9:.1f} GOPs / {whole.decode.mem_bytes / 1e9:.2f} GB, "
      f"network {(whole.prefill.net_bytes + whole.decode.net_bytes) / 1e9:.2f} GB")

# decode is dominated by memory traffic, prefill by compute: compare the
# ops-per-byte intensity of the two phases
pre_int = whole.prefill.ops / whole.prefill.mem_bytes
dec_int = whole.decode.ops / whole.decode.mem_bytes
print(f"\narithmetic intensity: prefill {pre_int:.1f} OPs/B vs decode {dec_int:.1f} OPs/B")
