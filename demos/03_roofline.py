"""
Roofline performance per kernel
===============================

A kernel's attainable throughput is capped either by the memory system (below
the ridge point) or by the compute units (above it).  All-reduce kernels roof
against the interconnect instead of memory.  The ridge point is the peak
throughput divided by the peak bandwidth, so it shifts with the data type.
"""

from infercarbon import DataType, InferenceConfig, LlmArchitecture, Phase, cost_layer, ridge_points
from infercarbon.arch import KernelKind
from infercarbon.roofline import builtin_gpu_catalog

catalog = builtin_gpu_catalog()

# ridge points of the reference GPUs: narrower types push the ridge right
print(f"{'GPU':<6} {'FP32 MRP':>9} {'FP16 MRP':>9} {'INT8 MRP':>9} {'FP16 NRP':>9}")
for name, gpu in catalog.items():
    row = [ridge_points(gpu, dt).mrp for dt in (DataType.FP32, DataType.FP16, DataType.INT8)]
    nrp = ridge_points(gpu, DataType.FP16).nrp
    print(f"{name:<6} {row[0]:>9.1f} {row[1]:>9.1f} {row[2]:>9.1f} {nrp:>9.0f}")

# classify one layer's kernels on an A100
arch = LlmArchitecture(
    hidden_size=4096, intermediate_size=14336, head_count=32, kv_head_count=8, layer_count=32
)
cfg = InferenceConfig(batch_size=1, prompt_length=1024, generated_tokens=64, gpu_count=2)
gpu = catalog["a100"]
mrp = ridge_points(gpu, arch.activation_dtype).mrp

print(f"\nA100 FP16, prompt {cfg.prompt_length}, {cfg.generated_tokens} generated tokens:")
print(f"{'kernel':<12} {'phase':<8} {'OPs/B':>9} {'P (TOPs/s)':>11} bound")
# every kernel priced once per phase, with its Roofline performance
costs = cost_layer(arch, cfg, gpu)
for i, node in enumerate(costs.graph.nodes):
    for phase in Phase:
        cost, perf = costs.priced(i, phase)
        if cost.ops == 0:
            continue
        is_ar = node.kind is KernelKind.ALL_REDUCE
        traffic = cost.net_bytes if is_ar else cost.mem_bytes
        intensity = cost.ops / traffic
        if is_ar:
            bound = "network"
        else:
            bound = "memory" if intensity < mrp else "compute"
        print(f"{node.kind.value:<12} {phase.value:<8} {intensity:>9.2f} "
              f"{perf / 1e12:>11.3f} {bound}")
