"""GPU hardware specifications, Roofline kernel performance, and the costed layer.

A kernel's attainable throughput is the bandwidth-limited ceiling below the
ridge point and the compute ceiling above it.  Ordinary kernels roof against
memory bandwidth (intensity = ops per memory byte); all-reduce kernels roof
against the interconnect (intensity = ops per network byte).  `RidgePoints`
holds a GPU's ceilings at one data type, and its ``attainable`` is the one
place the ceiling test is written; `node_performance` applies it to each
priced kernel.

``cost_layer(arch, cfg, gpu)`` is the one way to price a layer: it validates
the architecture and the request, prices every kernel of the layer once per
phase and keeps the cost triples with their Roofline performance in one
table, which the features, the energy oracle and the carbon report all read
(its ``totals()`` and ``phase_seconds()`` included).  It works on the shared
kernel graph of the layer's (attention, MLP, TP>=2) topology and reads the
GPU's ceilings once per layer, so only the request-dependent pricing runs per
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from .arch import (
    DataType,
    InferenceConfig,
    KernelGraph,
    KernelKind,
    LlmArchitecture,
    RangeError,
    _layer_graph,
    validate_architecture,
    validate_inference,
)
from .costmodel import CostTriple, LayerTotals, Phase, kernel_cost
from .kvfile import ConfigError, SectionReader, parse_sections


class MissingThroughput(ValueError):
    """GPU spec has no peak-throughput entry for the requested data type."""


class ZeroTraffic(ValueError):
    """Arithmetic intensity is undefined: the traffic denominator is zero."""


@dataclass(frozen=True)
class GpuSpec:
    """One GPU model: peak rates, power and physical parameters.

    th_max maps each supported data type to peak throughput in OPs/s;
    bw_max and net_max are bytes/s.  s_block is the number of KV heads the
    fused attention kernel can keep resident on chip.
    """

    name: str
    th_max: dict[DataType, float]
    bw_max: float
    net_max: float
    power_w: float
    node_size: int = 4
    area_mm2: float = 0.0
    tech_nm: int = 0
    s_block: int = 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "th_max": {dt.name: rate for dt, rate in self.th_max.items()},
            "bw_max": self.bw_max,
            "net_max": self.net_max,
            "power_w": self.power_w,
            "node_size": self.node_size,
            "area_mm2": self.area_mm2,
            "tech_nm": self.tech_nm,
            "s_block": self.s_block,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GpuSpec":
        return cls(
            name=str(d["name"]),
            th_max={DataType[k]: float(v) for k, v in d["th_max"].items()},
            bw_max=float(d["bw_max"]),
            net_max=float(d["net_max"]),
            power_w=float(d["power_w"]),
            node_size=int(d.get("node_size", 4)),
            area_mm2=float(d.get("area_mm2", 0.0)),
            tech_nm=int(d.get("tech_nm", 0)),
            s_block=int(d.get("s_block", 1)),
        )


@dataclass(frozen=True)
class RidgePoints:
    """A GPU's Roofline ceilings at one data type: peak throughput th (OPs/s),
    memory and network bandwidth (bytes/s), and the memory and network ridge
    points mrp and nrp (OPs/byte) where the bandwidth ceilings meet the peak."""

    th: float
    bw_max: float
    net_max: float
    mrp: float
    nrp: float

    def attainable(self, cost: CostTriple, kind_is_allreduce: bool) -> float:
        """Attainable throughput in OPs/s of a kernel with this cost."""
        intensity = arithmetic_intensity(cost, kind_is_allreduce)
        if kind_is_allreduce:
            return self.net_max * intensity if intensity < self.nrp else self.th
        return self.bw_max * intensity if intensity < self.mrp else self.th


def validate_gpu(gpu: GpuSpec) -> GpuSpec:
    if gpu.bw_max <= 0 or gpu.net_max <= 0 or gpu.power_w <= 0:
        raise RangeError(f"GPU '{gpu.name}' rates and power must be positive")
    for dtype, rate in gpu.th_max.items():
        if rate <= 0:
            raise RangeError(f"GPU '{gpu.name}' {dtype.name} throughput must be positive")
    if gpu.s_block < 1:
        raise RangeError(f"GPU '{gpu.name}' s_block must be >= 1")
    return gpu


def ridge_points(gpu: GpuSpec, dtype: DataType) -> RidgePoints:
    """The GPU's ceilings at `dtype`, with its compute-vs-memory and
    compute-vs-network balance points."""
    try:
        th = gpu.th_max[dtype]
    except KeyError:
        raise MissingThroughput(
            f"GPU '{gpu.name}' has no peak throughput for {dtype.name}"
        ) from None
    return RidgePoints(th=th, bw_max=gpu.bw_max, net_max=gpu.net_max,
                       mrp=th / gpu.bw_max, nrp=th / gpu.net_max)


def arithmetic_intensity(cost: CostTriple, kind_is_allreduce: bool) -> float:
    """Ops per byte moved: memory bytes normally, network bytes for all-reduce."""
    denom = cost.net_bytes if kind_is_allreduce else cost.mem_bytes
    if denom == 0:
        raise ZeroTraffic("arithmetic intensity undefined for zero traffic")
    return cost.ops / denom


def node_performance(cost: CostTriple, ceilings: RidgePoints, kind_is_allreduce: bool) -> float:
    """Roofline performance under `ceilings` with the zero-cost convention.

    A kernel whose cost triple is all zero (for example any token-factored
    decode kernel of a request that generates a single token) is assigned
    performance 0 so that every node still has a finite feature value.
    """
    if cost.is_zero():
        return 0.0
    return ceilings.attainable(cost, kind_is_allreduce)


class PricedKernel(NamedTuple):
    """One kernel's cost triple in one phase and its Roofline performance."""

    cost: CostTriple
    performance: float


@dataclass(frozen=True)
class LayerCosts:
    """Every kernel of one layer priced once: ``phases[phase][i]`` belongs to
    ``graph.nodes[i]``."""

    arch: LlmArchitecture
    cfg: InferenceConfig
    graph: KernelGraph
    phases: dict[Phase, tuple[PricedKernel, ...]]

    def totals(self) -> LayerTotals:
        """Component-wise per-phase cost sums over the layer's kernels."""
        sums = []
        for phase in Phase:
            ops = mem = net = 0
            for cost, _ in self.phases[phase]:
                ops += cost.ops
                mem += cost.mem_bytes
                net += cost.net_bytes
            sums.append(CostTriple(ops, mem, net))
        return LayerTotals(prefill=sums[0], decode=sums[1])

    def phase_seconds(self) -> dict[Phase, float]:
        """Per-phase Roofline execution time of the layer, in seconds.

        Sums ops/performance over the kernels in graph order.  Zero-op kernels
        contribute nothing; a request generating a single token has no decode
        iterations, so its decode time is zero.
        """
        times = {}
        for phase, column in self.phases.items():
            total = 0.0
            if not (phase is Phase.DECODE and self.cfg.generated_tokens == 1):
                for cost, performance in column:
                    if cost.ops:
                        total += cost.ops / performance
            times[phase] = total
        return times


def cost_layer(arch: LlmArchitecture, cfg: InferenceConfig, gpu: GpuSpec) -> LayerCosts:
    """Price each kernel of the layer graph of `arch` on `cfg.gpu_count` GPUs
    for both phases, with its Roofline performance at the activation data
    type's peak throughput."""
    validate_architecture(arch)
    validate_inference(cfg)
    graph = _layer_graph(arch.flash_attention, arch.gated_mlp, cfg.gpu_count >= 2)
    ceilings = ridge_points(gpu, arch.activation_dtype)
    s_block = gpu.s_block
    phases = {}
    for phase in Phase:
        column = []
        for node in graph.nodes:
            cost = kernel_cost(node, arch, cfg, s_block, phase)
            performance = node_performance(cost, ceilings, node.kind is KernelKind.ALL_REDUCE)
            column.append(PricedKernel(cost, performance))
        phases[phase] = tuple(column)
    return LayerCosts(arch=arch, cfg=cfg, graph=graph, phases=phases)


_GPU_FIELDS = {
    "fp32_tops": DataType.FP32,
    "fp16_tops": DataType.FP16,
    "int8_tops": DataType.INT8,
}


def parse_gpu_catalog(text: str, source: str = "<gpu catalog>") -> dict[str, GpuSpec]:
    """Parse a GPU catalog file: one [section] per GPU, rates in TOPs/s and GB/s."""
    catalog: dict[str, GpuSpec] = {}
    for name, fields in parse_sections(text, source).items():
        reader = SectionReader(name, fields, source)
        th_max = {}
        for key, dtype in _GPU_FIELDS.items():
            tops = reader.get_float(key, None)
            if tops is not None:
                th_max[dtype] = tops * 1e12
        if not th_max:
            raise ConfigError(f"{source}: section '{name}' defines no peak throughput")
        gpu = GpuSpec(
            name=name,
            th_max=th_max,
            bw_max=reader.get_float("memory_gbs") * 1e9,
            net_max=reader.get_float("network_gbs") * 1e9,
            power_w=reader.get_float("power_w"),
            node_size=reader.get_int("node_size", 4),
            area_mm2=reader.get_float("area_mm2", 0.0),
            tech_nm=reader.get_int("tech_nm", 0),
            s_block=reader.get_int("s_block", 1),
        )
        reader.reject_unknown()
        try:
            validate_gpu(gpu)
        except RangeError as exc:
            raise ConfigError(f"{source}: section '{name}': {exc}") from exc
        catalog[name] = gpu
    return catalog


def load_gpu_catalog(path) -> dict[str, GpuSpec]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_gpu_catalog(handle.read(), source=str(path))


def builtin_gpu_catalog() -> dict[str, GpuSpec]:
    """The packaged reference catalog of datacenter GPUs."""
    text = resources.files("infercarbon").joinpath("data/gpus.cfg").read_text(encoding="utf-8")
    return parse_gpu_catalog(text, source="builtin:gpus.cfg")
