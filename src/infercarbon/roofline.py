"""GPU hardware specifications, Roofline kernel performance, and the costed layer.

A kernel's attainable throughput is the bandwidth-limited ceiling below the
ridge point and the compute ceiling above it.  Ordinary kernels roof against
memory bandwidth (intensity = ops per memory byte); all-reduce kernels roof
against the interconnect (intensity = ops per network byte).  `RidgePoints`
holds a GPU's ceilings at one data type, and its ``attainable`` is the one
place the ceiling test is written; `node_performance` applies it to each
priced kernel.

``cost_layer(arch, cfg, gpu)`` is the one way to price a layer: it prices
every kernel of the layer once per phase and keeps the cost triples with
their Roofline performance in one table, which the features, the energy
oracle and the carbon report all read (its ``totals()`` and
``phase_seconds()`` included).  It works on the shared
kernel graph of the layer's (attention, MLP, TP>=2) topology and reads the
GPU's ceilings once per layer, so only the request-dependent pricing runs per
kernel.  It validates nothing: an architecture, a request and a GPU check
themselves when they are built.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass
from importlib import resources
from types import MappingProxyType
from typing import Mapping

from .arch import (
    CATALOG_PARSERS,
    DataType,
    InferenceConfig,
    KernelGraph,
    LlmArchitecture,
    RangeError,
    Record,
    _layer_graph,
    check_minimums,
)
from .costmodel import CostTriple, LayerTotals, Phase, kernel_cost
from .kvfile import ConfigError, SectionReader, parse_sections


class MissingThroughput(ValueError):
    """GPU spec has no peak-throughput entry for the requested data type."""


class ZeroTraffic(ValueError):
    """Arithmetic intensity is undefined: the traffic denominator is zero."""


@dataclass(frozen=True)
class GpuSpec(Record):
    """One GPU model: peak rates, power and physical parameters.

    th_max maps each supported data type to peak throughput in OPs/s (a
    read-only copy of the mapping given); bw_max and net_max are bytes/s.
    s_block is the number of KV heads the fused attention kernel can keep
    resident on chip.  A GPU with no peak throughput, with a rate or power
    that is not positive and finite, with a negative or non-finite die area,
    or with a count out of range, cannot be built.
    """

    name: str
    th_max: Mapping[DataType, float]
    bw_max: float
    net_max: float
    power_w: float
    node_size: int = 4
    area_mm2: float = 0.0
    tech_nm: int = 0
    s_block: int = 1

    def __post_init__(self):
        object.__setattr__(self, "th_max", MappingProxyType(dict(self.th_max)))
        if not self.th_max:
            raise RangeError(f"GPU '{self.name}' defines no peak throughput")
        # each range test is false for NaN, so NaN is refused with the rest
        if not all(0 < rate < math.inf for rate in (self.bw_max, self.net_max, self.power_w)):
            raise RangeError(f"GPU '{self.name}' rates and power must be positive")
        for dtype, rate in self.th_max.items():
            if not 0 < rate < math.inf:
                raise RangeError(f"GPU '{self.name}' {dtype.name} throughput must be positive")
        if not 0 <= self.area_mm2 < math.inf:
            raise RangeError(f"GPU '{self.name}' area_mm2 must be finite and >= 0")
        check_minimums(self, (("node_size", 1), ("tech_nm", 0), ("s_block", 1)))


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
        """Attainable throughput in OPs/s of a kernel with this cost, from its
        arithmetic intensity: ops per byte moved, counting network bytes for
        an all-reduce and memory bytes otherwise."""
        if kind_is_allreduce:
            bytes_moved, bandwidth, ridge = cost.net_bytes, self.net_max, self.nrp
        else:
            bytes_moved, bandwidth, ridge = cost.mem_bytes, self.bw_max, self.mrp
        if bytes_moved == 0:
            raise ZeroTraffic("arithmetic intensity undefined for zero traffic")
        intensity = cost.ops / bytes_moved
        return bandwidth * intensity if intensity < ridge else self.th


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


def node_performance(cost: CostTriple, ceilings: RidgePoints, kind_is_allreduce: bool) -> float:
    """Roofline performance under `ceilings` with the zero-cost convention.

    A kernel whose cost triple is all zero (for example any token-factored
    decode kernel of a request that generates a single token) is assigned
    performance 0 so that every node still has a finite feature value.
    """
    if cost.is_zero():
        return 0.0
    return ceilings.attainable(cost, kind_is_allreduce)


@dataclass(frozen=True)
class LayerCosts:
    """Every kernel of one layer priced once: ``phases[phase][i]`` is the
    ``(cost, performance)`` pair of ``graph.nodes[i]``, its cost triple in
    that phase and its Roofline performance."""

    arch: LlmArchitecture
    cfg: InferenceConfig
    graph: KernelGraph
    phases: dict[Phase, tuple[tuple[CostTriple, float], ...]]

    def totals(self) -> LayerTotals:
        """Component-wise per-phase cost sums over the layer's kernels."""
        sums = []
        for phase in Phase:
            costs, _ = zip(*self.phases[phase])
            sums.append(CostTriple(*map(sum, zip(*costs))))
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
                for (ops, _, _), performance in column:
                    if ops:
                        total += ops / performance
            times[phase] = total
        return times


def cost_layer(arch: LlmArchitecture, cfg: InferenceConfig, gpu: GpuSpec) -> LayerCosts:
    """Price each kernel of the layer graph of `arch` on `cfg.gpu_count` GPUs
    for both phases, with its Roofline performance at the activation data
    type's peak throughput."""
    graph = _layer_graph(arch.flash_attention, arch.gated_mlp, cfg.gpu_count >= 2)
    ceilings = ridge_points(gpu, arch.activation_dtype)
    s_block = gpu.s_block
    phases = {}
    for phase in Phase:
        column = []
        for node in graph.nodes:
            cost = kernel_cost(node, arch, cfg, s_block, phase)
            column.append((cost, node_performance(cost, ceilings, node.kind.is_allreduce)))
        phases[phase] = tuple(column)
    return LayerCosts(arch=arch, cfg=cfg, graph=graph, phases=phases)


# catalog key of each data type's peak rate, in TOPs/s
_PEAK_KEYS = {
    "fp32_tops": DataType.FP32,
    "fp16_tops": DataType.FP16,
    "int8_tops": DataType.INT8,
}


def parse_gpu_catalog(text: str, source: str = "<gpu catalog>") -> dict[str, GpuSpec]:
    """Parse a GPU catalog file: one [section] per GPU, rates in TOPs/s and GB/s.

    Only the keys that are not a ``GpuSpec`` field under its own name and unit
    are read here; ``GpuSpec.from_section`` reads the rest."""
    catalog: dict[str, GpuSpec] = {}
    for name, fields in parse_sections(text, source).items():
        reader = SectionReader(name, fields, source)
        th_max = {}
        for key, dtype in _PEAK_KEYS.items():
            rate = _scaled(reader, key, 1e12, None)
            if rate is not None:
                th_max[dtype] = rate
        catalog[name] = GpuSpec.from_section(
            reader, name=name, th_max=th_max,
            bw_max=_scaled(reader, "memory_gbs", 1e9),
            net_max=_scaled(reader, "network_gbs", 1e9),
        )
    return catalog


def _scaled(reader: SectionReader, key: str, scale: float, default=MISSING):
    """Number `key` times `scale`; a finite value that overflows once scaled
    is refused here, where its key is still known."""
    value = reader.get(key, *CATALOG_PARSERS["float"], default)
    if value is None:
        return None
    if math.isfinite(value) and not math.isfinite(value * scale):
        raise ConfigError(f"{reader.source}: section '{reader.name}': field '{key}' = {value:g} "
                          f"overflows to infinity when scaled by {scale:g}")
    return value * scale


def load_gpu_catalog(path) -> dict[str, GpuSpec]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_gpu_catalog(handle.read(), source=str(path))


def builtin_gpu_catalog() -> dict[str, GpuSpec]:
    """The packaged reference catalog of datacenter GPUs."""
    text = resources.files("infercarbon").joinpath("data/gpus.cfg").read_text(encoding="utf-8")
    return parse_gpu_catalog(text, source="builtin:gpus.cfg")
