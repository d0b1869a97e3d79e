"""GPU hardware specifications, Roofline kernel performance, and the costed layer.

A kernel's attainable throughput is the bandwidth-limited ceiling below the
ridge point and the compute ceiling above it.  Ordinary kernels roof against
memory bandwidth (intensity = ops per memory byte); all-reduce kernels roof
against the interconnect (intensity = ops per network byte).  `RidgePoints`
holds a GPU's ceilings at one data type, and its ``attainable`` is the one
place the ceiling test is written; `node_performance` applies it to a
priced kernel, with the zero-cost convention.  A GPU record builds its
ceilings once, on first use.

``cost_layer(arch, cfg, gpu)`` is the one way to price a layer, in one walk
over the shared kernel graph of the layer's (attention, MLP, TP>=2)
topology.  At each kernel it prices both phases in one equation call, takes
each phase's Roofline performance in one ``attainable`` call, writes the
kernel's raw feature row and adds to the per-phase cost totals and Roofline
seconds.  The features, the energy oracle and the carbon report all read that
one `LayerCosts` and walk nothing again.  It validates nothing: an
architecture, a request and a GPU check themselves when they are built.  A
`SamplePoint` is one such (architecture, request, GPU) triple, the unit the
energy predictors and the sampling loop take.
"""

from __future__ import annotations

import functools
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
    check_minimums,
    dims_quantities,
    enumerate_layer_kernels,
)
from .costmodel import CostTriple, LayerTotals, Phase, phase_costs
from .kvfile import ConfigError, SectionReader, parse_sections

_PREFILL, _DECODE = Phase.PREFILL, Phase.DECODE

# the slots of a kernel's raw row: its six dims, then each phase's ops,
# memory bytes, network bytes and Roofline performance
DIMS_SLOTS = slice(0, 6)
PHASE_SLOTS = {_PREFILL: slice(6, 10), _DECODE: slice(10, 14)}


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

    @functools.cached_property
    def ceilings(self) -> dict[DataType, RidgePoints]:
        """Roofline ceilings per data type with a peak rate, built on first use."""
        return {dtype: RidgePoints(th, self.bw_max, self.net_max, th / self.bw_max,
                                   th / self.net_max) for dtype, th in self.th_max.items()}


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
        return gpu.ceilings[dtype]
    except KeyError:
        raise MissingThroughput(
            f"GPU '{gpu.name}' has no peak throughput for {dtype.name}"
        ) from None


def node_performance(cost: CostTriple, ceilings: RidgePoints, kind_is_allreduce: bool) -> float:
    """Roofline performance under `ceilings` with the zero-cost convention.

    A kernel whose cost triple is all zero (for example any token-factored
    decode kernel of a request that generates a single token) is assigned
    performance 0 so that every node still has a finite feature value.
    ``cost_layer`` writes the same test inline.
    """
    if cost.is_zero():
        return 0.0
    return ceilings.attainable(cost, kind_is_allreduce)


@dataclass(frozen=True)
class LayerCosts:
    """Every kernel of one layer priced once, in one walk: ``rows[i]`` is the
    raw feature row of ``graph.nodes[i]`` (see PHASE_SLOTS), ``totals`` the
    per-phase cost sums and ``phase_seconds`` the per-phase Roofline time:
    ops/performance summed in graph order over the kernels with ops, zero for
    the decode of a request that generates a single token."""

    arch: LlmArchitecture
    cfg: InferenceConfig
    graph: KernelGraph
    rows: list[list]
    totals: LayerTotals
    phase_seconds: dict[Phase, float]

    def priced(self, i: int, phase: Phase) -> tuple[CostTriple, float]:
        """The cost triple and Roofline performance of ``graph.nodes[i]`` in `phase`."""
        ops, mem, net, performance = self.rows[i][PHASE_SLOTS[phase]]
        return CostTriple(ops, mem, net), performance


@dataclass(frozen=True)
class SamplePoint:
    """One (architecture, inference request, GPU) configuration."""

    arch: LlmArchitecture
    cfg: InferenceConfig
    gpu: GpuSpec

    def to_dict(self) -> dict:
        return {"arch": self.arch.to_dict(), "inference": self.cfg.to_dict(),
                "gpu": self.gpu.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "SamplePoint":
        return cls(arch=LlmArchitecture.from_dict(d["arch"]),
                   cfg=InferenceConfig.from_dict(d["inference"]), gpu=GpuSpec.from_dict(d["gpu"]))

    def describe(self) -> str:
        a, c = self.arch, self.cfg
        return (
            f"{self.gpu.name} x{c.gpu_count}, h={a.hidden_size}, layers={a.layer_count}, "
            f"batch={c.batch_size}, prompt={c.prompt_length}, gen={c.generated_tokens}"
        )


def cost_layer(arch: LlmArchitecture, cfg: InferenceConfig, gpu: GpuSpec) -> LayerCosts:
    """Price each kernel of the layer graph of `arch` on `cfg.gpu_count` GPUs
    for both phases in one equation call, with its Roofline performance at
    the activation data type's peak throughput; the same walk lays out each
    kernel's row and sums the phases' costs and Roofline times."""
    graph = enumerate_layer_kernels(arch, cfg.gpu_count)
    attainable = ridge_points(gpu, arch.activation_dtype).attainable
    s_block = gpu.s_block
    dims = dims_quantities(arch)
    rows = []
    pre_ops = pre_mem = pre_net = dec_ops = dec_mem = dec_net = 0
    pre_seconds = dec_seconds = 0.0
    for node in graph.nodes:
        kind = node.kind
        pre, dec = phase_costs(node, arch, cfg, s_block)
        p_ops, p_mem, p_net = pre
        d_ops, d_mem, d_net = dec
        # node_performance written out, so that each phase's performance is
        # one call: an all-zero triple performs at 0
        pre_perf = attainable(pre, kind.is_allreduce) if p_ops or p_mem or p_net else 0.0
        dec_perf = attainable(dec, kind.is_allreduce) if d_ops or d_mem or d_net else 0.0
        rows.append([*kind.pick_dims(dims), p_ops, p_mem, p_net, pre_perf,
                     d_ops, d_mem, d_net, dec_perf])
        pre_ops, pre_mem, pre_net = pre_ops + p_ops, pre_mem + p_mem, pre_net + p_net
        dec_ops, dec_mem, dec_net = dec_ops + d_ops, dec_mem + d_mem, dec_net + d_net
        if p_ops:
            pre_seconds += p_ops / pre_perf
        if d_ops:
            dec_seconds += d_ops / dec_perf
    if cfg.generated_tokens == 1:
        dec_seconds = 0.0
    return LayerCosts(
        arch=arch, cfg=cfg, graph=graph, rows=rows,
        totals=LayerTotals(prefill=CostTriple(pre_ops, pre_mem, pre_net),
                           decode=CostTriple(dec_ops, dec_mem, dec_net)),
        phase_seconds={_PREFILL: pre_seconds, _DECODE: dec_seconds},
    )


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
