"""Carbon accounting: operational emissions from energy, plus a linear
embodied-carbon amortization, assembled into an end-user report.

Energy is carried in joules internally; the kWh conversion (3.6e6 J/kWh,
exact) happens only where the operational-carbon product and the report
boundary need it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .arch import InferenceConfig, LlmArchitecture, RangeError, check_minimums
from .costmodel import Phase
from .features import FeatureStats, featurize_raw, raw_features
from .gnn import GnnParams, predict_energy
from .roofline import GpuSpec, SamplePoint, cost_layer

JOULES_PER_KWH = 3.6e6


def _require_finite(params) -> None:
    """Refuse a NaN or infinite field of a parameter record, naming it."""
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise RangeError(f"{field.name} must be finite, got {value}", field=field.name)


@dataclass(frozen=True)
class DatacenterParams:
    """Facility efficiency and grid carbon intensity (gCO2eq per kWh)."""

    pue: float = 1.2
    carbon_intensity: float = 400.0

    def __post_init__(self):
        _require_finite(self)
        check_minimums(self, (("pue", 1), ("carbon_intensity", 0)))


@dataclass(frozen=True)
class EmbodiedParams:
    """Manufacturing carbon per die area, amortized linearly over a lifetime."""

    cpa_g_per_mm2: float = 1.0
    lifetime_seconds: float = 1.5768e8  # five years
    packaging_g: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        check_minimums(self, (("cpa_g_per_mm2", 0), ("packaging_g", 0)))
        if not self.lifetime_seconds > 0:
            raise RangeError(f"lifetime_seconds must be > 0, got {self.lifetime_seconds}",
                             field="lifetime_seconds")


def operational_carbon(energy_kwh: float, dc: DatacenterParams) -> float:
    """Operational emissions in grams: energy x PUE x carbon intensity."""
    if energy_kwh < 0:
        raise RangeError("energy must be >= 0")
    return energy_kwh * dc.pue * dc.carbon_intensity


def embodied_carbon(gpu: GpuSpec, n_gpu: int, exec_seconds: float, ep: EmbodiedParams) -> float:
    """Embodied emissions in grams, amortized over the execution window."""
    if exec_seconds < 0:
        raise RangeError("execution time must be >= 0")
    per_device = gpu.area_mm2 * ep.cpa_g_per_mm2 + ep.packaging_g
    return n_gpu * per_device * exec_seconds / ep.lifetime_seconds


@dataclass(frozen=True)
class CarbonReport:
    """Energy and carbon estimate of one inference request, with assumptions."""

    gpu_name: str
    gpu_count: int
    energy_kwh: float
    prefill_kwh: float
    decode_kwh: float
    exec_seconds: float
    operational_g: float
    embodied_g: float
    total_g: float
    per_gpu_operational_g: float
    per_gpu_total_g: float
    assumptions: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_text(self) -> str:
        a = self.assumptions
        lines = [
            f"carbon estimate on {self.gpu_count} x {self.gpu_name}",
            f"  energy            {self.energy_kwh:.3e} kWh"
            f"  (prefill {self.prefill_kwh:.3e}, decode {self.decode_kwh:.3e})",
            f"  roofline time     {self.exec_seconds:.3e} s",
            f"  operational       {self.operational_g:.3e} gCO2eq",
            f"  embodied          {self.embodied_g:.3e} gCO2eq",
            f"  total             {self.total_g:.3e} gCO2eq",
            f"  per GPU           {self.per_gpu_operational_g:.3e} g operational, "
            f"{self.per_gpu_total_g:.3e} g total",
            f"  assumptions       PUE {a['pue']}, intensity {a['carbon_intensity_g_per_kwh']} g/kWh, "
            f"cpa {a['cpa_g_per_mm2']} g/mm2, lifetime {a['lifetime_seconds']:.3e} s",
            f"  predictor         {a['predictor']}",
        ]
        return "\n".join(lines)


class ModelEnergyPredictor:
    """Energy predictor backed by a trained regressor checkpoint.

    The network predicts total energy; the per-phase split is apportioned by
    the phases' Roofline time shares (the regressor itself is phase-blind at
    the output).  The network regresses log joules, so its total is never negative.
    The features and the time shares read one costing of the layer.
    """

    identity = "gnn-regressor"

    def __init__(self, params: GnnParams, stats: FeatureStats):
        self.params = params
        self.stats = stats

    def measure_breakdown(self, point: SamplePoint) -> dict[str, float]:
        costs = cost_layer(point.arch, point.cfg, point.gpu)
        total = predict_energy(featurize_raw(raw_features(costs), self.stats), self.params)
        times = costs.phase_seconds
        t_pre, t_dec = times[Phase.PREFILL], times[Phase.DECODE]
        span = t_pre + t_dec
        share = t_pre / span if span > 0 else 1.0
        return {
            "prefill_joules": total * share,
            "decode_joules": total * (1.0 - share),
            "total_joules": total,
            "roofline_seconds": span * point.arch.layer_count,
        }


def estimate_request(
    predictor,
    arch: LlmArchitecture,
    cfg: InferenceConfig,
    gpu: GpuSpec,
    dc: DatacenterParams,
    ep: EmbodiedParams,
) -> CarbonReport:
    """Full pipeline for one request: energy prediction, Eq-style operational
    carbon, embodied amortization over the Roofline execution time, which the
    predictor's breakdown reports as ``roofline_seconds``.  Nothing here
    re-validates the records: each checked itself when it was built."""
    breakdown = predictor.measure_breakdown(SamplePoint(arch=arch, cfg=cfg, gpu=gpu))
    total_j = breakdown["total_joules"]
    prefill_j = breakdown["prefill_joules"]
    decode_j = breakdown["decode_joules"]
    exec_seconds = breakdown["roofline_seconds"]

    energy_kwh = total_j / JOULES_PER_KWH
    oper = operational_carbon(energy_kwh, dc)
    emb = embodied_carbon(gpu, cfg.gpu_count, exec_seconds, ep)
    return CarbonReport(
        gpu_name=gpu.name,
        gpu_count=cfg.gpu_count,
        energy_kwh=energy_kwh,
        prefill_kwh=prefill_j / JOULES_PER_KWH,
        decode_kwh=decode_j / JOULES_PER_KWH,
        exec_seconds=exec_seconds,
        operational_g=oper,
        embodied_g=emb,
        total_g=oper + emb,
        per_gpu_operational_g=oper / cfg.gpu_count,
        per_gpu_total_g=(oper + emb) / cfg.gpu_count,
        assumptions={
            "pue": dc.pue,
            "carbon_intensity_g_per_kwh": dc.carbon_intensity,
            "cpa_g_per_mm2": ep.cpa_g_per_mm2,
            "lifetime_seconds": ep.lifetime_seconds,
            "packaging_g": ep.packaging_g,
            "predictor": getattr(predictor, "identity", predictor.__class__.__name__),
        },
    )
