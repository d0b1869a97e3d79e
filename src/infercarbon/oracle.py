"""The synthetic energy oracle: a deterministic stand-in for on-GPU energy
measurement, built on the cost model and Roofline times, so the whole
pipeline can run and be verified on a workstation.  `sampler` re-exports its classes.
"""

from __future__ import annotations

from .costmodel import Phase
from .roofline import SamplePoint, cost_layer


PREFILL_UTILIZATION = 0.8
DECODE_UTILIZATION = 0.4
IDLE_FRACTION = 0.1


class OracleFailure(RuntimeError):
    """Energy oracle failed; the message identifies the offending point."""


class SyntheticEnergyOracle:
    """Deterministic stand-in for on-GPU energy measurement.

    Energy per layer is the Roofline execution time of every kernel weighted
    by a fixed per-phase utilization of board power, plus an idle-power floor
    over the total time; the layer figure scales by layer count and GPU count.
    The utilization constants encode that prefill drives the GPU much harder
    than the bandwidth-bound decode phase.  A request generating a single
    token has no decode iterations, so only prefill contributes.
    """

    identity = "synthetic-roofline-v1"

    def measure_breakdown(self, point: SamplePoint) -> dict[str, float]:
        times = cost_layer(point.arch, point.cfg, point.gpu).phase_seconds
        gpu = point.gpu
        scale = point.arch.layer_count * point.cfg.gpu_count * gpu.power_w
        utilization = {Phase.PREFILL: PREFILL_UTILIZATION, Phase.DECODE: DECODE_UTILIZATION}
        energy = {
            phase: times[phase] * (utilization[phase] + IDLE_FRACTION) * scale for phase in Phase
        }
        return {
            "prefill_joules": energy[Phase.PREFILL],
            "decode_joules": energy[Phase.DECODE],
            "total_joules": energy[Phase.PREFILL] + energy[Phase.DECODE],
            "roofline_seconds": (times[Phase.PREFILL] + times[Phase.DECODE])
            * point.arch.layer_count,
        }

    def measure(self, point: SamplePoint) -> float:
        return self.measure_breakdown(point)["total_joules"]
