import dataclasses
import json

import numpy as np
import pytest

from infercarbon.arch import InferenceConfig, LlmArchitecture, RangeError
from infercarbon.carbon import (
    JOULES_PER_KWH,
    DatacenterParams,
    EmbodiedParams,
    ModelEnergyPredictor,
    embodied_carbon,
    estimate_request,
    operational_carbon,
)
from infercarbon.features import NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH
from infercarbon.gnn import init_params
from infercarbon.roofline import builtin_gpu_catalog
from infercarbon.sampler import SamplePoint, SyntheticEnergyOracle

from conftest import identity_stats


@pytest.fixture(scope="module")
def gpus():
    return builtin_gpu_catalog()


def tiny_request(gpus, **cfg_overrides):
    arch = LlmArchitecture(
        hidden_size=64, intermediate_size=128, head_count=4, kv_head_count=2, layer_count=4
    )
    cfg = dict(batch_size=1, prompt_length=64, generated_tokens=8, gpu_count=1)
    cfg.update(cfg_overrides)
    return arch, InferenceConfig(**cfg), gpus["a100"]


class TestOperationalCarbon:
    def test_reference_product_is_exact(self):
        assert operational_carbon(0.5, DatacenterParams(pue=1.2, carbon_intensity=400.0)) == 240.0

    def test_zero_energy(self):
        assert operational_carbon(0.0, DatacenterParams(1.2, 400.0)) == 0.0

    def test_zero_intensity(self):
        assert operational_carbon(1.0, DatacenterParams(1.0, 0.0)) == 0.0

    def test_linearity(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(200):
            e = float(rng.uniform(0.0, 10.0))
            pue = float(rng.uniform(1.0, 2.0))
            ci = float(rng.uniform(0.0, 1000.0))
            base = operational_carbon(e, DatacenterParams(pue, ci))
            assert operational_carbon(3.0 * e, DatacenterParams(pue, ci)) == pytest.approx(
                3.0 * base, rel=1e-12
            )

    def test_rejects_bad_params(self):
        with pytest.raises(RangeError):
            DatacenterParams(pue=0.9, carbon_intensity=100.0)
        with pytest.raises(RangeError):
            DatacenterParams(pue=1.1, carbon_intensity=-1.0)
        with pytest.raises(RangeError):
            operational_carbon(-0.1, DatacenterParams(1.2, 400.0))


class TestEmbodiedCarbon:
    def test_a100_example(self, gpus):
        ep = EmbodiedParams(cpa_g_per_mm2=1.0, lifetime_seconds=1.5768e8, packaging_g=0.0)
        grams = embodied_carbon(gpus["a100"], 4, 4.0, ep)
        assert grams == pytest.approx(4 * 826 * 4.0 / 1.5768e8, rel=1e-12)
        assert grams == pytest.approx(8.38e-5, rel=1e-2)

    def test_zero_time(self, gpus):
        assert embodied_carbon(gpus["a100"], 4, 0.0, EmbodiedParams()) == 0.0

    def test_long_lifetime_limit(self, gpus):
        ep = EmbodiedParams(lifetime_seconds=1e18)
        assert embodied_carbon(gpus["a100"], 4, 10.0, ep) < 1e-10

    def test_linear_in_time_and_devices(self, gpus):
        ep = EmbodiedParams(cpa_g_per_mm2=0.5, packaging_g=10.0)
        one = embodied_carbon(gpus["t4"], 1, 2.0, ep)
        assert embodied_carbon(gpus["t4"], 3, 2.0, ep) == pytest.approx(3 * one, rel=1e-12)
        assert embodied_carbon(gpus["t4"], 1, 6.0, ep) == pytest.approx(3 * one, rel=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(RangeError):
            EmbodiedParams(lifetime_seconds=0.0)
        with pytest.raises(RangeError):
            EmbodiedParams(cpa_g_per_mm2=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("params, field", [
    (DatacenterParams, "pue"),
    (DatacenterParams, "carbon_intensity"),
    (EmbodiedParams, "cpa_g_per_mm2"),
    (EmbodiedParams, "lifetime_seconds"),
    (EmbodiedParams, "packaging_g"),
])
def test_non_finite_parameter_is_refused_by_name(params, field, value):
    with pytest.raises(RangeError, match=f"^{field} must be finite, got {value}$"):
        params(**{field: value})


class TestEstimateRequest:
    def test_oracle_report_composes(self, gpus):
        arch, cfg, gpu = tiny_request(gpus)
        dc = DatacenterParams(pue=1.2, carbon_intensity=400.0)
        ep = EmbodiedParams(cpa_g_per_mm2=1.0)
        oracle = SyntheticEnergyOracle()
        report = estimate_request(oracle, arch, cfg, gpu, dc, ep)

        energy_j = oracle.measure(SamplePoint(arch=arch, cfg=cfg, gpu=gpu))
        assert report.energy_kwh == pytest.approx(energy_j / JOULES_PER_KWH, rel=1e-12)
        assert report.operational_g == pytest.approx(
            operational_carbon(energy_j / JOULES_PER_KWH, dc), rel=1e-12
        )
        assert report.embodied_g == pytest.approx(
            embodied_carbon(gpu, cfg.gpu_count, report.exec_seconds, ep), rel=1e-12
        )
        assert report.total_g == pytest.approx(report.operational_g + report.embodied_g, rel=1e-12)
        assert report.total_g > 0

    def test_phase_energies_sum_to_total(self, gpus):
        arch, cfg, gpu = tiny_request(gpus, generated_tokens=16)
        report = estimate_request(
            SyntheticEnergyOracle(), arch, cfg, gpu, DatacenterParams(), EmbodiedParams()
        )
        assert report.prefill_kwh + report.decode_kwh == pytest.approx(
            report.energy_kwh, rel=1e-9
        )
        assert report.prefill_kwh > 0 and report.decode_kwh > 0

    def test_zero_factors_zero_carbon(self, gpus):
        arch, cfg, gpu = tiny_request(gpus)
        dc = DatacenterParams(pue=1.0, carbon_intensity=0.0)
        ep = EmbodiedParams(cpa_g_per_mm2=0.0, packaging_g=0.0)
        report = estimate_request(SyntheticEnergyOracle(), arch, cfg, gpu, dc, ep)
        assert report.total_g == 0.0

    def test_assumption_echo_and_json(self, gpus):
        arch, cfg, gpu = tiny_request(gpus)
        report = estimate_request(
            SyntheticEnergyOracle(), arch, cfg, gpu,
            DatacenterParams(pue=1.5, carbon_intensity=321.0),
            EmbodiedParams(cpa_g_per_mm2=2.0, packaging_g=7.0),
        )
        payload = json.loads(report.to_json())
        assert payload["assumptions"]["pue"] == 1.5
        assert payload["assumptions"]["carbon_intensity_g_per_kwh"] == 321.0
        assert payload["assumptions"]["packaging_g"] == 7.0
        assert payload["assumptions"]["predictor"] == "synthetic-roofline-v1"
        text = report.format_text()
        assert "PUE 1.5" in text and "gCO2eq" in text

    def test_model_predictor_report(self, gpus):
        arch, cfg, gpu = tiny_request(gpus)
        params = init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, seed=0)
        predictor = ModelEnergyPredictor(params, identity_stats())
        report = estimate_request(predictor, arch, cfg, gpu, DatacenterParams(), EmbodiedParams())
        assert report.energy_kwh >= 0.0
        assert report.prefill_kwh + report.decode_kwh == pytest.approx(report.energy_kwh, rel=1e-9)
        assert report.assumptions["predictor"] == "gnn-regressor"

    def test_total_operational_carbon_rises_with_gpu_count(self, gpus):
        # more devices burn more total energy on a tiny request, on every
        # catalog GPU
        for gpu in gpus.values():
            arch, cfg1, _ = tiny_request(gpus)
            cfg4 = dataclasses.replace(cfg1, gpu_count=4)
            r1 = estimate_request(
                SyntheticEnergyOracle(), arch, cfg1, gpu, DatacenterParams(), EmbodiedParams()
            )
            r4 = estimate_request(
                SyntheticEnergyOracle(), arch, cfg4, gpu, DatacenterParams(), EmbodiedParams()
            )
            assert r4.operational_g > r1.operational_g

    def test_slow_interconnect_flips_per_gpu_direction(self, gpus):
        # when communication is the bottleneck, tensor parallelism hurts even
        # per device; the all-reduce overhead dominates the compute shrink
        slow = dataclasses.replace(gpus["t4"], name="t4-slow-link", net_max=2e9)
        arch, cfg1, _ = tiny_request(gpus)
        cfg4 = dataclasses.replace(cfg1, gpu_count=4)
        r1 = estimate_request(
            SyntheticEnergyOracle(), arch, cfg1, slow, DatacenterParams(), EmbodiedParams()
        )
        r4 = estimate_request(
            SyntheticEnergyOracle(), arch, cfg4, slow, DatacenterParams(), EmbodiedParams()
        )
        assert r4.per_gpu_operational_g > r1.per_gpu_operational_g
