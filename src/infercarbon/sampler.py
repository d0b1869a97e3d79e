"""Focused energy data sampling over architecture x request x hardware space.

The loop draws an initial batch of configurations from prior distributions,
trains the graph regressor, then repeatedly refines: pick the test points the
model gets most wrong, jitter each of them within small per-dimension radii,
label the new points with the energy oracle, fold 20% of them into the
accumulated test set and the rest into the training set, and update the
model.  It stops when the test error drops under the threshold or the
iteration cap is reached.

Real GPU measurement is out of scope here; a deterministic synthetic oracle
built on the cost model and Roofline times stands in for it so the whole
pipeline can run and be verified on a workstation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arch import (
    DataType,
    InferenceConfig,
    LlmArchitecture,
    RangeError,
    validate_architecture,
    validate_inference,
)
from .costmodel import Phase, check_partition
from .features import FeatureStats, FeaturizedGraph, featurize_raw, fit_stats, raw_features
from .gnn import GnnParams, TrainHyper, evaluate, mape, predict_energy, train
from .kvfile import ConfigError
from .roofline import GpuSpec, cost_layer, validate_gpu


class EmptyPrior(ValueError):
    """A prior distribution has nothing to draw from."""


class OracleFailure(RuntimeError):
    """Energy oracle failed; the message identifies the offending point."""


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
        return cls(
            arch=LlmArchitecture.from_dict(d["arch"]),
            cfg=InferenceConfig.from_dict(d["inference"]),
            gpu=GpuSpec.from_dict(d["gpu"]),
        )

    def describe(self) -> str:
        a, c = self.arch, self.cfg
        return (
            f"{self.gpu.name} x{c.gpu_count}, h={a.hidden_size}, layers={a.layer_count}, "
            f"batch={c.batch_size}, prompt={c.prompt_length}, gen={c.generated_tokens}"
        )


@dataclass(frozen=True)
class EnergySample:
    """A labeled sample point: the regression training unit."""

    point: SamplePoint
    energy_joules: float

    def to_dict(self) -> dict:
        d = self.point.to_dict()
        d["energy_joules"] = self.energy_joules
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EnergySample":
        return cls(point=SamplePoint.from_dict(d), energy_joules=float(d["energy_joules"]))


@dataclass(frozen=True)
class JitterRadii:
    """Per-dimension half-widths for fine-grained sampling around a center."""

    prompt_length: int = 10
    generated_tokens: int = 1
    layer_count: int = 1
    batch_size: int = 0
    hidden_size: int = 0
    intermediate_size: int = 0
    head_count: int = 0
    gpu_count: int = 0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ValueError(f"jitter radius {name} must be >= 0")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class ArchPrior:
    """A base architecture and the ranges its fields may be jittered over."""

    base: LlmArchitecture
    head_count_choices: tuple[int, ...] = ()
    head_dim_choices: tuple[int, ...] = ()
    kv_group_choices: tuple[int, ...] = (1,)
    layer_delta: int = 1
    intermediate_ratio_choices: tuple[float, ...] = ()  # intermediate = ratio x hidden
    weight_dtype_choices: tuple[DataType, ...] = ()


@dataclass(frozen=True)
class HardwarePrior:
    gpus: tuple[GpuSpec, ...]
    gpu_counts: tuple[int, ...] = (1, 2, 4)


class ParametricInferencePrior:
    """Log-uniform prompt/generation lengths and a small-batch mixture."""

    def __init__(self, prompt_range=(8, 512), gen_range=(1, 64),
                 batch_mixture=None):
        self.prompt_range = prompt_range
        self.gen_range = gen_range
        self.batch_mixture = dict(batch_mixture or {1: 0.6, 2: 0.3, 4: 0.1})

    def draw(self, rng: np.random.Generator) -> tuple[int, int, int]:
        batch = draw_batch_size(self.batch_mixture, rng)
        prompt = _log_uniform_int(rng, *self.prompt_range)
        gen = _log_uniform_int(rng, *self.gen_range)
        return batch, prompt, gen


def draw_batch_size(mixture: dict[int, float], rng: np.random.Generator) -> int:
    sizes = sorted(mixture)
    weights = np.array([mixture[s] for s in sizes], dtype=np.float64)
    weights = weights / weights.sum()
    return int(rng.choice(sizes, p=weights))


def _log_uniform_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    if lo >= hi:
        return lo
    value = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return max(lo, min(hi, int(round(value))))


@dataclass(frozen=True)
class PriorSpace:
    arch_priors: tuple[ArchPrior, ...]
    inference_prior: object  # anything with .draw(rng) -> (batch, prompt, gen)
    hardware_prior: HardwarePrior


def _sample_arch(prior: ArchPrior, rng: np.random.Generator) -> LlmArchitecture:
    base = prior.base
    heads = base.head_count
    if prior.head_count_choices:
        heads = int(rng.choice(prior.head_count_choices))
    head_dim = base.hidden_size // base.head_count
    if prior.head_dim_choices:
        head_dim = int(rng.choice(prior.head_dim_choices))
    groups = [g for g in prior.kv_group_choices if heads % g == 0] or [1]
    kv = heads // int(rng.choice(groups))
    layers = max(1, base.layer_count + int(rng.integers(-prior.layer_delta,
                                                        prior.layer_delta + 1)))
    hidden = heads * head_dim
    inter = base.intermediate_size
    if prior.intermediate_ratio_choices:
        ratio = prior.intermediate_ratio_choices[
            int(rng.integers(len(prior.intermediate_ratio_choices)))
        ]
        inter = max(1, int(round(ratio * hidden)))
    weight_dtype = base.weight_dtype
    if prior.weight_dtype_choices:
        weight_dtype = prior.weight_dtype_choices[int(rng.integers(len(prior.weight_dtype_choices)))]
    arch = replace(
        base,
        hidden_size=hidden,
        head_count=heads,
        kv_head_count=kv,
        layer_count=layers,
        intermediate_size=inter,
        weight_dtype=weight_dtype,
    )
    return validate_architecture(arch)


def initial_sample(space: PriorSpace, a: int, seed: int) -> list[SamplePoint]:
    """Draw `a` valid points from the prior product space, reproducibly."""
    if a < 1:
        raise ValueError("sample count must be >= 1")
    if not space.arch_priors:
        raise EmptyPrior("architecture prior catalog is empty")
    if not space.hardware_prior.gpus:
        raise EmptyPrior("hardware prior has no GPUs")
    rng = np.random.Generator(np.random.PCG64(seed))
    points = []
    while len(points) < a:
        prior = space.arch_priors[int(rng.integers(len(space.arch_priors)))]
        arch = _sample_arch(prior, rng)
        batch, prompt, gen = space.inference_prior.draw(rng)
        gpu = space.hardware_prior.gpus[int(rng.integers(len(space.hardware_prior.gpus)))]
        counts = [c for c in space.hardware_prior.gpu_counts if arch.hidden_size % c == 0]
        if not counts:
            counts = [1]
        gpu_count = int(rng.choice(counts))
        cfg = validate_inference(
            InferenceConfig(batch_size=batch, prompt_length=prompt,
                            generated_tokens=gen, gpu_count=gpu_count)
        )
        points.append(SamplePoint(arch=arch, cfg=cfg, gpu=gpu))
    return points


def _snap(target: int, candidates: list[int]) -> int:
    return min(candidates, key=lambda c: (abs(c - target), c))


def _jitter_int(rng: np.random.Generator, center: int, radius: int, lo: int = 1) -> int:
    if radius == 0:
        return center
    return max(lo, int(rng.integers(center - radius, center + radius + 1)))


def fine_grained_sampling(
    centers: list[SamplePoint], b: int, radii: JitterRadii, seed: int
) -> list[SamplePoint]:
    """Sample `b` points per center, each dimension uniform within +-C.

    Integer dimensions are rounded and clamped back into validity: counts stay
    >= 1, and jittered hidden sizes / head counts / GPU counts snap to the
    nearest value inside the window that keeps the architecture divisible.
    A dimension with radius 0 is copied from the center unchanged.
    """
    if b < 1:
        raise ValueError("samples per center must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for center in centers:
        arch0, cfg0 = center.arch, center.cfg
        for _ in range(b):
            layers = _jitter_int(rng, arch0.layer_count, radii.layer_count)
            inter = _jitter_int(rng, arch0.intermediate_size, radii.intermediate_size)

            heads = arch0.head_count
            if radii.head_count:
                lo = max(1, arch0.head_count - radii.head_count)
                hi = arch0.head_count + radii.head_count
                valid = [
                    hc for hc in range(lo, hi + 1)
                    if arch0.hidden_size % hc == 0 and hc % arch0.kv_head_count == 0
                ]
                if valid:
                    heads = _snap(int(rng.integers(lo, hi + 1)), valid)

            hidden = arch0.hidden_size
            if radii.hidden_size:
                lo = max(heads, arch0.hidden_size - radii.hidden_size)
                hi = arch0.hidden_size + radii.hidden_size
                valid = [hs for hs in range(lo, hi + 1) if hs % heads == 0]
                if valid:
                    hidden = _snap(int(rng.integers(lo, hi + 1)), valid)

            gpu_count = cfg0.gpu_count
            if radii.gpu_count:
                lo = max(1, cfg0.gpu_count - radii.gpu_count)
                hi = cfg0.gpu_count + radii.gpu_count
                valid = [g for g in range(lo, hi + 1) if hidden % g == 0]
                if valid:
                    gpu_count = _snap(int(rng.integers(lo, hi + 1)), valid)

            arch = validate_architecture(
                replace(arch0, layer_count=layers, intermediate_size=inter,
                        head_count=heads, hidden_size=hidden)
            )
            cfg = validate_inference(
                InferenceConfig(
                    batch_size=_jitter_int(rng, cfg0.batch_size, radii.batch_size),
                    prompt_length=_jitter_int(rng, cfg0.prompt_length, radii.prompt_length),
                    generated_tokens=_jitter_int(rng, cfg0.generated_tokens,
                                                 radii.generated_tokens),
                    gpu_count=gpu_count,
                )
            )
            out.append(SamplePoint(arch=arch, cfg=cfg, gpu=center.gpu))
    return out


# full-scale sampling sizes for fleets with real measurement; the desk-scale
# LoopHyper defaults (2000 / 50) are what CI and the synthetic oracle use
FULL_SCALE_INITIAL_POINTS = 50_000
FULL_SCALE_REFINE_PER_CENTER = 100

PREFILL_UTILIZATION = 0.8
DECODE_UTILIZATION = 0.4
IDLE_FRACTION = 0.1


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
        times = cost_layer(point.arch, point.cfg, point.gpu).phase_seconds()
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


def label_points(points: list[SamplePoint], oracle) -> list[EnergySample]:
    """Measure every point; failures surface the point's identity."""
    samples = []
    for index, point in enumerate(points):
        try:
            energy = float(oracle.measure(point))
        except Exception as exc:
            raise OracleFailure(f"oracle failed on point {index} ({point.describe()}): {exc}") from exc
        samples.append(EnergySample(point=point, energy_joules=energy))
    return samples


def select_high_error(predict, test_set: list[EnergySample], k: int) -> list[SamplePoint]:
    """The k test points with the largest absolute percentage error.

    `predict` maps an EnergySample to predicted joules.  Ties and the k >
    dataset case resolve in stable index order.
    """
    errors = []
    for index, sample in enumerate(test_set):
        ape = abs(predict(sample) - sample.energy_joules) / sample.energy_joules
        errors.append((-ape, index))
    errors.sort()
    return [test_set[index].point for _, index in errors[: max(0, k)]]


@dataclass
class LoopHyper:
    """Knobs of the focused sampling loop (desk-scale defaults)."""

    initial_points: int = 2000
    refine_per_center: int = 50
    worst_count: int = 50
    radii: JitterRadii = field(default_factory=JitterRadii)
    max_iterations: int = 10
    seed: int = 0
    train: TrainHyper = field(default_factory=TrainHyper)
    update_epochs: int = 60

    def to_dict(self) -> dict:
        return {
            "initial_points": self.initial_points,
            "refine_per_center": self.refine_per_center,
            "worst_count": self.worst_count,
            "radii": self.radii.to_dict(),
            "max_iterations": self.max_iterations,
            "seed": self.seed,
            "learning_rate": self.train.learning_rate,
            "batch_size": self.train.batch_size,
            "epochs": self.train.epochs,
            "update_epochs": self.update_epochs,
        }


@dataclass
class RefinementTrace:
    """Provenance of one refinement round: the centers and what they spawned."""

    centers: list[SamplePoint]
    points: list[SamplePoint]
    test_added: int


@dataclass
class LoopResult:
    train_set: list[EnergySample]
    test_set: list[EnergySample]
    params: GnnParams
    stats: FeatureStats
    error_log: list[float]
    termination: str  # "threshold_met" or "iteration_cap"
    iterations: int
    refinements: list[RefinementTrace]


def _split_20(samples: list[EnergySample], rng: np.random.Generator):
    """Deterministic 80/20 split; 20% (floored) goes to the test side."""
    n_test = len(samples) // 5
    perm = rng.permutation(len(samples))
    test_idx = set(int(i) for i in perm[:n_test])
    train_part = [s for i, s in enumerate(samples) if i not in test_idx]
    test_part = [s for i, s in enumerate(samples) if i in test_idx]
    return train_part, test_part


def focused_sampling_loop(
    space: PriorSpace, oracle, e_threshold: float, hyper: LoopHyper
) -> LoopResult:
    """Run the focused sampling algorithm end to end against the oracle.

    The error functional is MAPE (percent) of the model over the accumulated
    test set.  Feature statistics are fitted once on the initial training
    split and reused for every later featurization, so the model's input
    space stays fixed while data accumulates.
    """
    if e_threshold <= 0:
        raise ValueError("error threshold must be positive")
    rng = np.random.Generator(np.random.PCG64(hyper.seed))

    points = initial_sample(space, hyper.initial_points, seed=hyper.seed)
    labeled = label_points(points, oracle)
    train_set, test_set = _split_20(labeled, rng)

    train_raws = [raw_featurize_point(s.point) for s in train_set]
    stats = fit_stats(train_raws)

    def featurized(sample: EnergySample) -> FeaturizedGraph:
        return featurize_raw(raw_featurize_point(sample.point), stats)

    train_pairs = [
        (featurize_raw(raw, stats), s.energy_joules) for raw, s in zip(train_raws, train_set)
    ]
    test_pairs = [(featurized(s), s.energy_joules) for s in test_set]

    params, _ = train(train_pairs, hyper.train)
    # the test-set predictions of the current params, reused to pick the worst
    preds: list[float] = []

    def current_mape() -> float:
        preds[:] = [predict_energy(fg, params) for fg, _ in test_pairs]
        truths = [s.energy_joules for s in test_set]
        return mape(preds, truths)

    error_log = [current_mape()]
    termination = "threshold_met" if error_log[-1] <= e_threshold else "iteration_cap"
    iterations = 0
    refinements: list[RefinementTrace] = []
    while error_log[-1] > e_threshold and iterations < hyper.max_iterations:
        iterations += 1
        by_index = {id(s): i for i, s in enumerate(test_set)}

        def predict(sample: EnergySample) -> float:
            return preds[by_index[id(sample)]]

        worst = select_high_error(predict, test_set, hyper.worst_count)
        refined = fine_grained_sampling(
            worst, hyper.refine_per_center, hyper.radii, seed=hyper.seed + iterations
        )
        new_samples = label_points(refined, oracle)
        new_train, new_test = _split_20(new_samples, rng)
        refinements.append(
            RefinementTrace(centers=worst, points=refined, test_added=len(new_test))
        )
        train_set += new_train
        test_set += new_test
        train_pairs += [(featurized(s), s.energy_joules) for s in new_train]
        test_pairs += [(featurized(s), s.energy_joules) for s in new_test]

        update_hyper = replace(hyper.train, epochs=hyper.update_epochs,
                               seed=hyper.train.seed + iterations)
        params, _ = train(train_pairs, update_hyper, params=params)
        error_log.append(current_mape())
        termination = "threshold_met" if error_log[-1] <= e_threshold else "iteration_cap"

    return LoopResult(
        train_set=train_set,
        test_set=test_set,
        params=params,
        stats=stats,
        error_log=error_log,
        termination=termination,
        iterations=iterations,
        refinements=refinements,
    )


def raw_featurize_point(point: SamplePoint):
    return raw_features(cost_layer(point.arch, point.cfg, point.gpu))


def evaluate_model(params: GnnParams, stats: FeatureStats, samples: list[EnergySample],
                   deltas=(0.05, 0.10, 0.30)):
    preds = [predict_energy(featurize_raw(raw_featurize_point(s.point), stats), params)
             for s in samples]
    truths = [s.energy_joules for s in samples]
    return evaluate(preds, truths, deltas)


DATASET_FORMAT = "infercarbon-dataset"


def save_dataset(path, samples: list[EnergySample]) -> None:
    """Write a dataset file: one JSON header line, then one record per line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"format": DATASET_FORMAT, "version": 1,
                                 "count": len(samples)}) + "\n")
        for sample in samples:
            handle.write(json.dumps(sample.to_dict()) + "\n")


def append_dataset(path, samples: list[EnergySample]) -> None:
    """Append records to an existing dataset file (header count goes stale;
    load_dataset trusts the records, not the count)."""
    with open(path, "a", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample.to_dict()) + "\n")


def load_dataset(path) -> list[EnergySample]:
    """Read a dataset file.  Every record must describe a valid architecture,
    request and GPU and carry a finite energy > 0; the first that does not is
    reported as ``path:line``."""
    # read as bytes and decoded line by line, so that a bad byte is reported
    # on its own line, not on the line whose read buffered it
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline().decode("utf-8"))
        except ValueError as exc:
            raise ConfigError(f"{path}:1: unreadable dataset header: {exc}") from exc
        if (not isinstance(header, dict) or header.get("format") != DATASET_FORMAT
                or header.get("version") != 1):
            raise ConfigError(f"{path}:1: not a recognized dataset file")
        samples = []
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                sample = EnergySample.from_dict(json.loads(line.decode("utf-8")))
                validate_architecture(sample.point.arch)
                validate_inference(sample.point.cfg)
                validate_gpu(sample.point.gpu)
                # tensor parallelism splits the hidden dimension across the GPUs
                check_partition(sample.point.arch.hidden_size, sample.point.cfg.gpu_count)
                if not (math.isfinite(sample.energy_joules) and sample.energy_joules > 0):
                    raise RangeError(f"energy_joules must be finite and > 0, "
                                     f"got {sample.energy_joules}")
            except KeyError as exc:
                raise ConfigError(f"{path}:{lineno}: missing field {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            samples.append(sample)
        return samples


def config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def build_manifest(hyper: LoopHyper, oracle, threshold: float, extra: dict | None = None) -> dict:
    manifest = {
        "oracle": getattr(oracle, "identity", oracle.__class__.__name__),
        "threshold_mape_percent": threshold,
        **hyper.to_dict(),
    }
    if extra:
        manifest.update(extra)
    manifest["config_hash"] = config_hash(manifest)
    return manifest


def desk_prior_space(gpus, inference_prior=None, gpu_counts=(1, 2, 4)) -> PriorSpace:
    """A compact prior space over realistically-sized models.

    "Desk scale" limits the number of points, not the tensor dimensions: the
    cost equations are closed-form, so pricing a 4096-wide layer is as cheap
    as a 64-wide one, and realistic dimensions put the oracle's energies in
    the joule range where the log-space target transform has room to work.
    """
    gpu_tuple = tuple(gpus.values()) if isinstance(gpus, dict) else tuple(gpus)
    if not gpu_tuple:
        raise EmptyPrior("desk prior space needs at least one GPU")
    flash_base = LlmArchitecture(
        hidden_size=2048, intermediate_size=5632, head_count=16, kv_head_count=4, layer_count=16
    )
    mha_base = LlmArchitecture(
        hidden_size=2048, intermediate_size=8192, head_count=16, kv_head_count=16, layer_count=16,
        flash_attention=False, gated_mlp=False,
    )
    priors = (
        ArchPrior(
            base=flash_base,
            head_count_choices=(8, 16, 32),
            head_dim_choices=(64, 128),
            kv_group_choices=(1, 4, 8),
            layer_delta=8,
            intermediate_ratio_choices=(2.5, 3.0, 4.0),
            weight_dtype_choices=(DataType.FP16, DataType.INT8),
        ),
        ArchPrior(
            base=mha_base,
            head_count_choices=(8, 16, 32),
            head_dim_choices=(64, 128),
            kv_group_choices=(1,),
            layer_delta=8,
            intermediate_ratio_choices=(4.0,),
            weight_dtype_choices=(DataType.FP16,),
        ),
    )
    return PriorSpace(
        arch_priors=priors,
        inference_prior=inference_prior
        or ParametricInferencePrior(prompt_range=(16, 2048), gen_range=(1, 256)),
        hardware_prior=HardwarePrior(gpus=gpu_tuple, gpu_counts=tuple(gpu_counts)),
    )
