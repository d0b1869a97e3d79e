"""Focused energy data sampling over architecture x request x hardware space.

The loop draws an initial batch of configurations from prior distributions,
trains the graph regressor, then repeatedly refines: pick the test points the
model gets most wrong, jitter each of them within small per-dimension radii,
label the new points with the energy oracle, fold 20% of them into the
accumulated test set and the rest into the training set, and update the
model.  It stops when the test error drops under the threshold or the
iteration cap is reached.

Real GPU measurement is out of scope here; a deterministic synthetic oracle
built on the cost model and Roofline times (`oracle.SyntheticEnergyOracle`)
stands in for it so the whole pipeline can run and be verified on a
workstation.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arch import (JSON_DECODERS, DataType, InferenceConfig, LlmArchitecture, RangeError,
                   check_keys, check_minimums)
from .costmodel import check_partition
from .features import FeatureStats, FeaturizedGraph, featurize_raw, fit_stats, raw_features
from .gnn import GnnParams, TrainHyper, evaluate, predict_many, relative_errors, train
from .kvfile import ConfigError
from .oracle import OracleFailure, SyntheticEnergyOracle  # noqa: F401  (re-exported)
from .roofline import GpuSpec, SamplePoint, cost_layer, ridge_points


class EmptyPrior(ValueError):
    """A prior distribution has nothing to draw from."""


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
        check_keys(d, ("arch", "inference", "gpu", "energy_joules"), "record")
        return cls(point=SamplePoint.from_dict(d),
                   energy_joules=JSON_DECODERS["float"]("energy_joules", d["energy_joules"]))


@dataclass(frozen=True)
class JitterRadii:
    """Half-widths of the three dimensions fine-grained sampling jitters."""

    prompt_length: int = 10
    generated_tokens: int = 1
    layer_count: int = 1

    def __post_init__(self):
        check_minimums(self, (("prompt_length", 0), ("generated_tokens", 0), ("layer_count", 0)))


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


class BatchMixture:
    """A batch-size distribution: each size's weight, normalized.

    A draw is the size ``rng.choice(sorted sizes, p=weights)`` returns, from
    the same one ``rng.random()``: the cdf is built once, as
    ``Generator.choice`` builds it on every call, and bisected.
    """

    def __init__(self, mixture: dict[int, float]):
        self.sizes = sorted(mixture)
        weights = np.array([mixture[s] for s in self.sizes], dtype=np.float64)
        cdf = (weights / weights.sum()).cumsum()
        self.cdf = (cdf / cdf[-1]).tolist()

    def draw(self, rng: np.random.Generator) -> int:
        return self.sizes[bisect.bisect_right(self.cdf, rng.random())]


# batch size -> weight: the small-batch mixture both inference priors draw from
DEFAULT_BATCH_MIXTURE = {1: 0.6, 2: 0.3, 4: 0.1}
_DEFAULT_BATCHES = BatchMixture(DEFAULT_BATCH_MIXTURE)


class ParametricInferencePrior:
    """Log-uniform prompt (16-2048) and generation (1-256) lengths and the
    default small-batch mixture."""

    def draw(self, rng: np.random.Generator) -> tuple[int, int, int]:
        batch = _DEFAULT_BATCHES.draw(rng)
        prompt = _log_uniform_int(rng, 16, 2048)
        gen = _log_uniform_int(rng, 1, 256)
        return batch, prompt, gen


def _pick(rng: np.random.Generator, seq):
    """A uniform pick from `seq`: the item ``rng.choice(seq)`` returns, from
    the same draw, without the array ``Generator.choice`` makes of `seq`."""
    return seq[int(rng.integers(len(seq)))]


def _log_uniform_int(rng: np.random.Generator, lo: int, hi: int) -> int:
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
        heads = _pick(rng, prior.head_count_choices)
    head_dim = base.hidden_size // base.head_count
    if prior.head_dim_choices:
        head_dim = _pick(rng, prior.head_dim_choices)
    groups = [g for g in prior.kv_group_choices if heads % g == 0] or [1]
    kv = heads // _pick(rng, groups)
    layers = max(1, base.layer_count + int(rng.integers(-prior.layer_delta,
                                                        prior.layer_delta + 1)))
    hidden = heads * head_dim
    inter = base.intermediate_size
    if prior.intermediate_ratio_choices:
        ratio = _pick(rng, prior.intermediate_ratio_choices)
        inter = max(1, int(round(ratio * hidden)))
    weight_dtype = base.weight_dtype
    if prior.weight_dtype_choices:
        weight_dtype = _pick(rng, prior.weight_dtype_choices)
    return replace(
        base,
        hidden_size=hidden,
        head_count=heads,
        kv_head_count=kv,
        layer_count=layers,
        intermediate_size=inter,
        weight_dtype=weight_dtype,
    )


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
        prior = _pick(rng, space.arch_priors)
        arch = _sample_arch(prior, rng)
        batch, prompt, gen = space.inference_prior.draw(rng)
        gpu = _pick(rng, space.hardware_prior.gpus)
        counts = [c for c in space.hardware_prior.gpu_counts if arch.hidden_size % c == 0]
        if not counts:
            counts = [1]
        gpu_count = _pick(rng, counts)
        cfg = InferenceConfig(batch_size=batch, prompt_length=prompt,
                              generated_tokens=gen, gpu_count=gpu_count)
        points.append(SamplePoint(arch=arch, cfg=cfg, gpu=gpu))
    return points


def _jitter_int(rng: np.random.Generator, center: int, radius: int) -> int:
    if radius == 0:
        return center
    return max(1, int(rng.integers(center - radius, center + radius + 1)))


def fine_grained_sampling(
    centers: list[SamplePoint], b: int, radii: JitterRadii, seed: int
) -> list[SamplePoint]:
    """Sample `b` points per center, jittering the layer count, prompt length
    and generated tokens each uniformly within +-radius, clamped to >= 1.

    Everything else (the rest of the architecture, the batch size, the GPU
    count and the GPU) is copied from the center, so every point stays as
    valid as its center.  A dimension with radius 0 is copied too.
    """
    if b < 1:
        raise ValueError("samples per center must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for center in centers:
        arch0, cfg0 = center.arch, center.cfg
        for _ in range(b):
            layers = _jitter_int(rng, arch0.layer_count, radii.layer_count)
            cfg = replace(
                cfg0,
                prompt_length=_jitter_int(rng, cfg0.prompt_length, radii.prompt_length),
                generated_tokens=_jitter_int(rng, cfg0.generated_tokens, radii.generated_tokens),
            )
            out.append(SamplePoint(arch=replace(arch0, layer_count=layers), cfg=cfg,
                                   gpu=center.gpu))
    return out


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
    errors = relative_errors([predict(s) for s in test_set], [s.energy_joules for s in test_set])
    return _worst_points(errors, test_set, k)


def _worst_points(errors: np.ndarray, test_set: list[EnergySample], k: int) -> list[SamplePoint]:
    """The points of the k largest relative `errors`, ties in index order."""
    return [test_set[i].point for i in np.argsort(-errors, kind="stable")[: max(0, k)]]


@dataclass
class LoopHyper:
    """Knobs of the focused sampling loop (desk-scale defaults)."""

    initial_points: int = 2000
    refine_per_center: int = 50
    worst_count: int = 50
    max_iterations: int = 10
    seed: int = 0
    train: TrainHyper = field(default_factory=TrainHyper)
    update_epochs: int = 60

    def __post_init__(self):
        # below 5 initial points the 20% test split is empty
        check_minimums(self, (("initial_points", 5), ("refine_per_center", 1), ("worst_count", 1),
                              ("max_iterations", 0), ("seed", 0), ("update_epochs", 1)))

    def to_dict(self) -> dict:
        return {
            "initial_points": self.initial_points,
            "refine_per_center": self.refine_per_center,
            "worst_count": self.worst_count,
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
    if not e_threshold > 0:  # NaN included
        raise ValueError(f"error threshold must be > 0, got {e_threshold}")
    rng = np.random.Generator(np.random.PCG64(hyper.seed))

    points = initial_sample(space, hyper.initial_points, seed=hyper.seed)
    train_set, new_test = _split_20(label_points(points, oracle), rng)
    train_pairs, stats = featurized(train_set)
    params, _ = train(train_pairs, hyper.train)

    test_set: list[EnergySample] = []
    test_graphs: list[FeaturizedGraph] = []
    error_log: list[float] = []
    refinements: list[RefinementTrace] = []
    while True:  # one round: score the model, then stop or refine and retrain
        test_set += new_test
        test_graphs += [graph for graph, _ in featurized(new_test, stats)[0]]
        errors = relative_errors(predict_many(test_graphs, params),
                                 [s.energy_joules for s in test_set])
        error_log.append(float(errors.mean() * 100.0))  # the MAPE, in percent
        # a NaN error stops the loop as well
        if not error_log[-1] > e_threshold or len(refinements) >= hyper.max_iterations:
            break
        worst = _worst_points(errors, test_set, hyper.worst_count)
        refined = fine_grained_sampling(
            worst, hyper.refine_per_center, JitterRadii(), seed=hyper.seed + len(refinements) + 1
        )
        new_train, new_test = _split_20(label_points(refined, oracle), rng)
        refinements.append(RefinementTrace(worst, refined, test_added=len(new_test)))
        train_set += new_train
        train_pairs += featurized(new_train, stats)[0]
        update_hyper = replace(hyper.train, epochs=hyper.update_epochs,
                               seed=hyper.train.seed + len(refinements))
        params, _ = train(train_pairs, update_hyper, params=params)

    termination = "threshold_met" if error_log[-1] <= e_threshold else "iteration_cap"
    return LoopResult(train_set=train_set, test_set=test_set, params=params, stats=stats,
                      error_log=error_log, termination=termination,
                      iterations=len(refinements), refinements=refinements)


def featurized(samples: list[EnergySample], stats: FeatureStats | None = None):
    """Each sample as a (featurized graph, joules) pair, in order, and the
    statistics used: `stats`, or when None those fitted on `samples` alone
    (so a training split's, never a test split's); each layer is costed once."""
    raws = [raw_features(cost_layer(s.point.arch, s.point.cfg, s.point.gpu)) for s in samples]
    if stats is None:
        stats = fit_stats(raws)
    return [(featurize_raw(raw, stats), s.energy_joules) for raw, s in zip(raws, samples)], stats


def evaluate_model(params: GnnParams, stats: FeatureStats, samples: list[EnergySample]):
    pairs, _ = featurized(samples, stats)
    return evaluate(predict_many([graph for graph, _ in pairs], params),
                    [joules for _, joules in pairs])


DATASET_FORMAT = "infercarbon-dataset"
DATASET_HEADER_KEYS = ("format", "version", "count")


def save_dataset(path, samples: list[EnergySample]) -> None:
    """Write a dataset file: one JSON header line, then one record per line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"format": DATASET_FORMAT, "version": 1,
                                 "count": len(samples)}) + "\n")
        for sample in samples:
            handle.write(json.dumps(sample.to_dict()) + "\n")


def load_dataset(path) -> list[EnergySample]:
    """Read a dataset file.  Every record must describe a valid architecture,
    request and GPU (each checks itself when built), split the hidden size
    across its GPUs, give the GPU a peak throughput at the activation data
    type and carry a finite energy > 0; the first that does not is reported
    as ``path:line``.  The header holds only its format, version and count,
    and the count must equal the number of records, so a truncated file is
    refused."""
    # read as bytes and decoded line by line, so that a bad byte is reported
    # on its own line, not on the line whose read buffered it
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline().decode("utf-8"))
        except ValueError as exc:
            raise ConfigError(f"{path}:1: unreadable dataset header: {exc}") from exc
        if (not isinstance(header, dict) or header.get("format") != DATASET_FORMAT
                or type(header.get("version")) is not int or header["version"] != 1):
            raise ConfigError(f"{path}:1: not a recognized dataset file")
        try:
            check_keys(header, DATASET_HEADER_KEYS, "header")
        except ConfigError as exc:
            raise ConfigError(f"{path}:1: {exc}") from exc
        samples = []
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                sample = EnergySample.from_dict(json.loads(line.decode("utf-8")))
                point = sample.point
                # tensor parallelism splits the hidden dimension across the GPUs
                check_partition(point.arch.hidden_size, point.cfg.gpu_count)
                # and every kernel roofs against the activation type's peak
                ridge_points(point.gpu, point.arch.activation_dtype)
                if not (math.isfinite(sample.energy_joules) and sample.energy_joules > 0):
                    raise RangeError(f"energy_joules must be finite and > 0, "
                                     f"got {sample.energy_joules}")
            except (ValueError, TypeError, OverflowError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            samples.append(sample)
    count = header["count"]
    if type(count) is not int or count != len(samples):
        raise ConfigError(f"{path}:1: header count {count!r} but {len(samples)} records")
    return samples


def config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def build_manifest(hyper: LoopHyper, oracle, threshold: float, extra: dict | None = None) -> dict:
    """A run's settings, then `extra` (its results), then `config_hash`: a hash
    of the settings alone, so one configuration hashes alike whatever it gave."""
    settings = {
        "oracle": getattr(oracle, "identity", oracle.__class__.__name__),
        "threshold_mape_percent": threshold,
        **hyper.to_dict(),
    }
    return {**settings, **(extra or {}), "config_hash": config_hash(settings)}


def desk_prior_space(gpus, inference_prior=None) -> PriorSpace:
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
        inference_prior=inference_prior or ParametricInferencePrior(),
        hardware_prior=HardwarePrior(gpus=gpu_tuple),
    )
