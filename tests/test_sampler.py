import dataclasses
import json
import re

import numpy as np
import pytest

from infercarbon.arch import InferenceConfig, LlmArchitecture, RangeError
from infercarbon.costmodel import Phase
from infercarbon.features import featurize_raw, fit_stats, raw_features
from infercarbon import oracle as oracle_mod
from infercarbon import sampler as sampler_mod
from infercarbon.gnn import TrainHyper, predict_many
from infercarbon.kvfile import ConfigError
from infercarbon.roofline import builtin_gpu_catalog, cost_layer
from infercarbon.sampler import (
    EmptyPrior,
    EnergySample,
    HardwarePrior,
    JitterRadii,
    LoopHyper,
    OracleFailure,
    PriorSpace,
    SamplePoint,
    SyntheticEnergyOracle,
    build_manifest,
    desk_prior_space,
    featurized,
    fine_grained_sampling,
    focused_sampling_loop,
    initial_sample,
    label_points,
    load_dataset,
    save_dataset,
    select_high_error,
)


@pytest.fixture(scope="module")
def gpus():
    return builtin_gpu_catalog()


@pytest.fixture(scope="module")
def space(gpus):
    return desk_prior_space(gpus)


def center_point(gpus, **cfg_overrides):
    arch = LlmArchitecture(
        hidden_size=64, intermediate_size=128, head_count=4, kv_head_count=2, layer_count=4
    )
    cfg = dict(batch_size=1, prompt_length=32, generated_tokens=8, gpu_count=1)
    cfg.update(cfg_overrides)
    return SamplePoint(arch=arch, cfg=InferenceConfig(**cfg), gpu=gpus["l4"])


MISSING = object()  # a field value that deletes the field


def write_one_record(tmp_path, gpus, section, field, value):
    """A one-record dataset whose record has `field` of `section` (or of the
    record itself if `section` is None) set to `value`."""
    path = tmp_path / "data.jsonl"
    save_dataset(path, label_points([center_point(gpus)], SyntheticEnergyOracle()))
    header, line = path.read_text().splitlines()
    record = json.loads(line)
    fields = record[section] if section else record
    if value is MISSING:
        del fields[field]
    else:
        fields[field] = value
    path.write_text(header + "\n" + json.dumps(record) + "\n")
    return path


class TestInitialSample:
    def test_reproducible_and_valid(self, space):
        first = initial_sample(space, 40, seed=5)
        second = initial_sample(space, 40, seed=5)
        assert first == second
        for point in first:
            assert dataclasses.replace(point.arch) == point.arch  # rebuilding re-runs its checks
            assert point.cfg.batch_size >= 1
            assert point.arch.hidden_size % point.cfg.gpu_count == 0

    def test_seed_changes_draws(self, space):
        assert initial_sample(space, 40, seed=1) != initial_sample(space, 40, seed=2)

    def test_batch_mass_concentrated_small(self, space):
        points = initial_sample(space, 800, seed=9)
        small = sum(1 for p in points if p.cfg.batch_size <= 2)
        assert small / len(points) > 0.8

    def test_empty_priors_rejected(self, space, gpus):
        empty_arch = PriorSpace(
            arch_priors=(), inference_prior=space.inference_prior,
            hardware_prior=space.hardware_prior,
        )
        with pytest.raises(EmptyPrior):
            initial_sample(empty_arch, 1, seed=0)
        empty_hw = PriorSpace(
            arch_priors=space.arch_priors, inference_prior=space.inference_prior,
            hardware_prior=HardwarePrior(gpus=()),
        )
        with pytest.raises(EmptyPrior):
            initial_sample(empty_hw, 1, seed=0)

    @pytest.mark.parametrize("mixture", [
        sampler_mod.DEFAULT_BATCH_MIXTURE, {1: 0.2, 3: 0.5, 8: 0.3}, {4: 1, 1: 3}, {2: 1.0},
    ])
    def test_batch_draws_equal_generator_choice(self, mixture):
        # the kept cdf gives the sizes rng.choice(p=...) gives, from the same stream
        sizes = sorted(mixture)
        weights = np.array([mixture[s] for s in sizes], dtype=np.float64)
        weights = weights / weights.sum()
        batches = sampler_mod.BatchMixture(mixture)
        ours, numpys = (np.random.Generator(np.random.PCG64(11)) for _ in range(2))
        assert ([batches.draw(ours) for _ in range(10_000)]
                == [int(numpys.choice(sizes, p=weights)) for _ in range(10_000)])
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("seq", [
        (8, 16, 32), (64, 128), (1,), (2.5, 3.0, 4.0), [1, 2, 4], ("fp16", "int8"),
    ])
    def test_uniform_picks_equal_generator_choice(self, seq):
        ours, numpys = (np.random.Generator(np.random.PCG64(12)) for _ in range(2))
        assert ([sampler_mod._pick(ours, seq) for _ in range(10_000)]
                == [numpys.choice(seq) for _ in range(10_000)])
        assert ours.random() == numpys.random()


class TestFineGrainedSampling:
    def test_outputs_stay_within_radii(self, gpus):
        center = center_point(gpus)
        radii = JitterRadii(prompt_length=10, generated_tokens=1, layer_count=1)
        points = fine_grained_sampling([center], 200, radii, seed=3)
        assert len(points) == 200
        for p in points:
            assert abs(p.cfg.prompt_length - 32) <= 10
            assert abs(p.cfg.generated_tokens - 8) <= 1
            assert abs(p.arch.layer_count - 4) <= 1
            # dimensions with zero radius are untouched
            assert p.arch.hidden_size == 64
            assert p.cfg.batch_size == 1
            assert p.gpu.name == "l4"

    def test_zero_radii_copies_center(self, gpus):
        center = center_point(gpus)
        radii = JitterRadii(prompt_length=0, generated_tokens=0, layer_count=0)
        points = fine_grained_sampling([center], 5, radii, seed=1)
        assert all(p == center for p in points)

    def test_clamping_at_domain_floor(self, gpus):
        center = center_point(gpus, prompt_length=5)
        radii = JitterRadii(prompt_length=10)
        points = fine_grained_sampling([center], 300, radii, seed=7)
        lows = [p.cfg.prompt_length for p in points]
        assert min(lows) >= 1
        assert all(abs(v - 5) <= 10 for v in lows)

    def test_draw_order_is_layers_prompt_gen(self, gpus):
        # one stream seeded once; per point: layers, then prompt, then generated
        # tokens, so the recorded triples change if the order or a draw does
        wide = SamplePoint(
            arch=LlmArchitecture(hidden_size=2048, intermediate_size=5632, head_count=16,
                                 kv_head_count=4, layer_count=16),
            cfg=InferenceConfig(batch_size=2, prompt_length=300, generated_tokens=1,
                                gpu_count=2),
            gpu=gpus["a100"])
        centers = [center_point(gpus), wide]
        points = fine_grained_sampling(centers, 4, JitterRadii(), seed=3)
        assert [(p.arch.layer_count, p.cfg.prompt_length, p.cfg.generated_tokens)
                for p in points] == [(5, 23, 7), (3, 25, 9), (5, 34, 7), (3, 28, 8),
                                     (16, 300, 1), (15, 304, 2), (15, 292, 1), (16, 308, 1)]
        for i, p in enumerate(points):
            center = centers[i // 4]
            assert p.arch == dataclasses.replace(center.arch, layer_count=p.arch.layer_count)
            assert (p.cfg.batch_size, p.cfg.gpu_count) == (center.cfg.batch_size,
                                                           center.cfg.gpu_count)
            assert p.gpu == center.gpu

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            JitterRadii(prompt_length=-1)


class TestSelectHighError:
    def make_set(self, gpus, truths):
        return [
            EnergySample(point=center_point(gpus, prompt_length=16 + i), energy_joules=t)
            for i, t in enumerate(truths)
        ]

    def test_picks_worst(self, gpus):
        samples = self.make_set(gpus, [100.0, 100.0, 100.0])
        preds = {id(s): v for s, v in zip(samples, [110.0, 300.0, 101.0])}
        worst = select_high_error(lambda s: preds[id(s)], samples, 1)
        assert worst == [samples[1].point]

    def test_perfect_model_ties_stable(self, gpus):
        samples = self.make_set(gpus, [50.0, 60.0, 70.0])
        worst = select_high_error(lambda s: s.energy_joules, samples, 2)
        assert worst == [samples[0].point, samples[1].point]

    def test_k_saturates(self, gpus):
        samples = self.make_set(gpus, [50.0, 60.0])
        worst = select_high_error(lambda s: 0.0, samples, 10)
        assert len(worst) == 2

    def test_ranks_like_a_stable_sort_of_relative_errors(self, gpus):
        rng = np.random.Generator(np.random.PCG64(3))
        truths = rng.choice([10.0, 20.0, 40.0], size=30).tolist()
        samples = self.make_set(gpus, truths)
        # repeated predictions make many equal errors, which keep index order
        preds = {id(s): t * float(rng.choice([0.5, 1.0, 1.5, 3.0]))
                 for s, t in zip(samples, truths)}
        want = sorted(range(len(samples)),
                      key=lambda i: (-abs(preds[id(samples[i])] - truths[i]) / truths[i], i))
        for k in (0, 1, 7, 30, 40):
            worst = select_high_error(lambda s: preds[id(s)], samples, k)
            assert worst == [samples[i].point for i in want[:k]]


class TestFeaturized:
    @pytest.fixture(scope="class")
    def samples(self, space):
        # desk-prior points with energies out of oracle order, so order shows
        points = initial_sample(space, 12, seed=5)
        return [EnergySample(p, float(100 - i)) for i, p in enumerate(points)]

    @staticmethod
    def raws(samples):
        return [raw_features(cost_layer(s.point.arch, s.point.cfg, s.point.gpu)) for s in samples]

    def test_fits_the_statistics_of_exactly_these_samples(self, samples):
        pairs, stats = featurized(samples)
        want = fit_stats(self.raws(samples))
        for name, array in vars(want).items():
            assert getattr(stats, name).tobytes() == array.tobytes()
        assert len(pairs) == len(samples)

    def test_given_statistics_come_back_and_standardize_each_sample(self, samples):
        stats = fit_stats(self.raws(samples[:4]))
        pairs, used = featurized(samples[4:], stats)
        assert used is stats
        for (graph, _), raw in zip(pairs, self.raws(samples[4:]), strict=True):
            want = featurize_raw(raw, stats)
            assert graph.features.tobytes() == want.features.tobytes()
            assert graph.global_features.tobytes() == want.global_features.tobytes()
            assert graph.agg is want.agg

    def test_energies_come_back_in_sample_order(self, samples):
        pairs, stats = featurized(samples)
        assert [joules for _, joules in pairs] == [s.energy_joules for s in samples]
        assert [joules for _, joules in featurized(samples[::-1], stats)[0]] == [
            s.energy_joules for s in samples[::-1]]

    def test_an_empty_split_has_no_statistics(self):
        with pytest.raises(ValueError, match="^cannot fit feature statistics on an empty split$"):
            featurized([])


class TestSyntheticOracle:
    def test_one_class_under_every_name(self):
        import infercarbon
        from infercarbon import oracle

        assert sampler_mod.SyntheticEnergyOracle is oracle.SyntheticEnergyOracle
        assert infercarbon.SyntheticEnergyOracle is oracle.SyntheticEnergyOracle
        assert SyntheticEnergyOracle is oracle.SyntheticEnergyOracle
        assert oracle.SyntheticEnergyOracle.__module__ == "infercarbon.oracle"

    def test_positive_and_deterministic(self, gpus):
        oracle = SyntheticEnergyOracle()
        point = center_point(gpus)
        assert oracle.measure(point) > 0
        assert oracle.measure(point) == oracle.measure(point)

    def test_single_token_request_is_prefill_only(self, gpus):
        oracle = SyntheticEnergyOracle()
        point = center_point(gpus, generated_tokens=1)
        breakdown = oracle.measure_breakdown(point)
        assert breakdown["decode_joules"] == 0.0
        assert breakdown["total_joules"] == breakdown["prefill_joules"] > 0

    def test_layer_count_scales_energy_exactly(self, gpus):
        oracle = SyntheticEnergyOracle()
        point = center_point(gpus)
        doubled = SamplePoint(
            arch=dataclasses.replace(point.arch, layer_count=point.arch.layer_count * 2),
            cfg=point.cfg,
            gpu=point.gpu,
        )
        assert oracle.measure(doubled) == pytest.approx(2.0 * oracle.measure(point), rel=1e-12)

    def test_phase_times_positive(self, gpus):
        point = center_point(gpus)
        times = cost_layer(point.arch, point.cfg, point.gpu).phase_seconds
        assert times[Phase.PREFILL] > 0
        assert times[Phase.DECODE] > 0

    def test_oracle_failure_names_the_point(self, gpus):
        class Broken:
            def measure(self, point):
                raise RuntimeError("boom")

        with pytest.raises(OracleFailure) as err:
            label_points([center_point(gpus)], Broken())
        assert "point 0" in str(err.value)
        assert "l4" in str(err.value)


def tiny_loop_hyper(**overrides):
    base = dict(
        initial_points=80,
        refine_per_center=10,
        worst_count=3,
        max_iterations=2,
        seed=0,
        train=TrainHyper(epochs=8, batch_size=32, seed=0),
        update_epochs=4,
    )
    base.update(overrides)
    return LoopHyper(**base)


class TestFocusedLoop:
    def test_huge_threshold_means_single_pass(self, space):
        result = focused_sampling_loop(space, SyntheticEnergyOracle(), 1e9, tiny_loop_hyper())
        assert result.termination == "threshold_met"
        assert result.iterations == 0
        assert len(result.error_log) == 1
        assert len(result.train_set) == 64 and len(result.test_set) == 16

    def test_zero_iteration_cap_reports_cap(self, space):
        hyper = tiny_loop_hyper(max_iterations=0)
        result = focused_sampling_loop(space, SyntheticEnergyOracle(), 0.001, hyper)
        assert result.termination == "iteration_cap"
        assert result.iterations == 0

    def test_refinement_grows_sets_by_exact_split(self, space):
        hyper = tiny_loop_hyper(max_iterations=1)
        result = focused_sampling_loop(space, SyntheticEnergyOracle(), 0.001, hyper)
        assert result.iterations == 1
        new_points = hyper.worst_count * hyper.refine_per_center  # 30
        assert len(result.test_set) == 16 + new_points // 5
        assert len(result.train_set) == 64 + new_points - new_points // 5

    def test_loop_reproducible(self, space):
        hyper = tiny_loop_hyper(max_iterations=1)
        a = focused_sampling_loop(space, SyntheticEnergyOracle(), 0.001, hyper)
        b = focused_sampling_loop(space, SyntheticEnergyOracle(), 0.001, hyper)
        assert a.error_log == b.error_log
        assert a.train_set == b.train_set
        assert a.test_set == b.test_set
        for x, y in zip(a.params.as_list(), b.params.as_list()):
            assert np.array_equal(x, y)

    def test_each_test_sample_is_predicted_once_per_round(self, space, monkeypatch):
        # 160 initial points, two rounds of 8 x 8 refinements: the test set
        # holds 32, 44 and 56 samples when the MAPE is taken
        hyper = tiny_loop_hyper(initial_points=160, worst_count=8, refine_per_center=8,
                                train=TrainHyper(epochs=1, batch_size=32, seed=0),
                                update_epochs=1)
        calls = []

        def counted(graphs, params):
            calls.extend(graphs)
            return predict_many(graphs, params)

        monkeypatch.setattr(sampler_mod, "predict_many", counted)
        result = focused_sampling_loop(space, SyntheticEnergyOracle(), 1e-6, hyper)
        assert [len(r.centers) for r in result.refinements] == [8, 8]
        assert len(calls) == 32 + 44 + 56

    def test_each_labelled_point_is_priced_twice(self, space, monkeypatch):
        # once by the oracle to label it and once by the loop to featurize it
        counts = {"oracle": 0, "sampler": 0}
        for name, module in (("oracle", oracle_mod), ("sampler", sampler_mod)):
            def counted(*args, name=name, **kwargs):
                counts[name] += 1
                return cost_layer(*args, **kwargs)

            monkeypatch.setattr(module, "cost_layer", counted)
        hyper = tiny_loop_hyper(max_iterations=1)
        result = focused_sampling_loop(space, SyntheticEnergyOracle(), 0.001, hyper)
        assert len(result.refinements) == 1
        labelled = len(result.train_set) + len(result.test_set)
        assert counts == {"oracle": labelled, "sampler": labelled}

    @pytest.mark.parametrize("field, value, message", [
        ("initial_points", 0, "initial_points must be >= 5, got 0"),
        ("initial_points", 4, "initial_points must be >= 5, got 4"),  # no test split
        ("refine_per_center", 0, "refine_per_center must be >= 1, got 0"),
        ("worst_count", 0, "worst_count must be >= 1, got 0"),
        ("worst_count", -2, "worst_count must be >= 1, got -2"),
        ("max_iterations", -1, "max_iterations must be >= 0, got -1"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("update_epochs", 0, "update_epochs must be >= 1, got 0"),
        ("update_epochs", -3, "update_epochs must be >= 1, got -3"),
    ])
    def test_rejects_bad_loop_counts(self, field, value, message):
        with pytest.raises(RangeError, match=f"^{message}$") as caught:
            LoopHyper(**{field: value})
        assert caught.value.field == field

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
    def test_rejects_bad_threshold(self, space, monkeypatch, threshold):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(sampler_mod, "initial_sample", refuse)
        with pytest.raises(ValueError, match=f"^error threshold must be > 0, got {threshold}$"):
            focused_sampling_loop(space, SyntheticEnergyOracle(), threshold, tiny_loop_hyper())


class TestDatasetIO:
    def test_roundtrip(self, tmp_path, gpus):
        oracle = SyntheticEnergyOracle()
        points = [center_point(gpus, prompt_length=8 + i) for i in range(5)]
        samples = label_points(points, oracle)
        path = tmp_path / "data.jsonl"
        save_dataset(path, samples)
        loaded = load_dataset(path)
        assert loaded == samples

    def test_truncated_file_is_refused(self, tmp_path, gpus):
        samples = label_points([center_point(gpus, prompt_length=8 + i) for i in range(3)],
                               SyntheticEnergyOracle())
        path = tmp_path / "data.jsonl"
        save_dataset(path, samples)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")  # the header and one record
        message = f"{path}:1: header count 3 but 1 records"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    @pytest.mark.parametrize("count", [None, "2", 2.0, True, -1])
    def test_rejects_a_header_count_that_is_not_the_record_count(self, tmp_path, gpus, count):
        samples = label_points([center_point(gpus, prompt_length=8 + i) for i in range(2)],
                               SyntheticEnergyOracle())
        path = tmp_path / "data.jsonl"
        save_dataset(path, samples)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        if count is None:
            del header["count"]
        else:
            header["count"] = count
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        message = (f"{path}:1: header has no key 'count'" if count is None
                   else f"{path}:1: header count {count!r} but 2 records")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "nope", "version": 9}\n')
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_rejects_a_header_version_that_is_a_bool(self, tmp_path, gpus):
        path = tmp_path / "data.jsonl"
        save_dataset(path, label_points([center_point(gpus)], SyntheticEnergyOracle()))
        header, record = path.read_text().splitlines()
        path.write_text(header.replace('"version": 1', '"version": true') + "\n" + record + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:1: not a recognized"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["oracle", "seed", "Count"])
    def test_rejects_a_header_key_the_format_does_not_define(self, tmp_path, gpus, key):
        path = tmp_path / "data.jsonl"
        save_dataset(path, label_points([center_point(gpus)], SyntheticEnergyOracle()))
        header, record = path.read_text().splitlines()
        path.write_text(json.dumps({**json.loads(header), key: 1}) + "\n" + record + "\n")
        message = (f"{path}:1: header has an undefined key '{key}' "
                   "(the keys are format, version, count)")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    @pytest.mark.parametrize("header", [b"[1]\n", b"", b"not json\n", b'"text"\n', b"\xff\n"])
    def test_rejects_malformed_header_with_path(self, tmp_path, header):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(header)
        with pytest.raises(ConfigError, match=re.escape(f"{path}:1: ")):
            load_dataset(path)

    def test_undecodable_record_is_reported_on_its_line(self, tmp_path, gpus):
        samples = label_points([center_point(gpus, prompt_length=8 + i) for i in range(2)],
                               SyntheticEnergyOracle())
        path = tmp_path / "data.jsonl"
        save_dataset(path, samples)
        lines = path.read_bytes().splitlines()
        lines[2] = lines[2][:-1] + b"\xff}"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: ")):
            load_dataset(path)

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("arch", "layer_count", 0),
            ("arch", "hidden_size", -64),
            ("arch", "head_count", 3),  # does not divide hidden size 64
            ("arch", "kv_head_count", 8),  # more KV heads than heads
            ("inference", "batch_size", 0),
            ("inference", "prompt_length", 0),
            ("inference", "generated_tokens", -1),
            ("inference", "gpu_count", 0),
            ("gpu", "bw_max", -1.0),
            ("gpu", "net_max", 0.0),
            ("gpu", "power_w", 0.0),
            ("gpu", "s_block", 0),
            ("gpu", "th_max", {"FP16": -1.0}),
            (None, "energy_joules", -2.5),
            (None, "energy_joules", 0.0),
            (None, "energy_joules", float("nan")),
            (None, "energy_joules", float("inf")),
            ("inference", "gpu_count", 3),  # does not divide hidden size 64
            ("gpu", "bw_max", float("nan")),
            ("gpu", "power_w", float("nan")),
            ("gpu", "th_max", {"FP16": float("nan")}),
            pytest.param("gpu", "power_w", 10**400, id="gpu-power_w-too-large-for-a-float"),
            ("gpu", "bw_max", float("inf")),
            ("gpu", "net_max", float("inf")),
            ("gpu", "power_w", float("inf")),
            pytest.param("gpu", "th_max", {"FP16": float("inf")}, id="gpu-th_max-FP16-inf"),
            ("gpu", "area_mm2", -545.0),
            ("gpu", "area_mm2", float("nan")),
            ("gpu", "area_mm2", float("inf")),
            ("gpu", "tech_nm", -1),
            ("gpu", "node_size", 0),
        ],
    )
    def test_rejects_invalid_record_with_path_and_line(self, tmp_path, gpus, section, field,
                                                       value):
        samples = label_points([center_point(gpus, prompt_length=8 + i) for i in range(3)],
                               SyntheticEnergyOracle())
        path = tmp_path / "data.jsonl"
        save_dataset(path, samples)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])  # the second record, on line 3
        (record[section] if section else record)[field] = value
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: ")):
            load_dataset(path)

    def test_rejects_record_missing_a_field(self, tmp_path, gpus):
        samples = label_points([center_point(gpus)], SyntheticEnergyOracle())
        path = tmp_path / "data.jsonl"
        save_dataset(path, samples)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["energy_joules"]
        path.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}:2: record has no key 'energy_joules'")):
            load_dataset(path)

    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            ("arch", "weight_dtype", "FP8", "unknown data type 'FP8'"),
            ("arch", "kv_dtype", "fp16", "unknown data type 'fp16'"),  # names are exact
            ("gpu", "th_max", {"FP16": 1e14, "BF16": 1e14}, "unknown data type 'BF16'"),
            ("gpu", "th_max", {}, "GPU 'l4' defines no peak throughput"),
            ("gpu", "th_max", {"INT8": 1e14}, "GPU 'l4' has no peak throughput for FP16"),
        ],
    )
    def test_reports_what_is_wrong_with_a_record(self, tmp_path, gpus, section, field, value,
                                                 message):
        samples = label_points([center_point(gpus)], SyntheticEnergyOracle())
        path = tmp_path / "data.jsonl"
        save_dataset(path, samples)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[section][field] = value
        path.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            ("gpu", "th_max", [1.0], "field 'th_max' must be an object, got [1.0]"),
            ("gpu", "th_max", "FP16", "field 'th_max' must be an object, got \"FP16\""),
            ("arch", "flash_attention", "false",
             "field 'flash_attention' must be true or false, got \"false\""),
            ("arch", "hidden_size", 2048.9, "field 'hidden_size' must be an integer, got 2048.9"),
            ("inference", "gpu_count", True, "field 'gpu_count' must be an integer, got true"),
            ("gpu", "s_block", MISSING, "GpuSpec has no key 's_block'"),
            ("arch", "warp_size", 32, "LlmArchitecture has an undefined key 'warp_size' (the "
             f"keys are {', '.join(f.name for f in dataclasses.fields(LlmArchitecture))})"),
            (None, "energy_joules", "12.5", "field 'energy_joules' must be a number, got \"12.5\""),
            (None, "energy_joules", True, "field 'energy_joules' must be a number, got true"),
            (None, "energy_kwh", 1.0, "record has an undefined key 'energy_kwh' "
             "(the keys are arch, inference, gpu, energy_joules)"),
        ],
        ids=["th_max-list", "th_max-string", "flash_attention-string", "hidden_size-float",
             "gpu_count-bool", "s_block-missing", "arch-unknown-key", "energy-string",
             "energy-bool", "record-unknown-key"],
    )
    def test_refuses_a_record_value_of_the_wrong_json_type(self, tmp_path, gpus, section, field,
                                                           value, message):
        path = write_one_record(tmp_path, gpus, section, field, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            load_dataset(path)

    def test_manifest_fields(self):
        hyper = tiny_loop_hyper()
        manifest = build_manifest(hyper, SyntheticEnergyOracle(), 15.0)
        assert manifest["oracle"] == "synthetic-roofline-v1"
        assert manifest["initial_points"] == 80
        assert manifest["threshold_mape_percent"] == 15.0
        assert len(manifest["config_hash"]) == 16

    def test_manifest_hash_covers_settings_only(self):
        hyper, oracle = tiny_loop_hyper(), SyntheticEnergyOracle()
        first = build_manifest(hyper, oracle, 15.0, extra={"termination": "threshold_met"})
        second = build_manifest(hyper, oracle, 15.0,
                                extra={"termination": "iteration_cap", "iterations": 2})
        assert first["config_hash"] == second["config_hash"]
        assert build_manifest(hyper, oracle, 16.0)["config_hash"] != first["config_hash"]

    def test_scale_defaults(self):
        # desk-scale loop defaults
        hyper = LoopHyper()
        assert (hyper.initial_points, hyper.refine_per_center, hyper.worst_count) == (2000, 50, 50)
        assert hyper.max_iterations == 10
        radii = JitterRadii()
        assert (radii.prompt_length, radii.generated_tokens, radii.layer_count) == (10, 1, 1)
        assert (TrainHyper().learning_rate, TrainHyper().batch_size) == (0.001, 512)
