"""The benchmark's three workloads, their seeded inputs and their output checks.

Each workload is a closed loop with one client in one process, because every
caller of this library waits for its answer.  `setup` builds the inputs from
the seed, `trial` runs the timed part once, and `check` verifies what the
trials returned.  All calls go through module attributes (``carbon.estimate_request``)
so that the traced run sees them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import bruteforce
from infercarbon import arch as arch_mod
from infercarbon import carbon, costmodel, features, gnn, roofline, sampler, traces

ARCH_CATALOG = Path(arch_mod.__file__).parent / "data" / "archs.cfg"
TP_DEGREES = (1, 2, 4)
DC = carbon.DatacenterParams()
EP = carbon.EmbodiedParams()

# Request lengths: log-normal (heavy right tail) prompts and generations.  The
# medians are those published for the conversation trace of the Azure LLM
# inference traces (Patel et al., "Splitwise", ISCA 2024, section III): 1020
# prompt and 129 generated tokens.  The spread, the caps and the share of
# single-token generations (which have no decode phase, so their rows exercise
# the prefill-only path) are assumptions, not published figures.
PROMPT_MEDIAN, GEN_MEDIAN, LENGTH_SIGMA = 1020, 129, 1.0
PROMPT_MAX, GEN_MAX = 8192, 2048
GEN1_SHARE = 0.08

# The brute-force oracle materializes one array cell per counted unit, so a
# request is checked at lengths short enough to stay below this many cells.
BRUTEFORCE_MAX_CELLS = 1 << 20

REL_TOL = 1e-12

# Operations between two calls of a trial's `between` callback.
BETWEEN_EVERY = 50


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def load_catalogs():
    return arch_mod.load_arch_catalog(ARCH_CATALOG), roofline.builtin_gpu_catalog()


def draw_lengths(rng: np.random.Generator) -> tuple[int, int]:
    prompt = int(min(PROMPT_MAX, max(1, round(rng.lognormal(math.log(PROMPT_MEDIAN), LENGTH_SIGMA)))))
    gen = int(min(GEN_MAX, max(1, round(rng.lognormal(math.log(GEN_MEDIAN), LENGTH_SIGMA)))))
    if rng.random() < GEN1_SHARE:
        gen = 1
    return prompt, gen


def catalog_requests(rng, archs, gpus, n: int, dup_share: float = 0.0) -> list[tuple]:
    """`n` seeded (arch, gpu, tp, prompt, gen) catalog requests; a `dup_share`
    of them repeat an earlier request exactly."""
    arch_names, gpu_names = sorted(archs), sorted(gpus)
    out: list[tuple] = []
    for _ in range(n):
        if rng.random() < dup_share and out:
            out.append(out[int(rng.integers(len(out)))])
            continue
        prompt, gen = draw_lengths(rng)
        out.append((arch_names[int(rng.integers(len(arch_names)))],
                    gpu_names[int(rng.integers(len(gpu_names)))],
                    TP_DEGREES[int(rng.integers(len(TP_DEGREES)))], prompt, gen))
    return out


def make_point(archs, gpus, arch_name, gpu_name, tp, prompt, gen) -> sampler.SamplePoint:
    cfg = arch_mod.InferenceConfig(batch_size=1, prompt_length=prompt, generated_tokens=gen,
                                   gpu_count=tp)
    return sampler.SamplePoint(arch=archs[arch_name], cfg=cfg, gpu=gpus[gpu_name])


def raw_features(point: sampler.SamplePoint):
    graph = arch_mod.enumerate_layer_kernels(point.arch, point.cfg.gpu_count)
    return features.raw_featurize(graph, point.arch, point.cfg, point.gpu)


def request_key(point: sampler.SamplePoint) -> tuple:
    return (point.arch, point.cfg, point.gpu.name)


def request_mix(points: list[sampler.SamplePoint]) -> dict:
    """Shares of the request properties the costing and caching paths depend on."""
    n = len(points)
    seen: set = set()
    duplicates = 0
    for point in points:
        key = request_key(point)
        duplicates += key in seen
        seen.add(key)
    return {
        "requests": n,
        "flash_share": sum(p.arch.flash_attention for p in points) / n,
        "unfused_share": sum(not p.arch.flash_attention for p in points) / n,
        "tp_shares": {str(t): sum(p.cfg.gpu_count == t for p in points) / n
                      for t in sorted({p.cfg.gpu_count for p in points})},
        "gen1_share": sum(p.cfg.generated_tokens == 1 for p in points) / n,
        "duplicate_share": duplicates / n,
    }


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@dataclass
class Trial:
    """One run of a workload's timed part."""

    op_seconds: list[float]  # wall time of each operation
    output: object
    wall: float


class Workload:
    name = ""
    why = ""
    setup_repeats = 12
    # set-ups timed between two runs of the speed reference
    setup_group = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    # oracle labels the traced set-up and first trial must make, exactly
    points_labeled = 0

    def setup(self) -> None:
        raise NotImplementedError

    def trial(self, between=None) -> Trial:
        """Runs the timed part once.  A workload of many operations calls
        `between` (if given) every few operations, outside their timing."""
        raise NotImplementedError

    def check(self, first: Trial) -> tuple[int, list[str]]:
        """(failed operations, failure messages) of the first trial."""
        raise NotImplementedError

    def mismatches(self, first: Trial, later: Trial) -> int:
        """Operations of a later trial whose output differs from the first
        trial's: every trial must reproduce the first bit for bit."""
        raise NotImplementedError

    def model(self) -> tuple[gnn.GnnParams, features.FeatureStats]:
        raise NotImplementedError

    def requests(self) -> list[sampler.SamplePoint]:
        raise NotImplementedError

    def probe_samples(self) -> list[sampler.EnergySample]:
        raise NotImplementedError

    def named_metrics(self, trials: list[Trial]) -> dict[str, tuple[float, str, int]]:
        """The workload's own end-to-end metrics: name -> (value, unit, samples)."""
        raise NotImplementedError


class TraceEstimate(Workload):
    name = "trace-estimate"
    why = ("the product path: one carbon estimate per trace request through a trained "
           "checkpoint; almost all costing, unfused and tensor-parallel archs included")
    RECORDS = 500
    DUP_SHARE = 0.1
    TRAIN_POINTS = 150
    TRAIN = dict(epochs=15, batch_size=32)
    points_labeled = TRAIN_POINTS

    def setup(self) -> None:
        rng = rng_for(self.seed)
        archs, gpus = load_catalogs()
        reqs = catalog_requests(rng, archs, gpus, self.RECORDS, self.DUP_SHARE)
        path = self.work_dir / "trace.csv"
        timestamp = 0.0
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("TIMESTAMP,ContextTokens,GeneratedTokens\n")
            for *_, prompt, gen in reqs:
                timestamp += 0.001 + float(rng.exponential(0.05))
                handle.write(f"{timestamp:.6f},{prompt},{gen}\n")
        records = traces.parse_trace(path)
        if [(r.prompt_tokens, r.generated_tokens) for r in records] != [r[3:] for r in reqs]:
            raise RuntimeError(f"{path}: parsed trace does not match the rows written")
        self.arch_names = [r[0] for r in reqs]
        self.points = [make_point(archs, gpus, *r) for r in reqs]

        # the regressor is trained on the trace's own request distribution:
        # catalog archs and GPUs, lengths drawn from the parsed trace
        space = sampler.PriorSpace(
            arch_priors=tuple(
                sampler.ArchPrior(base=a, kv_group_choices=(a.head_count // a.kv_head_count,),
                                  layer_delta=0)
                for _, a in sorted(archs.items())),
            inference_prior=traces.empirical_prior(records, batch_mixture={1: 1.0}),
            hardware_prior=sampler.HardwarePrior(gpus=tuple(gpus[g] for g in sorted(gpus)),
                                                 gpu_counts=TP_DEGREES),
        )
        train_points = sampler.initial_sample(space, self.TRAIN_POINTS, seed=self.seed)
        oracle = sampler.SyntheticEnergyOracle()
        energies = [oracle.measure(p) for p in train_points]
        raws = [raw_features(p) for p in train_points]
        stats = features.fit_stats(raws)
        pairs = [(features.featurize_raw(r, stats), e) for r, e in zip(raws, energies)]
        params, _ = gnn.train(pairs, gnn.TrainHyper(seed=self.seed, **self.TRAIN))
        checkpoint = self.work_dir / "trace-model.json"
        gnn.save_checkpoint(checkpoint, params, stats, seed=self.seed)
        self.params, self.stats, _ = gnn.load_checkpoint(checkpoint)
        self.predictor = carbon.ModelEnergyPredictor(self.params, self.stats)
        self.train_samples = [sampler.EnergySample(p, e) for p, e in zip(train_points, energies)]

    def trial(self, between=None) -> Trial:
        op_seconds, reports = [], []
        start = perf_counter()
        for index, point in enumerate(self.points):
            if between is not None and index and index % BETWEEN_EVERY == 0:
                between()
            t0 = perf_counter()
            try:
                report = carbon.estimate_request(self.predictor, point.arch, point.cfg, point.gpu,
                                                 DC, EP)
            except Exception as exc:  # a failed operation is counted, not fatal
                report = exc
            op_seconds.append(perf_counter() - t0)
            reports.append(report)
        wall = perf_counter() - start
        return Trial(op_seconds, reports, wall)

    def _check_report(self, index, report, oracle) -> list[str]:
        point = self.points[index]
        if isinstance(report, Exception):
            return [f"estimate {index} raised {report!r}"]
        problems = []
        values = report.to_dict()
        numeric = {k: v for k, v in values.items() if isinstance(v, float)}
        if not all(math.isfinite(v) and v >= 0 for v in numeric.values()):
            problems.append("non-finite or negative field")
        if not close(report.prefill_kwh + report.decode_kwh, report.energy_kwh, 1e-9):
            problems.append("prefill + decode != energy")
        if not close(report.operational_g + report.embodied_g, report.total_g):
            problems.append("operational + embodied != total")
        truth = oracle.measure_breakdown(point)
        if not close(report.exec_seconds, truth["roofline_seconds"]):
            problems.append("exec_seconds != oracle roofline_seconds")
        if self.arch_names[index].startswith("tiny-"):
            problems += self._bruteforce(point)
        return [f"estimate {index} ({point.describe()}): {p}" for p in problems]

    @staticmethod
    def _cells(a, c, s_block) -> int:
        """Upper bound on the largest array the brute-force oracle builds."""
        d_h = a.hidden_size // a.head_count
        span = max(c.prompt_length, c.generated_tokens)
        return max(
            a.hidden_size * max(a.hidden_size, a.intermediate_size) * span,
            (2 * c.prompt_length + c.generated_tokens) * c.generated_tokens * d_h
            * max(a.head_count, s_block * a.kv_head_count),
            a.hidden_size * c.gpu_count * span,
        )

    def _bruteforce(self, point) -> list[str]:
        key = request_key(point)
        if key in self.bruteforced:
            return []
        self.bruteforced.add(key)
        a, c, s_block = point.arch, point.cfg, point.gpu.s_block
        if self._cells(a, c, s_block) > BRUTEFORCE_MAX_CELLS:
            # the same arch, GPU, TP degree and gen=1-ness, at lengths the
            # oracle can count cell by cell
            self.bruteforce_reduced += 1
            scale = 2
            while True:
                prompt = max(1, c.prompt_length // scale)
                gen = 1 if c.generated_tokens == 1 else max(2, c.generated_tokens // scale)
                small = dataclasses.replace(c, prompt_length=prompt, generated_tokens=gen)
                if self._cells(a, small, s_block) <= BRUTEFORCE_MAX_CELLS:
                    break
                scale *= 2
            c = small
        problems = []
        for node in arch_mod.enumerate_layer_kernels(a, c.gpu_count).nodes:
            for phase in costmodel.Phase:
                got = costmodel.kernel_cost(node, a, c, s_block, phase)
                want = bruteforce.bf_kernel(node.kind, a, c, s_block, phase)
                if (got.ops, got.mem_bytes, got.net_bytes) != tuple(want):
                    problems.append(f"{node.kind.name} {phase.name} cost {got} != brute force {want}")
        return problems

    def check(self, first):
        oracle = sampler.SyntheticEnergyOracle()
        self.bruteforced: set = set()
        self.bruteforce_reduced = 0
        failed, messages = 0, []
        for index, report in enumerate(first.output):
            problems = self._check_report(index, report, oracle)
            failed += bool(problems)
            messages += problems
        if not self.bruteforced:
            failed += 1
            messages.append("the trace has no tiny-* request for the brute-force check")
        messages.append(f"note: brute-force checked {len(self.bruteforced)} distinct tiny-* "
                        f"requests, {self.bruteforce_reduced} of them at reduced lengths")
        return failed, messages

    def mismatches(self, first, later):
        return sum(isinstance(r, Exception) or r != first.output[i]
                   for i, r in enumerate(later.output))

    def model(self):
        return self.params, self.stats

    def requests(self):
        return self.points

    def probe_samples(self):
        return self.train_samples

    def named_metrics(self, trials):
        seconds = np.array([s for t in trials for s in t.op_seconds])
        return {
            "estimate_p50_ms": (float(np.percentile(seconds, 50)) * 1e3, "ms", len(seconds)),
            "estimate_p99_ms": (float(np.percentile(seconds, 99)) * 1e3, "ms", len(seconds)),
            "estimates_per_s": (len(seconds) / float(seconds.sum()), "1/s", len(seconds)),
        }


class RegressorTrain(Workload):
    name = "regressor-train"
    why = ("regressor training on featurized desk-prior points: the timed part is forward, "
           "backward and Adam only, its costing happens in set-up")
    POINTS = 480
    TRAIN = dict(epochs=15, batch_size=32)
    points_labeled = POINTS

    def setup(self) -> None:
        gpus = roofline.builtin_gpu_catalog()
        space = sampler.desk_prior_space(gpus)
        points = sampler.initial_sample(space, self.POINTS, seed=self.seed)
        oracle = sampler.SyntheticEnergyOracle()
        samples = [sampler.EnergySample(p, oracle.measure(p)) for p in points]
        raws = [raw_features(p) for p in points]
        order = rng_for(self.seed, 1).permutation(len(points))
        n_test = len(points) // 5
        test_idx, train_idx = order[:n_test], order[n_test:]
        self.stats = features.fit_stats([raws[i] for i in train_idx])
        self.train_pairs = [(features.featurize_raw(raws[i], self.stats), samples[i].energy_joules)
                            for i in train_idx]
        self.test_pairs = [(features.featurize_raw(raws[i], self.stats), samples[i].energy_joules)
                           for i in test_idx]
        self.points = points
        self.test_samples = [samples[i] for i in test_idx]

    def trial(self, between=None) -> Trial:
        start = perf_counter()
        params, history = gnn.train(self.train_pairs, gnn.TrainHyper(seed=self.seed, **self.TRAIN))
        trained = perf_counter()
        preds = [gnn.predict_energy(fg, params) for fg, _ in self.test_pairs]
        wall = perf_counter() - start
        self.params = params
        return Trial([trained - start], (params, history, preds), wall)

    def check(self, first):
        failed, messages = 0, []
        _, history, preds = first.output
        if not (all(math.isfinite(h) for h in history) and all(math.isfinite(p) for p in preds)):
            failed += 1
            messages.append("trial 1: non-finite loss or prediction")
        if history[-1] >= history[0]:
            failed += 1
            messages.append(f"trial 1: loss did not fall ({history[0]} -> {history[-1]})")
        return failed, messages

    def mismatches(self, first, later):
        pa, ha, ya = first.output
        pb, hb, yb = later.output
        same = ha == hb and ya == yb and all(
            np.array_equal(x, y) for x, y in zip(pa.as_list(), pb.as_list()))
        return 0 if same else len(later.op_seconds)

    def model(self):
        return self.params, self.stats

    def requests(self):
        return self.points

    def probe_samples(self):
        return self.test_samples

    def named_metrics(self, trials):
        sample_epochs = len(self.train_pairs) * self.TRAIN["epochs"]
        rate = sample_epochs * len(trials) / sum(t.op_seconds[0] for t in trials)
        _, _, preds = trials[0].output
        mape = gnn.mape(preds, [e for _, e in self.test_pairs])
        return {
            "train_sample_epochs_per_s": (rate, "1/s", len(trials)),
            "train_heldout_mape_pct": (mape, "%", len(preds)),
        }


class FocusedLoop(Workload):
    name = "focused-loop"
    why = ("the focused sampling loop run to its iteration cap: costing, labelling and "
           "training serve one result, so a gain in one layer that costs another shows")
    # its set-up takes under a millisecond: many, in groups
    setup_repeats = 120
    setup_group = 30
    # far below any reachable MAPE, so every loop runs to its iteration cap
    THRESHOLD = 1e-6
    INITIAL, WORST, PER_CENTER, ITERATIONS = 160, 8, 8, 2
    TRAIN = dict(epochs=20, batch_size=32)
    UPDATE_EPOCHS = 10
    points_labeled = INITIAL + WORST * PER_CENTER * ITERATIONS

    def setup(self) -> None:
        gpus = roofline.builtin_gpu_catalog()
        self.space = sampler.desk_prior_space(gpus)
        self.hyper = sampler.LoopHyper(
            initial_points=self.INITIAL, refine_per_center=self.PER_CENTER,
            worst_count=self.WORST, max_iterations=self.ITERATIONS, seed=self.seed,
            train=gnn.TrainHyper(seed=self.seed, **self.TRAIN), update_epochs=self.UPDATE_EPOCHS,
        )

    def trial(self, between=None) -> Trial:
        start = perf_counter()
        result = sampler.focused_sampling_loop(self.space, sampler.SyntheticEnergyOracle(),
                                               self.THRESHOLD, self.hyper)
        wall = perf_counter() - start
        self.result = result
        return Trial([wall], result, wall)

    def check(self, first):
        failed, messages = 0, []
        r = first.output
        problems = []
        if r.termination != "iteration_cap" or r.iterations != self.ITERATIONS:
            problems.append(f"terminated {r.termination} after {r.iterations} iterations")
        if len(r.error_log) != self.ITERATIONS + 1 or not all(map(math.isfinite, r.error_log)):
            problems.append(f"error log {r.error_log}")
        # 80/20 growth: each round's refined points split with floor(n/5) to test
        expected_test = self.INITIAL // 5 + sum(len(x.points) // 5 for x in r.refinements)
        if any(x.test_added != len(x.points) // 5 for x in r.refinements):
            problems.append("a refinement round broke the 80/20 split")
        if len(r.test_set) != expected_test:
            problems.append(f"test set {len(r.test_set)} != {expected_test}")
        if len(r.train_set) + len(r.test_set) != self.points_labeled:
            problems.append(f"data {len(r.train_set) + len(r.test_set)} != {self.points_labeled}")
        if problems:
            failed += 1
            messages += [f"trial 1: {p}" for p in problems]
        return failed, messages

    def mismatches(self, first, later):
        return 0 if later.output.error_log == first.output.error_log else 1

    def model(self):
        return self.result.params, self.result.stats

    def requests(self):
        return [s.point for s in self.result.train_set + self.result.test_set]

    def probe_samples(self):
        return self.result.test_set

    def named_metrics(self, trials):
        walls = [t.wall for t in trials]
        result = trials[0].output
        return {
            "loop_wall_s": (float(np.median(walls)), "s", len(walls)),
            "loop_final_mape_pct": (result.error_log[-1], "%", len(result.test_set)),
        }


WORKLOADS = {w.name: w for w in (TraceEstimate, RegressorTrain, FocusedLoop)}


def probe(workload: Workload) -> None:
    """Calls into the layers a workload's own path does not reach, on its own
    points and model, so every per-layer time is measured on every workload."""
    params, stats = workload.model()
    samples = workload.probe_samples()[:32]
    predictor = carbon.ModelEnergyPredictor(params, stats)
    for s in samples[:16]:
        carbon.estimate_request(predictor, s.point.arch, s.point.cfg, s.point.gpu, DC, EP)
    checkpoint = workload.work_dir / "probe-model.json"
    for _ in range(3):
        gnn.save_checkpoint(checkpoint, params, stats, seed=workload.seed)
        gnn.load_checkpoint(checkpoint)
    records = [traces.TraceRecord(str(i), s.point.cfg.prompt_length, s.point.cfg.generated_tokens)
               for i, s in enumerate(samples)]
    trace_path = workload.work_dir / "probe-trace.csv"
    traces.serialize_trace(records, trace_path)
    traces.parse_trace(trace_path)
    predicted = {id(s): gnn.predict_energy(features.featurize_raw(raw_features(s.point), stats),
                                           params) for s in samples}
    worst = sampler.select_high_error(lambda s: predicted[id(s)], samples, 4)
    sampler.fine_grained_sampling(worst, 4, sampler.JitterRadii(), seed=workload.seed)


DIGEST_SEED = 2410


def output_digest() -> str:
    """sha256 over cost triples, oracle energies and raw features of a fixed
    seeded sweep (desk-prior and catalog requests); bit-identical outputs give
    the same digest on any commit."""
    archs, gpus = load_catalogs()
    points = sampler.initial_sample(sampler.desk_prior_space(gpus), 48, seed=DIGEST_SEED)
    points += [make_point(archs, gpus, *r)
               for r in catalog_requests(rng_for(DIGEST_SEED), archs, gpus, 16)]
    oracle = sampler.SyntheticEnergyOracle()
    digest = hashlib.sha256()
    for p in points:
        graph = arch_mod.enumerate_layer_kernels(p.arch, p.cfg.gpu_count)
        for node in graph.nodes:
            for phase in costmodel.Phase:
                c = costmodel.kernel_cost(node, p.arch, p.cfg, p.gpu.s_block, phase)
                digest.update(f"{c.ops},{c.mem_bytes},{c.net_bytes};".encode())
        breakdown = oracle.measure_breakdown(p)
        digest.update(",".join(float(breakdown[k]).hex() for k in sorted(breakdown)).encode())
        raw = features.raw_featurize(graph, p.arch, p.cfg, p.gpu)
        digest.update(np.ascontiguousarray(raw.node_numeric, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(raw.global_numeric, dtype=np.float64).tobytes())
    return digest.hexdigest()
