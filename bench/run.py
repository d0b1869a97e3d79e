"""infercarbon benchmark: one command, three workloads, output checks, traced per-layer run.

    python3 bench/run.py --workload trace-estimate --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
wraps the package's public functions in spans and reports per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (machine, workload, request mix, every metric,
the output digest and the exact counts) is written to ``bench/.work/``;
scratch files go to a directory of the run's own under it, removed at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK_DIR = Path(__file__).resolve().parent / ".work"

# Set-up is repeated between trials, spread over about this many rounds.
SETUP_ROUNDS = 4
CLI_REQUESTS = 5
CLI_SPAWNS_PER_TRIAL = 2
CLI_MIN_SPAWNS = 12
IMPORT_SPAWNS = 3
SUBPROCESS_TIMEOUT_S = 60
# Untraced per-call timing of the cost equations: requests sampled from the
# workload, and calls per timed argument tuple.
EQUATIONS = ("linear", "attention_matmul", "softmax", "fused_attention", "elementwise",
             "allreduce")
EQUATION_REQUESTS = 64
EQUATION_REPEATS = 20

# Speed references, which use nothing of the package.  In-process work is
# set against a fixed pure-Python task, timed right before and after every
# set-up group and trial and inside trials of many operations; cold CLI runs
# against a cold `import numpy` interpreter spawned before each of them.  The
# bounded times are reported in units of their reference's time, times its
# nominal time: the time the same work would take on a machine where the
# reference takes that long, which is about what it takes on the 2-vCPU
# Intel Xeon VM the benchmark was built on.  On a shared host whose speed
# drifts by a third between runs, the ratio moves far less than the raw time
# does; the raw times are printed too.
REF_NOMINAL_S = 0.010
SPAWN_REF_NOMINAL_S = 0.20
SPAWN_REF = (sys.executable, "-c", "import numpy")
REF_STEPS = 36000
REF_KEYS = tuple(f"k{i}" for i in range(61))
REF_TABLE = {key: (i * 7919) % 1013 + 1 for i, key in enumerate(REF_KEYS)}

# Bounded end-to-end metrics, scaled to the reference speed: the median
# set-up, the mean operation, the mean cold CLI run; and the peak memory.
E2E_UNITS = {
    "setup_s": "s",
    "op_scaled_ms": "ms",
    "cli_cold_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics: name -> unit.  Counts come from the traced set-up and
# first trial; per-call times too, falling back to the probe for functions
# the workload itself never calls.  The cost equations are timed untraced.
LAYER_UNITS = {
    "costmodel.kernel_cost.calls": "count",
    "costmodel.pricings_per_unique": "ratio",
    "costmodel.self_ms": "ms",
    "costmodel.linear_us": "us",
    "costmodel.attention_matmul_us": "us",
    "costmodel.softmax_us": "us",
    "costmodel.fused_attention_us": "us",
    "costmodel.elementwise_us": "us",
    "costmodel.allreduce_us": "us",
    "roofline.node_performance.calls": "count",
    "roofline.self_ms": "ms",
    "sampler.roofline_phase_times.calls_per_estimate": "ratio",
    "sampler.oracle_us_per_pt": "us",
    "sampler.initial_sample_us_per_pt": "us",
    "sampler.fine_grained_us_per_pt": "us",
    "sampler.select_high_error_ms": "ms",
    "sampler.points_labeled": "count",
    "features.raw_featurize_us_per_pt": "us",
    "features.featurize_raw_us_per_pt": "us",
    "features.fit_stats_ms": "ms",
    "gnn.train_us_per_sample_epoch": "us",
    "gnn.loss_and_gradients.self_ms": "ms",
    "gnn.adam_step.self_ms": "ms",
    "gnn.predict_us_per_pt": "us",
    "gnn.load_checkpoint_ms": "ms",
    "carbon.estimate_request.self_us": "us",
    "carbon.measure_breakdown_us": "us",
    "traces.parse_rows_per_s": "1/s",
    "traces.duplicate_request_share": "ratio",
    "arch.enumerate_layer_kernels.calls": "count",
    "arch.enumerate_us": "us",
    "kvfile.catalog_load_ms": "ms",
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}

# Counts that must repeat exactly from one traced trial to the next.
EXACT_COUNTS = (
    "costmodel.kernel_cost",
    "sampler.roofline_phase_times",
    "sampler.SyntheticEnergyOracle.measure_breakdown",
    "carbon.estimate_request",
    "roofline.node_performance",
    "arch.enumerate_layer_kernels",
)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("INFERCARBON_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()
                           and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in (SRC / "infercarbon").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "commit": commit,
        "source_sha256": source_sha256(),
    }


def timed_spawn(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return perf_counter() - start, proc


class CliEstimates:
    """Cold `infercarbon estimate --checkpoint` runs on the workload's model.

    Spawns interleave with the trials, so their timings cover the whole
    measured window; each must agree exactly with the in-process estimate
    from the same checkpoint.  A spawn of SPAWN_REF runs before each.
    """

    def __init__(self, wl):
        import workloads as w
        from infercarbon import carbon, gnn

        self.w, self.carbon = w, carbon
        params, stats = wl.model()
        self.checkpoint = wl.work_dir / "cli-model.json"
        gnn.save_checkpoint(self.checkpoint, params, stats, seed=wl.seed)
        self.predictor = carbon.ModelEnergyPredictor(*gnn.load_checkpoint(self.checkpoint)[:2])
        self.archs, self.gpus = w.load_catalogs()
        self.requests = w.catalog_requests(w.rng_for(wl.seed, 2), self.archs, self.gpus,
                                           CLI_REQUESTS)
        self.times: list[float] = []
        self.ref_times: list[float] = []
        self.failed = 0
        self.messages: list[str] = []
        self._run(self.requests[0])  # warms file caches; not counted

    def _run(self, req):
        arch_name, gpu_name, tp, prompt, gen = req
        cmd = [sys.executable, "-m", "infercarbon.cli", "estimate", arch_name, gpu_name,
               "--prompt", str(prompt), "--gen", str(gen), "--n-gpu", str(tp),
               "--checkpoint", str(self.checkpoint), "--json"]
        seconds, proc = timed_spawn(cmd)
        return cmd, seconds, proc

    def spawn(self) -> None:
        req = self.requests[len(self.times) % len(self.requests)]
        seconds, proc = timed_spawn(list(SPAWN_REF))
        if proc.returncode != 0:
            raise RuntimeError(f"speed reference spawn failed: {proc.stderr.strip()[:200]}")
        self.ref_times.append(seconds)
        cmd, seconds, proc = self._run(req)
        self.times.append(seconds)
        point = self.w.make_point(self.archs, self.gpus, *req)
        want = self.carbon.estimate_request(self.predictor, point.arch, point.cfg, point.gpu,
                                            self.w.DC, self.w.EP)
        try:
            got = json.loads(proc.stdout) if proc.returncode == 0 else None
        except json.JSONDecodeError:
            got = None
        if got is None or got["energy_kwh"] != want.energy_kwh or got["total_g"] != want.total_g:
            self.failed += 1
            self.messages.append(f"cli estimate {' '.join(cmd[3:])}: exit {proc.returncode}, "
                                 f"{(proc.stdout or proc.stderr).strip()[:200]}")

    def scaled(self) -> float:
        """Mean cold CLI run at the nominal SPAWN_REF speed."""
        return (statistics.mean(self.times) / statistics.mean(self.ref_times)
                * SPAWN_REF_NOMINAL_S)


def import_seconds(module: str) -> float:
    """Median in-process import time of `module` in fresh interpreters."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            f"print(time.perf_counter() - t)")
    values = []
    for _ in range(IMPORT_SPAWNS):
        _, proc = timed_spawn([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import {module} failed: {proc.stderr.strip()[:200]}")
        values.append(float(proc.stdout))
    return statistics.median(values)


class SpeedReference:
    """Times the reference task; see REF_NOMINAL_S."""

    def __init__(self):
        self.seconds: list[float] = []
        self.check = None

    def run(self) -> float:
        keys, table, acc, total = REF_KEYS, REF_TABLE, 0, 0.0
        start = perf_counter()
        for i in range(REF_STEPS):
            value = table[keys[(i * 37) % 61]]
            acc = (acc + value * i) % 1000003
            total += value / (i + 1)
        self.seconds.append(perf_counter() - start)
        if self.check is None:
            self.check = (acc, total)
        elif self.check != (acc, total):
            raise RuntimeError("the speed reference gave a different result")
        return self.seconds[-1]

    def timed_each(self, fn, repeats: int) -> tuple[list[float], list[float]]:
        """Raw seconds of `repeats` calls of `fn`, and the same at the nominal
        reference speed, by the reference timed right before and after them."""
        before = self.run()
        seconds = []
        for _ in range(repeats):
            start = perf_counter()
            fn()
            seconds.append(perf_counter() - start)
        speed = REF_NOMINAL_S * 2 / (before + self.run())
        return seconds, [t * speed for t in seconds]

    def scale(self, seconds: list[float]) -> float:
        """Mean of `seconds` at the nominal reference speed, by the mean of
        every reference time taken among them."""
        return statistics.mean(seconds) / statistics.mean(self.seconds) * REF_NOMINAL_S


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compared(wl, first, trial):
    """`trial` with its output replaced by its count of operations that
    differ from the first trial, so memory does not grow with the trials run."""
    trial.output = wl.mismatches(first, trial)
    return trial


def run_untraced(wl, seconds: float):
    """Set-up repeats, trials and cold CLI runs, interleaved over the measured
    window so that each metric samples the same stretch of machine time; the
    speed reference runs next to each of them and inside trials."""
    setup_times, setup_scaled = [], []
    ref, setup_ref = SpeedReference(), SpeedReference()

    def setup(repeats=1):
        repeats = min(repeats, wl.setup_repeats - len(setup_times))
        if repeats > 0:
            seconds, scaled = setup_ref.timed_each(wl.setup, repeats)
            setup_times.extend(seconds)
            setup_scaled.extend(scaled)

    def trial():
        ref.run()
        result = wl.trial(between=ref.run)
        ref.run()
        return result

    deadline = perf_counter() + seconds
    setup()
    trials = [trial()]
    cli = CliEstimates(wl)
    mismatched = 0
    while True:
        for _ in range(CLI_SPAWNS_PER_TRIAL):
            cli.spawn()
        for _ in range(0, -(-wl.setup_repeats // SETUP_ROUNDS), wl.setup_group):
            setup(wl.setup_group)
        if perf_counter() >= deadline:
            break
        trials.append(compared(wl, trials[0], trial()))
        mismatched += trials[-1].output
    while len(cli.times) < CLI_MIN_SPAWNS:
        cli.spawn()
    while len(setup_times) < wl.setup_repeats:
        setup(wl.setup_group)
    # taken before the output checks, whose brute-force arrays are not the workload's
    return setup_times, setup_scaled, trials, cli, ref, mismatched, peak_rss_mib()


def trial_counts(recorder) -> dict:
    from spans import SpanTable

    table = SpanTable(recorder, roots={"trial"})
    counts = {name: table.calls(name) for name in EXACT_COUNTS}
    counts["priced_units"] = len(recorder.priced.get("trial", ()))
    return counts


def run_traced(wl, seconds: float):
    """Traced set-up and first trial, the probe, then untraced/traced trial
    pairs for the overhead and the exact-count repeat check."""
    from spans import Instrumentation, SpanRecorder, wrapper_overhead
    import workloads as w

    span_overhead = wrapper_overhead()
    main_rec, probe_rec, repeat_rec = SpanRecorder(), SpanRecorder(), SpanRecorder()
    with Instrumentation(main_rec) as inst:
        with main_rec.phase("setup"):
            wl.setup()
        deadline = perf_counter() + seconds
        with main_rec.phase("trial"):
            trials = [wl.trial()]
    first_counts = trial_counts(main_rec)
    with Instrumentation(probe_rec):
        with probe_rec.phase("probe"):
            w.probe(wl)
    untraced, traced, count_mismatches = [], [], []
    mismatched = 0
    while perf_counter() < deadline or not traced:
        trials.append(compared(wl, trials[0], wl.trial()))
        untraced.append(trials[-1].wall)
        repeat_rec.reset()
        with Instrumentation(repeat_rec):
            with repeat_rec.phase("trial"):
                trials.append(compared(wl, trials[0], wl.trial()))
        traced.append(trials[-1].wall)
        mismatched += trials[-1].output + trials[-2].output
        counts = trial_counts(repeat_rec)
        if counts != first_counts:
            count_mismatches.append(f"traced trial {len(traced) + 1} counts {counts} != "
                                    f"first traced trial {first_counts}")
    return (main_rec, probe_rec, trials, untraced, traced, first_counts, count_mismatches,
            mismatched, inst.missing, span_overhead)


def equation_us(wl) -> dict[str, float]:
    """Median untraced microseconds per call of each cost equation, on the
    arguments `kernel_cost` passes it for a sample of the workload's requests."""
    from infercarbon import arch, costmodel

    points = wl.requests()
    sample = points[::max(1, len(points) // EQUATION_REQUESTS)][:EQUATION_REQUESTS]
    originals = {kind: getattr(costmodel, f"{kind}_cost") for kind in EQUATIONS}
    calls: dict[str, list] = {kind: [] for kind in EQUATIONS}

    def capture(kind):
        def record(*args, **kwargs):
            calls[kind].append((args, kwargs))
            return originals[kind](*args, **kwargs)
        return record

    try:
        for kind in EQUATIONS:
            setattr(costmodel, f"{kind}_cost", capture(kind))
        for p in sample:
            for node in arch.enumerate_layer_kernels(p.arch, p.cfg.gpu_count).nodes:
                for phase in costmodel.Phase:
                    costmodel.kernel_cost(node, p.arch, p.cfg, p.gpu.s_block, phase)
    finally:
        for kind, fn in originals.items():
            setattr(costmodel, f"{kind}_cost", fn)
    out = {}
    for kind, fn in originals.items():
        per_call = []
        for args, kwargs in calls[kind]:
            start = perf_counter()
            for _ in range(EQUATION_REPEATS):
                fn(*args, **kwargs)
            per_call.append((perf_counter() - start) / EQUATION_REPEATS)
        out[kind] = statistics.median(per_call) * 1e6 if per_call else 0.0
    return out


def layer_metrics(wl, main_rec, probe_rec, untraced, traced,
                  span_overhead) -> tuple[dict, list[str]]:
    from spans import SpanTable
    import workloads as w

    main = SpanTable(main_rec, roots={"setup", "trial"}, span_overhead=span_overhead)
    probe = SpanTable(probe_rec, span_overhead=span_overhead)
    from_probe: list[str] = []
    m: dict[str, float] = {}

    def source(metric, name):
        """The workload's own spans of `name`, or the probe's when it makes no such call."""
        if main.calls(name):
            return main, main_rec
        from_probe.append(metric)
        return probe, probe_rec

    def per_call(metric, name, scale=1e6):
        durations = source(metric, name)[0].durations(name).tolist()
        m[metric] = statistics.mean(durations) * scale if durations else 0.0

    def per_item(metric, name):
        table, rec = source(metric, name)
        items = rec.items.get(name, 0)
        m[metric] = float(table.durations(name).sum()) * 1e6 / items if items else 0.0

    kernel_calls = main.calls("costmodel.kernel_cost")
    priced = set().union(*(main_rec.priced.get(r, set()) for r in ("setup", "trial")))
    m["costmodel.kernel_cost.calls"] = kernel_calls
    m["costmodel.pricings_per_unique"] = kernel_calls / len(priced) if priced else 0.0
    m["costmodel.self_ms"] = main.layer_self_total("costmodel") * 1e3
    for kind, us in equation_us(wl).items():
        m[f"costmodel.{kind}_us"] = us
    m["roofline.node_performance.calls"] = main.calls("roofline.node_performance")
    m["roofline.self_ms"] = main.layer_self_total("roofline") * 1e3

    table = source("sampler.roofline_phase_times.calls_per_estimate", "carbon.estimate_request")[0]
    m["sampler.roofline_phase_times.calls_per_estimate"] = (
        table.calls_under("sampler.roofline_phase_times", "carbon.estimate_request")
        / max(1, table.calls("carbon.estimate_request")))
    per_call("sampler.oracle_us_per_pt", "sampler.SyntheticEnergyOracle.measure_breakdown")
    per_item("sampler.initial_sample_us_per_pt", "sampler.initial_sample")
    per_item("sampler.fine_grained_us_per_pt", "sampler.fine_grained_sampling")
    per_call("sampler.select_high_error_ms", "sampler.select_high_error", 1e3)
    m["sampler.points_labeled"] = main.calls("sampler.SyntheticEnergyOracle.measure_breakdown")
    per_call("features.raw_featurize_us_per_pt", "features.raw_featurize")
    per_call("features.featurize_raw_us_per_pt", "features.featurize_raw")
    per_call("features.fit_stats_ms", "features.fit_stats", 1e3)
    per_item("gnn.train_us_per_sample_epoch", "gnn.train")
    m["gnn.loss_and_gradients.self_ms"] = main.self_total("gnn.loss_and_gradients") * 1e3
    m["gnn.adam_step.self_ms"] = main.self_total("gnn.adam_step") * 1e3
    per_call("gnn.predict_us_per_pt", "gnn.predict_energy")
    per_call("gnn.load_checkpoint_ms", "gnn.load_checkpoint", 1e3)
    table = source("carbon.estimate_request.self_us", "carbon.estimate_request")[0]
    m["carbon.estimate_request.self_us"] = (
        table.self_total("carbon.estimate_request") * 1e6
        / max(1, table.calls("carbon.estimate_request")))
    per_call("carbon.measure_breakdown_us", "carbon.ModelEnergyPredictor.measure_breakdown")
    per_item("traces.parse_rows_per_s", "traces.parse_trace")
    rows_us = m["traces.parse_rows_per_s"]
    m["traces.parse_rows_per_s"] = 1e6 / rows_us if rows_us else 0.0
    m["traces.duplicate_request_share"] = w.request_mix(wl.requests())["duplicate_share"]
    m["arch.enumerate_layer_kernels.calls"] = main.calls("arch.enumerate_layer_kernels")
    per_call("arch.enumerate_us", "arch.enumerate_layer_kernels")
    catalog = list(main.durations("roofline.parse_gpu_catalog")) + list(
        main.durations("arch.parse_arch_catalog"))
    m["kvfile.catalog_load_ms"] = statistics.mean(catalog) * 1e3 if catalog else 0.0
    m["cli.import_s"] = import_seconds("infercarbon.cli")
    m["cli.numpy_import_s"] = import_seconds("numpy")
    m["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(untraced) - 1) * 100
    walls = covered = 0.0
    for root in ("setup", "trial"):
        wall, cover = main.top_level(root)
        walls += wall
        covered += cover
    m["trace.coverage_pct"] = covered / walls * 100 if walls else 0.0
    return m, from_probe


def layer_self_table(rec, span_overhead) -> list[str]:
    from spans import SpanTable

    table = SpanTable(rec, roots={"setup", "trial"}, span_overhead=span_overhead)
    lines = []
    for layer in table.layer_names():
        lines.append(f"#   {layer:<10} self {table.layer_self_total(layer) * 1e3:10.1f} ms")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "infercarbon" / "__init__.py").is_file():
        return fail(f"no infercarbon package under {SRC}; run from a full checkout")
    if not (TESTS / "bruteforce.py").is_file():
        return fail(f"no brute-force oracle at {TESTS / 'bruteforce.py'}")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import infercarbon

    if Path(infercarbon.__file__).resolve().parent != (SRC / "infercarbon").resolve():
        return fail(f"imported infercarbon from {infercarbon.__file__}, not from {SRC}")
    import workloads as w

    if args.workload not in w.WORKLOADS:
        return fail(f"unknown workload '{args.workload}' (known: {', '.join(w.WORKLOADS)})")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    run_dir = WORK_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir: Path) -> int:
    import workloads as w

    machine = machine_record()
    if machine["blas_threads"] and machine["blas_threads"] > machine["nproc"]:
        print(f"warning: BLAS uses {machine['blas_threads']} threads on {machine['nproc']} "
              f"cores", file=sys.stderr)
    wl = w.WORKLOADS[args.workload](args.seed, run_dir)
    record = {"machine": machine, "workload": args.workload, "seed": args.seed,
              "why": wl.why, "seconds": args.seconds, "trace": args.trace}
    lines = [f"# machine {json.dumps(machine)}",
             f"# workload {wl.name} seed={args.seed}: {wl.why}"]

    if args.trace:
        (main_rec, probe_rec, trials, untraced, traced, counts, count_mismatches, mismatched,
         missing, span_overhead) = run_traced(wl, args.seconds)
        metrics, from_probe = layer_metrics(wl, main_rec, probe_rec, untraced, traced,
                                            span_overhead)
        failed, messages = wl.check(trials[0])
        failed += mismatched + len(count_mismatches)
        if mismatched:
            messages.append(f"{mismatched} operations of later trials differ from the first")
        messages += count_mismatches
        if metrics["sampler.points_labeled"] != wl.points_labeled:
            failed += 1
            messages.append(f"labelled {metrics['sampler.points_labeled']} points, "
                            f"expected {wl.points_labeled}")
        attempted = sum(len(t.op_seconds) for t in trials)
        units = LAYER_UNITS
        record.update(exact_counts=counts, counts_repeated=not count_mismatches,
                      traced_trials=len(traced) + 1, from_probe=from_probe,
                      missing_targets=missing, span_overhead_s=span_overhead)
        spans_path = WORK_DIR / f"spans-{wl.name}-{args.seed}.npz"
        main_rec.save(spans_path)
        lines.append(f"# exact counts per trial {json.dumps(counts)} "
                     f"(repeated across {len(traced) + 1} traced trials: {not count_mismatches})")
        lines.append(f"# layer self time over traced set-up + first trial, "
                     f"{span_overhead * 1e9:.0f} ns of wrapper cost subtracted per span:")
        lines += layer_self_table(main_rec, span_overhead)
        if from_probe:
            lines.append(f"# measured on the probe (the workload never calls them): "
                         f"{', '.join(from_probe)}")
        if missing:
            lines.append(f"# not found, reported as 0: {', '.join(missing)}")
        lines.append(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        (setup_times, setup_scaled, trials, cli, ref, mismatched,
         peak_rss) = run_untraced(wl, args.seconds)
        failed, messages = wl.check(trials[0])
        if mismatched:
            failed += mismatched
            messages.append(f"{mismatched} operations of later trials differ from the first")
        attempted = sum(len(t.op_seconds) for t in trials) + len(cli.times)
        failed += cli.failed
        messages += cli.messages
        named = wl.named_metrics(trials)
        op_seconds = [s for t in trials for s in t.op_seconds]
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "op_scaled_ms": ref.scale(op_seconds) * 1e3,
            "cli_cold_s": cli.scaled(),
            "peak_rss_mb": peak_rss,
        }
        units = E2E_UNITS
        workload_metrics = {
            "setup_s": (metrics["setup_s"], "s", len(setup_times)),
            "setup_raw_s": (statistics.median(setup_times), "s", len(setup_times)),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MiB", 1),
            "failed_share": (failed / attempted, "ratio", attempted),
            "op_mean_ms": (statistics.mean(op_seconds) * 1e3, "ms", len(op_seconds)),
            "reference_ms": (statistics.mean(ref.seconds) * 1e3, "ms", len(ref.seconds)),
            "cli_cold_raw_s": (statistics.mean(cli.times), "s", len(cli.times)),
            "cli_reference_s": (statistics.mean(cli.ref_times), "s", len(cli.ref_times)),
            **named,
            "cli_estimate_s": (statistics.median(cli.times), "s", len(cli.times)),
        }
        mix = w.request_mix(wl.requests())
        digest = w.output_digest()
        record.update(request_mix=mix, workload_metrics=workload_metrics, output_digest=digest,
                      setup_seconds=setup_times, trial_walls=[t.wall for t in trials],
                      cli_seconds=cli.times, cli_reference_seconds=cli.ref_times,
                      reference_seconds=ref.seconds)
        lines.append(f"# request mix {json.dumps(mix)}")
        for name, (value, unit, n) in workload_metrics.items():
            lines.append(f"{name:<28} {value:>14.6g} {unit:<6} (n={n})")
        lines.append(f"output_digest {digest}")

    lines += [f"# {m}" if m.startswith("note:") else f"# FAILED {m}" for m in messages[:50]]
    for name, unit in units.items():
        lines.append(f"metric {name:<50} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(result=result, messages=messages)
    out = WORK_DIR / f"result-{wl.name}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
