"""Command-line front end.

Subcommands: estimate (carbon report for one request), graph (export a layer
kernel graph), sample (run the focused sampling loop against the synthetic
oracle), train, eval, trace-stats.  Exit codes: 0 success, 2 configuration or
validation error, 3 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from . import arch as arch_mod
from . import carbon as carbon_mod
from . import gnn as gnn_mod
from .costmodel import PartitionError, check_partition
from .features import export_graph, raw_features
from .oracle import OracleFailure, SyntheticEnergyOracle
from .roofline import builtin_gpu_catalog, cost_layer, load_gpu_catalog

GPU_CATALOG_ENV = "INFERCARBON_GPU_CATALOG"
ARCH_CATALOG_ENV = "INFERCARBON_ARCH_CATALOG"

# ConfigError, RangeError and DivisibilityError are ValueErrors; NonFiniteLoss
# is an ArithmeticError; an OSError is a path that cannot be read or written
CONFIG_ERRORS = (OSError, KeyError, ValueError)
RUNTIME_ERRORS = (OracleFailure, ArithmeticError)


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def load_gpus(path: str | None):
    path = path or os.environ.get(GPU_CATALOG_ENV)
    if path:
        return load_gpu_catalog(path)
    return builtin_gpu_catalog()


def load_archs(path: str | None):
    path = path or os.environ.get(ARCH_CATALOG_ENV)
    if path:
        return arch_mod.load_arch_catalog(path)
    text = resources.files("infercarbon").joinpath("data/archs.cfg").read_text(encoding="utf-8")
    return arch_mod.parse_arch_catalog(text, source="builtin:archs.cfg")


def _pick(catalog: dict, key: str, what: str):
    if key not in catalog:
        known = ", ".join(sorted(catalog))
        raise CliError(f"unknown {what} '{key}' (known: {known})")
    return catalog[key]


def _request(args):
    """The (architecture, GPU, request) that the request flags name; a GPU
    count that does not split the hidden size is refused under its flag."""
    cfg = _from_flags(arch_mod.InferenceConfig, args)
    gpus = load_gpus(args.gpu_catalog)
    llm = _pick(load_archs(args.arch_catalog), args.arch, "architecture")
    gpu = _pick(gpus, args.gpu, "GPU")
    try:
        check_partition(llm.hidden_size, cfg.gpu_count)
    except PartitionError as exc:
        raise CliError(f"--n-gpu {cfg.gpu_count} does not divide the hidden size "
                       f"{llm.hidden_size} of '{args.arch}'") from exc
    return llm, gpu, cfg


def cmd_estimate(args) -> int:
    dc = _from_flags(carbon_mod.DatacenterParams, args)
    ep = _from_flags(carbon_mod.EmbodiedParams, args)
    llm, gpu, cfg = _request(args)
    if args.oracle:
        predictor = SyntheticEnergyOracle()
    elif args.checkpoint:
        params, stats, _ = gnn_mod.load_checkpoint(args.checkpoint)
        predictor = carbon_mod.ModelEnergyPredictor(params, stats)
    else:
        raise CliError("estimate needs either --oracle or --checkpoint PATH")
    report = carbon_mod.estimate_request(predictor, llm, cfg, gpu, dc, ep)
    print(report.to_json() if args.json else report.format_text())
    return 0


def cmd_graph(args) -> int:
    llm, gpu, cfg = _request(args)
    print(export_graph(raw_features(cost_layer(llm, cfg, gpu)), args.format))
    return 0


# record class name -> {field: the flag that fills it}, the one place a
# command's record meets its flags; a table per class, since one field name can
# come from different flags (a request's batch_size is --batch, training's is
# --batch-size)
FIELD_FLAGS = {
    "LoopHyper": {"initial_points": "a", "refine_per_center": "b", "worst_count": "k",
                  "max_iterations": "max-iterations", "update_epochs": "update-epochs",
                  "seed": "seed"},
    "TrainHyper": {"learning_rate": "lr", "batch_size": "batch-size", "epochs": "epochs",
                   "seed": "seed"},
    "InferenceConfig": {"batch_size": "batch", "prompt_length": "prompt",
                        "generated_tokens": "gen", "gpu_count": "n-gpu"},
    "DatacenterParams": {"pue": "pue", "carbon_intensity": "intensity"},
    "EmbodiedParams": {"cpa_g_per_mm2": "cpa", "lifetime_seconds": "lifetime",
                       "packaging_g": "packaging"},
    "ColumnMap": {"timestamp": "timestamp-col", "prompt": "prompt-col",
                  "generated": "generated-col"},
}


def _from_flags(record_class, args, **given):
    """The record whose fields its FIELD_FLAGS row reads from `args` (a flag's
    dest is its name with '-' as '_'), with `given` on top; a None leaves the
    field's default, and a field out of its range is reported under its flag."""
    flags = FIELD_FLAGS[record_class.__name__]
    values = {field: getattr(args, flag.replace("-", "_")) for field, flag in flags.items()}
    values.update(given)
    try:
        return record_class(**{k: v for k, v in values.items() if v is not None})
    except arch_mod.RangeError as exc:
        raise CliError(f"--{flags[exc.field]}{str(exc).removeprefix(exc.field)}") from exc


def _check_out_file(path: str) -> None:
    """Refuse, before any work, an --out file that is a directory or in none."""
    out = Path(path)
    if out.is_dir():
        raise CliError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise CliError(f"--out {path}: no directory {out.parent}")


def _digest(data: bytes) -> str:
    """sha256 of bytes: a file hashed by its content hashes alike from any path."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def cmd_sample(args) -> int:
    from . import sampler as sampler_mod
    from . import traces as traces_mod

    hyper = _from_flags(sampler_mod.LoopHyper, args,
                        train=_from_flags(gnn_mod.TrainHyper, args))
    # no dataclass holds the threshold, so it is checked here
    if not args.threshold > 0:  # NaN included
        raise CliError(f"--threshold must be > 0, got {args.threshold}")
    if math.isinf(args.threshold):  # "1e400" parses as inf too
        raise CliError(f"--threshold must be finite, got {args.threshold}")
    gpus = load_gpus(args.gpu_catalog)
    if args.trace:
        records = traces_mod.parse_trace(args.trace)
        prior = traces_mod.empirical_prior(records)
    else:
        prior = None
    space = sampler_mod.desk_prior_space(gpus, inference_prior=prior)
    oracle = SyntheticEnergyOracle()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a path that is a file fails before the loop
    result = sampler_mod.focused_sampling_loop(space, oracle, args.threshold, hyper)

    sampler_mod.save_dataset(out / "train.jsonl", result.train_set)
    sampler_mod.save_dataset(out / "test.jsonl", result.test_set)
    manifest = sampler_mod.build_manifest(
        hyper, oracle, args.threshold,
        extra={
            "termination": result.termination,
            "iterations": result.iterations,
            "error_log_mape_percent": result.error_log,
            "train_count": len(result.train_set),
            "test_count": len(result.test_set),
        },
    )
    gnn_mod.save_checkpoint(
        out / "checkpoint.json", result.params, result.stats, seed=hyper.seed,
        extra={"termination": result.termination, "config_hash": manifest["config_hash"]},
    )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False),
                                       encoding="utf-8")
    print(
        f"sampling finished: {result.termination} after {result.iterations} refinement "
        f"iteration(s); final MAPE {result.error_log[-1]:.2f}% "
        f"({len(result.train_set)} train / {len(result.test_set)} test samples) -> {out}"
    )
    return 0


def cmd_train(args) -> int:
    from . import sampler as sampler_mod

    hyper = _from_flags(gnn_mod.TrainHyper, args)
    _check_out_file(args.out)
    samples = sampler_mod.load_dataset(args.dataset)
    if not samples:
        raise CliError(f"dataset {args.dataset} is empty")
    pairs, stats = sampler_mod.featurized(samples)
    params, history = gnn_mod.train(pairs, hyper)
    gnn_mod.save_checkpoint(
        args.out, params, stats, seed=hyper.seed,
        extra={
            "dataset": str(args.dataset),
            "epochs": hyper.epochs,
            "final_train_loss": history[-1],
            "config_hash": sampler_mod.config_hash(
                {"dataset": _digest(Path(args.dataset).read_bytes()), **vars(hyper)}),
        },
    )
    print(f"trained {hyper.epochs} epochs; loss {history[0]:.4f} -> {history[-1]:.4f}; "
          f"checkpoint -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    from . import sampler as sampler_mod

    if args.out:
        _check_out_file(args.out)
    params, stats, meta = gnn_mod.load_checkpoint(args.checkpoint)
    samples = sampler_mod.load_dataset(args.dataset)
    if not samples:
        raise CliError(f"dataset {args.dataset} is empty")
    report = sampler_mod.evaluate_model(params, stats, samples)
    arrays = [*params.as_list(), *vars(stats).values()]
    payload = report.to_dict()
    payload["manifest"] = {
        "checkpoint": str(args.checkpoint),
        "dataset": str(args.dataset),
        "checkpoint_seed": meta.get("seed"),
        # the model by its target and arrays, not its file: seed and extra do not count
        "config_hash": sampler_mod.config_hash({
            "target": gnn_mod.TARGET, "shapes": [array.shape for array in arrays],
            "model": _digest(b"".join(array.tobytes() for array in arrays)),
            "dataset": _digest(Path(args.dataset).read_bytes())}),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text)
    return 0


def cmd_trace_stats(args) -> int:
    from . import traces as traces_mod

    columns = _from_flags(traces_mod.ColumnMap, args)
    records = traces_mod.parse_trace(args.trace, columns)
    stats = traces_mod.trace_stats(records)
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2))
    else:
        print(stats.format_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infercarbon",
        description="Estimate the energy and carbon footprint of LLM inference requests "
        "before running them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def gpu_catalog(p):
        p.add_argument("--gpu-catalog", help=f"GPU catalog file (default: builtin or ${GPU_CATALOG_ENV})")

    def common_catalogs(p):
        gpu_catalog(p)
        p.add_argument("--arch-catalog", help=f"architecture catalog file (default: builtin or ${ARCH_CATALOG_ENV})")

    def common_request(p):
        p.add_argument("--batch", type=int, default=1, help="batch size")
        p.add_argument("--prompt", type=int, default=64, help="prompt length in tokens")
        p.add_argument("--gen", type=int, default=8, help="generated token count")
        p.add_argument("--n-gpu", type=int, default=1, help="tensor-parallel GPU count")

    # flags that fill a dataclass field default to None: `_from_flags` then
    # leaves the field's own default
    def common_training(p):
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--seed", type=int)

    p = sub.add_parser("estimate", help="carbon report for one inference request")
    common_catalogs(p)
    p.add_argument("arch", help="architecture id from the catalog")
    p.add_argument("gpu", help="GPU id from the catalog")
    common_request(p)
    predictor = p.add_mutually_exclusive_group()
    predictor.add_argument("--oracle", action="store_true", help="use the synthetic energy oracle")
    predictor.add_argument("--checkpoint", help="trained model checkpoint")
    p.add_argument("--pue", type=float)
    p.add_argument("--intensity", type=float, help="gCO2eq per kWh")
    p.add_argument("--cpa", type=float, help="embodied g per mm2 of die")
    p.add_argument("--lifetime", type=float, help="amortization horizon, seconds")
    p.add_argument("--packaging", type=float, help="fixed per-device embodied grams")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("graph", help="export the kernel graph of one transformer layer")
    common_catalogs(p)
    p.add_argument("arch")
    p.add_argument("gpu", nargs="?", default="a100", help="GPU id for costs/Roofline (default a100)")
    common_request(p)
    p.add_argument("--format", default="dot", help="dot or json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("sample", help="run the focused sampling loop with the synthetic oracle")
    gpu_catalog(p)  # the desk prior's architectures are fixed
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--a", type=int, help="initial sample count")
    p.add_argument("--b", type=int, help="refinements per high-error center")
    p.add_argument("--k", type=int, help="high-error centers per iteration")
    p.add_argument("--threshold", type=float, default=15.0, help="target MAPE percent")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--update-epochs", type=int)
    common_training(p)
    p.add_argument("--trace", help="trace file for the empirical inference prior")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="train the regressor on a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    common_training(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="MAPE / error-bound accuracy of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace-stats", help="distribution statistics of a trace file")
    p.add_argument("trace")
    p.add_argument("--timestamp-col")
    p.add_argument("--prompt-col")
    p.add_argument("--generated-col")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_trace_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
