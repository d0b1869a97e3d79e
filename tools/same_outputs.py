"""Digest what a checkout computes, so that two trees can be compared.

    python tools/same_outputs.py --tree PATH --out FILE

runs the checkout at PATH (its ``src/`` first on every child's import path)
and writes one JSON object of sha256 digests, one map per area:

- ``cli``: the exit code, stdout, stderr and written files of each command of
  a fixed table of cold ``python -m infercarbon.cli`` runs: every ``--help``,
  ``graph`` per catalog architecture and TP degree, ``estimate --oracle`` per
  architecture, GPU and TP degree, a seeded ``sample`` -> ``train`` ->
  ``eval --out`` -> ``estimate --checkpoint`` chain, ``trace-stats`` and
  error commands.  Each command runs in a fresh directory and names its
  files by relative path, so the digests do not depend on where it ran;
- ``model``: trained weights, loss history and held-out predictions of
  ``bench/workloads.py``'s ``regressor-train`` set-up, and the weights and
  error log of its ``focused-loop`` set-up, at two seeds;
- ``predictions``: the carbon reports of one fixed checkpoint (seeded
  initial weights, statistics fitted on the requests, saved and loaded back)
  over a fixed set of catalog and desk-prior requests.

Two trees give the same outputs when their files are equal::

    python tools/same_outputs.py --tree . --out change.json
    python tools/same_outputs.py --tree ../parent --out parent.json
    diff parent.json change.json

A change that means to alter an area names it; every other area must match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ARCHS = ("llama3-8b", "qwen2-0.5b", "bloom-3b", "tiny-flash", "tiny-mha")
GPUS = ("t4", "l4", "a100", "h100")
SUBCOMMANDS = ("estimate", "graph", "sample", "train", "eval", "trace-stats")
REQUEST = ("--prompt", "512", "--gen", "64")
JOBS = 2  # child processes at once: each cold command is mostly one core's start-up

# written to trace.csv in every command's directory
TRACE_ROWS = ["TIMESTAMP,ContextTokens,GeneratedTokens"] + [
    f"{i},{(i * 37) % 900 + 1},{(i * 13) % 120 + 1}" for i in range(60)]


def command_table() -> dict[str, list[list[str]]]:
    """Name -> the argv lists of one chain, all after ``python -m infercarbon.cli``."""
    table = {"--help": [["--help"]]}
    table.update({f"{sub} --help": [[sub, "--help"]] for sub in SUBCOMMANDS})
    for arch in ARCHS:
        for tp in ("1", "2", "4"):
            for fmt in ("json", "dot"):
                argv = ["graph", arch, "--n-gpu", tp, "--format", fmt]
                table[" ".join(argv)] = [argv]
        for gpu in GPUS:
            for tp in ("1", "2"):
                for json_flag in ([], ["--json"]):
                    argv = ["estimate", arch, gpu, "--n-gpu", tp, *REQUEST, "--oracle",
                            *json_flag]
                    table[" ".join(argv)] = [argv]
    table["sample -> train -> eval -> estimate --checkpoint"] = [
        ["sample", "--out", "run", "--a", "60", "--b", "4", "--k", "4", "--max-iterations", "2",
         "--epochs", "10", "--update-epochs", "5", "--batch-size", "16", "--threshold", "1",
         "--seed", "3"],
        ["train", "--dataset", "run/train.jsonl", "--out", "run/model.json", "--epochs", "20",
         "--batch-size", "16", "--seed", "1"],
        ["eval", "--checkpoint", "run/model.json", "--dataset", "run/test.jsonl",
         "--out", "run/eval.json"],
        ["estimate", "llama3-8b", "a100", *REQUEST, "--checkpoint", "run/model.json"],
        ["estimate", "tiny-mha", "h100", "--n-gpu", "2", *REQUEST, "--checkpoint",
         "run/checkpoint.json", "--json"],
    ]
    table["trace-stats"] = [["trace-stats", "trace.csv"], ["trace-stats", "trace.csv", "--json"]]
    for argv in (
        ["estimate"],
        ["estimate", "nope", "a100", "--oracle"],
        ["estimate", "tiny-flash", "a100"],
        ["estimate", "tiny-flash", "a100", "--oracle", "--n-gpu", "3"],
        ["estimate", "tiny-flash", "a100", "--oracle", "--batch", "0"],
        ["estimate", "tiny-flash", "a100", "--checkpoint", "missing.json"],
        ["estimate", "tiny-flash", "a100", "--checkpoint", "."],
        ["graph", "tiny-flash", "--format", "xml"],
        ["sample", "--out", "run", "--threshold", "0"],
        ["sample", "--out", "run", "--a", "4"],
        ["train", "--dataset", "missing.jsonl", "--out", "model.json"],
        ["trace-stats", "missing.csv"],
        ["trace-stats", "."],
    ):
        table["error: " + " ".join(argv)] = [argv]
    return table


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env(tree: Path, *dirs: str) -> dict[str, str]:
    """The environment of a child that imports the tree's own code, with no
    catalog override and a fixed help width."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("INFERCARBON_")}
    env.update(PYTHONPATH=os.pathsep.join(str(tree / d) for d in ("src", *dirs)),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", COLUMNS="80")
    return env


def files_digest(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): sha256(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_chain(tree: Path, name: str, chain: list[list[str]]) -> dict[str, str]:
    """Each command of `chain` run in turn in one directory that holds only
    trace.csv, and the digest of its exit code, output and the directory's
    files after it."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "trace.csv").write_text("\n".join(TRACE_ROWS) + "\n", encoding="utf-8")
        for argv in chain:
            proc = subprocess.run([sys.executable, "-m", "infercarbon.cli", *argv], cwd=work,
                                  env=child_env(tree), capture_output=True, timeout=300)
            record = {"code": proc.returncode, "stdout": sha256(proc.stdout),
                      "stderr": sha256(proc.stderr), "files": files_digest(work)}
            key = name if len(chain) == 1 else f"{name} [{' '.join(argv)}]"
            out[key] = sha256(json.dumps(record, sort_keys=True).encode())
    return out


# Run in a child over the tree's src/, bench/ and tests/ (bench/workloads.py
# imports tests/bruteforce.py); prints {"model": {...}, "predictions": {...}}.
MODEL_SCRIPT = r'''
import hashlib, json
from pathlib import Path

import workloads
from infercarbon import carbon, features, gnn, sampler

def sha(data):
    return hashlib.sha256(data).hexdigest()

def floats(values):
    return sha(",".join(float(v).hex() for v in values).encode())

model = {}
for seed in (0, 1):
    wl = workloads.RegressorTrain(seed, Path.cwd())
    wl.setup()
    params, history, preds = wl.trial().output
    model[f"regressor-train seed {seed} weights"] = sha(params.flat.tobytes())
    model[f"regressor-train seed {seed} loss history"] = floats(history)
    model[f"regressor-train seed {seed} held-out predictions"] = floats(preds)
    wl = workloads.FocusedLoop(seed, Path.cwd())
    wl.setup()
    result = wl.trial().output
    model[f"focused-loop seed {seed} weights"] = sha(result.params.flat.tobytes())
    model[f"focused-loop seed {seed} error log"] = floats(result.error_log)

archs, gpus = workloads.load_catalogs()
requests = [(" ".join(map(str, r)), workloads.make_point(archs, gpus, *r))
            for r in workloads.catalog_requests(workloads.rng_for(2711), archs, gpus, 48)]
desk = sampler.initial_sample(sampler.desk_prior_space(gpus), 48, seed=2711)
requests += [(f"desk {i:02d}", p) for i, p in enumerate(desk)]
stats = features.fit_stats([workloads.raw_features(p) for _, p in requests])
path = Path.cwd() / "fixed.json"
gnn.save_checkpoint(path, gnn.init_params(features.NODE_FEATURE_WIDTH,
                                          features.GLOBAL_FEATURE_WIDTH, seed=0), stats, seed=0)
params, stats, _ = gnn.load_checkpoint(path)
predictor = carbon.ModelEnergyPredictor(params, stats)
predictions = {}
for i, (name, p) in enumerate(requests):
    report = carbon.estimate_request(predictor, p.arch, p.cfg, p.gpu, workloads.DC, workloads.EP)
    predictions[f"{i:02d} {name}"] = sha(report.to_json().encode())
print(json.dumps({"model": model, "predictions": predictions}))
'''


def run_model(tree: Path) -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", MODEL_SCRIPT], cwd=tmp,
                              env=child_env(tree, "bench", "tests"), capture_output=True,
                              text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"model and prediction digests failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tree", required=True, help="root of the checkout to run")
    parser.add_argument("--out", required=True, help="JSON file of digests to write")
    args = parser.parse_args(argv)
    tree = Path(args.tree).resolve()
    if not (tree / "src" / "infercarbon").is_dir():
        parser.error(f"{tree} holds no src/infercarbon")
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        model = pool.submit(run_model, tree)
        chains = [pool.submit(run_chain, tree, name, chain)
                  for name, chain in command_table().items()]
        cli = {key: digest for job in chains for key, digest in job.result().items()}
        result = {"cli": cli, **model.result()}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"{args.out}: " + ", ".join(f"{area} {len(items)} digests"
                                      for area, items in result.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
