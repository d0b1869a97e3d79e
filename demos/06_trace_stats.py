"""
Serving traces drive the inference prior
========================================

Real request traces have long-tailed prompt and generation lengths, and chat
and code-completion workloads look very different.  The trace module parses
delimited trace files, reports nearest-rank percentiles and log-spaced
histograms, and turns a trace into the empirical prior the sampler draws
inference configurations from (jointly, preserving the prompt/generation
correlation).
"""

import tempfile
from pathlib import Path

import numpy as np

from infercarbon.roofline import builtin_gpu_catalog
from infercarbon.sampler import desk_prior_space, initial_sample
from infercarbon.traces import empirical_prior, parse_trace, trace_stats

# synthesize a chat-like trace: medium prompts, long-tailed generation
rng = np.random.Generator(np.random.PCG64(7))
rows = ["TIMESTAMP,ContextTokens,GeneratedTokens"]
for i in range(5000):
    prompt = int(rng.lognormal(mean=6.9, sigma=0.8))  # ~1k-token median
    generated = int(rng.lognormal(mean=4.8, sigma=1.0))  # ~130-token median
    rows.append(f"{i},{prompt},{generated}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "chat_trace.csv"
    path.write_text("\n".join(rows) + "\n")
    records = parse_trace(path)
stats = trace_stats(records)
print(stats.format_text())

# histogram mass per power-of-two bucket (prompt lengths)
print("\nprompt-length histogram (bucket lower edges, counts):")
from infercarbon.traces import HISTOGRAM_EDGES

for edge, count in zip(HISTOGRAM_EDGES, stats.prompt_histogram):
    if count:
        print(f"  >= {edge:>7}: {'#' * max(1, count // 120)} {count}")

# the empirical prior reproduces the trace's joint distribution
prior = empirical_prior(records)
space = desk_prior_space(builtin_gpu_catalog(), inference_prior=prior)
points = initial_sample(space, 2000, seed=3)
drawn = np.array([p.cfg.prompt_length for p in points])
print(f"\n2000 sampled prompts: median {int(np.median(drawn))} "
      f"(trace p50 = {stats.prompt_percentiles['p50']})")
batches = np.array([p.cfg.batch_size for p in points])
print(f"batch sizes <= 2: {np.mean(batches <= 2):.0%} of draws")
