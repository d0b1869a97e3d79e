"""Inference trace files: parsing, distribution statistics, empirical prior.

Traces are delimited text with a configurable column map; the defaults match
the public serving-trace layout (TIMESTAMP, ContextTokens, GeneratedTokens).
Statistics use nearest-rank percentiles and fixed power-of-two histogram
buckets.  The empirical prior feeds the sampler: it draws prompt/generation
lengths jointly from the trace (preserving their correlation) and batch sizes
from a configured small-batch mixture, since batching is a server policy the
per-request trace does not record.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .sampler import DEFAULT_BATCH_MIXTURE, BatchMixture

# bucket edges: [0,1), [1,2), [2,4), ... [2^19, 2^20), [2^20, inf)
HISTOGRAM_EDGES = [0] + [2**i for i in range(21)]


class EmptyTrace(ValueError):
    """No records to compute statistics from."""


class MissingColumn(ValueError):
    """The trace header lacks a mapped column."""


class ParseError(ValueError):
    """A malformed trace row; the message carries the line number."""


@dataclass(frozen=True)
class ColumnMap:
    timestamp: str = "TIMESTAMP"
    prompt: str = "ContextTokens"
    generated: str = "GeneratedTokens"


@dataclass(frozen=True)
class TraceRecord:
    timestamp: str  # opaque ordering key
    prompt_tokens: int
    generated_tokens: int


def _order_key(timestamp: str):
    try:
        return (0, float(timestamp), "")
    except ValueError:
        return (1, 0.0, timestamp)


def parse_trace(path, column_map: ColumnMap | None = None) -> list[TraceRecord]:
    """Parse a trace file into records ordered by timestamp.

    Every row either parses or the error names its line; token counts must be
    non-negative integers.
    """
    columns = column_map or ColumnMap()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return []
        for name in (columns.timestamp, columns.prompt, columns.generated):
            if name not in reader.fieldnames:
                raise MissingColumn(f"{path}: trace has no column '{name}'")
        records = []
        for row in reader:
            line = reader.line_num
            raw_prompt = row.get(columns.prompt)
            raw_generated = row.get(columns.generated)
            timestamp = row.get(columns.timestamp)
            if timestamp is None or raw_prompt is None or raw_generated is None:
                raise ParseError(f"{path}:{line}: row is missing fields")
            try:
                prompt = int(raw_prompt)
                generated = int(raw_generated)
            except ValueError:
                raise ParseError(
                    f"{path}:{line}: token counts must be integers "
                    f"(got '{raw_prompt}', '{raw_generated}')"
                ) from None
            if prompt < 0 or generated < 0:
                raise ParseError(f"{path}:{line}: token counts must be >= 0")
            records.append(
                TraceRecord(timestamp=timestamp, prompt_tokens=prompt, generated_tokens=generated)
            )
    records.sort(key=lambda r: _order_key(r.timestamp))
    return records


def serialize_trace(records: list[TraceRecord], path, column_map: ColumnMap | None = None) -> None:
    columns = column_map or ColumnMap()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([columns.timestamp, columns.prompt, columns.generated])
        for record in records:
            writer.writerow([record.timestamp, record.prompt_tokens, record.generated_tokens])


def nearest_rank(sorted_values: list[int], percentile: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_values)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_values[min(rank, n) - 1]


def _histogram(values: list[int]) -> list[int]:
    counts = [0] * len(HISTOGRAM_EDGES)
    for v in values:
        # the last edge opens the overflow bucket
        counts[bisect.bisect_right(HISTOGRAM_EDGES, v) - 1] += 1
    return counts


@dataclass(frozen=True)
class TraceStats:
    count: int
    prompt_percentiles: dict = field(default_factory=dict)  # {"p50": .., "p90": .., "p99": ..}
    generated_percentiles: dict = field(default_factory=dict)
    prompt_histogram: list = field(default_factory=list)
    generated_histogram: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "prompt_percentiles": self.prompt_percentiles,
            "generated_percentiles": self.generated_percentiles,
            "histogram_edges": HISTOGRAM_EDGES,
            "prompt_histogram": self.prompt_histogram,
            "generated_histogram": self.generated_histogram,
        }

    def format_text(self) -> str:
        p, g = self.prompt_percentiles, self.generated_percentiles
        return "\n".join(
            [
                f"records            {self.count}",
                f"prompt tokens      p50={p['p50']}  p90={p['p90']}  p99={p['p99']}",
                f"generated tokens   p50={g['p50']}  p90={g['p90']}  p99={g['p99']}",
            ]
        )


def trace_stats(records: list[TraceRecord]) -> TraceStats:
    """Nearest-rank percentiles and log-spaced histograms over a trace."""
    if not records:
        raise EmptyTrace("trace has no records")
    prompts = sorted(r.prompt_tokens for r in records)
    generated = sorted(r.generated_tokens for r in records)
    return TraceStats(
        count=len(records),
        prompt_percentiles={f"p{p}": nearest_rank(prompts, p) for p in (50, 90, 99)},
        generated_percentiles={f"p{p}": nearest_rank(generated, p) for p in (50, 90, 99)},
        prompt_histogram=_histogram(prompts),
        generated_histogram=_histogram(generated),
    )


class EmpiricalInferencePrior:
    """Inference prior drawn jointly from trace records plus a batch mixture."""

    def __init__(self, records: list[TraceRecord], batch_mixture=None):
        if not records:
            raise EmptyTrace("cannot build a prior from an empty trace")
        # zero-token rows floor to 1: the prompt must exist and prefill always
        # emits one token
        self._pairs = [
            (max(1, r.prompt_tokens), max(1, r.generated_tokens)) for r in records
        ]
        self.batches = BatchMixture(batch_mixture or DEFAULT_BATCH_MIXTURE)

    def draw(self, rng: np.random.Generator) -> tuple[int, int, int]:
        prompt, generated = self._pairs[int(rng.integers(len(self._pairs)))]
        return self.batches.draw(rng), prompt, generated


empirical_prior = EmpiricalInferencePrior
