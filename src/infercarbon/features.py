"""Fixed-width numeric features for costed kernel graphs, and graph export.

Each node carries a one-hot kernel-type block, its dimension vector and two
cost/performance sets (prefill and decode).  The type and dimension slots are
the same for both phases, so they are stored once; the phase-specific slots
are operation count, memory bytes, network bytes and Roofline performance.
Numeric slots span many orders of magnitude, so they are log1p-transformed
and standardized with statistics fitted on the training split only.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .arch import (
    KIND_ORDER,
    InferenceConfig,
    KernelGraph,
    KernelKind,
    LlmArchitecture,
    node_dims,
)
from .costmodel import LayerTotals, Phase, model_totals
from .roofline import GpuSpec, LayerCosts, cost_layer

NUM_KINDS = len(KIND_ORDER)
_KIND_INDEX = {kind: i for i, kind in enumerate(KIND_ORDER)}
_ONE_HOT = np.eye(NUM_KINDS)

NODE_NUMERIC_SLOTS = 6 + 8  # dims, then (ops, mem, net, perf) per phase
NODE_FEATURE_WIDTH = NUM_KINDS + NODE_NUMERIC_SLOTS
GLOBAL_FEATURE_WIDTH = 11

GLOBAL_SLOT_NAMES = (
    "quant_bitwidth",
    "hidden_size",
    "intermediate_size",
    "head_count",
    "layer_count",
    "batch_size",
    "prompt_length",
    "generated_tokens",
    "total_flops",
    "total_mem_bytes",
    "total_net_bytes",
)


class NonFiniteFeature(ValueError):
    """A feature slot came out NaN or infinite."""


class UnknownFormat(ValueError):
    """Unsupported graph export format."""


class GraphMismatch(ValueError):
    """A kernel graph passed for featurizing is not the layer graph of the
    request's (attention, MLP, TP>=2) topology."""


@dataclass(frozen=True)
class FeatureStats:
    """log1p-space mean/std per numeric slot, fitted on the training split."""

    node_mean: np.ndarray
    node_std: np.ndarray
    global_mean: np.ndarray
    global_std: np.ndarray

    def to_dict(self) -> dict:
        return {
            "node_mean": self.node_mean.tolist(),
            "node_std": self.node_std.tolist(),
            "global_mean": self.global_mean.tolist(),
            "global_std": self.global_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureStats":
        return cls(
            node_mean=np.asarray(d["node_mean"], dtype=np.float64),
            node_std=np.asarray(d["node_std"], dtype=np.float64),
            global_mean=np.asarray(d["global_mean"], dtype=np.float64),
            global_std=np.asarray(d["global_std"], dtype=np.float64),
        )


def identity_stats() -> FeatureStats:
    """Zero-mean / unit-std stats: features stay plain log1p values."""
    return FeatureStats(
        node_mean=np.zeros(NODE_NUMERIC_SLOTS),
        node_std=np.ones(NODE_NUMERIC_SLOTS),
        global_mean=np.zeros(GLOBAL_FEATURE_WIDTH),
        global_std=np.ones(GLOBAL_FEATURE_WIDTH),
    )


@dataclass(frozen=True)
class RawGraphFeatures:
    """Pre-transform per-node and global numbers of one costed graph."""

    kinds: tuple[KernelKind, ...]
    dims: tuple[tuple[int, ...], ...]
    node_numeric: np.ndarray  # (n, NODE_NUMERIC_SLOTS), raw magnitudes
    edges: tuple[tuple[int, int], ...]
    global_numeric: np.ndarray  # (GLOBAL_FEATURE_WIDTH,), raw magnitudes


@dataclass(frozen=True)
class FeaturizedGraph:
    """Standardized node features, neighbor-averaging matrix and global vector."""

    features: np.ndarray  # (n, NODE_FEATURE_WIDTH)
    agg: np.ndarray  # (n, n) row-normalized undirected adjacency
    global_features: np.ndarray  # (GLOBAL_FEATURE_WIDTH,)
    raw: RawGraphFeatures

    @property
    def node_count(self) -> int:
        return self.features.shape[0]


def _standardize(raw: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    transformed = np.log1p(raw.astype(np.float64))
    out = np.zeros_like(transformed)
    nonzero = std != 0
    out[..., nonzero] = (transformed[..., nonzero] - mean[nonzero]) / std[nonzero]
    if not np.all(np.isfinite(out)):
        raise NonFiniteFeature("standardized feature has a non-finite entry")
    return out


def _global_numeric_row(
    arch: LlmArchitecture, cfg: InferenceConfig, totals: LayerTotals
) -> np.ndarray:
    flops = totals.prefill.ops + totals.decode.ops
    mem = totals.prefill.mem_bytes + totals.decode.mem_bytes
    net = totals.prefill.net_bytes + totals.decode.net_bytes
    return np.array(
        [
            arch.weight_dtype.bitwidth,
            arch.hidden_size,
            arch.intermediate_size,
            arch.head_count,
            arch.layer_count,
            cfg.batch_size,
            cfg.prompt_length,
            cfg.generated_tokens,
            flops,
            mem,
            net,
        ],
        dtype=np.float64,
    )


@functools.cache
def _aggregation_matrix(n: int, edges: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Row-normalized undirected adjacency, shared read-only by every graph of
    one topology."""
    adj = np.zeros((n, n), dtype=bool)
    if edges:
        src, dst = np.array(edges).T
        adj[src, dst] = True
        adj[dst, src] = True
    agg = adj / np.maximum(adj.sum(axis=1), 1)[:, None]
    agg.setflags(write=False)
    return agg


def raw_featurize(
    graph: KernelGraph, arch: LlmArchitecture, cfg: InferenceConfig, gpu: GpuSpec
) -> RawGraphFeatures:
    """Cost every node for both phases and collect the raw feature numbers.

    Roofline performance uses the activation data type's peak throughput.
    `graph` must equal the layer graph of the topology of `arch` on
    `cfg.gpu_count` GPUs, or GraphMismatch is raised.
    """
    costs = cost_layer(arch, cfg, gpu)
    if graph is not costs.graph and graph != costs.graph:
        variant = "flash-attention" if arch.flash_attention else "unfused-attention"
        mlp = "gated" if arch.gated_mlp else "ungated"
        raise GraphMismatch(
            f"kernel graph ({len(graph.nodes)} kernels) is not the layer graph of the "
            f"{variant}, {mlp}-MLP architecture at TP degree {cfg.gpu_count} "
            f"({len(costs.graph.nodes)} kernels)"
        )
    return raw_features(costs)


def raw_features(costs: LayerCosts) -> RawGraphFeatures:
    """The raw feature numbers of an already-costed layer."""
    graph = costs.graph
    dims = tuple(node_dims(node.kind, costs.arch) for node in graph.nodes)
    # per node: dims, then (ops, mem, net, perf) for prefill and for decode
    rows = [
        [*slots, pre.cost.ops, pre.cost.mem_bytes, pre.cost.net_bytes, pre.performance,
         dec.cost.ops, dec.cost.mem_bytes, dec.cost.net_bytes, dec.performance]
        for slots, pre, dec in zip(dims, costs.phases[Phase.PREFILL], costs.phases[Phase.DECODE])
    ]
    totals = model_totals(costs.totals(), costs.arch.layer_count)
    return RawGraphFeatures(
        kinds=tuple(node.kind for node in graph.nodes),
        dims=dims,
        node_numeric=np.array(rows, dtype=np.float64),
        edges=graph.edges,
        global_numeric=_global_numeric_row(costs.arch, costs.cfg, totals),
    )


def featurize_raw(raw: RawGraphFeatures, stats: FeatureStats) -> FeaturizedGraph:
    """Standardize an already-costed graph with the given statistics."""
    onehot = _ONE_HOT[[_KIND_INDEX[kind] for kind in raw.kinds]]
    numeric = _standardize(raw.node_numeric, stats.node_mean, stats.node_std)
    return FeaturizedGraph(
        features=np.hstack([onehot, numeric]),
        agg=_aggregation_matrix(len(raw.kinds), raw.edges),
        global_features=_standardize(raw.global_numeric, stats.global_mean, stats.global_std),
        raw=raw,
    )


def featurize(
    graph: KernelGraph,
    arch: LlmArchitecture,
    cfg: InferenceConfig,
    gpu: GpuSpec,
    stats: FeatureStats,
) -> FeaturizedGraph:
    """Full pipeline: cost model + Roofline + encoding, deterministic."""
    return featurize_raw(raw_featurize(graph, arch, cfg, gpu), stats)


def fit_stats(raws: list[RawGraphFeatures]) -> FeatureStats:
    """Fit per-slot log1p mean/std over a training split."""
    if not raws:
        raise ValueError("cannot fit feature statistics on an empty split")
    node_rows = np.log1p(np.vstack([r.node_numeric for r in raws]))
    global_rows = np.log1p(np.vstack([r.global_numeric for r in raws]))
    return FeatureStats(
        node_mean=node_rows.mean(axis=0),
        node_std=node_rows.std(axis=0),
        global_mean=global_rows.mean(axis=0),
        global_std=global_rows.std(axis=0),
    )


def _graph_json_obj(raw: RawGraphFeatures) -> dict:
    nodes = []
    for i, kind in enumerate(raw.kinds):
        row = raw.node_numeric[i]
        nodes.append(
            {
                "id": i,
                "kind": kind.value,
                "dims": [int(x) for x in raw.dims[i]],
                "prefill": {
                    "ops": int(row[6]),
                    "mem_bytes": int(row[7]),
                    "net_bytes": int(row[8]),
                    "performance": float(row[9]),
                },
                "decode": {
                    "ops": int(row[10]),
                    "mem_bytes": int(row[11]),
                    "net_bytes": int(row[12]),
                    "performance": float(row[13]),
                },
            }
        )
    global_fields = {
        name: (float(v) if name.startswith("total") else int(v))
        for name, v in zip(GLOBAL_SLOT_NAMES, raw.global_numeric)
    }
    return {
        "format": "infercarbon-graph",
        "version": 1,
        "nodes": nodes,
        "edges": [[int(s), int(d)] for s, d in raw.edges],
        "global": global_fields,
    }


def export_graph(fg: FeaturizedGraph, format: str = "json") -> str:
    """Serialize a featurized graph: 'json' with raw features, or 'dot'."""
    if format == "json":
        return json.dumps(_graph_json_obj(fg.raw), indent=2)
    if format == "dot":
        lines = ["digraph layer {"]
        for i, kind in enumerate(fg.raw.kinds):
            lines.append(f'  n{i} [label="{kind.value}"];')
        for src, dst in fg.raw.edges:
            lines.append(f"  n{src} -> n{dst};")
        lines.append("}")
        return "\n".join(lines)
    raise UnknownFormat(f"unknown graph format '{format}' (expected 'json' or 'dot')")
