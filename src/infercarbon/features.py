"""Fixed-width numeric features for costed kernel graphs, and graph export.

Each node carries a one-hot kernel-type block (at its kind's ``index``), its
dimension vector and two cost/performance sets (prefill and decode).  The
type and dimension slots are the same for both phases, so they are stored
once; the phase-specific slots are operation count, memory bytes, network
bytes and Roofline performance.  A request's raw features hold the shared
layer graph itself and one numeric row per node, whose first six slots are
the dims; `roofline.cost_layer` lays the rows out as it prices the layer,
and an export reads its kinds, edges and dims from the graph and the rows,
so it needs no statistics.  The one-hot block and the aggregation matrix
depend on the graph alone, so each shared graph's are built once.
Numeric slots span many orders of magnitude, so they are log1p-transformed
and standardized with statistics fitted on the training split only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .arch import KIND_ORDER, InferenceConfig, KernelGraph, LlmArchitecture
from .costmodel import LayerTotals
from .roofline import DIMS_SLOTS, PHASE_SLOTS, GpuSpec, LayerCosts, cost_layer

NUM_KINDS = len(KIND_ORDER)

NODE_NUMERIC_SLOTS = max(slots.stop for slots in PHASE_SLOTS.values())
NODE_FEATURE_WIDTH = NUM_KINDS + NODE_NUMERIC_SLOTS

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
GLOBAL_FEATURE_WIDTH = len(GLOBAL_SLOT_NAMES)


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


@dataclass(frozen=True)
class RawGraphFeatures:
    """Pre-transform per-node and global numbers of one costed graph: row i of
    ``node_numeric`` belongs to ``graph.nodes[i]``."""

    graph: KernelGraph  # the shared layer graph of the request's topology
    node_numeric: np.ndarray  # (n, NODE_NUMERIC_SLOTS), raw magnitudes
    global_numeric: np.ndarray  # (GLOBAL_FEATURE_WIDTH,), raw magnitudes


@dataclass(frozen=True)
class FeaturizedGraph:
    """Standardized node features, neighbor-averaging matrix and global vector."""

    features: np.ndarray  # (n, NODE_FEATURE_WIDTH)
    agg: np.ndarray  # (n, n) row-normalized undirected adjacency
    global_features: np.ndarray  # (GLOBAL_FEATURE_WIDTH,)

    @property
    def node_count(self) -> int:
        return self.features.shape[0]


def _standardize(raw: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """log1p, minus the mean, over the std; a slot with zero std reads 0."""
    centered = np.subtract(np.log1p(raw), mean)
    out = np.divide(centered, std, out=np.zeros(centered.shape), where=std != 0)
    if not np.isfinite(out).all():
        raise NonFiniteFeature("standardized feature has a non-finite entry")
    return out


def _global_numeric_row(
    arch: LlmArchitecture, cfg: InferenceConfig, totals: LayerTotals
) -> np.ndarray:
    # whole-model sums over both phases: the layer's totals times the layer count
    flops = arch.layer_count * (totals.prefill.ops + totals.decode.ops)
    mem = arch.layer_count * (totals.prefill.mem_bytes + totals.decode.mem_bytes)
    net = arch.layer_count * (totals.prefill.net_bytes + totals.decode.net_bytes)
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


# id(graph) -> (graph, one-hot block, aggregation matrix).  Hashing a graph
# costs more than building its blocks; an entry keeps its graph's id taken.
# Raw features carry a shared layer graph, so the table holds at most eight.
_BLOCKS: dict[int, tuple[KernelGraph, np.ndarray, np.ndarray]] = {}


def _topology_blocks(graph: KernelGraph) -> tuple[np.ndarray, np.ndarray]:
    """The one-hot kind rows and the row-normalized undirected adjacency of
    `graph`, built once and shared read-only by every request of its topology."""
    entry = _BLOCKS.get(id(graph))
    if entry is None:
        n = len(graph.nodes)
        onehot = np.eye(NUM_KINDS)[[node.kind.index for node in graph.nodes]]
        adj = np.zeros((n, n), dtype=bool)
        if graph.edges:
            src, dst = np.array(graph.edges).T
            adj[src, dst] = True
            adj[dst, src] = True
        agg = adj / np.maximum(adj.sum(axis=1), 1)[:, None]
        onehot.setflags(write=False)
        agg.setflags(write=False)
        entry = _BLOCKS[id(graph)] = (graph, onehot, agg)
    return entry[1], entry[2]


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
    return RawGraphFeatures(
        graph=costs.graph,
        node_numeric=np.array(costs.rows, dtype=np.float64),
        global_numeric=_global_numeric_row(costs.arch, costs.cfg, costs.totals),
    )


def featurize_raw(raw: RawGraphFeatures, stats: FeatureStats) -> FeaturizedGraph:
    """Standardize an already-costed graph with the given statistics."""
    onehot, agg = _topology_blocks(raw.graph)
    numeric = _standardize(raw.node_numeric, stats.node_mean, stats.node_std)
    return FeaturizedGraph(
        features=np.concatenate((onehot, numeric), axis=1),
        agg=agg,
        global_features=_standardize(raw.global_numeric, stats.global_mean, stats.global_std),
    )


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
    for node, row in zip(raw.graph.nodes, raw.node_numeric):
        entry = {"id": node.id, "kind": node.kind.value, "dims": [int(x) for x in row[DIMS_SLOTS]]}
        for phase, slots in PHASE_SLOTS.items():
            ops, mem, net, performance = row[slots]
            entry[phase.value] = {"ops": int(ops), "mem_bytes": int(mem), "net_bytes": int(net),
                                  "performance": float(performance)}
        nodes.append(entry)
    global_fields = {
        name: (float(v) if name.startswith("total") else int(v))
        for name, v in zip(GLOBAL_SLOT_NAMES, raw.global_numeric)
    }
    return {
        "format": "infercarbon-graph",
        "version": 1,
        "nodes": nodes,
        "edges": [[s, d] for s, d in raw.graph.edges],
        "global": global_fields,
    }


def export_graph(raw: RawGraphFeatures, format: str = "json") -> str:
    """Serialize a costed graph: 'json' with its raw features, or 'dot'."""
    if format == "json":
        return json.dumps(_graph_json_obj(raw), indent=2)
    if format == "dot":
        lines = ["digraph layer {"]
        graph = raw.graph
        for node in graph.nodes:
            lines.append(f'  n{node.id} [label="{node.kind.value}"];')
        for src, dst in graph.edges:
            lines.append(f"  n{src} -> n{dst};")
        lines.append("}")
        return "\n".join(lines)
    raise UnknownFormat(f"unknown graph format '{format}' (expected 'json' or 'dot')")
