"""In-memory spans recorded around calls into the infercarbon modules.

Tracing wraps public functions at every module attribute that holds them, so
calls a module makes through its own imported names are seen too.  Each call
becomes a span with a name, start, end and parent; spans live in flat arrays
until the run ends.  Nothing under ``src/`` changes: the wrappers are
installed for a traced phase and removed afterwards.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from time import perf_counter

import numpy as np

# A traced phase of any workload records well under a million spans; the cap
# only guards the machine's memory if a later change multiplies call counts.
MAX_SPANS = 6_000_000


def _len_result(args, kwargs, result):
    return len(result)


def _sample_epochs(args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    hyper = args[1] if len(args) > 1 else kwargs["hyper"]
    return len(samples) * hyper.epochs


# (span name, module, attribute, items-per-call function or None).  The span
# name's first component is the layer.  Items count the work a call did (points
# drawn, rows parsed, sample-epochs trained) for the per-item metrics.
TARGETS = (
    ("arch.enumerate_layer_kernels", "arch", "enumerate_layer_kernels", None),
    ("arch.parse_arch_catalog", "arch", "parse_arch_catalog", None),
    ("kvfile.parse_sections", "kvfile", "parse_sections", None),
    ("roofline.parse_gpu_catalog", "roofline", "parse_gpu_catalog", None),
    ("costmodel.kernel_cost", "costmodel", "kernel_cost", None),
    ("costmodel.linear_cost", "costmodel", "linear_cost", None),
    ("costmodel.attention_matmul_cost", "costmodel", "attention_matmul_cost", None),
    ("costmodel.softmax_cost", "costmodel", "softmax_cost", None),
    ("costmodel.fused_attention_cost", "costmodel", "fused_attention_cost", None),
    ("costmodel.elementwise_cost", "costmodel", "elementwise_cost", None),
    ("costmodel.allreduce_cost", "costmodel", "allreduce_cost", None),
    ("costmodel.layer_totals", "costmodel", "layer_totals", None),
    ("costmodel.model_totals", "costmodel", "model_totals", None),
    ("roofline.node_performance", "roofline", "node_performance", None),
    ("roofline.roofline_performance", "roofline", "roofline_performance", None),
    ("features.raw_featurize", "features", "raw_featurize", None),
    ("features.featurize_raw", "features", "featurize_raw", None),
    ("features.fit_stats", "features", "fit_stats", None),
    ("gnn.train", "gnn", "train", _sample_epochs),
    ("gnn.loss_and_gradients", "gnn", "loss_and_gradients", None),
    ("gnn.adam_step", "gnn", "adam_step", None),
    ("gnn.predict_energy", "gnn", "predict_energy", None),
    ("gnn.save_checkpoint", "gnn", "save_checkpoint", None),
    ("gnn.load_checkpoint", "gnn", "load_checkpoint", None),
    ("sampler.initial_sample", "sampler", "initial_sample", _len_result),
    ("sampler.fine_grained_sampling", "sampler", "fine_grained_sampling", _len_result),
    ("sampler.select_high_error", "sampler", "select_high_error", None),
    ("sampler.roofline_phase_times", "sampler", "roofline_phase_times", None),
    ("sampler.SyntheticEnergyOracle.measure_breakdown", "sampler",
     "SyntheticEnergyOracle.measure_breakdown", None),
    ("carbon.estimate_request", "carbon", "estimate_request", None),
    ("carbon.ModelEnergyPredictor.measure_breakdown", "carbon",
     "ModelEnergyPredictor.measure_breakdown", None),
    ("traces.parse_trace", "traces", "parse_trace", _len_result),
    ("traces.serialize_trace", "traces", "serialize_trace", None),
)


class SpanRecorder:
    """Flat span arrays plus per-name item totals and kernel-pricing keys."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._root = -1
        self._root_name = ""
        self.items: dict[str, int] = {}
        self.priced: dict[str, set] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        if index >= MAX_SPANS:
            raise RuntimeError(f"more than {MAX_SPANS} spans in one traced phase")
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.root.append(self._root if self._root >= 0 else index)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def phase(self, name: str):
        """Context manager for a root span (set-up, trial or probe)."""
        return _Phase(self, name)

    def wrap(self, name: str, fn, items=None):
        name_id = self.intern(name)
        rec = self
        pricing = name == "costmodel.kernel_cost"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = rec._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(index)
            if items is not None:
                rec.items[name] = rec.items.get(name, 0) + items(args, kwargs, result)
            if pricing and len(args) >= 5:
                # one pricing unit: (request, node, phase), per root phase
                node, arch, cfg, s_block, phase = args[:5]
                rec.priced.setdefault(rec._root_name, set()).add(
                    (arch, cfg, s_block, node.id, phase))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _Phase:
    def __init__(self, rec: SpanRecorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.index = self.rec._open(self.rec.intern(self.name))
        self.rec._root = self.index
        self.rec._root_name = self.name
        return self

    def __exit__(self, *exc):
        self.rec._close(self.index)
        self.rec._root = -1
        self.rec._root_name = ""
        return False


class Instrumentation:
    """Installs span wrappers on every infercarbon module attribute, and removes them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "infercarbon" or n.startswith("infercarbon."))]
        for name, module_name, attr, items in TARGETS:
            module = sys.modules.get(f"infercarbon.{module_name}")
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = getattr(holder, leaf, None) if holder is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.recorder.wrap(name, fn, items)
            if owner:
                self._set(holder, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)

    def _set(self, obj, key, value) -> None:
        self._saved.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def remove(self) -> None:
        for obj, key, value in reversed(self._saved):
            setattr(obj, key, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def wrapper_overhead(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to its caller beyond its own span: the
    median over `repeats` loops of an empty function's wrapper cost."""
    values = []
    for _ in range(repeats):
        rec = SpanRecorder()
        traced = rec.wrap("noop", lambda: None)
        start = perf_counter()
        for _ in range(calls):
            pass
        loop = perf_counter() - start
        with rec.phase("calibrate"):
            for _ in range(calls):
                traced()
        values.append((SpanTable(rec).self_total("calibrate") - loop) / calls)
    return max(0.0, statistics.median(values))


def descendant_counts(parent: np.ndarray) -> np.ndarray:
    """Number of spans below each span; a child always follows its parent."""
    parents = parent.tolist()
    counts = [0] * len(parents)
    for index in range(len(parents) - 1, -1, -1):
        p = parents[index]
        if p >= 0:
            counts[p] += counts[index] + 1
    return np.array(counts, dtype=np.float64)


class SpanTable:
    """Durations, self times and ancestry of a recorder's spans, by name.

    With `span_overhead` (from `wrapper_overhead`), each duration has that
    cost subtracted once per span below it, so self times and durations
    approximate the untraced program rather than program plus tracer.
    """

    def __init__(self, recorder: SpanRecorder, roots: set[str] | None = None,
                 span_overhead: float = 0.0):
        a = recorder.arrays()
        self.names = recorder.names
        parent = a["parent"]
        dur = a["end"] - a["start"]
        if span_overhead:
            dur = dur - descendant_counts(parent) * span_overhead
        child_sum = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                                minlength=len(dur))
        self.parent = parent
        self.name = a["name"]
        self.dur = dur
        self.self_time = dur - child_sum
        keep = np.ones(len(dur), dtype=bool)
        if roots is not None:
            root_ids = {recorder._ids[r] for r in roots if r in recorder._ids}
            keep = np.isin(self.name[a["root"]], list(root_ids))
        self.keep = keep

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.keep & (self.name == self.names.index(name))

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def self_total(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def layer_self_total(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
        return float(self.self_time[self.keep & np.isin(self.name, ids)].sum())

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of `name` with a span of `ancestor` somewhere above them."""
        if ancestor not in self.names:
            return 0
        anc = self.names.index(ancestor)
        count = 0
        for index in np.flatnonzero(self._mask(name)):
            p = self.parent[index]
            while p >= 0:
                if self.name[p] == anc:
                    count += 1
                    break
                p = self.parent[p]
        return count

    def top_level(self, root: str) -> tuple[float, float]:
        """(wall time of the `root` spans, time their direct children cover)."""
        if root not in self.names:
            return 0.0, 0.0
        rid = self.names.index(root)
        roots = np.flatnonzero(self.name == rid)
        wall = float(self.dur[roots].sum())
        covered = float(self.dur[np.isin(self.parent, roots)].sum())
        return wall, covered

    def layer_names(self) -> list[str]:
        return sorted({n.split(".")[0] for n in self.names if "." in n})
