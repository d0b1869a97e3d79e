"""Graph regressor for inference energy, written directly on numpy.

Architecture: two mean-aggregation graph convolutions (each node is updated
from the concatenation of itself and the mean of its neighbors), mean pooling
over nodes, concatenation with the global feature vector, then two linear
layers down to a scalar.  The scalar lives in log-energy space: targets are
log(joules) (TARGET), so the squared loss weighs relative error, and
predictions are exp-ed back at the reporting boundary.

The parameters are four layers, conv1, conv2, head1 and head2, each held as
its weight stacked over its bias, [W; b], so that a layer product is one GEMM
of input rows ending in a ones column; their shapes fix the node, global and
hidden widths.  A checkpoint names the target and stores eight arrays, the
layers and the four feature statistics, each as its dtype, shape and the
base64 of its little-endian float64 bytes.

One forward/backward path serves a stack of graphs, each zero-padded to the
widest: each layer product is one GEMM over all stacked rows; neighbor means
are a batched (b, n, n) product with each graph's own aggregation matrix, and
the node mean a batched matmul with per-graph weights.  Training stacks its
samples once per call (padded node features, node counts, global vectors,
log-space targets, and one aggregation matrix per shared topology); each step
gathers its mini-batch's rows, CHUNK_GRAPHS graphs to a forward and backward,
trimmed to the widest graph of the chunk, and adds chunk gradients in batch
order.  Parameters, gradients and Adam moments each live in one flat buffer
that a step writes in place, and every forward and backward shares one
bounded, process-wide activation scratch.  `predict_many` runs the same
forward over chunks of graphs; `predict_energy` is its batch of one.

A forward and backward compute in the dtype of the parameters they are given.
Training runs them in float32, on samples stacked once in float32 and on a
per-step float32 copy of the float64 master weights.  Adam widens the float32
gradients once per step; it, its moments, the returned parameters, checkpoints
and the loss (summed from the float32 residuals in float64) stay float64.
Prediction and the gradient check pass float64 parameters, so run in float64.

Gradients are reverse-mode by hand and checked against central finite
differences.  Training is deterministic for a fixed seed: shuffling comes
from a seeded generator, and a mini-batch always reduces in the same order.
"""

from __future__ import annotations

import base64
import copy
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .arch import JSON_DECODERS, RangeError, check_keys, check_minimums
from .features import NUM_KINDS, FeatureStats, FeaturizedGraph

HIDDEN_WIDTH = 64
# Graphs per forward/backward pass: bounds one step's activations at any batch size.
CHUNK_GRAPHS = 64
# Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# The layers in the order `GnnParams.flat` holds them.
LAYER_NAMES = ("conv1", "conv2", "head1", "head2")
# The FeatureStats fields, in the order a checkpoint stores them.
STAT_NAMES = tuple(f.name for f in fields(FeatureStats))
CHECKPOINT_VERSION, CHECKPOINT_DTYPE = 3, "<f8"  # little-endian float64 arrays
CHECKPOINT_KEYS = ("format", "version", "target", "seed", "params", "stats")  # "extra" is optional
TARGET = "log"  # the regression target, which a checkpoint names: log(joules)


class ShapeError(ValueError):
    """Feature or parameter shapes do not line up."""


class NonFiniteLoss(ArithmeticError):
    """Training loss became NaN or infinite."""


class ZeroTruth(ValueError):
    """Percentage metrics need strictly positive ground-truth values."""


@dataclass(eq=False)
class GnnParams:
    """The regressor's four layers, in LAYER_NAMES order, each its weight
    stacked over its bias, [W; b], of shape (inputs + 1, outputs).
    Construction copies them into one flat float64 buffer, `flat`, and keeps
    each field as a view of it: writing a field's elements writes `flat`, and
    Adam updates every layer as one vector.  Gradients are held in a GnnParams
    too, and `over` views a buffer of any dtype (training's float32 working
    copy).  Two parameter sets are equal only if they are the same object."""

    conv1: np.ndarray
    conv2: np.ndarray
    head1: np.ndarray
    head2: np.ndarray
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        layers = [np.asarray(layer, dtype=np.float64) for layer in self.as_list()]
        self._view(np.concatenate([layer.ravel() for layer in layers]),
                   [layer.shape for layer in layers])

    def _view(self, flat: np.ndarray, shapes) -> None:
        self.flat = flat
        start = 0
        for name, shape in zip(LAYER_NAMES, shapes):
            stop = start + math.prod(shape)
            setattr(self, name, flat[start:stop].reshape(shape))
            start = stop

    def over(self, flat: np.ndarray) -> "GnnParams":
        """Layers of these shapes viewing `flat`, which is not copied."""
        other = copy.copy(self)
        other._view(flat, [layer.shape for layer in self.as_list()])
        return other

    def copy(self) -> "GnnParams":
        return self.over(self.flat.copy())

    def as_list(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in LAYER_NAMES]

    @property
    def node_width(self) -> int:
        return (self.conv1.shape[0] - 1) // 2

    @property
    def hidden_width(self) -> int:
        return self.conv1.shape[1]

    @property
    def global_width(self) -> int:
        return self.head1.shape[0] - 1 - self.hidden_width

    def validate(self) -> "GnnParams":
        if any(layer.ndim != 2 for layer in self.as_list()):
            raise ShapeError("every layer must be a matrix")
        h, rows = self.hidden_width, self.conv1.shape[0]
        if h < 1:
            raise ShapeError(f"conv1 needs at least one column (the hidden width), got {h}")
        if not (rows % 2 == 1 and rows >= 3):
            raise ShapeError(f"conv1 needs 2 x node width + 1 >= 3 rows, got {rows}")
        if self.head1.shape[0] <= h:
            raise ShapeError(f"head1 needs at least H + 1 = {h + 1} rows "
                             f"(a global width >= 0), got {self.head1.shape[0]}")
        for name, layer, shape in zip(LAYER_NAMES, self.as_list(),
                                      layer_shapes(self.node_width, self.global_width, h)):
            if layer.shape != shape:
                raise ShapeError(f"{name} needs shape {shape}, got {layer.shape}")
        if not np.all(np.isfinite(self.flat)):
            raise ShapeError("parameter contains a non-finite value")
        return self


def layer_shapes(node_width: int, global_width: int, hidden_width: int = HIDDEN_WIDTH) -> tuple:
    """Each layer's [W; b] shape, (inputs + 1, outputs), in LAYER_NAMES order."""
    h = hidden_width
    return (2 * node_width + 1, h), (2 * h + 1, h), (h + global_width + 1, h), (h + 1, 1)


def _layer(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A Xavier-uniform weight over a zero bias."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return np.vstack([rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros((1, fan_out))])


def init_params(node_width: int, global_width: int, seed: int = 0) -> GnnParams:
    for name, width, least in (("node", node_width, 1), ("global", global_width, 0)):
        if width < least:
            raise ShapeError(f"{name} width must be >= {least}, got {width}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return GnnParams(*(_layer(rng, rows - 1, cols)
                       for rows, cols in layer_shapes(node_width, global_width))).validate()


def _check_widths(graphs, params: GnnParams) -> None:
    width, global_width = params.node_width, params.global_width
    for fg in graphs:
        x = fg.features
        if x.ndim != 2 or x.shape[0] == 0:
            raise ShapeError("feature matrix must be non-empty and 2-D")
        if x.shape[1] != width:
            raise ShapeError(f"model expects node width {width}, graph has {x.shape[1]}")
        if fg.global_features.shape[0] != global_width:
            raise ShapeError(f"model expects global width {global_width}, "
                             f"graph has {fg.global_features.shape[0]}")


class _Scratch:
    """One float64 buffer per name, grown to the largest request, that `take`
    hands out as views of any dtype: a float32 array takes half the float64
    elements, so float32 training and float64 prediction share one set of
    activations.  The process keeps one, `_SCRATCH`, that every forward and
    backward reuses.  The package is single-threaded: a forward's arrays are
    views that stay valid only until the next forward or backward in the
    process."""

    def __init__(self):
        self.flat: dict[str, np.ndarray] = {}

    def take(self, name: str, dtype: np.dtype, *shape: int) -> np.ndarray:
        words = -(-math.prod(shape) * dtype.itemsize // 8)
        flat = self.flat.get(name)
        if flat is None or flat.size < words:
            flat = self.flat[name] = np.empty(words)
        return np.ndarray(shape, dtype, flat)


# xin, h, h2, agg, pool and grads: at most ~2.5 MB (64 graphs of 17 nodes, float64).
_SCRATCH = _Scratch()


@dataclass
class _Stack:
    """Graphs stacked once, for the forwards over any of their rows."""

    x: np.ndarray  # (N, widest, node width) node features, zero-padded
    counts: np.ndarray  # (N,) node counts
    glob: np.ndarray  # (N, global width) global vectors
    aggs: np.ndarray  # (T, widest, widest) one zero-padded matrix per distinct fg.agg object
    topology: np.ndarray  # (N,) row of `aggs` for each graph
    targets: np.ndarray | None  # (N,) log-space targets, when stacked with energies


def _stack(graphs, params: GnnParams, energies=None) -> _Stack:
    """Check the graphs against the model's widths and stack them in the
    dtype of `params`.  Graphs of one topology share their aggregation matrix
    object, which is stored once."""
    _check_widths(graphs, params)
    counts = np.array([fg.node_count for fg in graphs])
    n = int(counts.max())
    row_of: dict[int, int] = {}
    for fg in graphs:
        row_of.setdefault(id(fg.agg), len(row_of))
    topology = np.array([row_of[id(fg.agg)] for fg in graphs])
    dtype = params.flat.dtype
    x = np.zeros((len(graphs), n, params.node_width), dtype)
    aggs = np.zeros((len(row_of), n, n), dtype)
    for i, fg in enumerate(graphs):
        x[i, : counts[i]] = fg.features
        aggs[topology[i], : counts[i], : counts[i]] = fg.agg
    glob = np.array([fg.global_features for fg in graphs], dtype)
    targets = (None if energies is None
               else np.array([target_transform(e) for e in energies], dtype))
    return _Stack(x, counts, glob, aggs, topology, targets)


def _gather(stack: _Stack, rows: np.ndarray, scratch: _Scratch) -> tuple:
    """The forward inputs of the stacked graphs `rows`, in that order, trimmed
    to the widest of them; node features and aggregation matrices are copied
    into `scratch`."""
    counts = stack.counts[rows]
    b, n = len(rows), int(counts.max())
    # mode="clip" lets take write straight into `out` (the default buffers a
    # copy); the forward writes h2 over x once it has copied x into xin
    dtype = stack.x.dtype
    x = np.take(stack.x[:, :n], rows, axis=0, mode="clip",
                out=scratch.take("h2", dtype, b, n, stack.x.shape[2]))
    agg = np.take(stack.aggs[:, :n, :n], stack.topology[rows], axis=0, mode="clip",
                  out=scratch.take("agg", dtype, b, n, n))
    return x, agg, counts, stack.glob[rows]


def _forward(x, agg, counts, glob, params: GnnParams, scratch: _Scratch) -> tuple:
    """One forward over b graphs, each zero-padded to the n nodes of the widest:
    node features x (b, n, width), aggregation matrices agg (b, n, n), node
    counts (b,) and global vectors glob (b, global width), all in the dtype of
    `params`, which the forward computes in.

    conv1 reads rows xin = [x, agg x, 1] and writes h1 into h = [h1, agg h1, 1],
    which conv2 reads; each multiplies by its [W; b] layer.  A
    padded row never reaches a real node (its agg column is zero) nor the
    node mean (its pooling weight is zero), so it gets no gradient either.
    Returns (agg, pool, xin, h, h2, q, h3, y); the (b*n, .) node arrays are
    views of `scratch`, valid until its next forward or backward.
    """
    b, n, width = x.shape
    rows, hidden = b * n, params.hidden_width
    dtype = params.flat.dtype
    xin = scratch.take("xin", dtype, b, n, 2 * width + 1)
    xin[..., :width] = x
    np.matmul(agg, x, out=xin[..., width:-1])
    xin[..., -1] = 1.0
    xin = xin.reshape(rows, -1)
    h = scratch.take("h", dtype, rows, 2 * hidden + 1)
    h1 = np.matmul(xin, params.conv1, out=h[:, :hidden])
    np.maximum(h1, 0.0, out=h1)
    h_3d = h.reshape(b, n, -1)
    np.matmul(agg, h_3d[..., :hidden], out=h_3d[..., hidden:-1])
    h[:, -1] = 1.0
    h2 = np.matmul(h, params.conv2, out=scratch.take("h2", dtype, rows, hidden))
    np.maximum(h2, 0.0, out=h2)

    pool = np.divide(np.arange(n) < counts[:, None], counts[:, None],
                     out=scratch.take("pool", dtype, b, n))
    q = np.ones((b, hidden + params.global_width + 1), dtype)
    np.matmul(pool[:, None, :], h2.reshape(b, n, hidden), out=q[:, None, :hidden])
    q[:, hidden:-1] = glob
    h3 = np.ones((b, hidden + 1), dtype)
    np.maximum(np.matmul(q, params.head1, out=h3[:, :hidden]), 0.0, out=h3[:, :hidden])
    y = h3 @ params.head2[:, 0]
    return agg, pool, xin, h, h2, q, h3, y


def _backward(act: tuple, params: GnnParams, dy: np.ndarray, grads: GnnParams) -> None:
    """Write the parameter gradients of sum(dy * y) into `grads`: one GEMM
    per layer gives its weight and bias gradients together.  The backward
    works in the forward's h2 and h buffers, which it overwrites."""
    agg, pool, xin, h, h2, q, h3, _ = act
    b, n, _ = agg.shape
    rows, hidden = b * n, params.hidden_width
    np.matmul(h3.T, dy, out=grads.head2[:, 0])
    ds3 = np.outer(dy, params.head2[:-1, 0]) * (h3[:, :hidden] > 0)
    np.matmul(q.T, ds3, out=grads.head1)
    dmean = ds3 @ params.head1[:hidden].T
    relu2 = h2 > 0  # and the pooling weights keep padded rows out
    ds2_3d = np.multiply(pool[:, :, None], dmean[:, None, :], out=h2.reshape(b, n, hidden))
    ds2 = ds2_3d.reshape(rows, hidden)
    ds2 *= relu2
    np.matmul(h.T, ds2, out=grads.conv2)
    # conv1's output gradient: the own half of conv2's input gradient, plus
    # agg^T times its neighbor half
    relu1 = h[:, :hidden] > 0
    dh = np.matmul(ds2, params.conv2[:-1].T, out=h[:, :-1])
    back = np.matmul(agg.transpose(0, 2, 1), dh.reshape(b, n, -1)[..., hidden:], out=ds2_3d)
    ds1 = dh[:, :hidden]
    ds1 += back.reshape(rows, hidden)
    ds1 *= relu1
    np.matmul(xin.T, ds1, out=grads.conv1)


def predict_energy(fg: FeaturizedGraph, params: GnnParams) -> float:
    """Predicted energy in joules: the batch-of-one forward on views of the
    graph's own arrays, out of log space."""
    _check_widths([fg], params)
    act = _forward(fg.features[None], fg.agg[None], np.array([fg.node_count]),
                   fg.global_features[None], params, _SCRATCH)
    return float(np.exp(act[-1][0]))


def predict_many(graphs: list[FeaturizedGraph], params: GnnParams) -> list[float]:
    """Predicted energies in joules, CHUNK_GRAPHS graphs stacked to a forward.
    A graph zero-padded beside wider ones may differ from its batch-of-one
    prediction in the last bits."""
    preds: list[float] = []
    for start in range(0, len(graphs), CHUNK_GRAPHS):
        stack = _stack(graphs[start : start + CHUNK_GRAPHS], params)
        act = _forward(*_gather(stack, np.arange(len(stack.counts)), _SCRATCH), params, _SCRATCH)
        preds += np.exp(act[-1]).tolist()
    return preds


def target_transform(energy_joules: float) -> float:
    return math.log(energy_joules)


def loss_and_gradients(
    batch, params: GnnParams, rows: np.ndarray | None = None, grads: GnnParams | None = None
) -> tuple[float, GnnParams]:
    """Mean squared error in log space, and its parameter gradients.

    `batch` is a list of (graph, energy) pairs, which is stacked here, or a
    stack of them made once by `train`, with `rows` picking the mini-batch
    (default: every row).  The mini-batch runs through one forward and one
    backward per chunk of CHUNK_GRAPHS consecutive rows; chunk gradients are
    summed in batch order, so a given batch always reduces in the same order.
    Both run in the dtype of `params`; the loss is summed in float64.
    Gradients are written into `grads` (of that dtype) when given, else into
    a new GnnParams.
    """
    if not isinstance(batch, _Stack):
        if not batch:
            raise ValueError("batch must not be empty")
        batch = _stack([fg for fg, _ in batch], params, [energy for _, energy in batch])
    if rows is None:
        rows = np.arange(len(batch.counts))
    if grads is None:
        grads = params.over(np.empty_like(params.flat))
    inv = 1.0 / len(rows)
    total = 0.0
    for start in range(0, len(rows), CHUNK_GRAPHS):
        chunk = rows[start : start + CHUNK_GRAPHS]
        act = _forward(*_gather(batch, chunk, _SCRATCH), params, _SCRATCH)
        residual = act[-1] - batch.targets[chunk]
        wide = residual.astype(np.float64, copy=False)
        total += float(wide @ wide)
        # the first chunk writes `grads` itself; a later one adds its own
        part = grads if start == 0 else params.over(
            _SCRATCH.take("grads", params.flat.dtype, params.flat.size))
        _backward(act, params, 2.0 * inv * residual, part)
        if start:
            grads.flat += part.flat
    loss = total * inv
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss is not finite: {loss}")
    return loss, grads


@dataclass
class AdamState:
    """Adam's moments as flat vectors in the order of `GnnParams.flat`, the step count,
    and two flat work rows for a step's temporaries, its widened gradients among them."""

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray  # (2, parameter count)
    step: int = 0


@dataclass
class TrainHyper:
    learning_rate: float = 1e-3
    batch_size: int = 512
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        rate = self.learning_rate
        if not rate > 0:  # NaN included
            raise RangeError(f"learning_rate must be > 0, got {rate}", field="learning_rate")
        if rate == math.inf:
            raise RangeError(f"learning_rate must be finite, got {rate}", field="learning_rate")
        check_minimums(self, (("batch_size", 1), ("epochs", 1), ("seed", 0)))


def init_adam_state(params: GnnParams) -> AdamState:
    size = params.flat.size
    return AdamState(m=np.zeros(size), v=np.zeros(size), work=np.empty((2, size)))


def adam_step(params: GnnParams, grads: GnnParams, state: AdamState, hyper: TrainHyper) -> None:
    """One bias-corrected Adam update of `params` and `state`, in place and
    allocation-free, from float32 or float64 `grads` widened once to float64:

        m <- beta1 m + (1 - beta1) g
        v <- beta2 v + ((1 - beta2) g) g
        params <- params - (lr m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
    """
    state.step += 1
    m, v = state.m, state.v
    a, g = state.work
    # one widening pass: a float32 operand would cost one in each product
    np.copyto(g, grads.flat)
    np.multiply(m, ADAM_BETA1, out=m)
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(g, 1.0 - ADAM_BETA2, out=a)
    a *= g
    v += a
    np.divide(v, 1.0 - ADAM_BETA2**state.step, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPSILON
    update = np.divide(m, 1.0 - ADAM_BETA1**state.step, out=g)
    update *= hyper.learning_rate
    update /= a
    params.flat -= update


def train(
    samples: list[tuple[FeaturizedGraph, float]],
    hyper: TrainHyper,
    params: GnnParams | None = None,
) -> tuple[GnnParams, list[float]]:
    """Mini-batch Adam training; returns final parameters and per-epoch mean loss.

    Passing existing params continues training from a copy of them with
    fresh Adam moments (the sampling loop's model updates); otherwise
    parameters are freshly initialized from the first sample's feature widths
    with the run seed.  The samples are stacked once, in float32; each step
    gathers its mini-batch's rows and runs them on a float32 working copy of
    the parameters, then takes its Adam step from their float32 gradients, in place.
    """
    if not samples:
        raise ValueError("training set must not be empty")
    first = samples[0][0]
    if params is None:
        params = init_params(
            node_width=first.features.shape[1],
            global_width=first.global_features.shape[0],
            seed=hyper.seed,
        )
    else:
        params = params.copy()
    work = params.over(np.empty(params.flat.size, np.float32))
    work_grads = work.over(np.empty_like(work.flat))
    stack = _stack([fg for fg, _ in samples], work, [energy for _, energy in samples])
    state = init_adam_state(params)
    rng = np.random.Generator(np.random.PCG64(hyper.seed + 1))
    history = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(samples))
        epoch_loss = 0.0
        for start in range(0, len(samples), hyper.batch_size):
            rows = order[start : start + hyper.batch_size]
            np.copyto(work.flat, params.flat)
            try:
                loss, _ = loss_and_gradients(stack, work, rows, work_grads)
            except NonFiniteLoss as exc:
                raise NonFiniteLoss(f"epoch {epoch}: {exc}") from exc
            adam_step(params, work_grads, state, hyper)
            epoch_loss += loss * len(rows)
        history.append(epoch_loss / len(samples))
    return params, history


def relative_errors(preds, truths) -> np.ndarray:
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.shape != truths.shape:
        raise ShapeError("predictions and truths must have the same length")
    if preds.size == 0:
        raise ValueError("empty prediction set")
    if np.any(truths <= 0):
        raise ZeroTruth("ground-truth values must be strictly positive")
    return np.abs(preds - truths) / truths


def mape(preds, truths) -> float:
    """Mean absolute percentage error, in percent."""
    return float(np.mean(relative_errors(preds, truths)) * 100.0)


def eba(preds, truths, delta: float) -> float:
    """Share of predictions within relative error delta, in percent."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return float((relative_errors(preds, truths) <= delta).mean() * 100.0)


@dataclass
class EvalReport:
    mape: float
    eba: dict[float, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"mape_percent": self.mape,
                "eba_percent": {f"{delta:g}": value for delta, value in self.eba.items()}}


def evaluate(preds, truths) -> EvalReport:
    """MAPE and EBA at the 5%, 10% and 30% error bounds."""
    deltas = (0.05, 0.10, 0.30)
    return EvalReport(mape=mape(preds, truths), eba={d: eba(preds, truths, d) for d in deltas})


def gradient_check(
    params: GnnParams,
    sample: tuple[FeaturizedGraph, float],
    eps: float = 1e-5,
    coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Coordinates whose perturbation flips any relu activation sign are skipped:
    the loss is not differentiable across the kink, so finite differences are
    meaningless there.  Relative error uses an absolute floor of 1e-8 so that
    near-zero gradient pairs compare cleanly.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    stack = _stack([sample[0]], params, [sample[1]])
    _, grads = loss_and_gradients(stack, params)

    def bumped(index: int, delta: float) -> tuple[float, tuple]:
        """Squared error and relu sign patterns with one coordinate moved."""
        moved = params.copy()
        moved.flat[index] += delta
        *_, h, h2, _, h3, y = _forward(*_gather(stack, np.arange(1), _SCRATCH), moved, _SCRATCH)
        residual = float(y[0]) - stack.targets[0]
        return residual * residual, (h > 0, h2 > 0, h3 > 0)

    rng = np.random.Generator(np.random.PCG64(seed))
    size = params.flat.size
    picked = rng.choice(size, size=min(coords, size), replace=False)
    worst = 0.0
    for index in sorted(int(i) for i in picked):
        loss_p, masks_p = bumped(index, eps)
        loss_m, masks_m = bumped(index, -eps)
        if not all(np.array_equal(a, b) for a, b in zip(masks_p, masks_m)):
            continue
        fd = (loss_p - loss_m) / (2.0 * eps)
        analytic = grads.flat[index]
        denom = max(abs(analytic), abs(fd), 1e-8)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst


def _encoded(array: np.ndarray) -> dict:
    return {"dtype": CHECKPOINT_DTYPE, "shape": list(array.shape),
            "data": base64.b64encode(array.astype(CHECKPOINT_DTYPE)).decode()}


def save_checkpoint(path, params: GnnParams, stats: FeatureStats, seed: int, extra: dict | None = None) -> None:
    """Write a versioned JSON checkpoint of the target, the seed, the layers and
    the feature statistics, through a sibling `<name>.tmp` that replaces
    `path`: a write cut short leaves the previous file whole, and a write or
    rename that fails removes the `.tmp`."""
    params.validate()
    payload = {
        "format": "infercarbon-checkpoint",
        "version": CHECKPOINT_VERSION,
        "target": TARGET,
        "seed": seed,
        "params": {name: _encoded(layer) for name, layer in zip(LAYER_NAMES, params.as_list())},
        "stats": {name: _encoded(getattr(stats, name)) for name in STAT_NAMES},
    }
    if extra:
        payload["extra"] = extra
    partial = f"{os.fspath(path)}.tmp"
    handle = open(partial, "w", encoding="utf-8")
    try:
        with handle:
            handle.write(json.dumps(payload))
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def _decoded(name: str, entry, ndim: int) -> np.ndarray:
    """Array `name` of a checkpoint: an object of its dtype, its shape (`ndim`
    integers >= 0) and the base64 of its finite float64 bytes."""
    check_keys(entry, ("dtype", "shape", "data"), f"field '{name}'")
    if entry["dtype"] != CHECKPOINT_DTYPE:
        raise ShapeError(f"field '{name}.dtype' must be \"{CHECKPOINT_DTYPE}\", "
                         f"got {json.dumps(entry['dtype'])}")
    shape = entry["shape"]
    if (type(shape) is not list or len(shape) != ndim
            or min(JSON_DECODERS["int"](f"{name}.shape", n) for n in shape) < 0):
        raise ShapeError(f"field '{name}.shape' must be {ndim} integers >= 0, "
                         f"got {json.dumps(shape)}")
    try:
        data = base64.b64decode(entry["data"], validate=True)
    except (TypeError, ValueError) as exc:  # not a string, or not base64
        raise ShapeError(f"field '{name}.data' is not base64: {exc}") from None
    size = 8 * math.prod(shape)  # float64 bytes
    if len(data) != size:
        raise ShapeError(f"field '{name}.data' holds {len(data)} bytes, "
                         f"shape {tuple(shape)} needs {size}")
    array = np.frombuffer(data, CHECKPOINT_DTYPE).reshape(shape)
    if not np.isfinite(array).all():
        raise ShapeError(f"field '{name}.data' holds a non-finite value")
    return array


def _decoded_section(payload, section: str, names: tuple, ndim: int) -> dict[str, np.ndarray]:
    """The arrays of checkpoint section `section`, which must hold exactly `names`."""
    check_keys(payload[section], names, f"field '{section}'")
    return {name: _decoded(name, payload[section][name], ndim) for name in names}


def load_checkpoint(path) -> tuple[GnnParams, FeatureStats, dict]:
    """Load a checkpoint.  A foreign format, another version or target, a key
    the format does not define, a malformed layer or statistic, statistics
    that do not fit the widths the layers fix, a seed that is not an integer
    >= 0 and an `extra` that is not an object are refused with a ShapeError
    naming the path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise ShapeError(f"{path}: unreadable checkpoint: {exc}") from exc
    if (not isinstance(payload, dict) or payload.get("format") != "infercarbon-checkpoint"
            or type(payload.get("version")) is not int):
        raise ShapeError(f"{path}: not a recognized checkpoint file")
    if payload["version"] != CHECKPOINT_VERSION:
        raise ShapeError(f"{path}: checkpoint version {payload['version']} is not readable "
                         f"(this release reads version {CHECKPOINT_VERSION}); re-run "
                         "`infercarbon train` or `infercarbon sample` to write it anew")
    if payload.get("target") != TARGET:
        raise ShapeError(f"{path}: checkpoint target {json.dumps(payload.get('target'))} is "
                         f"not this release's target \"{TARGET}\"")
    try:
        check_keys(payload, CHECKPOINT_KEYS, "header", optional=("extra",))
        layers = _decoded_section(payload, "params", LAYER_NAMES, 2)
        params = GnnParams(**layers).validate()
        arrays = _decoded_section(payload, "stats", STAT_NAMES, 1)
        for name, array in arrays.items():
            kind = name.split("_")[0]  # node or global
            width = getattr(params, f"{kind}_width")
            need = (width - NUM_KINDS if kind == "node" else width,)
            if array.shape != need:
                raise ShapeError(f"field '{name}' needs shape {need} for the layers' {kind} "
                                 f"width {width}, got {array.shape}")
            # a zero std is a constant slot, which reads 0
            if name.endswith("std") and np.any(array < 0):
                raise ShapeError(f"field '{name}' must not be negative, got {array.min()}")
        stats = FeatureStats(**arrays)
        seed = JSON_DECODERS["int"]("seed", payload["seed"])
        if seed < 0:
            raise ShapeError(f"field 'seed' must be >= 0, got {seed}")
        extra = payload.get("extra", {})
        if type(extra) is not dict:
            raise ShapeError(f"field 'extra' must be an object, got {json.dumps(extra)}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"{path}: malformed checkpoint: {exc}") from exc
    return params, stats, {"seed": seed, "extra": extra}
