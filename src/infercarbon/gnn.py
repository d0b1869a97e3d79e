"""Graph regressor for inference energy, written directly on numpy.

Architecture: two mean-aggregation graph convolutions (each node is updated
from the concatenation of itself and the mean of its neighbors), mean pooling
over nodes, concatenation with the global feature vector, then two linear
layers down to a scalar.  The scalar lives in log-energy space: targets are
log1p(joules) and predictions are expm1-ed back at the reporting boundary.

One forward/backward path serves a stack of graphs, each zero-padded to the
widest: weight products are 2-D GEMMs over all stacked node rows, neighbor
means a batched (b, n, n) product with each graph's own aggregation matrix.
A prediction is its batch of one.  A training step runs its mini-batch in
chunks of CHUNK_GRAPHS graphs and adds their gradients in batch order.  Every
forward and backward shares one bounded, process-wide activation scratch.

Gradients are reverse-mode by hand and checked against central finite
differences.  Training is deterministic for a fixed seed: shuffling comes
from a seeded generator, and a mini-batch always reduces in the same order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .features import NUM_KINDS, FeatureStats, FeaturizedGraph

HIDDEN_WIDTH = 64
# Graphs per forward/backward pass: bounds one step's activations at any batch size.
CHUNK_GRAPHS = 64
# Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

PARAM_NAMES = (
    "conv1_w",
    "conv1_b",
    "conv2_w",
    "conv2_b",
    "head1_w",
    "head1_b",
    "head2_w",
    "head2_b",
)


class ShapeError(ValueError):
    """Feature or parameter shapes do not line up."""


class NonFiniteLoss(ArithmeticError):
    """Training loss became NaN or infinite."""


class ZeroTruth(ValueError):
    """Percentage metrics need strictly positive ground-truth values."""


@dataclass
class GnnParams:
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    head1_w: np.ndarray
    head1_b: np.ndarray
    head2_w: np.ndarray
    head2_b: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in PARAM_NAMES]

    @classmethod
    def from_list(cls, arrays: list[np.ndarray]) -> "GnnParams":
        return cls(**dict(zip(PARAM_NAMES, arrays)))

    @property
    def node_width(self) -> int:
        return self.conv1_w.shape[0] // 2

    @property
    def hidden_width(self) -> int:
        return self.conv1_w.shape[1]

    @property
    def global_width(self) -> int:
        return self.head1_w.shape[0] - self.hidden_width

    def validate(self) -> "GnnParams":
        if self.conv1_w.ndim != 2 or self.head1_w.ndim != 2:
            raise ShapeError("conv1 and head1 weights must be matrices")
        h = self.hidden_width
        checks = [
            (self.conv1_w.shape[0] % 2 == 0, "conv1 input must be 2 x node width"),
            (self.conv1_b.shape == (h,), "conv1 bias width"),
            (self.conv2_w.shape == (2 * h, h), "conv2 maps 2H -> H"),
            (self.conv2_b.shape == (h,), "conv2 bias width"),
            (self.head1_w.shape[1] == h, "head1 output width"),
            (self.head1_b.shape == (h,), "head1 bias width"),
            (self.head2_w.shape == (h, 1), "head2 maps H -> 1"),
            (self.head2_b.shape == (1,), "head2 bias width"),
        ]
        for ok, message in checks:
            if not ok:
                raise ShapeError(message)
        for arr in self.as_list():
            if not np.all(np.isfinite(arr)):
                raise ShapeError("parameter contains a non-finite value")
        return self


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(node_width: int, global_width: int, seed: int = 0) -> GnnParams:
    rng = np.random.Generator(np.random.PCG64(seed))
    hidden = HIDDEN_WIDTH
    return GnnParams(
        conv1_w=_xavier(rng, 2 * node_width, hidden),
        conv1_b=np.zeros(hidden),
        conv2_w=_xavier(rng, 2 * hidden, hidden),
        conv2_b=np.zeros(hidden),
        head1_w=_xavier(rng, hidden + global_width, hidden),
        head1_b=np.zeros(hidden),
        head2_w=_xavier(rng, hidden, 1),
        head2_b=np.zeros(1),
    ).validate()


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
    """Float64 buffers by name, grown to the largest request and handed out as
    views.  The process keeps one, `_SCRATCH`, that every forward and backward
    reuses.  The package is single-threaded: a forward's arrays are views that
    stay valid only until the next forward in the process."""

    def __init__(self):
        self.flat: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        flat = self.flat.get(name)
        if flat is None or flat.size < size:
            flat = self.flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


# About nine buffers of CHUNK_GRAPHS x widest graph (17 nodes) x HIDDEN_WIDTH floats: <= ~5 MB.
_SCRATCH = _Scratch()


def _forward(graphs, params: GnnParams, scratch: _Scratch) -> tuple:
    """One forward over b graphs, each zero-padded to the n nodes of the widest.

    A padded row never reaches a real node (its agg column is zero), and its
    h2 row is zeroed before the node mean, so it gets no gradient either.
    Returns (agg, counts, x, agg x, h1, agg h1, h2, q, h3, y); the (b*n, .)
    node arrays are views of `scratch`, valid until its next forward.
    """
    counts = np.array([fg.features.shape[0] for fg in graphs])
    b, n = len(graphs), int(counts.max())
    width, hidden = params.node_width, params.hidden_width
    x = scratch.take("x", b, n, width)
    agg = scratch.take("agg", b, n, n)
    x.fill(0.0)
    agg.fill(0.0)
    for i, fg in enumerate(graphs):
        x[i, : counts[i]] = fg.features
        agg[i, : counts[i], : counts[i]] = fg.agg
    ax = np.matmul(agg, x, out=scratch.take("ax", b, n, width)).reshape(b * n, width)
    x = x.reshape(b * n, width)
    h1 = _conv(x, ax, params.conv1_w, params.conv1_b, scratch, "h1")
    ah1 = np.matmul(agg, h1.reshape(b, n, hidden), out=scratch.take("ah1", b, n, hidden))
    ah1 = ah1.reshape(b * n, hidden)
    h2 = _conv(h1, ah1, params.conv2_w, params.conv2_b, scratch, "h2")
    h2_3d = h2.reshape(b, n, hidden)
    for i in np.flatnonzero(counts < n):
        h2_3d[i, counts[i] :] = 0.0

    q = np.empty((b, hidden + params.global_width))
    np.divide(h2_3d.sum(axis=1), counts[:, None], out=q[:, :hidden])
    q[:, hidden:] = [fg.global_features for fg in graphs]
    h3 = np.maximum(q @ params.head1_w + params.head1_b, 0.0)
    y = h3 @ params.head2_w[:, 0] + params.head2_b[0]
    return agg, counts, x, ax, h1, ah1, h2, q, h3, y


def _conv(own: np.ndarray, neighbor: np.ndarray, w: np.ndarray, bias: np.ndarray,
          scratch: _Scratch, name: str) -> np.ndarray:
    """relu([own, neighbor] @ w + bias), written into the scratch buffer `name`."""
    half = own.shape[1]
    out = np.matmul(own, w[:half], out=scratch.take(name, own.shape[0], w.shape[1]))
    out += np.matmul(neighbor, w[half:], out=scratch.take("tmp", *out.shape))
    out += bias
    return np.maximum(out, 0.0, out=out)


def _backward(
    act: tuple, params: GnnParams, dy: np.ndarray, scratch: _Scratch
) -> list[np.ndarray]:
    """Parameter gradients of sum(dy * y), in PARAM_NAMES order."""
    agg, counts, x, ax, h1, ah1, h2, q, h3, _ = act
    b, n, _ = agg.shape
    hidden = params.hidden_width
    ds3 = np.outer(dy, params.head2_w[:, 0]) * (h3 > 0)
    dmean = (ds3 @ params.head1_w[:hidden].T) / counts[:, None]

    ds2 = scratch.take("ds2", b, n, hidden)
    np.multiply(dmean[:, None, :], h2.reshape(b, n, hidden) > 0, out=ds2)
    ds2 = ds2.reshape(b * n, hidden)
    d_conv2_w = np.concatenate([h1.T @ ds2, ah1.T @ ds2])
    d_conv2_b = ds2.sum(axis=0)
    # conv1's output gradient: the self half, plus agg^T times the neighbor half
    ds1 = np.matmul(ds2, params.conv2_w[:hidden].T, out=scratch.take("ds1", b * n, hidden))
    back = np.matmul(ds2, params.conv2_w[hidden:].T, out=scratch.take("tmp", b * n, hidden))
    back = np.matmul(agg.transpose(0, 2, 1), back.reshape(b, n, hidden),
                     out=ds2.reshape(b, n, hidden))
    ds1 += back.reshape(b * n, hidden)
    ds1 *= h1 > 0

    return [np.concatenate([x.T @ ds1, ax.T @ ds1]), ds1.sum(axis=0), d_conv2_w, d_conv2_b,
            q.T @ ds3, ds3.sum(axis=0), (h3.T @ dy)[:, None], np.array([dy.sum()])]


def predict_energy(fg: FeaturizedGraph, params: GnnParams) -> float:
    """Predicted energy in joules: the batch-of-one forward, out of log space."""
    _check_widths([fg], params)
    return float(np.expm1(_forward([fg], params, _SCRATCH)[-1][0]))


def target_transform(energy_joules: float) -> float:
    return math.log1p(energy_joules)


def loss_and_gradients(
    batch: list[tuple[FeaturizedGraph, float]], params: GnnParams
) -> tuple[float, list[np.ndarray]]:
    """Mean squared error in log space, and its parameter gradients.

    The batch runs through one forward and one backward per chunk of
    CHUNK_GRAPHS consecutive samples; chunk gradients are summed in batch
    order, so a given batch always reduces in the same order.
    """
    if not batch:
        raise ValueError("batch must not be empty")
    _check_widths([fg for fg, _ in batch], params)
    inv = 1.0 / len(batch)
    total = 0.0
    grads = [np.zeros_like(arr) for arr in params.as_list()]
    for start in range(0, len(batch), CHUNK_GRAPHS):
        chunk = batch[start : start + CHUNK_GRAPHS]
        act = _forward([fg for fg, _ in chunk], params, _SCRATCH)
        residual = act[-1] - np.array([target_transform(energy) for _, energy in chunk])
        total += float(residual @ residual)
        for acc, g in zip(grads, _backward(act, params, 2.0 * inv * residual, _SCRATCH)):
            acc += g
    loss = total * inv
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss is not finite: {loss}")
    return loss, grads


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


@dataclass
class TrainHyper:
    learning_rate: float = 1e-3
    batch_size: int = 512
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def init_adam_state(params: GnnParams) -> AdamState:
    return AdamState(
        m=[np.zeros_like(arr) for arr in params.as_list()],
        v=[np.zeros_like(arr) for arr in params.as_list()],
        step=0,
    )


def adam_step(
    params: GnnParams, grads: list[np.ndarray], state: AdamState, hyper: TrainHyper
) -> tuple[GnnParams, AdamState]:
    """One bias-corrected Adam update; inputs are not mutated."""
    t = state.step + 1
    new_params = []
    new_m = []
    new_v = []
    for value, grad, m, v in zip(params.as_list(), grads, state.m, state.v):
        m_next = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v_next = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m_next / (1.0 - ADAM_BETA1**t)
        v_hat = v_next / (1.0 - ADAM_BETA2**t)
        new_params.append(value - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON))
        new_m.append(m_next)
        new_v.append(v_next)
    return GnnParams.from_list(new_params), AdamState(m=new_m, v=new_v, step=t)


def train(
    samples: list[tuple[FeaturizedGraph, float]],
    hyper: TrainHyper,
    params: GnnParams | None = None,
) -> tuple[GnnParams, list[float]]:
    """Mini-batch Adam training; returns final parameters and per-epoch mean loss.

    Passing existing params continues training from them with fresh Adam
    moments (the sampling loop's model updates); otherwise parameters are
    freshly initialized from the first sample's feature widths with the run
    seed.
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
    _check_widths([fg for fg, _ in samples], params)
    state = init_adam_state(params)
    rng = np.random.Generator(np.random.PCG64(hyper.seed + 1))
    history = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(samples))
        epoch_loss = 0.0
        for start in range(0, len(samples), hyper.batch_size):
            batch = [samples[i] for i in order[start : start + hyper.batch_size]]
            try:
                loss, grads = loss_and_gradients(batch, params)
            except NonFiniteLoss as exc:
                raise NonFiniteLoss(f"epoch {epoch}: {exc}") from exc
            params, state = adam_step(params, grads, state, hyper)
            epoch_loss += loss * len(batch)
        history.append(epoch_loss / len(samples))
    return params, history


def _relative_errors(preds, truths) -> np.ndarray:
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
    return float(np.mean(_relative_errors(preds, truths)) * 100.0)


def eba(preds, truths, delta: float) -> float:
    """Share of predictions within relative error delta, in percent."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return float((_relative_errors(preds, truths) <= delta).mean() * 100.0)


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
    _, grads = loss_and_gradients([sample], params)
    flat_grads = np.concatenate([g.ravel() for g in grads])
    arrays = params.as_list()
    offsets = np.cumsum([0] + [arr.size for arr in arrays])
    fg, energy = sample

    def bumped(slot: int, inner: int, delta: float) -> tuple[float, tuple]:
        """Squared error and relu sign patterns with one coordinate moved."""
        moved = [arr.copy() for arr in arrays]
        moved[slot].ravel()[inner] += delta
        *_, h1, _, h2, _, h3, y = _forward([fg], GnnParams.from_list(moved), _SCRATCH)
        residual = float(y[0]) - target_transform(energy)
        return residual * residual, (h1 > 0, h2 > 0, h3 > 0)

    rng = np.random.Generator(np.random.PCG64(seed))
    picked = rng.choice(offsets[-1], size=min(coords, offsets[-1]), replace=False)
    worst = 0.0
    for flat_index in sorted(int(i) for i in picked):
        slot = int(np.searchsorted(offsets, flat_index, side="right") - 1)
        loss_p, masks_p = bumped(slot, flat_index - offsets[slot], eps)
        loss_m, masks_m = bumped(slot, flat_index - offsets[slot], -eps)
        if not all(np.array_equal(a, b) for a, b in zip(masks_p, masks_m)):
            continue
        fd = (loss_p - loss_m) / (2.0 * eps)
        analytic = flat_grads[flat_index]
        denom = max(abs(analytic), abs(fd), 1e-8)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst


def save_checkpoint(path, params: GnnParams, stats: FeatureStats, seed: int, extra: dict | None = None) -> None:
    """Write a versioned JSON checkpoint with shapes, stats and weights."""
    params.validate()
    payload = {
        "format": "infercarbon-checkpoint",
        "version": 1,
        "seed": seed,
        "node_width": params.node_width,
        "global_width": params.global_width,
        "hidden_width": params.hidden_width,
        "stats": stats.to_dict(),
        "params": {name: arr.tolist() for name, arr in zip(PARAM_NAMES, params.as_list())},
    }
    if extra:
        payload["extra"] = extra
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_checkpoint(path) -> tuple[GnnParams, FeatureStats, dict]:
    """Load a checkpoint; refuses a foreign format, malformed weights or
    statistics and mismatched widths with a ShapeError naming the path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise ShapeError(f"{path}: unreadable checkpoint: {exc}") from exc
    if (not isinstance(payload, dict) or payload.get("format") != "infercarbon-checkpoint"
            or payload.get("version") != 1):
        raise ShapeError(f"{path}: not a recognized checkpoint file")
    try:
        params = GnnParams.from_list(
            [np.asarray(payload["params"][name], dtype=np.float64) for name in PARAM_NAMES]
        ).validate()
        expected = (payload["node_width"], payload["global_width"], payload["hidden_width"])
        actual = (params.node_width, params.global_width, params.hidden_width)
        if expected != actual:
            raise ShapeError(f"checkpoint widths {expected} do not match weights {actual}")
        stats = FeatureStats.from_dict(payload["stats"])
        node_slots = (params.node_width - NUM_KINDS,)
        for arr, shape in ((stats.node_mean, node_slots), (stats.node_std, node_slots),
                           (stats.global_mean, (params.global_width,)),
                           (stats.global_std, (params.global_width,))):
            if arr.shape != shape or not np.all(np.isfinite(arr)):
                raise ShapeError(f"feature statistics do not fit the weights' widths {actual}")
    except KeyError as exc:
        raise ShapeError(f"{path}: checkpoint has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{path}: malformed checkpoint: {exc}") from exc
    meta = {"seed": payload.get("seed"), "extra": payload.get("extra", {})}
    return params, stats, meta
