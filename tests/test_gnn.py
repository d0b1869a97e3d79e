import base64
import dataclasses
import errno
import functools
import hashlib
import itertools
import json
import operator
import re

import numpy as np
import pytest

from infercarbon import gnn
from infercarbon.arch import InferenceConfig, LlmArchitecture, RangeError, enumerate_layer_kernels
from infercarbon.features import (
    GLOBAL_FEATURE_WIDTH,
    NODE_FEATURE_WIDTH,
    FeaturizedGraph,
    featurize_raw,
    fit_stats,
    raw_featurize,
)
from infercarbon.gnn import (
    GnnParams,
    ShapeError,
    TrainHyper,
    ZeroTruth,
    adam_step,
    eba,
    evaluate,
    gradient_check,
    init_adam_state,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    mape,
    predict_energy,
    predict_many,
    save_checkpoint,
    train,
)
from infercarbon.roofline import builtin_gpu_catalog

from conftest import identity_stats, random_small_arch, random_small_cfg


def random_raws(count, seed=0):
    gpu = builtin_gpu_catalog()["a100"]
    rng = np.random.Generator(np.random.PCG64(seed))
    raws = []
    while len(raws) < count:
        arch = random_small_arch(rng)
        cfg = random_small_cfg(rng)
        if arch.hidden_size % cfg.gpu_count:
            continue
        raws.append(raw_featurize(enumerate_layer_kernels(arch, cfg.gpu_count), arch, cfg, gpu))
    return raws


def random_graphs(count, seed=0):
    return [featurize_raw(raw, identity_stats()) for raw in random_raws(count, seed)]


def hand_params(conv1_w, conv2_w, head1_w, head2_w) -> GnnParams:
    """Zero-bias params with the given weights (global width follows head1)."""
    layers = [np.vstack([weight, np.zeros((1, np.shape(weight)[1]))])
              for weight in (conv1_w, conv2_w, head1_w, head2_w)]
    return GnnParams(*layers).validate()


def stored_array(array) -> dict:
    """A checkpoint's entry for `array`: dtype, shape and base64 bytes."""
    array = np.asarray(array, dtype="<f8")
    return {"dtype": "<f8", "shape": list(array.shape),
            "data": base64.b64encode(array.tobytes()).decode("ascii")}


def decoded_array(entry: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(entry["data"]), "<f8").reshape(entry["shape"])


def hand_graph(features, agg, global_features=()) -> FeaturizedGraph:
    return FeaturizedGraph(
        features=np.asarray(features, dtype=np.float64),
        agg=np.asarray(agg, dtype=np.float64),
        global_features=np.asarray(global_features, dtype=np.float64),
    )


class TestSageForward:
    """The graph convolution relu(W . concat(self, neighbor mean) + b), seen
    through the whole model with hand-set weights."""

    def test_isolated_node_uses_zero_neighbor(self):
        fg = hand_graph([[1.0, -2.0]], np.zeros((1, 1)))
        # conv1: identity on the self half, large weights on the neighbor
        # half, which an isolated node must not pick up; its relu zeroes the -2
        conv1_w = [[1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 5.0]]
        # conv2 negates the second channel, so a -2 that conv1 let through
        # would come out as +2; the head reads it ten times as strongly
        conv2_w = [[1.0, 0.0], [0.0, -1.0], [0.0, 0.0], [0.0, 0.0]]
        params = hand_params(conv1_w, conv2_w, np.eye(2), [[1.0], [10.0]])
        assert predict_energy(fg, params) == np.exp(1.0)

    def test_two_node_hand_computation(self):
        fg = hand_graph([[2.0], [3.0]], [[0.0, 1.0], [1.0, 0.0]])
        # conv1: each node is self + neighbor = 5; conv2 and the head pass it on
        params = hand_params(np.ones((2, 1)), [[1.0], [0.0]], [[1.0]], [[1.0]])
        assert predict_energy(fg, params) == np.exp(5.0)

    def test_empty_features_rejected(self):
        params = hand_params(np.ones((6, 2)), np.ones((4, 2)), np.ones((2, 2)), np.ones((2, 1)))
        with pytest.raises(ShapeError, match="non-empty"):
            predict_energy(hand_graph(np.zeros((0, 3)), np.zeros((0, 0))), params)

    def test_width_mismatch_rejected(self):
        params = hand_params(np.ones((4, 2)), np.ones((4, 2)), np.ones((2, 2)), np.ones((2, 1)))
        with pytest.raises(ShapeError, match="node width 2, graph has 3"):
            predict_energy(hand_graph(np.ones((2, 3)), np.eye(2)), params)


class TestModelForward:
    def test_zero_params_predict_bias_chain(self):
        fg = random_graphs(1)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=0)
        zeros = params.over(np.zeros(params.flat.size))
        assert predict_energy(fg, zeros) == 1.0
        biased = params.over(np.zeros(params.flat.size))
        biased.head2[-1, 0] = 1.25
        assert predict_energy(fg, biased) == np.exp(1.25)

    def test_node_permutation_invariance(self):
        fg = random_graphs(1, seed=3)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=1)
        rng = np.random.Generator(np.random.PCG64(4))
        perm = rng.permutation(fg.node_count)
        permuted = FeaturizedGraph(
            features=fg.features[perm],
            agg=fg.agg[np.ix_(perm, perm)],
            global_features=fg.global_features,
        )
        assert predict_energy(permuted, params) == pytest.approx(
            predict_energy(fg, params), rel=1e-12
        )

    def test_component_duplication_invariance(self):
        fg = random_graphs(1, seed=5)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=2)
        n = fg.node_count
        doubled = FeaturizedGraph(
            features=np.vstack([fg.features, fg.features]),
            agg=np.block([[fg.agg, np.zeros((n, n))], [np.zeros((n, n)), fg.agg]]),
            global_features=fg.global_features,
        )
        assert predict_energy(doubled, params) == pytest.approx(
            predict_energy(fg, params), rel=1e-12
        )

    def test_width_mismatch_rejected(self):
        fg = random_graphs(1)[0]
        params = init_params(fg.features.shape[1] + 1, fg.global_features.shape[0])
        with pytest.raises(ShapeError):
            predict_energy(fg, params)


class TestLossAndAdam:
    def test_perfect_prediction_zero_loss(self):
        fg = random_graphs(1)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=0)
        zeros = params.over(np.zeros(params.flat.size))
        zeros.head2[-1, 0] = 2.0
        energy = float(np.exp(2.0))
        loss, grads = loss_and_gradients([(fg, energy)], zeros)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert all(np.allclose(g, 0.0) for g in grads.as_list())

    def test_empty_batch_rejected(self):
        params = init_params(4, 2)
        with pytest.raises(ValueError):
            loss_and_gradients([], params)

    def test_adam_zero_grad_identity(self):
        params = init_params(6, 3, seed=0)
        updated = params.copy()
        state = init_adam_state(updated)
        zero_grads = params.over(np.zeros(params.flat.size))
        adam_step(updated, zero_grads, state, TrainHyper())
        for before, after in zip(params.as_list(), updated.as_list()):
            assert np.array_equal(before, after)
        assert state.step == 1

    def test_adam_first_step_is_sign_scaled(self):
        params = init_params(6, 3, seed=0)
        updated = params.copy()
        state = init_adam_state(updated)
        grads = params.over(np.full(params.flat.size, 0.5))
        hyper = TrainHyper(learning_rate=0.001)
        adam_step(updated, grads, state, hyper)
        # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
        for before, after in zip(params.as_list(), updated.as_list()):
            assert np.allclose(before - after, 0.001, rtol=1e-6)

    def test_adam_deterministic(self):
        params = init_params(6, 3, seed=0)
        grads = params.over(np.full(params.flat.size, 0.25))
        a1, a2 = params.copy(), params.copy()
        s1, s2 = init_adam_state(a1), init_adam_state(a2)
        adam_step(a1, grads, s1, TrainHyper())
        adam_step(a2, grads, s2, TrainHyper())
        for x, y in zip(a1.as_list(), a2.as_list()):
            assert np.array_equal(x, y)
        assert s1.step == s2.step

    def test_adam_equals_per_array_formula(self):
        # the out-of-place, per-array update is the reference for the
        # in-place update over one flat buffer: same operations, same order
        params = init_params(6, 3, seed=0)
        hyper = TrainHyper(learning_rate=0.003)
        values = [a.copy() for a in params.as_list()]
        m = [np.zeros_like(a) for a in values]
        v = [np.zeros_like(a) for a in values]
        state = init_adam_state(params)
        rng = np.random.Generator(np.random.PCG64(5))
        for t in range(1, 6):
            grads = params.over(rng.normal(size=params.flat.size))
            adam_step(params, grads, state, hyper)
            m = [gnn.ADAM_BETA1 * mi + (1.0 - gnn.ADAM_BETA1) * g
                 for mi, g in zip(m, grads.as_list())]
            v = [gnn.ADAM_BETA2 * vi + (1.0 - gnn.ADAM_BETA2) * g * g
                 for vi, g in zip(v, grads.as_list())]
            values = [a - hyper.learning_rate * (mi / (1.0 - gnn.ADAM_BETA1**t))
                      / (np.sqrt(vi / (1.0 - gnn.ADAM_BETA2**t)) + gnn.ADAM_EPSILON)
                      for a, mi, vi in zip(values, m, v)]
            assert all(np.array_equal(a, b) for a, b in zip(params.as_list(), values))
        assert state.step == 5

    def test_adam_reads_float32_gradients_as_their_float64_widening(self):
        # the per-array reference runs on the float32 gradients widened to
        # float64; Adam must not round (1 - beta) g to float32 first
        params = init_params(6, 3, seed=0)
        want = params.copy()
        hyper = TrainHyper(learning_rate=0.003)
        state, want_state = init_adam_state(params), init_adam_state(want)
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(5):
            grads = params.over(rng.normal(size=params.flat.size).astype(np.float32))
            adam_step(params, grads, state, hyper)
            adam_step(want, want.over(grads.flat.astype(np.float64)), want_state, hyper)
            assert grads.flat.dtype == np.float32
            assert params.flat.tobytes() == want.flat.tobytes()
            assert state.m.tobytes() == want_state.m.tobytes()
            assert state.v.tobytes() == want_state.v.tobytes()


class TestTraining:
    def test_single_sample_overfits(self):
        fg = random_graphs(1, seed=9)[0]
        hyper = TrainHyper(epochs=400, batch_size=1, seed=3)
        params, history = train([(fg, 123.0)], hyper)
        assert history[-1] < 1e-4
        assert predict_energy(fg, params) == pytest.approx(123.0, rel=0.05)

    def test_training_deterministic(self):
        graphs = random_graphs(12, seed=13)
        samples = [(g, 10.0 + 3.0 * i) for i, g in enumerate(graphs)]
        hyper = TrainHyper(epochs=20, batch_size=4, seed=7)
        params_a, hist_a = train(samples, hyper)
        params_b, hist_b = train(samples, hyper)
        assert hist_a == hist_b
        for x, y in zip(params_a.as_list(), params_b.as_list()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("overrides, message", [
        ({"learning_rate": float("nan")}, "learning_rate must be > 0, got nan"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite, got inf"),
        ({"learning_rate": 0.0}, "learning_rate must be > 0, got 0.0"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_hyper_refuses_settings_that_cannot_train(self, overrides, message):
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$") as caught:
            TrainHyper(**overrides)
        assert caught.value.field == next(iter(overrides))

    def test_loss_decreases_on_learnable_signal(self):
        graphs = random_graphs(40, seed=21)
        samples = [(g, float(1.0 + np.abs(g.global_features).sum())) for g in graphs]
        _, history = train(samples, TrainHyper(epochs=60, batch_size=8, seed=1))
        assert history[-1] < history[0]
        # guard: the loss never climbs for five consecutive epochs
        climb = 0
        for prev, cur in zip(history, history[1:]):
            climb = climb + 1 if cur > prev else 0
            assert climb < 5


def mixed_batch():
    """Flash and unfused, gated and ungated, TP 1 and 2: all eight topologies,
    12 to 17 nodes, with energies spread over three decades."""
    base = LlmArchitecture(
        hidden_size=64, intermediate_size=96, head_count=4, kv_head_count=2, layer_count=3
    )
    gpu = builtin_gpu_catalog()["a100"]
    graphs = []
    for i, (flash, gated, tp) in enumerate(itertools.product((True, False), (True, False),
                                                             (1, 2))):
        arch = dataclasses.replace(base, flash_attention=flash, gated_mlp=gated)
        cfg = InferenceConfig(batch_size=1 + i % 3, prompt_length=8 + 3 * i,
                              generated_tokens=2 + i, gpu_count=tp)
        graphs.append((enumerate_layer_kernels(arch, tp), arch, cfg))
    raws = [raw_featurize(graph, arch, cfg, gpu) for graph, arch, cfg in graphs]
    stats = fit_stats(raws)
    fgs = [featurize_raw(raw, stats) for raw in raws]
    return [(fg, float(10.0 ** (i % 4))) for i, fg in enumerate(fgs)]


def biased_params(fg, seed):
    """Xavier weights and nonzero biases: a padded row is then nonzero too,
    so only the padding masks keep it out of real nodes and the node mean."""
    params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    for layer in params.as_list():
        layer[-1] = rng.uniform(-0.5, 1.0, size=layer.shape[1])
    return params


def assert_grads_close(got, want, rel=1e-12):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        scale = max(np.abs(w).max(), 1e-300)
        assert np.abs(g - w).max() <= rel * scale


class TestBatchedPath:
    def test_batch_has_mixed_topologies(self):
        batch = mixed_batch()
        assert len({fg.node_count for fg, _ in batch}) >= 4

    def test_batch_equals_mean_of_batches_of_one(self):
        batch = mixed_batch()
        params = biased_params(batch[0][0], seed=4)
        loss, grads = loss_and_gradients(batch, params)
        grads = grads.as_list()
        singles = [loss_and_gradients([sample], params) for sample in batch]
        mean_loss = sum(l for l, _ in singles) / len(batch)
        mean_grads = [sum(g.as_list()[k] for _, g in singles) / len(batch)
                      for k in range(len(grads))]
        assert loss == pytest.approx(mean_loss, rel=1e-12)
        assert_grads_close(grads, mean_grads)

    def test_graph_alone_equals_graph_among_wider_ones(self):
        batch = mixed_batch()
        params = biased_params(batch[0][0], seed=5)
        widest = max(fg.node_count for fg, _ in batch)
        narrow = [fg for fg, _ in batch if fg.node_count < widest]
        assert narrow
        stacked = predict_many([fg for fg, _ in batch], params)
        for fg in narrow:
            index = next(i for i, (g, _) in enumerate(batch) if g is fg)
            assert predict_energy(fg, params) == pytest.approx(stacked[index], rel=1e-12)

    def test_batch_beyond_one_chunk_equals_its_chunks(self):
        chunk = gnn.CHUNK_GRAPHS
        base = mixed_batch()
        batch = [base[i % len(base)] for i in range(2 * chunk + 5)]
        params = biased_params(batch[0][0], seed=6)
        loss, grads = loss_and_gradients(batch, params)
        grads = grads.as_list()
        pieces = [batch[i : i + chunk] for i in range(0, len(batch), chunk)]
        parts = [loss_and_gradients(piece, params) for piece in pieces]
        weights = [len(piece) / len(batch) for piece in pieces]
        want_loss = sum(w * l for w, (l, _) in zip(weights, parts))
        want_grads = [sum(w * g.as_list()[k] for w, (_, g) in zip(weights, parts))
                      for k in range(len(grads))]
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert_grads_close(grads, want_grads)

    def test_batch_is_bitwise_repeatable(self):
        batch = mixed_batch() * 3
        params = biased_params(batch[0][0], seed=7)
        first = loss_and_gradients(batch, params)
        again = loss_and_gradients(batch, params)
        assert first[0] == again[0]
        assert all(np.array_equal(a, b) for a, b in zip(first[1].as_list(), again[1].as_list()))

    def test_narrow_chunk_after_wide_one_matches_fresh_scratch(self, monkeypatch):
        batch = mixed_batch()
        params = biased_params(batch[0][0], seed=8)
        widest = max(fg.node_count for fg, _ in batch)
        wide = [s for s in batch if s[0].node_count == widest] * 5
        # mixed widths below the widest: this chunk pads some of its own rows
        narrow = [s for s in batch if s[0].node_count < widest]
        assert len({fg.node_count for fg, _ in narrow}) >= 2
        loss_and_gradients(wide, params)
        got = loss_and_gradients(narrow, params)
        monkeypatch.setattr(gnn, "_SCRATCH", gnn._Scratch())
        want = loss_and_gradients(narrow, params)
        assert got[0] == want[0]
        assert len(got[1].as_list()) == len(gnn.LAYER_NAMES)
        assert all(np.array_equal(a, b) for a, b in zip(got[1].as_list(), want[1].as_list()))

    def test_repeated_step_replaces_no_scratch_array(self, monkeypatch):
        batch = mixed_batch() * 3
        params = biased_params(batch[0][0], seed=9)
        loss_and_gradients(batch, params)
        before = dict(gnn._SCRATCH.flat)
        loss_and_gradients(batch, params)
        predict_energy(batch[0][0], params)
        assert gnn._SCRATCH.flat.keys() == before.keys()
        assert all(gnn._SCRATCH.flat[name] is arr for name, arr in before.items())

        # inside train, seen after each step's gradients: from the second step
        # on, no scratch array, gradient, parameter or Adam buffer is replaced,
        # the float32 working weights and gradients are the same arrays, and
        # Adam is handed those float32 gradients, not a float64 copy
        seen, working = [], []
        step, gradients = gnn.adam_step, gnn.loss_and_gradients

        def spy(params, grads, state, hyper):
            seen.append((dict(gnn._SCRATCH.flat),
                         [params.flat, grads.flat, state.m, state.v, state.work]))
            step(params, grads, state, hyper)

        def spy_gradients(stack, params, rows, grads):
            working.append((params.flat, grads.flat))
            return gradients(stack, params, rows, grads)

        monkeypatch.setattr(gnn, "adam_step", spy)
        monkeypatch.setattr(gnn, "loss_and_gradients", spy_gradients)
        # 96 samples in steps of 69 (two chunks) and 27
        train(batch * 4, TrainHyper(epochs=2, batch_size=gnn.CHUNK_GRAPHS + 5))
        assert len(seen) == len(working) == 4
        scratch, buffers = seen[0]
        for later_scratch, later_buffers in seen[1:]:
            assert later_scratch.keys() == scratch.keys()
            assert all(later_scratch[name] is arr for name, arr in scratch.items())
            assert all(a is b for a, b in zip(later_buffers, buffers))
        assert all(flat.dtype == np.float32 for pair in working for flat in pair)
        assert all(pair[0] is working[0][0] and pair[1] is working[0][1] for pair in working)
        params_flat, grads_flat, *adam_buffers = buffers
        assert grads_flat is working[0][1]
        assert all(buffer.dtype == np.float64 for buffer in [params_flat, *adam_buffers])

        # one buffer per name: a float32 take views the float64 buffer in place
        for name, buffer in gnn._SCRATCH.flat.items():
            assert buffer.dtype == np.float64
            view = gnn._SCRATCH.take(name, np.dtype(np.float32), 2 * buffer.size)
            assert gnn._SCRATCH.flat[name] is buffer
            assert np.shares_memory(view, buffer)

    def test_padded_rows_cannot_leak(self, monkeypatch):
        # only the pooling weights and zero agg columns keep padded rows out:
        # fill them with finite garbage and nothing a real node reads may move
        batch = mixed_batch() * 3
        graphs, energies = [fg for fg, _ in batch], [energy for _, energy in batch]
        params = biased_params(graphs[0], seed=15)
        stack_graphs = gnn._stack

        def dirty_stack(graphs, params, energies=None):
            stack = stack_graphs(graphs, params, energies)
            for i, count in enumerate(stack.counts):
                stack.x[i, count:] = 7.0
                stack.aggs[stack.topology[i], count:] = 7.0
            return stack

        clean, dirty = stack_graphs(graphs, params, energies), dirty_stack(graphs, params, energies)
        assert len(set(dirty.counts)) >= 2
        assert not np.array_equal(dirty.x, clean.x)
        want_loss, want_grads = loss_and_gradients(clean, params)
        want_grads = want_grads.flat.copy()
        loss, grads = loss_and_gradients(dirty, params)
        assert loss == want_loss
        assert grads.flat.tobytes() == want_grads.tobytes()

        want = predict_many(graphs, params)
        monkeypatch.setattr(gnn, "_stack", dirty_stack)
        got = predict_many(graphs, params)
        assert got == want
        for fg, pred in zip(graphs, got):
            assert pred == pytest.approx(predict_energy(fg, params), rel=1e-12)

    def test_stack_takes_the_dtype_of_the_params(self):
        batch = mixed_batch()
        params = biased_params(batch[0][0], seed=13)
        work = params.over(params.flat.astype(np.float32))
        stack = gnn._stack([fg for fg, _ in batch], work, [energy for _, energy in batch])
        for arr in (stack.x, stack.glob, stack.aggs, stack.targets):
            assert arr.dtype == np.float32
        wide = gnn._stack([fg for fg, _ in batch], params, [energy for _, energy in batch])
        assert np.array_equal(stack.x, wide.x.astype(np.float32))
        assert np.array_equal(stack.targets, wide.targets.astype(np.float32))

    def test_float32_loss_and_gradients_match_float64(self):
        # measured: loss within 8e-8 and every gradient within 2e-7 of the
        # largest gradient, over seeds 0-4 of this batch
        batch = mixed_batch() * 3
        params = biased_params(batch[0][0], seed=14)
        loss, grads = loss_and_gradients(batch, params)
        loss32, grads32 = loss_and_gradients(batch, params.over(params.flat.astype(np.float32)))
        assert isinstance(loss32, float)
        assert grads32.flat.dtype == np.float32
        assert loss32 == pytest.approx(loss, rel=1e-6)
        assert np.abs(grads32.flat - grads.flat).max() <= 1e-5 * np.abs(grads.flat).max()

    @pytest.mark.parametrize("batch_size", [gnn.CHUNK_GRAPHS + 11, 7])
    def test_train_equals_loop_over_list_batches(self, batch_size):
        # batches of 75 run as two chunks; neither size divides the 149 samples
        base = mixed_batch()
        samples = [base[i % len(base)] for i in range(2 * gnn.CHUNK_GRAPHS + 21)]
        hyper = TrainHyper(epochs=3, batch_size=batch_size, seed=11)
        params, history = train(samples, hyper)

        # the reference stacks each mini-batch from its own list of samples,
        # runs it on a float32 copy of the weights and steps them in float64
        fg = samples[0][0]
        want = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=hyper.seed)
        state = init_adam_state(want)
        rng = np.random.Generator(np.random.PCG64(hyper.seed + 1))
        want_history = []
        for _ in range(hyper.epochs):
            order = rng.permutation(len(samples))
            total = 0.0
            for start in range(0, len(samples), batch_size):
                batch = [samples[i] for i in order[start : start + batch_size]]
                loss, grads = loss_and_gradients(batch, want.over(want.flat.astype(np.float32)))
                adam_step(want, want.over(grads.flat.astype(np.float64)), state, hyper)
                total += loss * len(batch)
            want_history.append(total / len(samples))
        assert history == want_history
        assert params.flat.tobytes() == want.flat.tobytes()

    def test_train_leaves_given_params_unchanged(self):
        samples = mixed_batch()
        params = biased_params(samples[0][0], seed=12)
        before = params.flat.copy()
        trained, _ = train(samples, TrainHyper(epochs=2, batch_size=3), params=params)
        assert np.array_equal(params.flat, before)
        assert not np.array_equal(trained.flat, before)

    def test_predict_many_matches_batches_of_one(self):
        base = mixed_batch()
        graphs = [base[i % len(base)][0] for i in range(gnn.CHUNK_GRAPHS + 9)]
        params = biased_params(graphs[0], seed=10)
        preds = predict_many(graphs, params)
        assert len(preds) == len(graphs)
        for fg, pred in zip(graphs, preds):
            assert pred == pytest.approx(predict_energy(fg, params), rel=1e-12)
        assert predict_many([], params) == []

    def test_train_checks_every_sample_before_training(self, monkeypatch):
        batch = mixed_batch()
        fg = batch[3][0]
        bad = dataclasses.replace(fg, global_features=fg.global_features[:-1])
        samples = batch[:3] + [(bad, 1.0)] + batch[4:]

        def refuse(*args, **kwargs):
            raise AssertionError("a training step ran")

        # no step may run, so only the up-front check can see the bad sample
        monkeypatch.setattr(gnn, "loss_and_gradients", refuse)
        with pytest.raises(ShapeError, match="global width"):
            train(samples, TrainHyper(epochs=1, batch_size=2))


class TestMetrics:
    def test_mape_example(self):
        assert mape([110.0, 90.0], [100.0, 100.0]) == pytest.approx(10.0)

    def test_mape_perfect(self):
        assert mape([5.0, 7.0], [5.0, 7.0]) == 0.0

    def test_mape_zero_truth(self):
        with pytest.raises(ZeroTruth):
            mape([1.0], [0.0])

    def test_eba_example(self):
        assert eba([105.0, 130.0], [100.0, 100.0], 0.10) == pytest.approx(50.0)

    def test_eba_saturates(self):
        assert eba([105.0, 130.0], [100.0, 100.0], 1e9) == 100.0
        assert eba([100.0, 100.0], [100.0, 100.0], 0.05) == 100.0

    def test_eba_monotone_in_delta(self):
        rng = np.random.Generator(np.random.PCG64(2))
        truths = rng.uniform(1.0, 100.0, size=50)
        preds = truths * rng.uniform(0.5, 1.5, size=50)
        values = [eba(preds, truths, d) for d in (0.01, 0.05, 0.1, 0.3, 1.0)]
        assert values == sorted(values)

    def test_evaluate_report(self):
        report = evaluate([105.0, 130.0], [100.0, 100.0])
        assert report.mape == pytest.approx(17.5)
        assert report.eba[0.10] == 50.0
        assert report.eba[0.30] == 100.0


class TestGradientCheck:
    def test_matches_finite_differences(self):
        fg = random_graphs(1, seed=31)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=5)
        worst = gradient_check(params, (fg, 42.0), eps=1e-5, coords=250, seed=0)
        assert worst <= 1e-4

    def test_zero_loss_point_is_quiet(self):
        fg = random_graphs(1, seed=37)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=5)
        zeros = params.over(np.zeros(params.flat.size))
        zeros.head2[-1, 0] = 1.0
        energy = float(np.exp(1.0))
        worst = gradient_check(zeros, (fg, energy), eps=1e-5, coords=100, seed=1)
        assert worst <= 1e-6

    def test_eps_bounds(self):
        fg = random_graphs(1)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0])
        with pytest.raises(ValueError):
            gradient_check(params, (fg, 1.0), eps=1.0)


class TestParams:
    def test_arrays_are_views_of_one_flat_buffer(self):
        arrays = init_params(6, 3, seed=0).as_list()
        params = GnnParams(*arrays)
        assert params.flat.size == sum(a.size for a in arrays)
        assert all(np.shares_memory(a, params.flat) for a in params.as_list())
        assert not any(np.shares_memory(a, params.flat) for a in arrays)
        params.head2[-1, 0] = 3.0
        assert params.flat[-1] == 3.0
        copied = params.copy()
        copied.flat[-1] = 4.0
        assert params.head2[-1, 0] == 3.0

    def test_layers_are_weight_over_bias_views(self):
        params = init_params(6, 3, seed=0)
        batch = mixed_batch()
        _, grads = loss_and_gradients(batch, biased_params(batch[0][0], seed=1))
        for arrays in (params, grads, params.copy(), params.over(params.flat.astype(np.float32))):
            node, hidden, glob = arrays.node_width, arrays.hidden_width, arrays.global_width
            layers = [getattr(arrays, name) for name in gnn.LAYER_NAMES]
            assert [layer.shape for layer in layers] == [
                (2 * node + 1, hidden), (2 * hidden + 1, hidden), (hidden + glob + 1, hidden),
                (hidden + 1, 1)]
            assert all(np.shares_memory(layer, arrays.flat) for layer in layers)
            # `flat` holds the layers in order, each bias right after its weight
            assert np.array_equal(np.concatenate([layer.ravel() for layer in layers]), arrays.flat)
        assert (params.node_width, params.hidden_width, params.global_width) == (6, 64, 3)
        params.head2[-1, 0] = 5.0
        assert params.flat[-1] == 5.0
        assert not np.shares_memory(params.copy().conv1, params.flat)

    def test_equality_is_identity(self):
        params = init_params(2, 1)
        assert params == params
        assert params != params.copy()
        assert len({params, params, params.copy()}) == 2

    def test_refuses_a_negative_global_width(self):
        with pytest.raises(ShapeError, match=r"^global width must be >= 0, got -3$"):
            init_params(31, -3)
        with pytest.raises(ShapeError, match=r"^global width must be >= 0, got -65$"):
            init_params(31, -65)
        layers = init_params(31, 0).as_list()
        assert GnnParams(*layers).global_width == 0
        layers[2] = layers[2][:62]
        with pytest.raises(ShapeError, match=r"^head1 needs at least H \+ 1 = 65 rows .*got 62$"):
            GnnParams(*layers).validate()

    def test_refuses_a_node_width_below_one(self):
        for node_width in (0, -1):
            with pytest.raises(ShapeError, match=f"^node width must be >= 1, got {node_width}$"):
                init_params(node_width, 3)
        layers = init_params(1, 3).as_list()
        assert GnnParams(*layers).node_width == 1
        layers[0] = layers[0][-1:]  # the bias alone: node width 0
        message = r"^conv1 needs 2 x node width \+ 1 >= 3 rows, got 1$"
        with pytest.raises(ShapeError, match=message):
            GnnParams(*layers).validate()


def saved_payload(path) -> dict:
    """Save a fresh model of the feature widths to `path`; return its JSON."""
    save_checkpoint(path, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH),
                    fit_stats(random_raws(3, seed=43)), seed=0)
    return json.loads(path.read_text())


def assert_refused(path, payload, message: str, whole: bool = True) -> None:
    """Write `payload` to `path`: loading it is a ShapeError of `message`
    after the path (all of it, unless `whole` is false)."""
    path.write_text(json.dumps(payload))
    pattern = f"^{re.escape(f'{path}: {message}')}" + ("$" if whole else "")
    with pytest.raises(ShapeError, match=pattern):
        load_checkpoint(path)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        stats = fit_stats(random_raws(3, seed=41))
        params = init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, seed=11)
        path = tmp_path / "model.json"
        save_checkpoint(path, params, stats, seed=11, extra={"note": "test"})
        loaded, loaded_stats, meta = load_checkpoint(path)
        for x, y in zip(params.as_list(), loaded.as_list()):
            assert np.array_equal(x, y)
        for name in gnn.STAT_NAMES:
            assert getattr(loaded_stats, name).tobytes() == getattr(stats, name).tobytes()
        assert meta["seed"] == 11
        assert meta["extra"]["note"] == "test"

    def test_a_failed_rename_removes_the_tmp(self, tmp_path):
        taken = tmp_path / "model"
        taken.mkdir()
        with pytest.raises(IsADirectoryError):
            save_checkpoint(taken, init_params(31, 11, seed=0), identity_stats(), seed=0)
        assert taken.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]

    def test_a_failed_write_removes_the_tmp_and_keeps_the_previous_file(self, tmp_path,
                                                                          monkeypatch):
        path = tmp_path / "model.json"
        save_checkpoint(path, init_params(31, 11, seed=0), identity_stats(), seed=0)
        before = path.read_bytes()

        class FullDisk:
            """A file that takes a few characters, then reports a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[:7])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(gnn, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, init_params(31, 11, seed=1), identity_stats(), seed=1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
        assert path.read_bytes() == before

    def test_format_is_pinned(self, tmp_path):
        # Xavier draws and the float64 bytes of every array only, no BLAS: the
        # same bytes on any machine
        path = tmp_path / "model.json"
        save_checkpoint(path, init_params(31, 11, seed=0), identity_stats(), seed=0)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "778539c09693921ba5f7caee1f1a748bd1e818f0c0e2760064a5742fbec51146")

    def test_stores_each_array_as_one_typed_array(self, tmp_path):
        params = init_params(6, 3, seed=2)
        params.flat[:] = np.arange(params.flat.size)
        stats = fit_stats(random_raws(3, seed=41))
        path = tmp_path / "model.json"
        save_checkpoint(path, params, stats, seed=0)
        payload = json.loads(path.read_text())
        # the header holds no width: the layers' shapes fix them
        assert list(payload) == ["format", "version", "target", "seed", "params", "stats"]
        assert (payload["version"], payload["target"]) == (3, "log")
        assert list(payload["params"]) == list(gnn.LAYER_NAMES)
        assert list(payload["stats"]) == list(gnn.STAT_NAMES)
        arrays = [*params.as_list(), *(getattr(stats, name) for name in gnn.STAT_NAMES)]
        for entry, array in zip([*payload["params"].values(), *payload["stats"].values()],
                                arrays):
            assert entry["dtype"] == "<f8"
            assert entry["shape"] == list(array.shape)
            assert base64.b64decode(entry["data"]) == array.astype("<f8").tobytes()

    def test_round_trip_keeps_negative_zero_and_subnormal_values(self, tmp_path):
        params = init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, seed=5)
        tiny = np.finfo(np.float64).smallest_subnormal
        params.conv1[0, :3] = (-0.0, tiny, -7 * tiny)
        params.head2[-1, 0] = -0.0
        stats = fit_stats(random_raws(3, seed=41))
        stats.node_mean[:2] = (-0.0, -tiny)
        stats.global_std[0] = tiny
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_checkpoint(path, params, stats, seed=5, extra={"note": "test"})
        loaded, loaded_stats, meta = load_checkpoint(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert np.signbit(loaded.conv1[0, 0]) and np.signbit(loaded.head2[-1, 0])
        assert loaded.conv1[0, 1] == tiny and loaded.conv1[0, 2] == -7 * tiny
        for name in gnn.STAT_NAMES:
            assert getattr(loaded_stats, name).tobytes() == getattr(stats, name).tobytes()
        assert np.signbit(loaded_stats.node_mean[0]) and loaded_stats.global_std[0] == tiny
        # re-saving what was loaded writes the same bytes
        save_checkpoint(again, loaded, loaded_stats, seed=meta["seed"], extra=meta["extra"])
        assert again.read_bytes() == path.read_bytes()

    def test_round_trips_a_model_of_global_width_0(self, tmp_path):
        params = init_params(NODE_FEATURE_WIDTH, 0, seed=3)
        stats = dataclasses.replace(identity_stats(), global_mean=np.zeros(0),
                                    global_std=np.zeros(0))
        path = tmp_path / "model.json"
        save_checkpoint(path, params, stats, seed=3)
        loaded, loaded_stats, _ = load_checkpoint(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert loaded.global_width == 0 and loaded_stats.global_std.shape == (0,)

    def test_a_write_cut_short_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_checkpoint(path, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, seed=1),
                        identity_stats(), seed=1)
        before = path.read_bytes()

        class DiskFull:
            """A text file that writes half of what it is given, then fails."""

            def __init__(self, *args, **kwargs):
                self.handle = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(gnn, "open", DiskFull, raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            save_checkpoint(path, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, seed=2),
                            identity_stats(), seed=2)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("name, shape, message", [
        # a conv1 or head1 cut changes the width it fixes, which the statistics do not fit
        ("conv1", (61, 64), "field 'node_mean' needs shape (13,) for the layers' node width 30, "
                            "got (14,)"),
        ("conv2", (128, 64), "conv2 needs shape (129, 64), got (128, 64)"),
        ("head1", (74, 64), "field 'global_mean' needs shape (9,) for the layers' global width 9, "
                            "got (11,)"),
        ("head2", (64, 1), "head2 needs shape (65, 1), got (64, 1)"),
    ], ids=["conv1", "conv2", "head1", "head2"])
    def test_refuses_a_misshapen_layer_naming_the_shape_it_needs(self, tmp_path, name, shape,
                                                                  message):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        layer = decoded_array(payload["params"][name])
        payload["params"][name] = stored_array(layer[: shape[0], : shape[1]])
        assert_refused(path, payload, f"malformed checkpoint: {message}")

    @pytest.mark.parametrize("section, name, field, value, message", [
        ("params", "conv2", "dtype", "<f4", 'field \'conv2.dtype\' must be "<f8", got "<f4"'),
        ("params", "conv2", "dtype", None, 'field \'conv2.dtype\' must be "<f8", got null'),
        ("params", "head1", "shape", [76],
         "field 'head1.shape' must be 2 integers >= 0, got [76]"),
        ("params", "head1", "shape", [-1, 64],
         "field 'head1.shape' must be 2 integers >= 0, got [-1, 64]"),
        ("params", "head1", "shape", [0, 64],
         "field 'head1.data' holds 38912 bytes, shape (0, 64) needs 0"),
        ("params", "head1", "shape", [76, True],
         "field 'head1.shape' must be an integer, got true"),
        ("params", "head2", "data", "not base64!", "field 'head2.data' is not base64: "),
        ("params", "head2", "data", "AAAAAAAAAAA=",
         "field 'head2.data' holds 8 bytes, shape (65, 1) needs 520"),
        ("params", "head2", "data", 12, "field 'head2.data' is not base64: "),
        ("params", "head2", "data", stored_array([[np.nan]] * 65)["data"],
         "field 'head2.data' holds a non-finite value"),
        ("stats", "node_std", "dtype", ">f8", 'field \'node_std.dtype\' must be "<f8", got ">f8"'),
        ("stats", "node_std", "shape", [14, 1],
         "field 'node_std.shape' must be 1 integers >= 0, got [14, 1]"),
        ("stats", "node_std", "shape", ["14"],
         'field \'node_std.shape\' must be an integer, got "14"'),
        ("stats", "global_mean", "shape", [False],
         "field 'global_mean.shape' must be an integer, got false"),
        ("stats", "global_mean", "data", "@@@@", "field 'global_mean.data' is not base64: "),
        ("stats", "global_mean", "data", "AAAAAAAAAAA=",
         "field 'global_mean.data' holds 8 bytes, shape (11,) needs 88"),
        ("stats", "global_std", "data", stored_array([np.inf] * 11)["data"],
         "field 'global_std.data' holds a non-finite value"),
    ])
    def test_refuses_a_malformed_array_field_naming_the_path_and_field(
            self, tmp_path, section, name, field, value, message):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        payload[section][name][field] = value
        assert_refused(path, payload, f"malformed checkpoint: {message}", whole=False)

    @pytest.mark.parametrize("section, name, names", [
        ("params", "head2", "conv1, conv2, head1, head2"),
        ("stats", "global_std", "node_mean, node_std, global_mean, global_std"),
    ])
    def test_refuses_a_missing_or_unknown_array_naming_it(self, tmp_path, section, name, names):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        stored = payload[section]
        stored["extra_array"] = stored[name]
        assert_refused(path, payload, f"malformed checkpoint: field '{section}' has an undefined "
                                      f"key 'extra_array' (the keys are {names})")
        del stored["extra_array"], stored[name]
        assert_refused(path, payload, f"malformed checkpoint: field '{section}' has no key "
                                      f"'{name}'")
        stored[name] = [[0.0]] * 65
        assert_refused(path, payload, f"malformed checkpoint: field '{name}' must be an object, "
                                      f"got {json.dumps(stored[name])}")
        payload[section] = [1]
        assert_refused(path, payload,
                       f"malformed checkpoint: field '{section}' must be an object, got [1]")

    @pytest.mark.parametrize("version", [1, 2])
    def test_refuses_an_earlier_version_naming_it(self, tmp_path, version):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        payload["version"] = version
        assert_refused(path, payload, f"checkpoint version {version} is not readable (this "
                                      "release reads version 3); re-run `infercarbon train` or "
                                      "`infercarbon sample` to write it anew")
        path.write_text('{"format": "infercarbon-checkpoint", "version": 1, "seed": 0, '
                        '"params": {"conv1_w": [[0.5]], "conv1_b": [0.0]}}')
        with pytest.raises(ShapeError, match=re.escape(f"{path}: checkpoint version 1 ")):
            load_checkpoint(path)

    @pytest.mark.parametrize("target, shown", [(None, "null"), ("log1p", '"log1p"'),
                                               (0, "0")])
    def test_refuses_a_missing_or_foreign_target_naming_both(self, tmp_path, target, shown):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        if target is None:
            del payload["target"]
        else:
            payload["target"] = target
        assert_refused(path, payload,
                       f'checkpoint target {shown} is not this release\'s target "log"')

    @pytest.mark.parametrize("key", ["node_width", "exrta", "oracle"])
    def test_refuses_a_header_key_the_format_does_not_define(self, tmp_path, key):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        payload[key] = 0
        assert_refused(path, payload, f"malformed checkpoint: header has an undefined key "
                                      f"'{key}' (the keys are format, version, target, seed, "
                                      "params, stats, extra)")

    @pytest.mark.parametrize("seed, message", [
        ("x", 'must be an integer, got "x"'), (1.0, "must be an integer, got 1.0"),
        (True, "must be an integer, got true"), (None, "must be an integer, got null"),
        (-1, "must be >= 0, got -1"),
    ])
    def test_refuses_a_seed_that_is_not_an_integer_of_at_least_0(self, tmp_path, seed, message):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        payload["seed"] = seed
        assert_refused(path, payload, f"malformed checkpoint: field 'seed' {message}")
        del payload["seed"]
        assert_refused(path, payload, "malformed checkpoint: header has no key 'seed'")

    @pytest.mark.parametrize("extra, shown", [([], "[]"), ("note", '"note"'), (None, "null")])
    def test_refuses_an_extra_that_is_not_an_object(self, tmp_path, extra, shown):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        payload["extra"] = extra
        assert_refused(path, payload,
                       f"malformed checkpoint: field 'extra' must be an object, got {shown}")

    def test_refuses_a_head1_cut_below_the_hidden_width_naming_it(self, tmp_path):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        payload["params"]["head1"] = stored_array(decoded_array(payload["params"]["head1"])[:10])
        assert_refused(path, payload, "malformed checkpoint: head1 needs at least H + 1 = 65 "
                                      "rows (a global width >= 0), got 10")

    def test_refuses_a_conv1_weight_of_no_rows_naming_the_path(self, tmp_path):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        payload["params"]["conv1"] = stored_array(decoded_array(payload["params"]["conv1"])[-1:])
        assert_refused(path, payload,
                       "malformed checkpoint: conv1 needs 2 x node width + 1 >= 3 rows, got 1")

    def test_refuses_layers_of_hidden_width_0(self, tmp_path):
        # shapes that agree among themselves, but with no hidden unit
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        for name, shape in zip(gnn.LAYER_NAMES,
                               gnn.layer_shapes(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, 0)):
            payload["params"][name] = stored_array(np.zeros(shape))
        assert_refused(path, payload, "malformed checkpoint: conv1 needs at least one column "
                                      "(the hidden width), got 0")

    def test_trains_in_float32_and_round_trips_float64_weights(self, tmp_path, monkeypatch):
        samples = mixed_batch()
        dtypes = set()
        gradients = gnn.loss_and_gradients

        def spy(stack, params, rows, grads):
            dtypes.add(params.flat.dtype)
            return gradients(stack, params, rows, grads)

        monkeypatch.setattr(gnn, "loss_and_gradients", spy)
        params, history = train(samples, TrainHyper(epochs=2, batch_size=3))
        assert dtypes == {np.dtype(np.float32)}
        assert params.flat.dtype == np.float64
        assert all(arr.dtype == np.float64 for arr in params.as_list())
        assert all(isinstance(loss, float) for loss in history)
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_checkpoint(path, params, fit_stats(random_raws(3, seed=41)), seed=0)
        loaded, stats, _ = load_checkpoint(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(loaded.as_list(), params.as_list()))
        save_checkpoint(again, loaded, stats, seed=0)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("slot, width, need", [("node_mean", "node width 31", 14),
                                                   ("global_std", "global width 11", 11)])
    def test_refuses_statistics_of_other_widths(self, tmp_path, slot, width, need):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        payload["stats"][slot] = stored_array(decoded_array(payload["stats"][slot])[:-1])
        assert_refused(path, payload, f"malformed checkpoint: field '{slot}' needs shape "
                                      f"({need},) for the layers' {width}, got ({need - 1},)")

    @pytest.mark.parametrize("where, value, message", [
        (["version"], True, "not a recognized checkpoint file"),
        (["params", "conv1", "shape", 0], "1.5",
         'malformed checkpoint: field \'conv1.shape\' must be an integer, got "1.5"'),
        (["params", "conv1", "shape", 1], True,
         "malformed checkpoint: field 'conv1.shape' must be an integer, got true"),
        (["stats", "node_std", "shape", 0], 14.0,
         "malformed checkpoint: field 'node_std.shape' must be an integer, got 14.0"),
    ])
    def test_refuses_a_bool_or_string_where_a_number_belongs(self, tmp_path, where, value,
                                                             message):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        *parents, last = where
        functools.reduce(operator.getitem, parents, payload)[last] = value
        assert_refused(path, payload, message)

    @pytest.mark.parametrize("slot", ["node_std", "global_std"])
    def test_refuses_a_negative_feature_std(self, tmp_path, slot):
        path = tmp_path / "model.json"
        payload = saved_payload(path)
        std = decoded_array(payload["stats"][slot]).copy()
        std[0] = 0.0  # a constant slot reads 0 and is legal
        payload["stats"][slot] = stored_array(std)
        path.write_text(json.dumps(payload))
        load_checkpoint(path)
        std[-1] = -4.5
        payload["stats"][slot] = stored_array(std)
        assert_refused(path, payload,
                       f"malformed checkpoint: field '{slot}' must not be negative, got -4.5")

    def test_refuses_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ShapeError):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", [
        "[1]", "", "not json", '"text"',
        '{"format": "infercarbon-checkpoint", "version": 3, "target": "log", "params": [1]}',
        '{"format": "infercarbon-checkpoint", "version": 3, "target": "log"}',
        '{"format": "infercarbon-checkpoint", "version": 3, "target": "log", "params": {"conv1": '
        '{"dtype": "<f8", "shape": [1, 1], "data": "x"}}}',
        '{"format": "infercarbon-checkpoint", "version": 1, "params": {"conv1_w": [["x"]]}}',
    ])
    def test_refuses_malformed_file_with_path(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ShapeError, match=re.escape(str(path))):
            load_checkpoint(path)
