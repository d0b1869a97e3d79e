import dataclasses
import itertools
import re

import numpy as np
import pytest

from infercarbon import gnn
from infercarbon.arch import InferenceConfig, LlmArchitecture, enumerate_layer_kernels
from infercarbon.features import (
    FeaturizedGraph,
    featurize,
    featurize_raw,
    fit_stats,
    identity_stats,
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
    model_forward,
    predict_energy,
    save_checkpoint,
    train,
)
from infercarbon.roofline import builtin_gpu_catalog

from conftest import random_small_arch, random_small_cfg


def graph_for(arch, cfg, stats=None):
    gpu = builtin_gpu_catalog()["a100"]
    graph = enumerate_layer_kernels(arch, cfg.gpu_count)
    return featurize(graph, arch, cfg, gpu, stats or identity_stats())


def random_graphs(count, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    graphs = []
    while len(graphs) < count:
        arch = random_small_arch(rng)
        cfg = random_small_cfg(rng)
        if arch.hidden_size % cfg.gpu_count:
            continue
        graphs.append(graph_for(arch, cfg))
    return graphs


def hand_params(conv1_w, conv2_w, head1_w, head2_w) -> GnnParams:
    """Zero-bias params with the given weights (global width follows head1)."""
    return GnnParams(
        conv1_w=np.asarray(conv1_w, dtype=np.float64),
        conv1_b=np.zeros(np.shape(conv1_w)[1]),
        conv2_w=np.asarray(conv2_w, dtype=np.float64),
        conv2_b=np.zeros(np.shape(conv2_w)[1]),
        head1_w=np.asarray(head1_w, dtype=np.float64),
        head1_b=np.zeros(np.shape(head1_w)[1]),
        head2_w=np.asarray(head2_w, dtype=np.float64),
        head2_b=np.zeros(1),
    ).validate()


def hand_graph(features, agg, global_features=()) -> FeaturizedGraph:
    return FeaturizedGraph(
        features=np.asarray(features, dtype=np.float64),
        agg=np.asarray(agg, dtype=np.float64),
        global_features=np.asarray(global_features, dtype=np.float64),
        raw=None,
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
        assert model_forward(fg, params) == 1.0

    def test_two_node_hand_computation(self):
        fg = hand_graph([[2.0], [3.0]], [[0.0, 1.0], [1.0, 0.0]])
        # conv1: each node is self + neighbor = 5; conv2 and the head pass it on
        params = hand_params(np.ones((2, 1)), [[1.0], [0.0]], [[1.0]], [[1.0]])
        assert model_forward(fg, params) == 5.0

    def test_empty_features_rejected(self):
        params = hand_params(np.ones((6, 2)), np.ones((4, 2)), np.ones((2, 2)), np.ones((2, 1)))
        with pytest.raises(ShapeError, match="non-empty"):
            model_forward(hand_graph(np.zeros((0, 3)), np.zeros((0, 0))), params)

    def test_width_mismatch_rejected(self):
        params = hand_params(np.ones((4, 2)), np.ones((4, 2)), np.ones((2, 2)), np.ones((2, 1)))
        with pytest.raises(ShapeError, match="node width 2, graph has 3"):
            model_forward(hand_graph(np.ones((2, 3)), np.eye(2)), params)


class TestModelForward:
    def test_zero_params_predict_bias_chain(self):
        fg = random_graphs(1)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=0)
        zeros = GnnParams.from_list([np.zeros_like(a) for a in params.as_list()])
        assert model_forward(fg, zeros) == 0.0
        biased = GnnParams.from_list([np.zeros_like(a) for a in params.as_list()])
        biased.head2_b[0] = 1.25
        assert model_forward(fg, biased) == 1.25

    def test_node_permutation_invariance(self):
        fg = random_graphs(1, seed=3)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=1)
        rng = np.random.Generator(np.random.PCG64(4))
        perm = rng.permutation(fg.node_count)
        permuted = FeaturizedGraph(
            features=fg.features[perm],
            agg=fg.agg[np.ix_(perm, perm)],
            global_features=fg.global_features,
            raw=fg.raw,
        )
        assert model_forward(permuted, params) == pytest.approx(
            model_forward(fg, params), rel=1e-12
        )

    def test_component_duplication_invariance(self):
        fg = random_graphs(1, seed=5)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=2)
        n = fg.node_count
        doubled = FeaturizedGraph(
            features=np.vstack([fg.features, fg.features]),
            agg=np.block([[fg.agg, np.zeros((n, n))], [np.zeros((n, n)), fg.agg]]),
            global_features=fg.global_features,
            raw=fg.raw,
        )
        assert model_forward(doubled, params) == pytest.approx(
            model_forward(fg, params), rel=1e-12
        )

    def test_width_mismatch_rejected(self):
        fg = random_graphs(1)[0]
        params = init_params(fg.features.shape[1] + 1, fg.global_features.shape[0])
        with pytest.raises(ShapeError):
            model_forward(fg, params)


class TestLossAndAdam:
    def test_perfect_prediction_zero_loss(self):
        fg = random_graphs(1)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0], seed=0)
        zeros = GnnParams.from_list([np.zeros_like(a) for a in params.as_list()])
        zeros.head2_b[0] = 2.0
        energy = float(np.expm1(2.0))
        loss, grads = loss_and_gradients([(fg, energy)], zeros)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert all(np.allclose(g, 0.0) for g in grads)

    def test_empty_batch_rejected(self):
        params = init_params(4, 2)
        with pytest.raises(ValueError):
            loss_and_gradients([], params)

    def test_adam_zero_grad_identity(self):
        params = init_params(6, 3, seed=0)
        state = init_adam_state(params)
        zero_grads = [np.zeros_like(a) for a in params.as_list()]
        updated, new_state = adam_step(params, zero_grads, state, TrainHyper())
        for before, after in zip(params.as_list(), updated.as_list()):
            assert np.array_equal(before, after)
        assert new_state.step == 1

    def test_adam_first_step_is_sign_scaled(self):
        params = init_params(6, 3, seed=0)
        state = init_adam_state(params)
        grads = [np.full_like(a, 0.5) for a in params.as_list()]
        hyper = TrainHyper(learning_rate=0.001)
        updated, _ = adam_step(params, grads, state, hyper)
        # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
        for before, after in zip(params.as_list(), updated.as_list()):
            assert np.allclose(before - after, 0.001, rtol=1e-6)

    def test_adam_deterministic(self):
        params = init_params(6, 3, seed=0)
        grads = [np.full_like(a, 0.25) for a in params.as_list()]
        a1, s1 = adam_step(params, grads, init_adam_state(params), TrainHyper())
        a2, s2 = adam_step(params, grads, init_adam_state(params), TrainHyper())
        for x, y in zip(a1.as_list(), a2.as_list()):
            assert np.array_equal(x, y)
        assert s1.step == s2.step


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
    for bias in (params.conv1_b, params.conv2_b, params.head1_b, params.head2_b):
        bias[:] = rng.uniform(-0.5, 1.0, size=bias.shape)
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
        singles = [loss_and_gradients([sample], params) for sample in batch]
        mean_loss = sum(l for l, _ in singles) / len(batch)
        mean_grads = [sum(g[k] for _, g in singles) / len(batch) for k in range(len(grads))]
        assert loss == pytest.approx(mean_loss, rel=1e-12)
        assert_grads_close(grads, mean_grads)

    def test_graph_alone_equals_graph_among_wider_ones(self):
        batch = mixed_batch()
        params = biased_params(batch[0][0], seed=5)
        widest = max(fg.node_count for fg, _ in batch)
        narrow = [fg for fg, _ in batch if fg.node_count < widest]
        assert narrow
        stacked = gnn._forward([fg for fg, _ in batch], params, gnn._Scratch())[-1]
        for fg in narrow:
            index = next(i for i, (g, _) in enumerate(batch) if g is fg)
            assert model_forward(fg, params) == pytest.approx(stacked[index], rel=1e-12)

    def test_batch_beyond_one_chunk_equals_its_chunks(self):
        chunk = gnn.CHUNK_GRAPHS
        base = mixed_batch()
        batch = [base[i % len(base)] for i in range(2 * chunk + 5)]
        params = biased_params(batch[0][0], seed=6)
        loss, grads = loss_and_gradients(batch, params)
        pieces = [batch[i : i + chunk] for i in range(0, len(batch), chunk)]
        parts = [loss_and_gradients(piece, params) for piece in pieces]
        weights = [len(piece) / len(batch) for piece in pieces]
        want_loss = sum(w * l for w, (l, _) in zip(weights, parts))
        want_grads = [sum(w * g[k] for w, (_, g) in zip(weights, parts))
                      for k in range(len(grads))]
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert_grads_close(grads, want_grads)

    def test_batch_is_bitwise_repeatable(self):
        batch = mixed_batch() * 3
        params = biased_params(batch[0][0], seed=7)
        first = loss_and_gradients(batch, params)
        again = loss_and_gradients(batch, params)
        assert first[0] == again[0]
        assert all(np.array_equal(a, b) for a, b in zip(first[1], again[1]))

    def test_train_checks_every_sample_before_training(self):
        batch = mixed_batch()
        fg = batch[3][0]
        bad = dataclasses.replace(fg, global_features=fg.global_features[:-1])
        samples = batch[:3] + [(bad, 1.0)] + batch[4:]
        # no epoch runs, so only the up-front check can see the bad sample
        with pytest.raises(ShapeError, match="global width"):
            train(samples, TrainHyper(epochs=0, batch_size=2))


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
        zeros = GnnParams.from_list([np.zeros_like(a) for a in params.as_list()])
        zeros.head2_b[0] = 1.0
        energy = float(np.expm1(1.0))
        worst = gradient_check(zeros, (fg, energy), eps=1e-5, coords=100, seed=1)
        assert worst <= 1e-6

    def test_eps_bounds(self):
        fg = random_graphs(1)[0]
        params = init_params(fg.features.shape[1], fg.global_features.shape[0])
        with pytest.raises(ValueError):
            gradient_check(params, (fg, 1.0), eps=1.0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        graphs = random_graphs(3, seed=41)
        stats = fit_stats([g.raw for g in graphs])
        params = init_params(
            graphs[0].features.shape[1], graphs[0].global_features.shape[0], seed=11
        )
        path = tmp_path / "model.json"
        save_checkpoint(path, params, stats, seed=11, extra={"note": "test"})
        loaded, loaded_stats, meta = load_checkpoint(path)
        for x, y in zip(params.as_list(), loaded.as_list()):
            assert np.array_equal(x, y)
        assert np.array_equal(stats.node_mean, loaded_stats.node_mean)
        assert meta["seed"] == 11
        assert meta["extra"]["note"] == "test"

    def test_refuses_width_mismatch(self, tmp_path):
        import json

        graphs = random_graphs(1, seed=43)
        stats = fit_stats([g.raw for g in graphs])
        params = init_params(graphs[0].features.shape[1], graphs[0].global_features.shape[0])
        path = tmp_path / "model.json"
        save_checkpoint(path, params, stats, seed=0)
        payload = json.loads(path.read_text())
        payload["node_width"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ShapeError):
            load_checkpoint(path)

    @pytest.mark.parametrize("slot", ["node_mean", "global_std"])
    def test_refuses_statistics_of_other_widths(self, tmp_path, slot):
        import json

        graphs = random_graphs(1, seed=43)
        stats = fit_stats([g.raw for g in graphs])
        params = init_params(graphs[0].features.shape[1], graphs[0].global_features.shape[0])
        path = tmp_path / "model.json"
        save_checkpoint(path, params, stats, seed=0)
        payload = json.loads(path.read_text())
        payload["stats"][slot].pop()
        path.write_text(json.dumps(payload))
        with pytest.raises(ShapeError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_refuses_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ShapeError):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", [
        "[1]", "", "not json", '"text"',
        '{"format": "infercarbon-checkpoint", "version": 1, "params": [1]}',
        '{"format": "infercarbon-checkpoint", "version": 1}',
        '{"format": "infercarbon-checkpoint", "version": 1, "params": {"conv1_w": [["x"]]}}',
    ])
    def test_refuses_malformed_file_with_path(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ShapeError, match=re.escape(str(path))):
            load_checkpoint(path)
