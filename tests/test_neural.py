"""MLP and CNN: analytic values, gradient checks, and behavioral properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nordlid.corpus import Sentence
from nordlid.errors import DimensionMismatch, SequenceTooShort
from nordlid.features import KEY_START, NgramVocabulary, cross_entropy, gram_keys, one_hot
from nordlid.neural import (
    MlpModel,
    TrainConfig,
    _training_ids,
    cnn_forward,
    cnn_grads,
    cnn_token_ids,
    cnn_train,
    init_cnn,
    init_mlp,
    kernel_size_sweep,
    mlp_forward,
    mlp_grads,
    mlp_train,
    relu,
    softmax,
)

finite_floats = st.floats(-50, 50, allow_nan=False)


class TestActivations:
    def test_relu_basic(self):
        assert relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_relu_all_negative(self):
        assert np.all(relu(np.array([-5.0, -0.1])) == 0.0)

    @given(st.lists(finite_floats, min_size=1, max_size=10))
    def test_relu_idempotent(self, values):
        z = np.array(values)
        assert np.array_equal(relu(relu(z)), relu(z))

    def test_softmax_uniform(self):
        assert np.allclose(softmax(np.ones(6)), 1 / 6)

    def test_softmax_analytic(self):
        out = softmax(np.array([0.0, math.log(2.0)]))
        assert np.allclose(out, [1 / 3, 2 / 3])

    @given(st.lists(finite_floats, min_size=2, max_size=8), finite_floats)
    def test_softmax_shift_invariant(self, values, shift):
        z = np.array(values)
        assert np.allclose(softmax(z), softmax(z + shift), atol=1e-9)

    @given(st.lists(finite_floats, min_size=2, max_size=8))
    def test_softmax_sums_to_one(self, values):
        assert softmax(np.array(values)).sum() == pytest.approx(1.0, abs=1e-9)


class TestLosses:
    def test_cce_perfect_prediction(self):
        pred = np.zeros((1, 6))
        pred[0, 2] = 1.0
        assert cross_entropy(pred, np.array([2])) == pytest.approx(0.0, abs=1e-11)

    def test_cce_uniform(self):
        loss = cross_entropy(np.full((1, 6), 1 / 6), np.array([3]))
        assert loss == pytest.approx(math.log(6), abs=1e-12)

    def test_cce_matches_two_sample_hand_computation(self):
        pred = np.array([[0.7, 0.1, 0.05, 0.05, 0.05, 0.05],
                         [0.2, 0.5, 0.1, 0.1, 0.05, 0.05]])
        y = np.array([0, 1])
        expected = -(math.log(0.7) + math.log(0.5)) / 2
        assert cross_entropy(pred, y) == pytest.approx(expected, abs=1e-12)

    def test_cce_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = softmax(rng.normal(size=(1, 6)))
            assert cross_entropy(p, rng.integers(6, size=1)) >= 0.0


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1e-8, abs(a), abs(b))


class TestMlp:
    def test_zero_weight_model_uniform(self):
        model = MlpModel(
            [np.zeros((8, 5)), np.zeros((6, 8))], [np.zeros(8), np.zeros(6)]
        )
        posterior = mlp_forward(model, np.ones((1, 5)))
        assert np.allclose(posterior, 1 / 6)

    def test_requires_three_layers(self):
        with pytest.raises(ValueError):
            init_mlp([4, 6], seed=0)

    def test_dimension_mismatch(self):
        model = init_mlp([4, 8, 6], seed=0)
        with pytest.raises(DimensionMismatch):
            mlp_forward(model, np.ones((1, 5)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            model = init_mlp([3, 4, 6], seed=int(rng.integers(1000)))
            x = rng.normal(size=(4, 3))
            y = rng.integers(0, 6, size=4)
            _, w_grads, b_grads = mlp_grads(model, x, y)
            step = 1e-6
            for layer in range(2):
                for index in np.ndindex(model.weights[layer].shape):
                    model.weights[layer][index] += step
                    up = cross_entropy(mlp_forward(model, x), y)
                    model.weights[layer][index] -= 2 * step
                    down = cross_entropy(mlp_forward(model, x), y)
                    model.weights[layer][index] += step
                    numeric = (up - down) / (2 * step)
                    assert relative_error(w_grads[layer][index], numeric) < 1e-4
                for index in np.ndindex(model.biases[layer].shape):
                    model.biases[layer][index] += step
                    up = cross_entropy(mlp_forward(model, x), y)
                    model.biases[layer][index] -= 2 * step
                    down = cross_entropy(mlp_forward(model, x), y)
                    model.biases[layer][index] += step
                    numeric = (up - down) / (2 * step)
                    assert relative_error(b_grads[layer][index], numeric) < 1e-4

    def test_training_loss_decreases_on_separable_set(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(-1, 0.2, (30, 4)), rng.normal(1, 0.2, (30, 4))])
        y = np.array([0] * 30 + [5] * 30)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=8, seed=0)
        model = init_mlp([4, 16, 6], seed=0)
        before = cross_entropy(mlp_forward(model, x), y)
        trained = mlp_train(x, y, hidden=(16,), cfg=TrainConfig(epochs=10, seed=0))
        after = cross_entropy(mlp_forward(trained, x), y)
        assert after < before

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 5))
        y = rng.integers(0, 6, size=20)
        cfg = TrainConfig(epochs=3, seed=11)
        a = mlp_train(x, y, hidden=(8,), cfg=cfg)
        b = mlp_train(x, y, hidden=(8,), cfg=cfg)
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))


def tiny_cnn(seed=0, vocab_size=5, embed=3, filters=2, kernel=2, max_len=6):
    vocab = NgramVocabulary((1, 1), np.arange(vocab_size, dtype=np.int64))
    return init_cnn(vocab, kernel, filters, embed, max_len, seed)


def conv_activations(model, ids):
    """Post-ReLU convolution stage of one token-id row, shape (L - h + 1) x F."""
    return dense_cnn_forward(model, np.asarray(ids)[None])[2][0]


def dense_cnn_forward(model, ids):
    """Reference forward over every window: ReLU of each window's product
    plus bias, then max pooling; returns the arrays a dense backward needs."""
    emb = model.embeddings[ids]  # B x L x e
    width = model.filters.shape[1]
    positions = ids.shape[1] - width + 1
    windows = np.stack([emb[:, t : t + width, :] for t in range(positions)], axis=1)
    pre = np.tensordot(windows, model.filters, axes=([2, 3], [1, 2])) + model.conv_bias
    act = np.maximum(0.0, pre)
    pooled = act.max(axis=1)
    posterior = softmax(pooled @ model.dense_w + model.dense_b)
    return windows, pre, act, pooled, posterior


def dense_cnn_grads(model, ids, y):
    """Reference backward: a gradient for every window, scattered with np.add.at."""
    windows, pre, act, pooled, posterior = dense_cnn_forward(model, ids)
    n_batch, positions, n_filters = pre.shape
    width = model.filters.shape[1]
    dlogits = (posterior - one_hot(y)) / n_batch
    dact = np.zeros_like(act)
    dact[np.arange(n_batch)[:, None], act.argmax(axis=1), np.arange(n_filters)] = (
        dlogits @ model.dense_w.T
    )
    dpre = dact * (pre > 0)
    dwindows = np.tensordot(dpre, model.filters, axes=([2], [0]))  # B x P x h x e
    demb = np.zeros(ids.shape + (model.embeddings.shape[1],))
    for t in range(positions):
        demb[:, t : t + width] += dwindows[:, t]
    embeddings = np.zeros_like(model.embeddings)
    np.add.at(embeddings, ids.ravel(), demb.reshape(-1, model.embeddings.shape[1]))
    return {
        "dense_w": pooled.T @ dlogits,
        "dense_b": dlogits.sum(axis=0),
        "conv_bias": dpre.sum(axis=(0, 1)),
        "filters": np.tensordot(dpre, windows, axes=([0, 1], [0, 1])),
        "embeddings": embeddings,
    }


class TestCnn:
    def test_conv_stage_shape(self):
        model = tiny_cnn(kernel=2, max_len=6)
        ids = np.array([1, 2, 3, 0, 0, 0])
        act = conv_activations(model, ids)
        assert act.shape == (6 - 2 + 1, 2)

    def test_kernel_one_locality(self):
        model = tiny_cnn(kernel=1, max_len=6)
        base = np.array([1, 2, 3, 4, 5, 0])
        changed = base.copy()
        changed[2] = 1
        act_base = conv_activations(model, base)
        act_changed = conv_activations(model, changed)
        # only position 2 may differ when token 2 is perturbed
        differs = np.any(act_base != act_changed, axis=1)
        assert not differs[np.arange(6) != 2].any()

    def test_posterior_sums_to_one(self):
        model = tiny_cnn()
        posterior = cnn_forward(model, np.array([[1, 2, 3, 4, 0, 0]]))[0]
        assert posterior.sum() == pytest.approx(1.0, abs=1e-9)

    def test_encode_pads_and_truncates(self):
        model = tiny_cnn()
        model.vocab = NgramVocabulary((1, 1), gram_keys(["ab"], 1, 1)[1])
        ids = cnn_token_ids(model, ["ab"])[0]
        assert ids.tolist() == [1, 2, 0, 0, 0, 0]
        long_ids = cnn_token_ids(model, ["ab" * 20])[0]
        assert len(long_ids) == model.max_len

    def test_encode_empty_raises(self):
        model = tiny_cnn()
        model.vocab = NgramVocabulary((1, 1), gram_keys(["a"], 1, 1)[1])
        with pytest.raises(SequenceTooShort):
            _training_ids(model, ["zzz"])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            model = tiny_cnn(seed=int(rng.integers(1000)))
            ids = rng.integers(0, 6, size=(3, 6))
            y = rng.integers(0, 6, size=3)
            _, grads = cnn_grads(model, ids, y)
            step = 1e-6
            for name in ("embeddings", "filters", "conv_bias", "dense_w", "dense_b"):
                param = getattr(model, name)
                grad = grads[name]
                for index in np.ndindex(param.shape):
                    param[index] += step
                    up = cross_entropy(cnn_forward(model, ids), y)
                    param[index] -= 2 * step
                    down = cross_entropy(cnn_forward(model, ids), y)
                    param[index] += step
                    numeric = (up - down) / (2 * step)
                    assert relative_error(grad[index], numeric) < 1e-4, (name, index)

    def test_max_pool_routes_gradient_only_to_argmax(self):
        model = tiny_cnn(seed=7, kernel=1)
        ids = np.array([[1, 2, 3, 4, 5, 0]])
        act = conv_activations(model, ids[0])
        argmax_positions = set(act.argmax(axis=0).tolist())
        runner_up = np.partition(act, -2, axis=0)[-2]
        pooling_gap = float((act.max(axis=0) - runner_up).min())
        assert pooling_gap > 0
        base = cnn_forward(model, ids)
        # nudging a token seen only at non-argmax positions, by less than
        # the pooling gap, must leave the pooled output untouched
        non_argmax = [t for t in range(6) if t not in argmax_positions]
        token = ids[0, non_argmax[0]]
        nudge = pooling_gap / (10 * (abs(model.filters).max() + 1))
        model.embeddings[token] += nudge
        assert np.array_equal(cnn_forward(model, ids), base)
        model.embeddings[token] -= nudge
        # and the analytic gradient for that token's embedding is zero
        _, grads = cnn_grads(model, ids, np.array([2]))
        assert np.all(grads["embeddings"][token] == 0.0)

    @pytest.mark.parametrize("case", ["random", "all_padding", "all_negative", "kernel_is_max_len"])
    def test_forward_equals_dense_max_of_relu(self, case):
        kernel = 6 if case == "kernel_is_max_len" else 3
        model = tiny_cnn(seed=3, vocab_size=9, embed=4, filters=5, kernel=kernel, max_len=6)
        rng = np.random.default_rng(8)
        model.conv_bias[:] = rng.normal(0, 0.3, size=5)
        ids = rng.integers(0, 10, size=(7, 6))
        if case == "all_padding":
            ids[::2] = 0
        if case == "all_negative":
            model.conv_bias[:] = -100.0  # every window's pre-activation is below 0
        expected = dense_cnn_forward(model, ids)[-1]
        assert np.array_equal(cnn_forward(model, ids), expected)
        # one row scores as the first row of the batch
        assert np.array_equal(cnn_forward(model, ids[:1]), expected[:1])

    def test_grads_equal_dense_backward_at_cli_shape(self):
        vocab_size, max_len = 1400, 128
        vocab = NgramVocabulary((2, 2), np.arange(vocab_size, dtype=np.int64) + KEY_START[2])
        model = init_cnn(vocab, kernel=3, filters=64, embed_dim=16, max_len=max_len, seed=9)
        rng = np.random.default_rng(10)
        model.conv_bias[:] = rng.normal(0, 0.05, size=64)
        ids = rng.integers(1, vocab_size + 1, size=(32, max_len))
        ids[:, 90:] = 0  # padded tails
        ids[0] = 7  # one token repeated: every window ties, the first must win
        ids[1, :40] = np.tile([3, 3, 5, 5], 10)  # repeated windows inside a row
        ids[2] = 0  # all padding
        y = rng.integers(0, 6, size=32)
        loss, grads = cnn_grads(model, ids, y)
        expected = dense_cnn_grads(model, ids, y)
        assert loss == cross_entropy(dense_cnn_forward(model, ids)[-1], y)
        for name, reference in expected.items():
            scale = np.abs(reference).max()
            assert scale > 0, name
            assert np.abs(grads[name] - reference).max() <= 1e-12 * scale, name

    def test_determinism(self):
        sentences = [Sentence("abab", "dk"), Sentence("baba", "sv")] * 10
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=3, max_len=8)
        a = cnn_train(sentences, cfg, gram=1, kernel=2, filters=3, embed_dim=4)
        b = cnn_train(sentences, cfg, gram=1, kernel=2, filters=3, embed_dim=4)
        assert np.array_equal(a.filters, b.filters)
        assert np.array_equal(a.embeddings, b.embeddings)


def make_adjacency_corpus(n_per_class=40):
    """Two classes with identical character multisets but opposite adjacency."""
    dk = [Sentence("ab " * 6 + "ab", "dk") for _ in range(n_per_class)]
    sv = [Sentence("ba " * 6 + "ba", "sv") for _ in range(n_per_class)]
    return dk + sv


class TestSweep:
    def test_cardinality_and_range(self):
        corpus = make_adjacency_corpus(12)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=0, max_len=16)
        result = kernel_size_sweep(corpus, corpus, (1,), (1, 2), cfg, filters=3, embed_dim=4)
        assert len(result.entries) == 2
        assert all(0.0 <= acc <= 1.0 for acc in result.entries.values())

    def test_adjacency_signal_needs_bigrams(self):
        train = make_adjacency_corpus(40)
        test = make_adjacency_corpus(10)
        cfg = TrainConfig(learning_rate=0.1, epochs=8, batch_size=8, seed=1, max_len=16)
        result = kernel_size_sweep(train, test, (1, 2), (1,), cfg, filters=8, embed_dim=8)
        assert result.entries[(2, 1)] == 1.0
        # identical char multisets leave a width-1 unigram CNN at chance
        assert abs(result.entries[(1, 1)] - 0.5) < 0.01

    def test_csv_shape(self):
        corpus = make_adjacency_corpus(8)
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=8, seed=0, max_len=16)
        result = kernel_size_sweep(corpus, corpus, (1,), (1,), cfg, filters=2, embed_dim=3)
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "gram,kernel,accuracy"
        assert len(lines) == 2


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="max_len"):
        TrainConfig(max_len=0)
    assert TrainConfig(epochs=0).epochs == 0  # zero epochs leave the initial model


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -0.1])
def test_train_config_rejects_learning_rate_that_is_not_finite_and_positive(rate):
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=rate)
