"""From-scratch MLP and 1-D convolutional text classifiers.

Both networks are trained by plain mini-batch SGD on categorical
cross-entropy, in float64, with explicitly seeded initialization and
shuffling so training is bit-reproducible. The backward passes are
written out by hand and are checked against finite differences in the
test suite.

The CNN's max pooling keeps one window per (row, filter), so scoring adds
the bias and ReLU to the pooled maxima only, and the backward pass
gathers only the winning windows.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .corpus import Sentence
from .errors import DimensionMismatch, SequenceTooShort
from .evaluation import evaluate
from .features import (
    N_CLASSES,
    NgramVocabulary,
    Vocabulary,
    build_ngram_vocab,
    check_learning_rate,
    cross_entropy,
    design_array,
    label_indices,
    ngram_hits,
    one_hot,
    softmax,
)


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, np.asarray(z, dtype=np.float64))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 5
    batch_size: int = 32
    seed: int = 42
    max_len: int = 128

    def __post_init__(self):
        for name, least in (("epochs", 0), ("batch_size", 1), ("max_len", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        check_learning_rate(self.learning_rate)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# Multilayer perceptron
# ---------------------------------------------------------------------------


@dataclass
class MlpModel:
    """Dense layers with ReLU hidden activations and a softmax output."""

    weights: list[np.ndarray]  # per layer, shape (out, in)
    biases: list[np.ndarray]

    def scores(self, x) -> np.ndarray:
        return mlp_forward(self, x)


def init_mlp(layer_sizes: Sequence[int], seed: int) -> MlpModel:
    if len(layer_sizes) < 3:
        raise ValueError("need input, at least one hidden, and output layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(_xavier(rng, fan_in, fan_out, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def mlp_forward(model: MlpModel, x) -> np.ndarray:
    """Posterior of every row of a design matrix (dense or CSR)."""
    h = design_array(x)
    if h.ndim != 2 or h.shape[1] != model.weights[0].shape[1]:
        raise DimensionMismatch(model.weights[0].shape[1], h.shape[-1] if h.ndim else 0)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = relu(h @ w.T + b)
    return softmax(h @ model.weights[-1].T + model.biases[-1])


def mlp_grads(
    model: MlpModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean batch loss plus gradients for every weight matrix and bias."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    activations = [x]
    pre_acts = []
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w.T + b
        pre_acts.append(z)
        h = relu(z)
        activations.append(h)
    logits = h @ model.weights[-1].T + model.biases[-1]
    posterior = softmax(logits)
    loss = cross_entropy(posterior, y)

    n = x.shape[0]
    delta = (posterior - one_hot(y)) / n
    w_grads = [np.zeros_like(w) for w in model.weights]
    b_grads = [np.zeros_like(b) for b in model.biases]
    for layer in reversed(range(len(model.weights))):
        w_grads[layer] = delta.T @ activations[layer]
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (pre_acts[layer - 1] > 0)
    return loss, w_grads, b_grads


def mlp_train(
    train_x: np.ndarray,
    train_y: np.ndarray,
    hidden: Sequence[int] = (128,),
    cfg: TrainConfig = TrainConfig(),
) -> MlpModel:
    train_x = design_array(train_x)  # train_x[batch] is dense either way
    train_y = np.asarray(train_y, dtype=np.int64)
    layer_sizes = [train_x.shape[1], *hidden, N_CLASSES]
    model = init_mlp(layer_sizes, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    n = len(train_y)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, w_grads, b_grads = mlp_grads(model, train_x[batch], train_y[batch])
            for layer in range(len(model.weights)):
                model.weights[layer] -= cfg.learning_rate * w_grads[layer]
                model.biases[layer] -= cfg.learning_rate * b_grads[layer]
    return model


# ---------------------------------------------------------------------------
# 1-D convolutional classifier over character n-gram sequences
# ---------------------------------------------------------------------------

PAD_INDEX = 0
#: Rows per CNN forward pass at prediction time. At the CLI defaults a row's
#: stacked windows take about 48 KB and its window products about 65 KB.
PREDICT_BLOCK = 128


@dataclass
class CnnModel:
    """Embed token sequence, convolve, ReLU, global max pool, dense softmax.

    Token index 0 is reserved for padding; real tokens are 1-based.
    """

    vocab: Vocabulary  # n-grams; column j is token id j + 1
    embeddings: np.ndarray  # (V+1) x e, row 0 = pad
    filters: np.ndarray  # F x h x e
    conv_bias: np.ndarray  # F
    dense_w: np.ndarray  # F x 6
    dense_b: np.ndarray  # 6
    max_len: int

    def scores(self, texts: list[str]) -> np.ndarray:
        """Posterior of every cleaned text, n x 6, forwarded ``PREDICT_BLOCK`` rows at a time.

        A text with no in-vocabulary n-gram scores the all-padding sequence.
        """
        ids = cnn_token_ids(self, texts)
        scores = np.empty((len(texts), N_CLASSES))
        for start in range(0, len(texts), PREDICT_BLOCK):
            scores[start : start + PREDICT_BLOCK] = cnn_forward(self, ids[start : start + PREDICT_BLOCK])
        return scores


def init_cnn(
    vocab: NgramVocabulary,
    kernel: int = 3,
    filters: int = 64,
    embed_dim: int = 16,
    max_len: int = 128,
    seed: int = 42,
) -> CnnModel:
    if kernel < 1 or kernel > max_len:
        raise ValueError(f"kernel width must lie in 1..{max_len}, got {kernel}")
    rng = np.random.default_rng(seed)
    embeddings = rng.uniform(-0.1, 0.1, size=(vocab.size + 1, embed_dim))
    conv = _xavier(rng, kernel * embed_dim, filters, (filters, kernel, embed_dim))
    dense = _xavier(rng, filters, N_CLASSES, (filters, N_CLASSES))
    return CnnModel(
        vocab,
        embeddings,
        conv,
        np.zeros(filters),
        dense,
        np.zeros(N_CLASSES),
        max_len,
    )


def cnn_token_ids(model: CnnModel, texts: list[str]) -> np.ndarray:
    """Token ids of cleaned texts, one row of ``max_len`` per text.

    A row holds the text's in-vocabulary n-grams in order (1-based ids),
    truncated to ``max_len`` and padded with ``PAD_INDEX``; a text with
    none in the vocabulary gets an all-padding row.
    """
    rows, columns = ngram_hits(texts, model.vocab)
    # rows ascend, so each hit's rank within its text is its distance
    # from the first hit of that text
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    kept = rank < model.max_len
    ids = np.full((len(texts), model.max_len), PAD_INDEX, dtype=np.int64)
    ids[rows[kept], rank[kept]] = columns[kept] + 1
    return ids


def _training_ids(model: CnnModel, texts: list[str]) -> np.ndarray:
    """Token ids as :func:`cnn_token_ids`; a text without any is an error."""
    ids = cnn_token_ids(model, texts)
    if not ids[:, 0].all():
        raise SequenceTooShort(f"no in-vocabulary tokens of orders {model.vocab.orders}")
    return ids


def _cnn_conv(model: CnnModel, ids: np.ndarray) -> np.ndarray:
    """Every window's filter products before the bias, B x P x F, for 2-D token ids."""
    if ids.max(initial=0) >= model.embeddings.shape[0]:
        raise DimensionMismatch(model.embeddings.shape[0], int(ids.max()))
    emb = model.embeddings[ids]  # B x L x e
    width = model.filters.shape[1]
    windows = np.stack(
        [emb[:, t : t + width, :] for t in range(ids.shape[1] - width + 1)], axis=1
    )  # B x P x h x e
    return np.tensordot(windows, model.filters, axes=([2, 3], [1, 2]))


def _cnn_head(model: CnnModel, pooled_pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled activations and posterior from each (row, filter)'s largest window product."""
    pooled = np.maximum(0.0, pooled_pre + model.conv_bias)
    return pooled, softmax(pooled @ model.dense_w + model.dense_b)


def cnn_forward(model: CnnModel, ids: np.ndarray) -> np.ndarray:
    """Posterior of every row of a B x L array of token ids.

    Pooling before the bias and ReLU gives ``max(relu(pre + bias))`` bit
    for bit, as rounding is monotone: ``fl(max x + b) == max fl(x + b)``.
    """
    _, posterior = _cnn_head(model, _cnn_conv(model, np.asarray(ids, dtype=np.int64)).max(axis=1))
    return posterior


def cnn_grads(model: CnnModel, ids: np.ndarray, y: np.ndarray) -> tuple[float, dict]:
    """Mean batch loss and gradients for every parameter array.

    Max pooling passes gradient through one window per (row, filter),
    the first of the largest, so only those B x F windows are gathered.
    """
    ids = np.asarray(ids, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    pre = _cnn_conv(model, ids)
    n_batch, width = len(ids), model.filters.shape[1]
    arg = pre.argmax(axis=1)  # B x F
    pooled, posterior = _cnn_head(model, np.take_along_axis(pre, arg[:, None], axis=1)[:, 0])
    loss = cross_entropy(posterior, y)

    dlogits = (posterior - one_hot(y)) / n_batch
    dpre = (dlogits @ model.dense_w.T) * (pooled > 0)  # B x F, at the winning windows
    tokens = ids[np.arange(n_batch)[:, None, None], arg[:, :, None] + np.arange(width)]  # B x F x h
    # every winning window token's embedding-row gradient, B*F*h x e,
    # summed per token one column at a time
    rows = (dpre[:, :, None, None] * model.filters).reshape(-1, model.embeddings.shape[1])
    grads = {
        "dense_w": pooled.T @ dlogits,
        "dense_b": dlogits.sum(axis=0),
        "conv_bias": dpre.sum(axis=0),
        "filters": np.einsum("bf,bfhe->fhe", dpre, model.embeddings[tokens]),
        "embeddings": np.stack(
            [np.bincount(tokens.ravel(), column, len(model.embeddings)) for column in rows.T], axis=1
        ),
    }
    return loss, grads


def cnn_train(
    train: Iterable[Sentence],
    cfg: TrainConfig = TrainConfig(learning_rate=0.05),
    gram: int = 2,
    kernel: int = 3,
    filters: int = 64,
    embed_dim: int = 16,
    vocab_cap: int | None = None,
) -> CnnModel:
    train = list(train)
    vocab = build_ngram_vocab(train, (gram, gram), cap=vocab_cap)
    model = init_cnn(vocab, kernel, filters, embed_dim, cfg.max_len, cfg.seed)
    ids = _training_ids(model, [s.text for s in train])
    labels = label_indices(train)
    rng = np.random.default_rng(cfg.seed + 1)
    n = len(train)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grads = cnn_grads(model, ids[batch], labels[batch])
            model.embeddings -= cfg.learning_rate * grads["embeddings"]
            model.filters -= cfg.learning_rate * grads["filters"]
            model.conv_bias -= cfg.learning_rate * grads["conv_bias"]
            model.dense_w -= cfg.learning_rate * grads["dense_w"]
            model.dense_b -= cfg.learning_rate * grads["dense_b"]
    return model


@dataclass
class SweepResult:
    """Test accuracy per (gram order, kernel width) pair."""

    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["gram,kernel,accuracy"]
        for (gram, kernel), accuracy in sorted(self.entries.items()):
            lines.append(f"{gram},{kernel},{accuracy:.17g}")
        return "\n".join(lines) + "\n"


def kernel_size_sweep(
    train: Iterable[Sentence],
    test: Iterable[Sentence],
    gram_orders: Sequence[int] = (1, 2, 3),
    kernels: Sequence[int] = tuple(range(1, 12)),
    cfg: TrainConfig = TrainConfig(learning_rate=0.05),
    filters: int = 64,
    embed_dim: int = 16,
) -> SweepResult:
    """Train one CNN per (gram, kernel) pair and record test accuracy."""
    train = list(train)
    test = list(test)
    texts, truth = [s.text for s in test], label_indices(test)
    result = SweepResult()
    for gram in gram_orders:
        for kernel in kernels:
            model = cnn_train(
                train, cfg, gram=gram, kernel=kernel, filters=filters,
                embed_dim=embed_dim,
            )
            guess = model.scores(texts).argmax(axis=1)
            result.entries[(gram, kernel)] = evaluate(truth, guess).accuracy
    return result
