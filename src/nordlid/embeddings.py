"""Word and subword embeddings plus a supervised bag-of-features classifier.

Skip-gram and CBOW are trained with negative sampling (binary logistic
loss over observed vs sampled word pairs). Skip-gram composes each word
vector as the mean of the word's own row and its hashed subword rows;
CBOW uses plain word rows. Training is single-threaded and seeded, so
repeated runs produce bit-identical matrices.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import LABEL_INDEX, LABELS, Sentence
from .errors import EmptyVocabulary
from .features import N_CLASSES, extract_char_ngrams, softmax, word_tokenize


@dataclass(frozen=True)
class EmbeddingConfig:
    mode: str = "skipgram"  # "skipgram" or "cbow"
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.05
    subword_min: int = 3
    subword_max: int = 6
    bucket_count: int = 1 << 20
    seed: int = 42

    def __post_init__(self):
        if self.mode not in ("skipgram", "cbow"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.window < 1 or self.negatives < 1 or self.dim < 1:
            raise ValueError("window, negatives, and dim must be >= 1")
        if not 1 <= self.subword_min <= self.subword_max:
            raise ValueError("need 1 <= subword_min <= subword_max")


def subword_ngrams(word: str, nmin: int = 3, nmax: int = 6) -> list[str]:
    """Boundary-marked character n-grams of a word, plus the full marked word.

    Duplicates are removed, keeping first occurrence order.
    """
    if not word:
        raise ValueError("word must be non-empty")
    marked = f"<{word}>"
    grams = [
        marked[i : i + n]
        for n in range(nmin, nmax + 1)
        for i in range(len(marked) - n + 1)
    ]
    grams.append(marked)
    return list(dict.fromkeys(grams))


def fnv1a(data: bytes) -> int:
    """32-bit FNV-1a hash, used to bucket subword n-grams."""
    h = 0x811C9DC5
    for byte in data:
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


@dataclass
class EmbeddingMatrix:
    """Trained embedding table with precomposed per-word query vectors.

    ``vectors`` holds word rows first, then one row per occupied subword
    bucket (skip-gram only). ``composed`` is the mean of each word's own
    row and its subword rows and is what queries consume.
    """

    mode: str
    dim: int
    words: list[str]
    word_index: dict[str, int]
    vectors: np.ndarray
    composed: np.ndarray
    output_vectors: np.ndarray
    bucket_rows: dict[int, int] = field(default_factory=dict)
    word_rows: list[np.ndarray] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)

    def word_vector(self, word: str) -> np.ndarray | None:
        index = self.word_index.get(word)
        return None if index is None else self.composed[index]


def _vocab_words(sentences: list[list[str]]) -> tuple[list[str], np.ndarray]:
    counts: Counter = Counter()
    for tokens in sentences:
        counts.update(tokens)
    if not counts:
        raise EmptyVocabulary("corpus contains no tokens")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    words = [w for w, _ in ranked]
    freqs = np.array([c for _, c in ranked], dtype=np.float64)
    return words, freqs


def _negative_table(freqs: np.ndarray) -> np.ndarray:
    """Cumulative unigram^0.75 distribution for negative sampling."""
    weights = freqs**0.75
    return np.cumsum(weights / weights.sum())


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def _init_embedding(
    corpus: Iterable[Sentence], cfg: EmbeddingConfig
) -> tuple[EmbeddingMatrix, list[list[int]], np.ndarray]:
    sentences = [word_tokenize(s.text) for s in corpus]
    sentences = [tokens for tokens in sentences if tokens]
    words, freqs = _vocab_words(sentences)
    word_index = {w: i for i, w in enumerate(words)}
    n_words = len(words)

    bucket_rows: dict[int, int] = {}
    word_rows: list[np.ndarray] = []
    if cfg.mode == "skipgram":
        buckets_per_word = [
            [
                fnv1a(gram.encode("utf-8")) % cfg.bucket_count
                for gram in subword_ngrams(w, cfg.subword_min, cfg.subword_max)
            ]
            for w in words
        ]
        occupied = sorted({b for buckets in buckets_per_word for b in buckets})
        bucket_rows = {b: n_words + i for i, b in enumerate(occupied)}
        for i, buckets in enumerate(buckets_per_word):
            rows = [i] + [bucket_rows[b] for b in buckets]
            word_rows.append(np.array(rows, dtype=np.int64))
    else:
        word_rows = [np.array([i], dtype=np.int64) for i in range(n_words)]

    rng = np.random.default_rng(cfg.seed)
    n_rows = n_words + len(bucket_rows)
    vectors = rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(n_rows, cfg.dim))
    output_vectors = np.zeros((n_words, cfg.dim))
    emb = EmbeddingMatrix(
        cfg.mode, cfg.dim, words, word_index, vectors,
        np.zeros((n_words, cfg.dim)), output_vectors, bucket_rows, word_rows,
    )
    _recompose(emb)
    ids = [
        [word_index[t] for t in tokens]
        for tokens in sentences
    ]
    return emb, ids, _negative_table(freqs)


def _recompose(emb: EmbeddingMatrix) -> None:
    for i, rows in enumerate(emb.word_rows):
        emb.composed[i] = emb.vectors[rows].mean(axis=0)


def _negative_sampling_step(
    emb: EmbeddingMatrix,
    input_rows: np.ndarray,
    target: int,
    table: np.ndarray,
    rng: np.random.Generator,
    negatives: int,
    lr: float,
) -> float:
    """One (input representation -> target word) update; returns the pair loss."""
    v = emb.vectors[input_rows].mean(axis=0)
    grad_v = np.zeros_like(v)
    loss = 0.0
    samples = [(target, 1.0)]
    drawn = np.searchsorted(table, rng.random(negatives))
    samples.extend((int(j), 0.0) for j in drawn if int(j) != target)
    for index, label in samples:
        u = emb.output_vectors[index]
        score = _sigmoid(float(u @ v))
        loss -= np.log(max(score if label else 1.0 - score, 1e-12))
        g = (score - label) * lr
        grad_v += g * u
        emb.output_vectors[index] = u - g * v
    emb.vectors[input_rows] -= grad_v / len(input_rows)
    return loss


def _train_pairs(
    emb: EmbeddingMatrix,
    ids: list[list[int]],
    table: np.ndarray,
    cfg: EmbeddingConfig,
) -> None:
    rng = np.random.default_rng(cfg.seed + 1)
    total_positions = sum(len(s) for s in ids) * cfg.epochs
    step = 0
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        pairs = 0
        for tokens in ids:
            for t, center in enumerate(tokens):
                lr = cfg.learning_rate * max(1.0 - step / max(total_positions, 1), 0.0)
                step += 1
                reach = int(rng.integers(1, cfg.window + 1))
                lo = max(0, t - reach)
                hi = min(len(tokens), t + reach + 1)
                context = [tokens[j] for j in range(lo, hi) if j != t]
                if not context:
                    continue
                if cfg.mode == "skipgram":
                    rows = emb.word_rows[center]
                    for ctx in context:
                        epoch_loss += _negative_sampling_step(
                            emb, rows, ctx, table, rng, cfg.negatives, lr
                        )
                        pairs += 1
                else:
                    rows = np.array(context, dtype=np.int64)
                    epoch_loss += _negative_sampling_step(
                        emb, rows, center, table, rng, cfg.negatives, lr
                    )
                    pairs += 1
        emb.epoch_losses.append(epoch_loss / max(pairs, 1))
    _recompose(emb)


def train_skipgram(
    corpus: Iterable[Sentence], cfg: EmbeddingConfig = EmbeddingConfig()
) -> EmbeddingMatrix:
    """Predict context words from the subword-composed center word."""
    if cfg.mode != "skipgram":
        raise ValueError("config mode must be 'skipgram'")
    emb, ids, table = _init_embedding(corpus, cfg)
    _train_pairs(emb, ids, table, cfg)
    return emb


def train_cbow(
    corpus: Iterable[Sentence], cfg: EmbeddingConfig = EmbeddingConfig(mode="cbow")
) -> EmbeddingMatrix:
    """Predict the center word from the averaged context vectors."""
    if cfg.mode != "cbow":
        raise ValueError("config mode must be 'cbow'")
    emb, ids, table = _init_embedding(corpus, cfg)
    _train_pairs(emb, ids, table, cfg)
    return emb


def pair_score(emb: EmbeddingMatrix, center: str, context: str) -> float:
    """Inner-product score the model assigns to (center -> context)."""
    return float(emb.composed[emb.word_index[center]] @ emb.output_vectors[emb.word_index[context]])


def sentence_embedding(text: str, emb: EmbeddingMatrix) -> np.ndarray:
    """Mean of in-vocabulary token vectors; zero vector when none match."""
    hits = [
        emb.word_index[token]
        for token in word_tokenize(text)
        if token in emb.word_index
    ]
    if not hits:
        return np.zeros(emb.dim)
    return emb.composed[hits].mean(axis=0)


# ---------------------------------------------------------------------------
# Supervised bag-of-features linear classifier
# ---------------------------------------------------------------------------


@dataclass
class FastTextClassifier:
    """Softmax over a mean feature embedding times a linear output layer.

    The output bias is kept at zero so that inputs with no known features
    always yield a uniform posterior.
    """

    feature_mode: str  # "words" or "char_ngrams"
    ngram_min: int
    ngram_max: int
    features: list[str]
    input_vectors: np.ndarray  # V x d
    output_weights: np.ndarray  # d x 6
    output_bias: np.ndarray  # 6
    epoch_losses: list[float] = field(default_factory=list)

    @cached_property
    def feature_index(self) -> dict[str, int]:
        """feature -> row of ``input_vectors``, built on first use.

        ``features`` must not change after that.
        """
        return {f: i for i, f in enumerate(self.features)}

    def scores(self, texts: list[str]) -> np.ndarray:
        """Posterior of every cleaned text, n x 6, each from :func:`predict_fasttext`."""
        posteriors = [predict_fasttext(self, text)[1] for text in texts]
        return np.array(posteriors).reshape(len(texts), N_CLASSES)


def _sentence_features(
    text: str, mode: str, nmin: int, nmax: int
) -> list[str]:
    if mode == "words":
        return word_tokenize(text)
    grams: list[str] = []
    for n in range(nmin, nmax + 1):
        grams.extend(extract_char_ngrams(text, n))
    return grams


@dataclass(frozen=True)
class SupervisedConfig:
    dim: int = 50
    epochs: int = 5
    learning_rate: float = 0.1
    seed: int = 42


def train_fasttext_supervised(
    train: Iterable[Sentence],
    cfg: SupervisedConfig = SupervisedConfig(),
    feature_mode: str = "words",
    ngram_min: int = 1,
    ngram_max: int = 5,
) -> FastTextClassifier:
    if feature_mode not in ("words", "char_ngrams"):
        raise ValueError(f"unknown feature mode {feature_mode!r}")
    train = list(train)
    counts: Counter = Counter()
    docs = []
    labels = []
    for sentence in train:
        feats = _sentence_features(sentence.text, feature_mode, ngram_min, ngram_max)
        counts.update(feats)
        docs.append(feats)
        labels.append(LABEL_INDEX[sentence.label])
    if not counts:
        raise EmptyVocabulary("training corpus contains no features")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    features = [f for f, _ in ranked]
    rng = np.random.default_rng(cfg.seed)
    input_vectors = rng.uniform(
        -1.0 / cfg.dim, 1.0 / cfg.dim, size=(len(features), cfg.dim)
    )
    model = FastTextClassifier(
        feature_mode, ngram_min, ngram_max, features,
        input_vectors, np.zeros((cfg.dim, N_CLASSES)), np.zeros(N_CLASSES),
    )
    feature_index = model.feature_index
    doc_ids = [
        np.array([feature_index[f] for f in feats], dtype=np.int64) for feats in docs
    ]
    label_arr = np.array(labels, dtype=np.int64)
    order_rng = np.random.default_rng(cfg.seed + 1)
    n = len(doc_ids)
    total = max(cfg.epochs * n, 1)
    step = 0
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for i in order_rng.permutation(n):
            lr = cfg.learning_rate * max(1.0 - step / total, 0.0)
            step += 1
            ids = doc_ids[i]
            if len(ids) == 0:
                continue
            mean = model.input_vectors[ids].mean(axis=0)
            posterior = softmax(mean @ model.output_weights + model.output_bias)
            epoch_loss += -np.log(max(posterior[label_arr[i]], 1e-12))
            g = posterior.copy()
            g[label_arr[i]] -= 1.0
            dmean = model.output_weights @ g
            model.output_weights -= lr * np.outer(mean, g)
            model.input_vectors[ids] -= lr * dmean / len(ids)
        model.epoch_losses.append(epoch_loss / n)
    return model


def supervised_loss(model: FastTextClassifier, ids: np.ndarray, label: int) -> float:
    """Cross-entropy of one encoded document, for gradient verification."""
    mean = model.input_vectors[ids].mean(axis=0)
    posterior = softmax(mean @ model.output_weights + model.output_bias)
    return float(-np.log(max(posterior[label], 1e-12)))


def predict_fasttext(
    model: FastTextClassifier, text: str
) -> tuple[str, np.ndarray]:
    feats = _sentence_features(
        text, model.feature_mode, model.ngram_min, model.ngram_max
    )
    ids = [model.feature_index[f] for f in feats if f in model.feature_index]
    if ids:
        mean = model.input_vectors[np.array(ids, dtype=np.int64)].mean(axis=0)
    else:
        mean = np.zeros(model.input_vectors.shape[1])
    posterior = softmax(mean @ model.output_weights + model.output_bias)
    return LABELS[int(np.argmax(posterior))], posterior
