"""Word and subword embeddings plus a supervised bag-of-features classifier.

Skip-gram and CBOW are trained with negative sampling (binary logistic
loss over observed vs sampled word pairs). Skip-gram composes each word
vector as the mean of the word's own row and its hashed subword rows;
CBOW uses plain word rows. Training is single-threaded and seeded, so
repeated runs produce bit-identical matrices.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count

import numpy as np

from .corpus import LABELS, Sentence
from .errors import EmptyVocabulary
from .features import (
    KEY_START,
    N_CLASSES,
    CodeIndex,
    WordVocabulary,
    check_learning_rate,
    gram_keys,
    key_string_order,
    label_indices,
    ngram_hits,
    softmax,
    word_tokenize,
)


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
        if self.window < 1 or self.negatives < 1 or self.dim < 1 or self.epochs < 0:
            raise ValueError("window, negatives, and dim must be >= 1, and epochs >= 0")
        check_learning_rate(self.learning_rate)
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


def fnv1a_many(texts: list[str]) -> np.ndarray:
    """:func:`fnv1a` of the UTF-8 bytes of every text, as int64.

    One numpy step per byte position, over the texts that are still that
    long. A product of a 32-bit hash and the 25-bit prime fits in 64 bits.
    """
    data = [text.encode("utf-8") for text in texts]
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    flat = np.frombuffer(b"".join(data), dtype=np.uint8).astype(np.int64)
    starts = np.cumsum(lengths) - lengths
    h = np.full(len(data), 0x811C9DC5, dtype=np.int64)
    for k in range(lengths.max(initial=0)):
        live = np.flatnonzero(lengths > k)
        h[live] = ((h[live] ^ flat[starts[live] + k]) * 0x01000193) & 0xFFFFFFFF
    return h


@dataclass
class EmbeddingMatrix:
    """Trained embedding table with precomposed per-word query vectors.

    ``vectors`` holds word rows first, then one row per occupied subword
    bucket (skip-gram only): bucket ``buckets[i]`` owns row
    ``len(words) + i``. ``composed`` is the mean of each word's own row and
    its subword rows and is what queries consume.
    """

    mode: str
    dim: int
    words: list[str]
    word_index: dict[str, int]
    vectors: np.ndarray
    composed: np.ndarray
    output_vectors: np.ndarray
    buckets: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
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


def _init_embedding(
    corpus: Iterable[Sentence], cfg: EmbeddingConfig
) -> tuple[EmbeddingMatrix, list[np.ndarray], np.ndarray]:
    sentences = [word_tokenize(s.text) for s in corpus]
    sentences = [tokens for tokens in sentences if tokens]
    words, freqs = _vocab_words(sentences)
    word_index = {w: i for i, w in enumerate(words)}
    n_words = len(words)

    if cfg.mode == "skipgram":
        word_rows, buckets = _subword_rows(words, cfg)
    else:
        word_rows = [np.array([i], dtype=np.int64) for i in range(n_words)]
        buckets = np.zeros(0, dtype=np.int64)

    rng = np.random.default_rng(cfg.seed)
    vectors = rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(n_words + len(buckets), cfg.dim))
    emb = EmbeddingMatrix(  # _train fills ``composed`` when it is done
        cfg.mode, cfg.dim, words, word_index, vectors,
        np.zeros((n_words, cfg.dim)), np.zeros((n_words, cfg.dim)), buckets, word_rows,
    )
    ids = [np.array([word_index[t] for t in tokens], dtype=np.int64) for tokens in sentences]
    return emb, ids, _negative_table(freqs)


def _subword_rows(
    words: list[str], cfg: EmbeddingConfig
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each word's rows, its own and then one per subword gram's bucket, and
    the occupied buckets in ascending order, whose rows follow the words'.

    Words share most of their grams, so each distinct gram is hashed once.
    """
    distinct = defaultdict(count().__next__)  # gram -> its number, given on first sight
    grams = [
        [distinct[g] for g in subword_ngrams(w, cfg.subword_min, cfg.subword_max)] for w in words
    ]
    lengths = np.fromiter(map(len, grams), dtype=np.int64, count=len(grams))
    flat = np.fromiter(chain.from_iterable(grams), dtype=np.int64, count=int(lengths.sum()))
    occupied, bucket_of = np.unique(fnv1a_many(list(distinct)) % cfg.bucket_count,
                                    return_inverse=True)
    ends = np.cumsum(lengths)
    rows = np.insert(len(words) + bucket_of[flat], ends - lengths, np.arange(len(words)))
    word_rows = np.split(rows, (ends + np.arange(1, len(words) + 1))[:-1])
    return word_rows, occupied


def _recompose(emb: EmbeddingMatrix) -> None:
    """Each word's ``composed`` row, the mean of its ``vectors`` rows, for a
    block of words at a time whose gathered rows stay within 1 MiB (a
    16 MiB block raised the train's peak memory by its size)."""
    lengths = np.fromiter(map(len, emb.word_rows), dtype=np.int64, count=len(emb.word_rows))
    ends = np.cumsum(lengths)
    lo = 0
    while lo < len(lengths):
        start = ends[lo] - lengths[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, start + (1 << 20) // (8 * emb.dim), "right")))
        sums = np.add.reduceat(emb.vectors[np.concatenate(emb.word_rows[lo:hi])],
                               ends[lo:hi] - lengths[lo:hi] - start)
        emb.composed[lo:hi] = sums / lengths[lo:hi, None]
        lo = hi


def _train(corpus: Iterable[Sentence], cfg: EmbeddingConfig, mode: str) -> EmbeddingMatrix:
    """Negative-sampling SGD, one update per sentence.

    An example maps input rows to a target word: skip-gram has one per
    (position, context word), with the center's rows as inputs; CBOW one
    per position with a context, with the context words as inputs and the
    center as target. Each position draws its reach and has its own
    linearly decaying rate; each example draws ``negatives`` words and
    skips one equal to its target. All of a sentence's examples read the
    parameters as they stand at its start, and their summed gradients are
    applied once, so a row used twice (a shared subword bucket, a repeated
    word, an output row drawn twice) gets every contribution. An incidence
    matrix over the sentence's distinct rows (row x position, weight
    1/len) turns the gathers and scatters into small products.
    """
    if cfg.mode != mode:
        raise ValueError(f"config mode must be {mode!r}")
    emb, ids, table = _init_embedding(corpus, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    total = max(sum(map(len, ids)) * cfg.epochs, 1)
    n_rows = np.fromiter(map(len, emb.word_rows), dtype=np.int64, count=len(emb.word_rows))
    offsets = np.r_[-cfg.window : 0, 1 : cfg.window + 1]
    step = 0
    for _ in range(cfg.epochs):
        loss, examples = 0.0, 0
        for tokens in ids:
            n = len(tokens)
            lr = cfg.learning_rate * np.maximum(1.0 - (step + np.arange(n)) / total, 0.0)
            step += n
            grid = np.arange(n)[:, None] + offsets
            reach = rng.integers(1, cfg.window + 1, size=n)[:, None]
            near = (np.abs(offsets) <= reach) & (grid >= 0) & (grid < n)
            pos, context = np.nonzero(near)[0], grid[near]
            if mode == "skipgram":
                inputs = np.concatenate([emb.word_rows[w] for w in tokens])
                group = np.repeat(np.arange(n), n_rows[tokens])
                weight = 1.0 / n_rows[tokens[group]]
                owner, target = pos, tokens[context]
            else:
                inputs, group = tokens[context], pos
                sizes = np.bincount(pos, minlength=n)
                weight = 1.0 / sizes[pos]
                owner = np.flatnonzero(sizes)
                target = tokens[owner]
            if not len(target):
                continue
            drawn = np.searchsorted(table, rng.random((len(target), cfg.negatives)))
            rows, row_of = np.unique(inputs, return_inverse=True)
            outs, out_of = np.unique(np.column_stack((target, drawn)), return_inverse=True)
            incidence = np.bincount(row_of * n + group, weights=weight,
                                    minlength=len(rows) * n).reshape(len(rows), n)
            w_in, w_out = emb.vectors[rows], emb.output_vectors[outs]
            v = incidence.T @ w_in  # the input mean of each position
            cell = owner[:, None] * len(outs) + out_of.reshape(len(target), -1)
            error = 0.5 + 0.5 * np.tanh(0.5 * (v @ w_out.T).ravel()[cell])  # the sigmoid,
            error[:, 0] -= 1.0  # minus the label: 1 for the target, 0 for a negative
            error[:, 1:][drawn == target[:, None]] = 0.0
            loss -= np.log(np.maximum(1.0 - np.abs(error), 1e-12)).sum()
            grad = np.bincount(cell.ravel(), weights=(error * lr[owner, None]).ravel(),
                               minlength=n * len(outs)).reshape(n, len(outs))
            emb.output_vectors[outs] = w_out - grad.T @ v
            emb.vectors[rows] = w_in - incidence @ (grad @ w_out)
            examples += len(target)
        emb.epoch_losses.append(loss / max(examples, 1))
    _recompose(emb)
    return emb


def train_skipgram(
    corpus: Iterable[Sentence], cfg: EmbeddingConfig = EmbeddingConfig()
) -> EmbeddingMatrix:
    """Predict context words from the subword-composed center word."""
    return _train(corpus, cfg, "skipgram")


def train_cbow(
    corpus: Iterable[Sentence], cfg: EmbeddingConfig = EmbeddingConfig(mode="cbow")
) -> EmbeddingMatrix:
    """Predict the center word from the averaged context vectors."""
    return _train(corpus, cfg, "cbow")


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

    Word mode keys each row of ``input_vectors`` by a word (``features``);
    character mode keys it by an n-gram key of orders ngram_min..ngram_max
    (``keys``, see :data:`features.KEY_START`). Both list the rows in rank
    order, and the other mode's field is empty. The output bias is kept at
    zero so that inputs with no known features always yield a uniform
    posterior.
    """

    feature_mode: str  # "words" or "char_ngrams"
    ngram_min: int
    ngram_max: int
    features: list[str]  # words mode: the word of each row
    keys: np.ndarray  # char_ngrams mode: the n-gram key of each row, int64
    input_vectors: np.ndarray  # V x d
    output_weights: np.ndarray  # d x 6
    output_bias: np.ndarray  # 6
    epoch_losses: list[float] = field(default_factory=list)

    @cached_property
    def word_vocab(self) -> WordVocabulary:
        """The words as a vocabulary, rank i + 1 for row i, built on first use.

        ``features`` must not change after that.
        """
        return WordVocabulary.from_ranked(self.features)

    @cached_property
    def key_index(self) -> CodeIndex:
        """The row of each n-gram key, built on first use.

        Raises ValueError if two keys are equal. ``keys`` must not change
        after that.
        """
        return CodeIndex.build(self.keys, np.arange(len(self.keys)), KEY_START[self.ngram_max + 1])

    def _hits(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(text index, row) of every known word or n-gram of cleaned
        ``texts``, text by text in the order training reads them."""
        if self.feature_mode == "words":
            return ngram_hits(texts, self.word_vocab)
        lines, keys = gram_keys(texts, self.ngram_min, self.ngram_max)
        rows = self.key_index.rows_of(keys)
        return lines[rows >= 0], rows[rows >= 0]

    def scores(self, texts: list[str]) -> np.ndarray:
        """Posterior of every cleaned text, n x 6.

        Equal bit for bit to scoring each text alone: the mean of its rows
        as ``input_vectors[ids].mean(axis=0)`` takes it (the zero vector
        for none), times ``output_weights`` as a 1-D product per text (a
        batched product rounds differently), plus the bias, through the
        softmax.
        """
        means = _line_means(self.input_vectors, *self._hits(texts), len(texts))
        logits = np.array([mean @ self.output_weights for mean in means])
        return softmax(logits.reshape(len(texts), N_CLASSES) + self.output_bias)


def _line_means(vectors: np.ndarray, lines: np.ndarray, rows: np.ndarray,
                n_lines: int) -> np.ndarray:
    """Mean of the ``vectors`` rows of each line, zero for a line with none.

    ``lines`` (ascending) and ``rows`` list each line's rows in order. A
    mean sums them one after another, starting from -0.0, and divides by
    their count, as numpy's ``mean(axis=0)`` over two or more columns
    does, so the means equal per-line ones bit for bit. Lines go longest
    first, so that the j-th rows of the lines still running are a prefix
    of them. numpy sums a single column pairwise instead, so with one
    column each line is averaged on its own.
    """
    counts = np.bincount(lines, minlength=n_lines)
    starts = np.cumsum(counts) - counts
    if vectors.shape[1] == 1:
        return np.array([vectors[rows[s : s + c]].mean(axis=0) if c else np.zeros(1)
                         for s, c in zip(starts, counts)]).reshape(n_lines, 1)
    longest = np.argsort(-counts, kind="stable")
    counts, starts = counts[longest], starts[longest]
    sums = np.full((n_lines, vectors.shape[1]), -0.0)
    for j in range(counts.max(initial=0)):
        running = np.searchsorted(-counts, -j)  # lines with more than j rows
        sums[:running] += vectors[rows[starts[:running] + j]]
    means = np.zeros_like(sums)
    means[longest] = np.divide(sums, counts[:, None], out=np.zeros_like(sums),
                               where=counts[:, None] > 0)
    return means


@dataclass(frozen=True)
class SupervisedConfig:
    dim: int = 50
    epochs: int = 5
    learning_rate: float = 0.1
    seed: int = 42

    def __post_init__(self):
        if self.dim < 1 or self.epochs < 0:
            raise ValueError(f"need dim >= 1 and epochs >= 0, got {self.dim} and {self.epochs}")
        check_learning_rate(self.learning_rate)


def _word_rows(texts: list[str]) -> tuple[list[str], list[np.ndarray]]:
    """The words ranked by (-count, word), and each text's word rows in order."""
    docs = [word_tokenize(text) for text in texts]
    counts = Counter(chain.from_iterable(docs))
    words = [w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    index = {w: i for i, w in enumerate(words)}
    return words, [np.array([index[w] for w in doc], dtype=np.int64) for doc in docs]


def _gram_rows(texts: list[str], nmin: int, nmax: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The n-gram keys ranked by (-count, string), and each text's n-gram
    rows in :func:`features.gram_keys` order."""
    lines, keys = gram_keys(texts, nmin, nmax)
    unique, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    ranked = np.lexsort((key_string_order(unique, nmax), -counts))
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(len(ranked))
    ends = np.cumsum(np.bincount(lines, minlength=len(texts)))
    return unique[ranked], np.split(rank[inverse], ends[:-1])


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
    texts = [sentence.text for sentence in train]
    if feature_mode == "words":
        features, doc_ids = _word_rows(texts)
        keys = np.zeros(0, dtype=np.int64)
    else:
        keys, doc_ids = _gram_rows(texts, ngram_min, ngram_max)
        features = []
    n_rows = len(features) + len(keys)
    if not n_rows:
        raise EmptyVocabulary("training corpus contains no features")
    rng = np.random.default_rng(cfg.seed)
    input_vectors = rng.uniform(-1.0 / cfg.dim, 1.0 / cfg.dim, size=(n_rows, cfg.dim))
    model = FastTextClassifier(
        feature_mode, ngram_min, ngram_max, features, keys,
        input_vectors, np.zeros((cfg.dim, N_CLASSES)), np.zeros(N_CLASSES),
    )
    label_arr = label_indices(train)
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


def predict_fasttext(model: FastTextClassifier, text: str) -> tuple[str, np.ndarray]:
    """Label and posterior of one cleaned text: its row of ``model.scores``."""
    posterior = model.scores([text])[0]
    return LABELS[int(np.argmax(posterior))], posterior
