"""Word and subword embeddings plus a supervised bag-of-features classifier.

Skip-gram and CBOW are trained with negative sampling (binary logistic
loss over observed vs sampled word pairs). They read text as every other
feature does: the words and their ranks come from
:func:`features.build_word_vocab` and each sentence's word ids from
:func:`features.ngram_hits`, so the text must be cleaned. Each word's
vector is its row of a composition matrix times the table of rows:
skip-gram's row is the L1-normalised counts of the word's own row and its
hashed subword rows, CBOW's the identity. Training is single-threaded
and seeded, so repeated runs produce bit-identical matrices.

A word's subwords are the character n-grams of orders ``SUBWORD_ORDERS``
of `` word ``, a space marking each end (Bojanowski et al. 2017,
"Enriching Word Vectors with Subword Information"). The word's own row
stands for the whole word. The grams are counted through a
:class:`features.HashedVocabulary` of ``BUCKETS`` buckets, so a gram
that repeats within a word counts as often as it occurs, and only
occupied buckets get a row. A text's sentence vector, the mean of its
known words' composed vectors, is its row of L1-normalised word counts
times ``composed``; fastText is linear in such counts too.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .corpus import Sentence
from .errors import EmptyVocabulary
from .features import (
    BATCH_LINES,
    N_CLASSES,
    CsrMatrix,
    WordVocabulary,
    as_csr,
    build_hashed_vocab,
    build_word_vocab,
    check_learning_rate,
    count_matrix,
    ngram_hits,
    softmax,
    texts_of,
)


@dataclass(frozen=True)
class EmbeddingConfig:
    """Skip-gram and CBOW training: the vector width, the widest context
    reach, the negative draws per example, the epochs, the initial
    learning rate and the seed."""

    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.05
    seed: int = 42

    def __post_init__(self):
        if self.window < 1 or self.negatives < 1 or self.dim < 1 or self.epochs < 0:
            raise ValueError("window, negatives, and dim must be >= 1, and epochs >= 0")
        check_learning_rate(self.learning_rate)


#: Orders (nmin, nmax) of a word's subword n-grams.
SUBWORD_ORDERS = (3, 6)
#: Buckets that the subword n-grams' keys are hashed into.
BUCKETS = 1 << 20


@dataclass
class EmbeddingMatrix:
    """Trained embedding table with precomposed per-word query vectors.

    ``vocab`` holds the words, ranked by :func:`features.build_word_vocab`:
    word j (rank j + 1) owns row j of ``vectors``, ``composed`` and
    ``output_vectors``, and row j of ``composition``, one column per row of
    ``vectors``, weighs the rows that make up word j's vector. ``vectors``
    holds the word rows first, then (skip-gram only) one row per occupied
    subword bucket, in ascending order. ``composed`` is ``composition @
    vectors`` and is what queries consume.
    """

    mode: str
    vocab: WordVocabulary
    composition: CsrMatrix
    vectors: np.ndarray
    composed: np.ndarray
    output_vectors: np.ndarray
    epoch_losses: list[float] = field(default_factory=list)


def _negative_table(freqs: np.ndarray) -> np.ndarray:
    """Cumulative unigram^0.75 distribution for negative sampling."""
    weights = freqs**0.75
    return np.cumsum(weights / weights.sum())


def _init_embedding(
    corpus: Iterable[Sentence], cfg: EmbeddingConfig, mode: str
) -> tuple[EmbeddingMatrix, list[np.ndarray], np.ndarray]:
    """The seeded embedding of ``corpus``'s words, the word ids of each
    sentence that has a word, and the negative-sampling table."""
    corpus = list(corpus)
    vocab = build_word_vocab(corpus)
    if not vocab.size:
        raise EmptyVocabulary("corpus contains no tokens")
    lines, columns = ngram_hits(texts_of(corpus), vocab)
    ids = np.split(columns, np.cumsum(np.bincount(lines, minlength=len(corpus)))[:-1])
    ids = [tokens for tokens in ids if len(tokens)]
    n_words = vocab.size
    if mode == "skipgram":
        composition = _subword_composition(list(vocab.words))
    else:
        composition = CsrMatrix((n_words, n_words), np.arange(n_words + 1),
                                np.arange(n_words), np.ones(n_words))
    rng = np.random.default_rng(cfg.seed)
    vectors = rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(composition.shape[1], cfg.dim))
    shape = (n_words, cfg.dim)  # _train fills ``composed`` when it is done
    emb = EmbeddingMatrix(mode, vocab, composition, vectors, np.zeros(shape), np.zeros(shape))
    return emb, ids, _negative_table(np.bincount(columns, minlength=n_words))


def _subword_composition(words: list[str]) -> CsrMatrix:
    """Skip-gram's composition: row j holds 1 at word j's own column and,
    after the words' columns, the :func:`count_matrix` counts of the
    subword buckets of `` words[j] ``; each row is then L1-normalised.

    A word's counts total its number of grams, so the rows are sized
    before they are counted: the arrays are allocated once, at most one
    entry per gram, and filled ``BATCH_LINES`` words at a time.
    """
    n = len(words)
    marked = [f" {word} " for word in words]
    hashed = build_hashed_vocab(marked, SUBWORD_ORDERS, BUCKETS)
    widths = np.fromiter(map(len, marked), dtype=np.int64, count=n)
    nmin, nmax = SUBWORD_ORDERS
    totals = 1 + sum(np.maximum(widths - k + 1, 0) for k in range(nmin, nmax + 1))
    # pages past the last entry, room for repeats, are never touched
    indices, data = np.empty(totals.sum(), dtype=np.int64), np.empty(totals.sum())
    indptr = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, n, BATCH_LINES):
        counts = count_matrix(marked[lo : lo + BATCH_LINES], hashed, sparse=True)
        m, starts = counts.shape[0], counts.indptr[:-1]
        sizes = np.diff(counts.indptr) + 1
        indptr[lo + 1 : lo + m + 1] = indptr[lo] + np.cumsum(sizes)
        span = slice(indptr[lo], indptr[lo + m])
        indices[span] = np.insert(counts.indices + n, starts, np.arange(lo, lo + m))
        data[span] = np.insert(counts.data, starts, 1.0) / np.repeat(totals[lo : lo + m], sizes)
    return CsrMatrix((n, n + hashed.size), indptr, indices[: indptr[-1]], data[: indptr[-1]])


def _train(corpus: Iterable[Sentence], cfg: EmbeddingConfig, mode: str) -> EmbeddingMatrix:
    """Negative-sampling SGD, one update per sentence.

    An example maps input rows to a target word: skip-gram has one per
    (position, context word), with the rows of the center's ``composition``
    row as inputs, weighted as it weighs them; CBOW one per position with a
    context, with the context words as equal inputs and the center as
    target. Each position draws its reach and has its own
    linearly decaying rate; each example draws ``negatives`` words and
    skips one equal to its target. All of a sentence's examples read the
    parameters as they stand at its start, and their summed gradients are
    applied once, so a row used twice (a shared subword bucket, a repeated
    word, an output row drawn twice) gets every contribution. An incidence
    matrix over the sentence's distinct rows (row x position, the input's
    weight) turns the gathers and scatters into small products.
    """
    emb, ids, table = _init_embedding(corpus, cfg, mode)
    rng = np.random.default_rng(cfg.seed + 1)
    total = max(sum(map(len, ids)) * cfg.epochs, 1)
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
                centers = emb.composition.take(tokens)
                inputs, weight = centers.indices, centers.data
                group = np.repeat(np.arange(n), np.diff(centers.indptr))
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
    emb.composed = emb.composition @ emb.vectors
    return emb


def train_skipgram(
    corpus: Iterable[Sentence], cfg: EmbeddingConfig = EmbeddingConfig()
) -> EmbeddingMatrix:
    """Predict context words from the subword-composed center word."""
    return _train(corpus, cfg, "skipgram")


def train_cbow(
    corpus: Iterable[Sentence], cfg: EmbeddingConfig = EmbeddingConfig()
) -> EmbeddingMatrix:
    """Predict the center word from the averaged context vectors."""
    return _train(corpus, cfg, "cbow")


# ---------------------------------------------------------------------------
# Supervised bag-of-features linear classifier
# ---------------------------------------------------------------------------


@dataclass
class FastTextClassifier:
    """Softmax over a mean feature embedding times a linear output layer.

    Row j of ``input_vectors`` embeds column j of the model's feature: a
    word, or an n-gram of orders 1..5 (Joulin et al. 2017). The output
    bias is kept at zero so that inputs with no known features always
    yield a uniform posterior.
    """

    input_vectors: np.ndarray  # V x d
    output_weights: np.ndarray  # d x 6
    output_bias: np.ndarray  # 6
    epoch_losses: list[float] = field(default_factory=list)

    def scores(self, x: np.ndarray | CsrMatrix) -> np.ndarray:
        """Posterior of every row of an n x V design of L1-normalised counts,
        read as CSR so that a row's mean embedding has the same bits in any block."""
        hidden = as_csr(x) @ self.input_vectors
        return softmax(hidden @ self.output_weights + self.output_bias)


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


def supervised_grads(
    model: FastTextClassifier, columns: np.ndarray, weights: np.ndarray, label: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy of one document, a row of L1-normalised counts at
    ``columns`` with ``weights``, and its gradients: each column's
    ``input_vectors`` row gets its weight times the mean's gradient (a
    column counted twice, twice a single one's share); then
    ``output_weights``'s."""
    mean = weights @ model.input_vectors[columns]
    g = softmax(mean @ model.output_weights + model.output_bias)
    # features.cross_entropy on this one row would cost about 6x as much, once per document
    loss = float(-np.log(max(g[label], 1e-12)))
    g[label] -= 1.0
    return loss, np.outer(weights, model.output_weights @ g), np.outer(mean, g)


def train_fasttext_supervised(
    x: np.ndarray | CsrMatrix, y: np.ndarray, cfg: SupervisedConfig
) -> FastTextClassifier:
    """Per-document SGD on the rows of ``x``, an n x V design of
    L1-normalised counts, with label indices ``y``; one row of
    ``input_vectors`` per column.

    Documents go in a seeded order each epoch, with a linearly decaying
    rate, and each step applies :func:`supervised_grads` to the rows of
    its document's columns. Raises EmptyVocabulary when V is 0.
    """
    x = as_csr(x)
    n, n_columns = x.shape
    if not n_columns:
        raise EmptyVocabulary("training corpus contains no features")
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(cfg.seed)
    input_vectors = rng.uniform(-1.0 / cfg.dim, 1.0 / cfg.dim, size=(n_columns, cfg.dim))
    model = FastTextClassifier(input_vectors, np.zeros((cfg.dim, N_CLASSES)), np.zeros(N_CLASSES))
    order_rng = np.random.default_rng(cfg.seed + 1)
    total = max(cfg.epochs * n, 1)
    step = 0
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for i in order_rng.permutation(n):
            lr = cfg.learning_rate * max(1.0 - step / total, 0.0)
            step += 1
            lo, hi = x.indptr[i], x.indptr[i + 1]
            if lo == hi:
                continue
            columns = x.indices[lo:hi]
            loss, d_rows, d_out = supervised_grads(model, columns, x.data[lo:hi], y[i])
            epoch_loss += loss
            model.output_weights -= lr * d_out
            model.input_vectors[columns] -= lr * d_rows
        model.epoch_losses.append(epoch_loss / max(n, 1))
    return model

