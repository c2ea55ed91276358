"""Word and subword embeddings plus a supervised bag-of-features classifier.

Skip-gram and CBOW are trained with negative sampling (binary logistic
loss over observed vs sampled word pairs). They read text as every other
feature does: the words and their ranks come from
:func:`features.build_word_vocab` and each sentence's word ids from
:func:`features.ngram_hits`, so the text must be cleaned. Skip-gram
composes each word vector as the mean of the word's own row and its
hashed subword rows; CBOW uses plain word rows. Training is
single-threaded and seeded, so repeated runs produce bit-identical
matrices.

A word's subwords are the distinct character n-grams of orders
``SUBWORD_ORDERS`` of `` word ``, a space marking each end (Bojanowski
et al. 2017, "Enriching Word Vectors with Subword Information"). The
word's own row stands for the whole word. Each gram's
:func:`features.gram_keys` key is hashed into one of ``BUCKETS``
buckets, and only occupied buckets get a row. A text's sentence vector
is the mean of its known words' composed vectors; :func:`_line_means`
takes those means for a block of texts at once.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .corpus import Sentence
from .errors import EmptyVocabulary
from .features import (
    N_CLASSES,
    Vocabulary,
    WordVocabulary,
    build_word_vocab,
    check_learning_rate,
    gram_keys,
    label_indices,
    ngram_hits,
    softmax,
    texts_of,
    word_tokenize,
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
#: The odd integer nearest 2**64 over the golden ratio: a key's bucket is
#: the top 32 bits of its product with this, mod 2**64, taken mod BUCKETS.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def subword_ngrams(word: str, nmin: int = 3, nmax: int = 6) -> list[str]:
    """The distinct character n-grams of orders nmin..nmax of `` word ``.

    They come order nmin first, each order left to right, a repeat
    dropped.
    """
    if not word:
        raise ValueError("word must be non-empty")
    marked = f" {word} "
    return list(dict.fromkeys(
        marked[i : i + n] for n in range(nmin, nmax + 1) for i in range(len(marked) - n + 1)
    ))


@dataclass
class EmbeddingMatrix:
    """Trained embedding table with precomposed per-word query vectors.

    ``vocab`` holds the words, ranked by :func:`features.build_word_vocab`:
    word j (rank j + 1) owns row j of ``vectors``, ``composed`` and
    ``output_vectors``. ``vectors`` holds the word rows first, then one row
    per occupied subword bucket (skip-gram only): bucket ``buckets[i]``
    owns row ``vocab.size + i``. ``word_rows[j]`` lists word j's rows, its
    own first, and ``composed`` is the mean of each word's rows and is what
    queries consume.
    """

    mode: str
    vocab: WordVocabulary
    vectors: np.ndarray
    composed: np.ndarray
    output_vectors: np.ndarray
    buckets: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    word_rows: list[np.ndarray] = field(default_factory=list)
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
        word_rows, buckets = _subword_rows(list(vocab.entries))
    else:
        word_rows = [np.array([i], dtype=np.int64) for i in range(n_words)]
        buckets = np.zeros(0, dtype=np.int64)

    rng = np.random.default_rng(cfg.seed)
    vectors = rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(n_words + len(buckets), cfg.dim))
    emb = EmbeddingMatrix(  # _train fills ``composed`` when it is done
        mode, vocab, vectors, np.zeros((n_words, cfg.dim)), np.zeros((n_words, cfg.dim)),
        buckets, word_rows,
    )
    return emb, ids, _negative_table(np.bincount(columns, minlength=n_words))


#: Words whose subword grams :func:`_subword_rows` hashes at a time. On
#: the 34k words of a 4800-sentence synthetic training set, a 2048-word
#: block peaked at 30 MiB traced, against 114 MiB for the whole
#: vocabulary in one pass.
SUBWORD_BLOCK = 2048


def _subword_rows(words: list[str]) -> tuple[list[np.ndarray], np.ndarray]:
    """Each word's rows, its own and then one per :func:`subword_ngrams`
    gram's bucket, and the occupied buckets in ascending order, whose rows
    follow the words'.

    The grams' keys are taken and hashed ``SUBWORD_BLOCK`` words at a
    time, and each block keeps its distinct buckets and each gram's index
    among them until the occupied buckets are known. A gram repeated
    within a word is dropped by its key, not by its bucket.
    """
    blocks = []
    for lo in range(0, len(words), SUBWORD_BLOCK):
        block = words[lo : lo + SUBWORD_BLOCK]
        owner, keys = gram_keys([f" {word} " for word in block], *SUBWORD_ORDERS)
        distinct, rank = np.unique(keys, return_inverse=True)
        # a word's first gram of each key: (word, key rank) stays far inside an int64
        _, first = np.unique(owner * len(distinct) + rank, return_index=True)
        first.sort()
        buckets = (distinct.astype(np.uint64) * _HASH_MULTIPLIER >> 32) % BUCKETS
        blocks.append((*np.unique(buckets.astype(np.int64)[rank[first]], return_inverse=True),
                       np.bincount(owner[first], minlength=len(block))))
    # sorted and compared: numpy 2.4's unique without an inverse (a hash
    # table) took 25 times as long on 80k buckets (2-vCPU x86 machine)
    merged = np.concatenate([distinct for distinct, _, _ in blocks])
    merged.sort()
    keep = np.ones(len(merged), dtype=bool)
    keep[1:] = merged[1:] != merged[:-1]
    occupied = merged[keep]
    word_rows: list[np.ndarray] = []
    for i, (distinct, inverse, counts) in enumerate(blocks):
        blocks[i] = None  # frees each block as its rows are made
        ends = np.cumsum(counts)
        own = np.arange(len(word_rows), len(word_rows) + len(counts))
        rows = np.insert(len(words) + np.searchsorted(occupied, distinct)[inverse],
                         ends - counts, own)
        bounds = (ends + np.arange(1, len(counts) + 1)).tolist()
        word_rows += [rows[a:b] for a, b in zip([0] + bounds, bounds)]
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
        hi = max(lo + 1, int(np.searchsorted(
            ends, start + (1 << 20) // (8 * emb.vectors.shape[1]), "right")))
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
    emb, ids, table = _init_embedding(corpus, cfg, mode)
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
    corpus: Iterable[Sentence], cfg: EmbeddingConfig = EmbeddingConfig()
) -> EmbeddingMatrix:
    """Predict the center word from the averaged context vectors."""
    return _train(corpus, cfg, "cbow")


def pair_score(emb: EmbeddingMatrix, center: str, context: str) -> float:
    """Inner-product score the model assigns to (center -> context)."""
    rank = emb.vocab.entries
    return float(emb.composed[rank[center] - 1] @ emb.output_vectors[rank[context] - 1])


def sentence_embedding(text: str, emb: EmbeddingMatrix) -> np.ndarray:
    """Mean of in-vocabulary token vectors; zero vector when none match."""
    hits = [i for i in map(emb.vocab.index, word_tokenize(text)) if i is not None]
    if not hits:
        return np.zeros(emb.composed.shape[1])
    return emb.composed[hits].mean(axis=0)


# ---------------------------------------------------------------------------
# Supervised bag-of-features linear classifier
# ---------------------------------------------------------------------------


@dataclass
class FastTextClassifier:
    """Softmax over a mean feature embedding times a linear output layer.

    Row j of ``input_vectors`` embeds column j of ``vocab``: a word, or an
    n-gram of orders 1..5 (Joulin et al. 2017). The output bias is kept at
    zero so that inputs with no known features always yield a uniform
    posterior.
    """

    vocab: Vocabulary
    input_vectors: np.ndarray  # V x d
    output_weights: np.ndarray  # d x 6
    output_bias: np.ndarray  # 6
    epoch_losses: list[float] = field(default_factory=list)

    def scores(self, texts: list[str]) -> np.ndarray:
        """Posterior of every cleaned text, n x 6.

        Equal bit for bit to scoring each text alone: the mean of its rows
        as ``input_vectors[ids].mean(axis=0)`` takes it (the zero vector
        for none), times ``output_weights`` as a 1-D product per text (a
        batched product rounds differently), plus the bias, through the
        softmax.
        """
        means = _line_means(self.input_vectors, *ngram_hits(texts, self.vocab), len(texts))
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


def train_fasttext_supervised(
    train: Iterable[Sentence], cfg: SupervisedConfig, vocab: Vocabulary
) -> FastTextClassifier:
    """Per-document SGD, one row of ``input_vectors`` per column of ``vocab``.

    A document's rows are its :func:`features.ngram_hits` columns, in that
    order. Raises EmptyVocabulary when ``vocab`` is empty.
    """
    train = list(train)
    if not vocab.size:
        raise EmptyVocabulary("training corpus contains no features")
    lines, columns = ngram_hits(texts_of(train), vocab)
    doc_ids = np.split(columns, np.cumsum(np.bincount(lines, minlength=len(train)))[:-1])
    rng = np.random.default_rng(cfg.seed)
    input_vectors = rng.uniform(-1.0 / cfg.dim, 1.0 / cfg.dim, size=(vocab.size, cfg.dim))
    model = FastTextClassifier(
        vocab, input_vectors, np.zeros((cfg.dim, N_CLASSES)), np.zeros(N_CLASSES)
    )
    label_arr = label_indices(train)
    order_rng = np.random.default_rng(cfg.seed + 1)
    n = len(train)
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
        model.epoch_losses.append(epoch_loss / max(n, 1))
    return model


def supervised_loss(model: FastTextClassifier, ids: np.ndarray, label: int) -> float:
    """Cross-entropy of one encoded document, for gradient verification."""
    mean = model.input_vectors[ids].mean(axis=0)
    posterior = softmax(mean @ model.output_weights + model.output_bias)
    return float(-np.log(max(posterior[label], 1e-12)))
