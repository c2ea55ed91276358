"""Word and subword embeddings plus a supervised bag-of-features classifier.

Skip-gram and CBOW are trained with negative sampling (binary logistic
loss over observed vs sampled word pairs). Skip-gram composes each word
vector as the mean of the word's own row and its hashed subword rows;
CBOW uses plain word rows. Training is single-threaded and seeded, so
repeated runs produce bit-identical matrices.

A word's subwords are the character n-grams of ``<word>`` plus
``<word>`` itself (Bojanowski et al. 2017, "Enriching Word Vectors with
Subword Information"). Each is hashed with 32-bit FNV-1a of its UTF-8
bytes into one of ``bucket_count`` buckets, and only occupied buckets get
a row. The set-up hashes a block of words' grams in array passes, one
order at a time, with no Python step per gram. A text's sentence vector
is the mean of its known words' composed vectors; :func:`_line_means`
takes those means for a block of texts at once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import Sentence
from .errors import EmptyVocabulary
from .features import (
    N_CLASSES,
    Vocabulary,
    check_learning_rate,
    label_indices,
    ngram_hits,
    rank_words,
    softmax,
    texts_of,
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
        if self.bucket_count < 1:
            raise ValueError(f"bucket_count must be >= 1, got {self.bucket_count}")


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


#: The 32-bit FNV-1a offset basis and prime.
_FNV_OFFSET, _FNV_PRIME = 0x811C9DC5, 0x01000193


def fnv1a(data: bytes) -> int:
    """32-bit FNV-1a hash, used to bucket subword n-grams."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFF
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
    h = np.full(len(data), _FNV_OFFSET, dtype=np.int64)
    for k in range(lengths.max(initial=0)):
        live = np.flatnonzero(lengths > k)
        h[live] = ((h[live] ^ flat[starts[live] + k]) * _FNV_PRIME) & 0xFFFFFFFF
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


def _vocab_words(sentences: list[list[str]]) -> tuple[list[str], np.ndarray]:
    counts = Counter(chain.from_iterable(sentences))
    if not counts:
        raise EmptyVocabulary("corpus contains no tokens")
    words = rank_words(counts)
    return words, np.fromiter(map(counts.__getitem__, words), dtype=np.float64, count=len(words))


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


#: Words whose subword grams :func:`_subword_rows` hashes at a time. On
#: the 34k words of a 4800-sentence synthetic training set, a 2048-word
#: block peaked at 29 MiB traced, against 70 MiB for the whole vocabulary
#: in one pass.
SUBWORD_BLOCK = 2048


def _subword_rows(
    words: list[str], cfg: EmbeddingConfig
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each word's rows, its own and then one per subword gram's bucket, and
    the occupied buckets in ascending order, whose rows follow the words'.

    The grams are hashed ``SUBWORD_BLOCK`` words at a time, and each block
    keeps its distinct buckets and each gram's index among them until the
    occupied buckets are known.
    """
    blocks = []
    for lo in range(0, len(words), SUBWORD_BLOCK):
        hashes, counts = _gram_hashes(words[lo : lo + SUBWORD_BLOCK], cfg.subword_min,
                                      cfg.subword_max)
        blocks.append((*np.unique(hashes % cfg.bucket_count, return_inverse=True), counts))
    # sorted and compared: numpy 2.4's unique without an inverse (a hash
    # table) took 25 times as long on 80k buckets (2-vCPU x86 machine)
    merged = np.concatenate([distinct for distinct, _, _ in blocks])
    merged.sort()
    occupied = merged[np.append(True, merged[1:] != merged[:-1])]
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


def _gram_hashes(words: list[str], nmin: int, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`fnv1a` hash of each word's :func:`subword_ngrams`, word
    after word in that order, and how many grams each word has.

    The characters of the marked words lie in one array. Every window
    start carries its gram's hash and an exact identity of its word and
    characters, a rank among the block's (word, gram) pairs, one order at
    a time, so a gram repeated within a word is dropped by its characters
    and not by its hash. A rank times the number of distinct characters
    stays below the square of the block's length, far inside an int64. A
    marked word outside the orders comes last.
    """
    marked = [f"<{word}>" for word in words]
    chars, code = np.unique(np.frombuffer("".join(marked).encode("utf-32-le"), dtype=np.uint32),
                            return_inverse=True)
    utf8 = _utf8_table(chars)
    lengths = np.fromiter(map(len, marked), dtype=np.int64, count=len(marked))
    owner = np.repeat(np.arange(len(words)), lengths)  # word of each position
    start = np.arange(len(code))  # the starts whose window still fits its word
    room = np.repeat(np.cumsum(lengths), lengths) - start  # characters left in the word
    ident = owner
    h = np.full(len(code), _FNV_OFFSET, dtype=np.int64)
    owners, hashes = [], []
    for n in range(1, nmax + 1):
        fits = room >= n
        start, room, ident, h = start[fits], room[fits], ident[fits], h[fits]
        last = code[start + n - 1]
        _, first, ident = np.unique(ident * len(chars) + last, return_index=True,
                                    return_inverse=True)
        h = _fnv1a_step(h, utf8, last)
        if n >= nmin:
            first.sort()
            owners.append(owner[start[first]])
            hashes.append(h[first])
    whole = (lengths < nmin) | (lengths > nmax)
    owners.append(np.flatnonzero(whole))
    hashes.append(fnv1a_many([m for m, w in zip(marked, whole.tolist()) if w]))
    owners, hashes = np.concatenate(owners), np.concatenate(hashes)
    return hashes[np.argsort(owners, kind="stable")], np.bincount(owners, minlength=len(words))


def _utf8_table(chars: np.ndarray) -> np.ndarray:
    """The UTF-8 bytes of code points, byte k of ``chars[i]`` at [k, i]; a
    -1 pads a shorter character's column."""
    widths = 1 + (chars >= 0x80) + (chars >= 0x800) + (chars >= 0x10000)
    table = np.full((len(chars), int(widths.max(initial=1))), -1, dtype=np.int64)
    table[np.arange(table.shape[1]) < widths[:, None]] = np.frombuffer(
        "".join(map(chr, chars.tolist())).encode("utf-8"), dtype=np.uint8)
    return table.T.copy()


def _fnv1a_step(h: np.ndarray, utf8: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """:func:`fnv1a` hashes ``h`` continued over the UTF-8 bytes of one
    character each, ``chars`` indexing the columns of ``utf8``."""
    h = ((h ^ utf8[0, chars]) * _FNV_PRIME) & 0xFFFFFFFF
    for row in utf8[1:]:
        byte = row[chars]
        live = np.flatnonzero(byte >= 0)
        h[live] = ((h[live] ^ byte[live]) * _FNV_PRIME) & 0xFFFFFFFF
    return h


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
