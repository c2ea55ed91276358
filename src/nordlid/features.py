"""Character n-gram and word count features over cleaned text."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .corpus import ALPHABET, LABEL_INDEX, LABELS, Sentence

#: char -> 0..39, in the canonical alphabet order.
CHARSET_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}


def extract_char_ngrams(text: str, n: int) -> list[str]:
    """All width-n windows of ``text`` (spaces included), left to right."""
    if n < 1:
        raise ValueError(f"gram order must be >= 1, got {n}")
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def word_tokenize(text: str) -> list[str]:
    """Split cleaned text on spaces, dropping empty tokens."""
    return [w for w in text.split(" ") if w]


@dataclass(frozen=True)
class NgramVocabulary:
    """Dense n-gram -> index map, ordered by descending corpus frequency.

    Frequency ties are broken lexicographically so construction is a pure
    function of the corpus.
    """

    n: int
    entries: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class WordVocabulary:
    """Word -> rank map (rank 1 = most frequent; ties lexicographic)."""

    entries: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.entries)

    def index(self, word: str) -> int | None:
        """0-based vector index for a word, or None if out of vocabulary."""
        rank = self.entries.get(word)
        return None if rank is None else rank - 1


@dataclass(frozen=True)
class FeatureVector:
    """Sparse count (or frequency) vector over a vocabulary."""

    dim: int
    entries: dict[int, float]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        for index, value in self.entries.items():
            dense[index] = value
        return dense


def _ranked(counts: Counter, cap: int | None) -> list[str]:
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if cap is not None:
        ranked = ranked[:cap]
    return [token for token, _ in ranked]


def build_ngram_vocab(
    corpus: Iterable[Sentence], n: int, cap: int | None = None
) -> NgramVocabulary:
    counts: Counter = Counter()
    for sentence in corpus:
        counts.update(extract_char_ngrams(sentence.text, n))
    tokens = _ranked(counts, cap)
    return NgramVocabulary(n, {gram: i for i, gram in enumerate(tokens)})


def build_word_vocab(
    corpus: Iterable[Sentence], cap: int | None = None
) -> WordVocabulary:
    counts: Counter = Counter()
    for sentence in corpus:
        counts.update(word_tokenize(sentence.text))
    tokens = _ranked(counts, cap)
    return WordVocabulary({word: rank for rank, word in enumerate(tokens, start=1)})


def _sparse_counts(
    indices: Iterable[int], dim: int, normalize: bool
) -> FeatureVector:
    counts: Counter = Counter(indices)
    if normalize and counts:
        total = sum(counts.values())
        entries = {i: c / total for i, c in counts.items()}
    else:
        entries = {i: float(c) for i, c in counts.items()}
    return FeatureVector(dim, entries)


def _hits(text: str, vocab: NgramVocabulary | WordVocabulary) -> list[int]:
    """Vector indices of the in-vocabulary n-grams or words of ``text``."""
    entries = vocab.entries
    if isinstance(vocab, NgramVocabulary):
        return [entries[gram] for gram in extract_char_ngrams(text, vocab.n) if gram in entries]
    return [entries[word] - 1 for word in word_tokenize(text) if word in entries]


def vectorize(
    text: str, vocab: NgramVocabulary, normalize: bool = False
) -> FeatureVector:
    """Count in-vocabulary n-grams of ``text``; OOV n-grams are ignored."""
    return _sparse_counts(_hits(text, vocab), vocab.size, normalize)


def vectorize_bow(
    text: str, vocab: WordVocabulary, normalize: bool = False
) -> FeatureVector:
    """Bag-of-words counts of in-vocabulary tokens."""
    return _sparse_counts(_hits(text, vocab), vocab.size, normalize)


@dataclass(frozen=True)
class CharProfile:
    """Per-label character counts over the 40-char alphabet.

    ``raw[k, c]`` counts character c in label k's sentences. ``normalized``
    divides each character's count by that character's total across labels
    (columns with zero total stay zero).
    """

    raw: np.ndarray
    normalized: np.ndarray


def char_frequency_profile(pools: dict[str, list[Sentence]]) -> CharProfile:
    raw = np.zeros((len(LABELS), len(ALPHABET)))
    for k, code in enumerate(LABELS):
        for sentence in pools.get(code, []):
            for ch in sentence.text:
                raw[k, CHARSET_INDEX[ch]] += 1
    totals = raw.sum(axis=0)
    normalized = np.divide(
        raw, totals, out=np.zeros_like(raw), where=totals > 0
    )
    return CharProfile(raw, normalized)


#: ``count_matrix`` returns CSR when nnz/(n*d) is below this density and
#: a dense array otherwise. Measured on the 4800-sentence synthetic
#: training set with one BLAS thread: at char3 (0.3% dense) CSR takes
#: 7 MB instead of 1 GB and one logistic-regression gradient 20 ms
#: instead of 400 ms; at char2 (5.5% dense) the dense matrix is 50 MB,
#: CSR speeds the gradient up by only about 20%, and the SVM, which
#: expands one row per step, trains 1.8x slower on CSR. 2% sits between.
SPARSE_DENSITY = 0.02


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Compressed sparse row matrix of float64 values, numpy only.

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` at columns
    ``indices[indptr[i]:indptr[i + 1]]``. The type offers what the
    trainers need: ``X @ W`` and ``G @ X`` against dense arrays, row
    indexing (which returns dense rows), ``toarray`` and
    ``np.count_nonzero``. Any other numpy function refuses it rather than
    densify it silently.
    """

    shape: tuple[int, int]
    indptr: np.ndarray  # n + 1, int64
    indices: np.ndarray  # nnz, int64, ascending within a row
    data: np.ndarray  # nnz, float64

    #: Makes numpy hand ``ndarray @ CsrMatrix`` to ``__rmatmul__``.
    __array_ufunc__ = None

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def size(self) -> int:
        """Number of cells, as for an ndarray."""
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def _row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._row_ids(), self.indices] = self.data
        return out

    def __getitem__(self, rows) -> np.ndarray:
        """Dense copies of the selected rows (an int or an index array)."""
        picked = np.asarray(np.arange(self.shape[0])[rows])
        out = np.zeros((picked.size, self.shape[1]))
        for r, i in enumerate(picked.ravel()):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            out[r, self.indices[lo:hi]] = self.data[lo:hi]
        return out.reshape(*picked.shape, self.shape[1])

    def __matmul__(self, other) -> np.ndarray:
        """``X @ W`` for a dense W of shape (d,) or (d, k)."""
        other = np.asarray(other, dtype=np.float64)
        if other.ndim not in (1, 2) or other.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        columns = np.ascontiguousarray(other.reshape(self.shape[1], -1).T)  # k x d
        products = np.take(columns, self.indices, axis=1)  # k x nnz
        products *= self.data
        filled = np.diff(self.indptr) > 0
        out = np.zeros((columns.shape[0], self.shape[0]))
        if filled.any():
            # Each filled row's segment ends where the next filled row starts.
            out[:, filled] = np.add.reduceat(products, self.indptr[:-1][filled], axis=1)
        return np.ascontiguousarray(out.T).reshape(self.shape[0], *other.shape[1:])

    def __rmatmul__(self, other) -> np.ndarray:
        """``G @ X`` for a dense G of shape (n,) or (k, n)."""
        other = np.asarray(other, dtype=np.float64)
        if other.ndim not in (1, 2) or other.shape[-1] != self.shape[0]:
            raise ValueError(f"cannot multiply {other.shape} by {self.shape}")
        lead = np.ascontiguousarray(other.reshape(-1, self.shape[0]))  # k x n
        products = np.take(lead, self._row_ids(), axis=1)  # k x nnz
        products *= self.data
        out = np.empty((lead.shape[0], self.shape[1]))
        for c, weights in enumerate(products):
            out[c] = np.bincount(self.indices, weights=weights, minlength=self.shape[1])
        return out.reshape(*other.shape[:-1], self.shape[1])

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero and len(args) == 1 and args[0] is self and not kwargs:
            return int(np.count_nonzero(self.data))
        return NotImplemented


def design_array(x) -> np.ndarray | CsrMatrix:
    """A CSR matrix as it is; anything else as a float64 ndarray."""
    return x if isinstance(x, CsrMatrix) else np.asarray(x, dtype=np.float64)


def to_dense(x) -> np.ndarray:
    """A design matrix as a dense float64 ndarray."""
    return x.toarray() if isinstance(x, CsrMatrix) else np.asarray(x, dtype=np.float64)


def count_matrix(
    sentences: Iterable[Sentence],
    vocab: NgramVocabulary | WordVocabulary,
    normalize: bool = False,
) -> np.ndarray | CsrMatrix:
    """Design matrix (one row per sentence) for classifier training.

    Row values equal those of :func:`vectorize` / :func:`vectorize_bow`.
    The result is a :class:`CsrMatrix` when its density nnz/(n*d) is
    below ``SPARSE_DENSITY`` and a dense float64 array otherwise.
    """
    indptr = [0]
    indices: list[int] = []
    counts: list[int] = []
    totals: list[int] = []
    for sentence in sentences:
        hits = _hits(sentence.text, vocab)
        row = Counter(hits)
        columns = sorted(row)
        indices.extend(columns)
        counts.extend(row[c] for c in columns)
        indptr.append(len(indices))
        totals.append(len(hits))
    offsets = np.array(indptr, dtype=np.int64)
    data = np.array(counts, dtype=np.float64)
    if normalize:
        data /= np.repeat(np.array(totals, dtype=np.float64), np.diff(offsets))
    matrix = CsrMatrix(
        (len(totals), vocab.size), offsets, np.array(indices, dtype=np.int64), data
    )
    if matrix.size and matrix.nnz / matrix.size < SPARSE_DENSITY:
        return matrix
    return matrix.toarray()


def label_indices(sentences: Iterable[Sentence]) -> np.ndarray:
    return np.array([LABEL_INDEX[s.label] for s in sentences], dtype=np.int64)
