"""Character n-gram and word count features over cleaned text.

Featurization works on integer codes rather than strings. Each character
of cleaned text maps to its rank in the alphabet sorted by code point
(the space first), and an n-gram to ``sum(c[i] * 40**(n-1-i))``, so for
a fixed n the numeric order of n-gram codes equals their string order.
Vocabularies, design matrices and the CNN's token ids are built from
these codes with numpy, with no Python step per n-gram. The grams of
every order share one key space: an n-gram's key is ``KEY_START[n]`` (the
number of grams of orders 1..n-1) plus its code, and an n-gram vocabulary
of orders nmin..nmax, one or several, is kept, and saved, as the array of
its keys. A hashed vocabulary gives each occupied bucket of the keys'
hashes a column instead. Every model reads text through one vocabulary,
n-gram, hashed or word, and :func:`ngram_hits` alone maps a block of texts
to its columns.

The label-space helpers every classifier family shares live here too:
``N_CLASSES``, :func:`label_indices`, :func:`one_hot`, :func:`softmax`,
the loss :func:`cross_entropy` and the trainers' check
:func:`check_learning_rate`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .corpus import ALPHABET, LABEL_INDEX, LABELS, Sentence

N_CLASSES = len(LABELS)

#: char -> 0..39, in the canonical alphabet order.
CHARSET_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}

#: The alphabet in code-point order: a character's code is its position here.
CODE_ORDER = "".join(sorted(ALPHABET))
BASE = len(CODE_ORDER)
#: Highest n-gram order whose codes (below BASE**n) fit in an int64.
MAX_ORDER = 11
#: Highest n-gram order whose keys a :class:`CodeIndex` looks up in a
#: table indexed by them (0.5 MB up to order 3, 20 MB at order 4).
#: On a 1024-line block of chat text against a 1356-gram char2 vocabulary
#: (47k grams, 2-vCPU x86 machine) the table takes 0.08 ms and a binary
#: search of the sorted keys 5 ms; the search serves the orders above.
TABLE_MAX_ORDER = 3
#: First key of each n-gram order n, at index n (1..MAX_ORDER + 1):
#: sum(BASE**m for m in 1..n-1), so the keys of order n fill
#: KEY_START[n]..KEY_START[n + 1] - 1 and fit in an int64.
KEY_START = [sum(BASE**m for m in range(1, n)) for n in range(MAX_ORDER + 2)]
#: Code of every Latin-1 code point; -1 off the alphabet.
_CODE_OF = np.full(256, -1, dtype=np.int64)
_CODE_OF[[ord(ch) for ch in CODE_ORDER]] = np.arange(BASE)


def char_codes(text: str) -> np.ndarray:
    """Integer code of every character of cleaned ``text``.

    Raises ValueError on a character outside the 40-character alphabet
    rather than give it a code.
    """
    try:
        codes = _CODE_OF[np.frombuffer(text.encode("latin-1"), dtype=np.uint8)]
    except UnicodeEncodeError as exc:
        bad = text[exc.start]
    else:
        if codes.min(initial=0) >= 0:
            return codes
        bad = text[int(np.argmax(codes < 0))]
    raise ValueError(f"character {bad!r} is outside the 40-character alphabet")


def gram_codes(texts: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(text index, n-gram code) of every width-n window of ``texts``.

    Windows come text by text, each text's left to right, spaces included;
    none spans two texts.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"gram order must lie in 1..{MAX_ORDER}, got {n}")
    chars = char_codes("".join(texts))
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    rows = np.repeat(np.arange(len(texts)), lengths)  # text of each character
    starts = max(len(chars) - n + 1, 0)  # windows of the joined text
    grams = chars[:starts]
    for k in range(1, n):
        grams = grams * BASE + chars[k : starts + k]
    # a window lies inside one text when it starts and ends in the same one
    inside = rows[:starts] == rows[n - 1 : starts + n - 1]
    return rows[:starts][inside], grams[inside]


def gram_keys(texts: list[str], nmin: int, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(text index, key) of every n-gram of orders nmin..nmax of ``texts``.

    The keys come text by text; within a text, all grams of order nmin
    left to right, then those of each higher order.
    """
    orders = range(nmin, nmax + 1)
    parts = [gram_codes(texts, n) for n in orders]
    for n, (_, grams) in zip(orders, parts):
        grams += KEY_START[n]
    if nmin == nmax:  # already text by text: no merge of orders to sort
        return parts[0]
    rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [r for r, _ in parts])
    keys = np.concatenate([np.zeros(0, dtype=np.int64)] + [g for _, g in parts])
    del parts  # the per-order copies, freed before the sort
    by_text = np.argsort(rows, kind="stable")
    return rows[by_text], keys[by_text]


def key_string_order(keys: np.ndarray, width: int) -> np.ndarray:
    """An int64 per n-gram key, ordered as the n-grams' strings are.

    Each character becomes one base-(BASE + 1) digit, its code + 1, and a
    gram shorter than ``width`` is padded with zero digits, so that it
    comes before every gram it begins, as in Python's string order.
    ``width`` is at most ``MAX_ORDER`` and no key is of a higher order.
    """
    out = np.zeros(len(keys), dtype=np.int64)
    for n in range(1, width + 1):
        at = (keys >= KEY_START[n]) & (keys < KEY_START[n + 1])
        codes = keys[at] - KEY_START[n]
        for i in range(n):
            out[at] += (codes // BASE ** (n - 1 - i) % BASE + 1) * (BASE + 1) ** (width - 1 - i)
    return out


@dataclass(frozen=True, eq=False)
class CodeIndex:
    """The row of each of a set of distinct n-gram keys in 0..size-1.

    Keys below ``KEY_START[TABLE_MAX_ORDER + 1]`` (every gram of orders up
    to ``TABLE_MAX_ORDER``) index ``table``; the others binary-search
    ``ordered``, the sorted keys above them, whose rows are ``rows``.
    """

    size: int
    table: np.ndarray
    ordered: np.ndarray
    rows: np.ndarray

    @classmethod
    def build(cls, keys: np.ndarray, size: int) -> "CodeIndex":
        """Index of ``keys`` in 0..size-1, key i at row i.

        Raises ValueError if two keys are equal.
        """
        rows = np.argsort(keys)
        keys = keys[rows]
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("n-gram keys are not distinct")
        table = np.full(min(size, KEY_START[TABLE_MAX_ORDER + 1]), -1, dtype=np.int64)
        split = int(np.searchsorted(keys, len(table)))
        table[keys[:split]] = rows[:split]
        return cls(size, table, keys[split:], rows[split:])

    def rows_of(self, keys: np.ndarray) -> np.ndarray:
        """The row of each key in 0..size-1, -1 for a key not indexed."""
        if len(self.table) == self.size:  # the table holds every key
            return self.table[keys]
        out = np.full(len(keys), -1, dtype=np.int64)
        low = keys < len(self.table)
        out[low] = self.table[keys[low]]
        high = keys[~low]
        if len(self.ordered):
            # Searched in ascending order, the keys walk ``ordered`` from one
            # end to the other: on 228k order-4/5 keys against 542k fastText
            # keys (2-vCPU x86 machine) 23 ms with the sort instead of 73 ms.
            order = np.argsort(high)
            at = np.empty_like(order)
            at[order] = np.searchsorted(self.ordered, high[order])
            at = np.minimum(at, len(self.ordered) - 1)
            out[~low] = np.where(self.ordered[at] == high, self.rows[at], -1)
        return out


def word_tokenize(text: str) -> list[str]:
    """Split cleaned text on spaces, dropping empty tokens."""
    return [w for w in text.split(" ") if w]


@dataclass(frozen=True, eq=False)
class NgramVocabulary:
    """The n-grams of orders nmin..nmax a feature or model knows, by their keys.

    ``orders`` is (nmin, nmax) and ``keys[j]`` the :func:`gram_keys` key of
    column j's n-gram. Built from a corpus, the columns go by descending
    frequency, ties in the grams' string order, so construction is a pure
    function of the corpus. Construction checks that 1 <= nmin <= nmax <=
    ``MAX_ORDER`` and that ``keys`` is one 1-D int64 array of distinct keys
    of those orders, and raises ValueError otherwise.
    """

    orders: tuple[int, int]
    keys: np.ndarray

    def __post_init__(self):
        orders = self.orders
        if not (isinstance(orders, tuple) and len(orders) == 2
                and all(type(n) is int for n in orders)
                and 1 <= orders[0] <= orders[1] <= MAX_ORDER):
            raise ValueError(f"n-gram orders {orders!r} are not integers with "
                             f"1 <= nmin <= nmax <= {MAX_ORDER}")
        nmin, nmax = orders
        keys = self.keys
        if not isinstance(keys, np.ndarray) or keys.dtype != np.int64 or keys.ndim != 1:
            raise ValueError("n-gram keys are not one int64 array of rank 1")
        if keys.size and not KEY_START[nmin] <= keys.min() <= keys.max() < KEY_START[nmax + 1]:
            raise ValueError(f"n-gram keys are not keys of orders {nmin}..{nmax}")
        self._index  # indexes, and so checks that no key repeats, once

    @property
    def size(self) -> int:
        return len(self.keys)

    @cached_property
    def _index(self) -> CodeIndex:
        return CodeIndex.build(self.keys, KEY_START[self.orders[1] + 1])

    def columns(self, keys: np.ndarray) -> np.ndarray:
        """Column of each n-gram key, -1 out of vocabulary."""
        return self._index.rows_of(keys)


@dataclass(frozen=True)
class WordVocabulary:
    """Column j is ``words[j]``: as built, the most frequent word first,
    ties in string order."""

    words: tuple[str, ...]

    def __post_init__(self):
        if not set(map(type, self.words)) <= {str}:
            raise ValueError("word vocabulary holds an entry that is not a string")
        if len(self.column) != len(self.words):
            raise ValueError("word vocabulary lists a word twice")

    @property
    def size(self) -> int:
        return len(self.words)

    @cached_property
    def column(self) -> dict[str, int]:
        """Word -> column."""
        return {word: j for j, word in enumerate(self.words)}


#: The odd integer nearest 2**64 over the golden ratio (Weinberger et al.
#: 2009, "Feature Hashing for Large Scale Multitask Learning").
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def hash_keys(keys: np.ndarray, buckets: int) -> np.ndarray:
    """The bucket of each n-gram key: the top 32 bits of its product with
    ``_HASH_MULTIPLIER``, mod 2**64, taken mod ``buckets``."""
    return (keys.astype(np.uint64) * _HASH_MULTIPLIER >> 32).astype(np.int64) % buckets


@dataclass(frozen=True, eq=False)
class HashedVocabulary:
    """The n-grams of orders nmin..nmax, hashed into ``buckets`` buckets by
    :func:`hash_keys`: column j is bucket ``occupied[j]``, the occupied
    buckets ascending. Never saved; ``occupied`` must be distinct and
    ascend, as :func:`build_hashed_vocab` makes it."""

    orders: tuple[int, int]
    buckets: int
    occupied: np.ndarray

    @property
    def size(self) -> int:
        return len(self.occupied)

    @cached_property
    def _column_of(self) -> np.ndarray:
        """The column of every bucket, -1 for an unoccupied one."""
        table = np.full(self.buckets, -1, dtype=np.int64)
        table[self.occupied] = np.arange(self.size)
        return table

    def columns(self, keys: np.ndarray) -> np.ndarray:
        """Column of each n-gram key's bucket, -1 for an unoccupied one."""
        return self._column_of[hash_keys(keys, self.buckets)]


#: What every feature and model reads its text through.
Vocabulary = NgramVocabulary | HashedVocabulary | WordVocabulary


def texts_of(items: Iterable[Sentence | str]) -> list[str]:
    """The text of each sentence; strings pass as they are."""
    return [item if isinstance(item, str) else item.text for item in items]


def build_ngram_vocab(
    corpus: Iterable[Sentence], orders: tuple[int, int], cap: int | None = None
) -> NgramVocabulary:
    """The first ``cap`` n-grams of orders nmin..nmax of ``corpus`` by
    descending count, ties in string order."""
    _, keys = gram_keys(texts_of(corpus), *orders)
    unique, counts = np.unique(keys, return_counts=True)
    ranked = np.lexsort((key_string_order(unique, orders[1]), -counts))
    return NgramVocabulary(orders, unique[ranked][:cap])


def build_hashed_vocab(
    corpus: Iterable[Sentence | str], orders: tuple[int, int], buckets: int
) -> HashedVocabulary:
    """The buckets that the n-grams of orders nmin..nmax of ``corpus``
    occupy, marked ``BATCH_LINES`` texts at a time."""
    texts = texts_of(corpus)
    seen = np.zeros(buckets, dtype=bool)
    for start in range(0, len(texts), BATCH_LINES):
        seen[hash_keys(gram_keys(texts[start : start + BATCH_LINES], *orders)[1], buckets)] = True
    return HashedVocabulary(orders, buckets, np.flatnonzero(seen))


def build_word_vocab(
    corpus: Iterable[Sentence], cap: int | None = None
) -> WordVocabulary:
    counts: Counter = Counter()
    for sentence in corpus:
        counts.update(word_tokenize(sentence.text))
    return WordVocabulary(tuple(rank_words(counts)[:cap]))


def rank_words(counts: Counter) -> list[str]:
    """The words of ``counts`` by descending count, ties in string order."""
    words = sorted(counts)
    words.sort(key=counts.__getitem__, reverse=True)  # stable: ties keep string order
    return words


def ngram_hits(texts: list[str], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """(text index, column) of every in-vocabulary n-gram or word, text by
    text in :func:`gram_keys` or word order."""
    if not isinstance(vocab, WordVocabulary):
        rows, keys = gram_keys(texts, *vocab.orders)
        columns = vocab.columns(keys)
        found = columns >= 0
        return rows[found], columns[found]
    column = vocab.column
    hits = [[column[w] for w in word_tokenize(text) if w in column] for text in texts]
    rows = np.repeat(np.arange(len(texts)), [len(h) for h in hits])
    columns = np.fromiter(chain.from_iterable(hits), np.int64, len(rows))
    return rows, columns


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


#: Bytes of gathered rows that ``CsrMatrix @ W`` holds at a time. In one
#: pass, a 1024-line block of char1_5 n-grams against a fastText table of
#: the default width 100 gathered about 200 MB.
GATHER_BYTES = 4 * 2**20

#: ``count_matrix`` returns CSR when nnz/(n*d) is below this density and
#: a dense array otherwise. This rule shapes the designs that are scored
#: (``PipelineModel.scores``), projected (``reduce``) and fitted by the
#: mini-experiment; ``train`` fits on the smaller form instead
#: (:func:`compact_design`). Measured on the 4800-sentence synthetic
#: training set with one BLAS thread: at char3 (0.3% dense) CSR takes
#: 7 MB instead of 1 GB and one logistic-regression gradient 20 ms
#: instead of 400 ms. At char2 (6.5% dense) the dense form is faster where
#: a design is read once or a few times: PCA of a 300-line sample took
#: 34 ms dense against 59 ms on CSR, and a 128-wide MLP layer on a
#: 1024-line block 6 ms against 18 ms. 2% sits between.
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

    ndim = 2

    @classmethod
    def from_dense(cls, x: np.ndarray) -> "CsrMatrix":
        """The non-zeros of a dense 2-D array, read in place: no dense copy."""
        x = np.asarray(x, dtype=np.float64)
        rows, columns = np.nonzero(x)
        indptr = np.zeros(x.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=x.shape[0]), out=indptr[1:])
        return cls(x.shape, indptr, columns.astype(np.int64), x[rows, columns])

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

    def row_block(self, start: int, stop: int) -> "CsrMatrix":
        """Rows ``start:stop`` as a CSR matrix of views, no copy of the values."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return CsrMatrix((stop - start, self.shape[1]), self.indptr[start : stop + 1] - lo,
                         self.indices[lo:hi], self.data[lo:hi])

    def take(self, rows: np.ndarray) -> "CsrMatrix":
        """The rows at the indices ``rows``, repeats included, as CSR."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        sizes = self.indptr[rows + 1] - starts
        indptr = np.r_[0, np.cumsum(sizes)]
        at = np.repeat(starts - indptr[:-1], sizes) + np.arange(indptr[-1])
        return CsrMatrix((len(rows), self.shape[1]), indptr, self.indices[at], self.data[at])

    def row_sq_norms(self) -> np.ndarray:
        """Squared Euclidean norm of every row, from the stored values alone.

        A norm too large for a float64 is inf, without a warning.
        """
        with np.errstate(over="ignore"):
            squares = self.data**2
        return np.bincount(self._row_ids(), weights=squares, minlength=self.shape[0])

    def times_rows(self, block: np.ndarray, cells: int) -> np.ndarray:
        """``self @ block.T`` (n x m) for a dense m x d ``block``.

        The product goes over ranges of rows whose m x nnz terms stay
        within ``cells`` float64 values, or over one row at a time.
        """
        n = self.shape[0]
        out = np.empty((n, len(block)))
        terms = cells // max(len(block), 1)  # non-zeros per product
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(self.indptr, self.indptr[lo] + terms, "right"))
            hi = max(lo + 1, hi - 1)
            out[lo:hi] = self.row_block(lo, hi) @ block.T
            lo = hi
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._row_ids(), self.indices] = self.data
        return out

    def __getitem__(self, rows) -> np.ndarray:
        """Dense copies of the selected rows (an int or an index array)."""
        picked = np.asarray(np.arange(self.shape[0])[rows])
        return self.take(picked.ravel()).toarray().reshape(*picked.shape, self.shape[1])

    @cached_property
    def _by_column(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matrix column-major: (column pointers, row of each non-zero,
        its value), rows ascending within a column. Built on the first
        ``G @ X`` and kept for the next: logistic regression multiplies by
        the same design every step. The stable sort goes by 16-bit digits,
        which numpy radix-sorts: on 504k char3 non-zeros (2-vCPU x86
        machine) 4.4 ms, against 37 ms for a stable sort of the int64
        columns."""
        d = self.shape[1]
        order = np.argsort(self.indices.astype(np.uint16), kind="stable")
        for shift in range(16, max(d - 1, 1).bit_length(), 16):  # the higher digits, if any
            digits = (self.indices[order] >> shift).astype(np.uint16)
            order = order[np.argsort(digits, kind="stable")]
        indptr = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=d), out=indptr[1:])
        return indptr, self._row_ids()[order], self.data[order]

    def __matmul__(self, other) -> np.ndarray:
        """``X @ W`` for a dense W of shape (d,) or (d, k).

        A C-contiguous W is gathered a row per non-zero. Any other W, such
        as a model's narrow ``weights.T``, is transposed and gathered by
        column, 3x faster for a char3 block against 6-wide weights. Either
        way the product goes over runs of rows whose gathered values take
        about ``GATHER_BYTES``, and each row sums its own segment of them,
        so a row of X gets the same bits in any block of rows."""
        other = np.asarray(other, dtype=np.float64)
        if other.ndim not in (1, 2) or other.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        n = self.shape[0]
        by_row = other.flags.c_contiguous
        if by_row:
            out = np.zeros((n, *other.shape[1:]))
        else:
            wide = other[:, None] if other.ndim == 1 else other
            columns = np.ascontiguousarray(wide.T)  # k x d
            out = np.zeros((columns.shape[0], n))
        run = max(1, GATHER_BYTES * n // max(8 * self.nnz * other[:1].size, 1))
        for lo in range(0, n, run):
            block = self.row_block(lo, min(lo + run, n))
            filled = np.diff(block.indptr) > 0
            if not filled.any():
                continue
            starts = block.indptr[:-1][filled]  # a filled row's segment ends at the next one's
            if by_row:
                products = other[block.indices]  # nnz x k, or nnz
                products *= block.data if other.ndim == 1 else block.data[:, None]
                out[lo : lo + run][filled] = np.add.reduceat(products, starts, axis=0)
            else:
                products = np.take(columns, block.indices, axis=1)  # k x nnz
                products *= block.data
                out[:, lo : lo + run][:, filled] = np.add.reduceat(products, starts, axis=1)
            del products  # freed before the next run's are gathered
        return out if by_row else np.ascontiguousarray(out.T).reshape(n, *other.shape[1:])

    def __rmatmul__(self, other) -> np.ndarray:
        """``G @ X`` for a dense G of shape (n,) or (k, n).

        Reads the column-major copy: a range of columns, or one column,
        whose k x nnz gathered values of G take about ``GATHER_BYTES``
        gathers them at once, and each column sums its own segment."""
        other = np.asarray(other, dtype=np.float64)
        if other.ndim not in (1, 2) or other.shape[-1] != self.shape[0]:
            raise ValueError(f"cannot multiply {other.shape} by {self.shape}")
        lead = np.ascontiguousarray(other.reshape(-1, self.shape[0]))  # k x n
        indptr, rows, data = self._by_column
        d = self.shape[1]
        out = np.zeros((lead.shape[0], d))
        terms = max(1, GATHER_BYTES // (8 * max(lead.shape[0], 1)))  # non-zeros per range
        lo = 0
        while lo < d:
            hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + terms, "right")) - 1)
            filled = np.diff(indptr[lo : hi + 1]) > 0
            if filled.any():
                first, last = indptr[lo], indptr[hi]
                products = np.take(lead, rows[first:last], axis=1)  # k x nnz
                products *= data[first:last]
                out[:, lo:hi][:, filled] = np.add.reduceat(
                    products, indptr[lo:hi][filled] - first, axis=1)
                del products  # freed before the next range's are gathered
            lo = hi
        return out.reshape(*other.shape[:-1], d)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero and len(args) == 1 and args[0] is self and not kwargs:
            return int(np.count_nonzero(self.data))
        return NotImplemented


def compact_design(x: np.ndarray | CsrMatrix) -> np.ndarray | CsrMatrix:
    """A design matrix in the smaller of its two forms, as ``train`` fits
    it: a CSR matrix stays CSR while its arrays take fewer bytes than the
    dense array would (16 B per non-zero against 8 B per cell, so below
    50% density); a dense one stays as it is. At 10k sentences per class
    the char2 design (4.9% dense) takes 56 MB as CSR against 566 MB
    dense; char1 (about 68% dense) stays dense."""
    return x.toarray() if isinstance(x, CsrMatrix) and x.nbytes >= 8 * x.size else x


def design_array(x) -> np.ndarray | CsrMatrix:
    """A CSR matrix as it is; anything else as a float64 ndarray."""
    return x if isinstance(x, CsrMatrix) else np.asarray(x, dtype=np.float64)


def as_csr(x) -> CsrMatrix:
    """A design matrix as CSR: a CSR matrix as it is, a dense one from its non-zeros."""
    return x if isinstance(x, CsrMatrix) else CsrMatrix.from_dense(x)


def to_dense(x) -> np.ndarray:
    """A design matrix as a dense float64 ndarray."""
    return x.toarray() if isinstance(x, CsrMatrix) else np.asarray(x, dtype=np.float64)


#: Texts whose n-gram hits are taken at a time, by :func:`count_matrix`
#: and by the scoring of a batch of lines, so that neither holds the
#: keys of a whole corpus at once. On the 4800-sentence synthetic
#: training set, char1_5 counts peaked at 158 MiB in blocks of 1024
#: against 181 MiB in one pass; a dense char2 block takes 11 MB.
BATCH_LINES = 1024


def count_matrix(
    sentences: Iterable[Sentence | str],
    vocab: Vocabulary,
    normalize: bool = False,
    sparse: bool = False,
) -> np.ndarray | CsrMatrix:
    """Design matrix of n-gram or word counts, one row per sentence.

    Takes sentences or cleaned strings, ``BATCH_LINES`` at a time.
    Out-of-vocabulary n-grams are ignored, and a text with none in the
    vocabulary gives a zero row. With ``normalize`` each row is divided
    by its number of in-vocabulary n-grams. The result is a
    :class:`CsrMatrix` when ``sparse`` is set or its density nnz/(n*d)
    is below ``SPARSE_DENSITY``, and a dense float64 array otherwise.
    """
    texts = texts_of(sentences)
    d = vocab.size
    ends, indices, data = [np.zeros(1, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for start in range(0, len(texts), BATCH_LINES):
        block = texts[start : start + BATCH_LINES]
        rows, columns = ngram_hits(block, vocab)
        cells, counts = np.unique(rows * d + columns, return_counts=True)
        lengths = np.bincount(cells // max(d, 1), minlength=len(block))
        ends.append(ends[-1][-1] + np.cumsum(lengths))
        indices.append(cells % max(d, 1))
        data.append(counts / np.repeat(np.bincount(rows, minlength=len(block)), lengths)
                    if normalize else counts.astype(np.float64))
    matrix = CsrMatrix((len(texts), d), *map(np.concatenate, (ends, indices, data)))
    if sparse or (matrix.size and matrix.nnz / matrix.size < SPARSE_DENSITY):
        return matrix
    return matrix.toarray()


def label_indices(sentences: Iterable[Sentence]) -> np.ndarray:
    return np.array([LABEL_INDEX[s.label] for s in sentences], dtype=np.int64)


def one_hot(y: np.ndarray) -> np.ndarray:
    """n x 6 indicator rows of label indices."""
    out = np.zeros((len(y), N_CLASSES))
    out[np.arange(len(y)), y] = 1.0
    return out


def cross_entropy(posterior: np.ndarray, y: np.ndarray) -> float:
    """-ln posterior[i, y[i]], averaged over the rows; posteriors clamped at 1e-12."""
    posterior = np.asarray(posterior, dtype=np.float64)
    picked = np.clip(posterior[np.arange(posterior.shape[0]), y], 1e-12, None)
    return float(-np.log(picked).mean())


def check_learning_rate(learning_rate: float) -> None:
    """Raise ValueError unless the learning rate is finite and > 0 (NaN is not)."""
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning rate must be finite and > 0, got {learning_rate}")


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, each row shifted by its maximum."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
