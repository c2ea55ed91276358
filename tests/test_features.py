"""N-gram extraction, vocabularies, count rows, and char profiles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nordlid.corpus import ALPHABET, LABELS, Sentence, clean_sentence
from nordlid.features import (
    BASE,
    CHARSET_INDEX,
    CODE_ORDER,
    CsrMatrix,
    HashedVocabulary,
    NgramVocabulary,
    WordVocabulary,
    build_hashed_vocab,
    build_ngram_vocab,
    build_word_vocab,
    char_codes,
    char_frequency_profile,
    KEY_START,
    MAX_ORDER,
    count_matrix,
    gram_codes,
    gram_keys,
    key_string_order,
    ngram_hits,
    to_dense,
    word_tokenize,
)


def extract_char_ngrams(text: str, n: int) -> list[str]:
    """All width-n windows of ``text`` (spaces included), left to right: the
    string reference for the package's integer gram codes."""
    if n < 1:
        raise ValueError(f"gram order must be >= 1, got {n}")
    return [text[i : i + n] for i in range(len(text) - n + 1)]


GOLDEN_CLEAN = (
    "hesbjerg er dannet ved sammenlægning af de gårde "
    "store hesbjerg og lille hesbjerg i "
)

# Leading bigrams of the cleaned example sentence, as published.
GOLDEN_BIGRAM_PREFIX = [
    "he", "es", "sb", "bj", "je", "er", "rg", "g ",
    " e", "er", "r ", " d", "da", "an", "nn", "ne",
    "et", "t ", " v", "ve", "ed", "d ", " s", "sa",
    "am", "mm", "me", "en", "nl", "læ", "æg", "gn",
    "ni", "in", "ng", "g ", " a",
]

GOLDEN_WORDS = [
    "hesbjerg", "er", "dannet", "ved", "sammenlægning", "af", "de",
    "gårde", "store", "hesbjerg", "og", "lille", "hesbjerg", "i",
]

clean_text = st.text(alphabet=ALPHABET, max_size=80)


class TestExtractCharNgrams:
    def test_golden_bigram_prefix(self):
        grams = extract_char_ngrams(GOLDEN_CLEAN, 2)
        assert grams[: len(GOLDEN_BIGRAM_PREFIX)] == GOLDEN_BIGRAM_PREFIX

    def test_window_exceeds_length(self):
        assert extract_char_ngrams("a", 2) == []

    def test_small_case(self):
        assert extract_char_ngrams("aba", 2) == ["ab", "ba"]

    @given(clean_text, st.integers(1, 5))
    def test_count_formula(self, text, n):
        assert len(extract_char_ngrams(text, n)) == max(0, len(text) - n + 1)

    @given(clean_text, st.integers(1, 3))
    def test_each_gram_has_width_n(self, text, n):
        assert all(len(g) == n for g in extract_char_ngrams(text, n))

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            extract_char_ngrams("abc", 0)


class TestWordTokenize:
    def test_golden_words(self):
        assert word_tokenize(GOLDEN_CLEAN) == GOLDEN_WORDS

    def test_empty(self):
        assert word_tokenize("") == []

    def test_defensive_double_space(self):
        assert word_tokenize("a  b") == ["a", "b"]


def _sentences(texts: list[str], label: str = "dk") -> list[Sentence]:
    return [Sentence(t, label) for t in texts]


def int64s(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def gram_string(code: int, n: int) -> str:
    """The n-gram of a code, read digit by digit as the module docstring defines it."""
    return "".join(CODE_ORDER[code // BASE ** (n - 1 - i) % BASE] for i in range(n))


def entries(vocab: NgramVocabulary) -> dict[str, int]:
    """Each n-gram of a single-order ``vocab`` and its column."""
    n = vocab.orders[0]
    return {gram_string(key - KEY_START[n], n): j for j, key in enumerate(vocab.keys.tolist())}


class TestNgramVocabulary:
    def test_single_entry(self):
        vocab = build_ngram_vocab(_sentences(["ab"]), (2, 2))
        assert vocab.size == 1
        assert entries(vocab) == {"ab": 0}

    def test_unigram_vocab_at_most_40(self):
        corpus = _sentences([GOLDEN_CLEAN, "þórður er maður", "aha"])
        assert build_ngram_vocab(corpus, (1, 1)).size <= 40

    def test_frequency_then_lexicographic(self):
        # 'ab' occurs twice ('aab','aba'); 'aa' and 'ba' once each
        vocab = build_ngram_vocab(_sentences(["aab", "aba"]), (2, 2))
        assert entries(vocab) == {"ab": 0, "aa": 1, "ba": 2}

    def test_cap_keeps_most_frequent(self):
        vocab = build_ngram_vocab(_sentences(["aab", "aba"]), (2, 2), cap=1)
        assert entries(vocab) == {"ab": 0}

    @given(st.lists(clean_text, min_size=1, max_size=8))
    def test_deterministic(self, texts):
        a = build_ngram_vocab(_sentences(texts), (2, 2))
        b = build_ngram_vocab(_sentences(texts), (2, 2))
        assert a.orders == b.orders and a.keys.tobytes() == b.keys.tobytes()


class TestWordVocabulary:
    def test_most_frequent_gets_rank_one(self):
        corpus = _sentences(["i og er i", "i og", "er i"])
        vocab = build_word_vocab(corpus)
        assert vocab.words[0] == "i"

    def test_single_sentence(self):
        vocab = build_word_vocab(_sentences(["a b a"]))
        assert vocab.words == ("a", "b")

    def test_tie_broken_lexicographically(self):
        vocab = build_word_vocab(_sentences(["b a", "a b"]))
        assert vocab.words == ("a", "b")

    def test_index_is_rank_minus_one(self):
        vocab = build_word_vocab(_sentences(["a b a"]))
        assert vocab.column == {"a": 0, "b": 1}
        assert "zz" not in vocab.column


def vectorize(text, vocab, normalize=False) -> np.ndarray:
    """The count_matrix row of one text."""
    x = count_matrix([text], vocab, normalize)
    assert x.shape == (1, vocab.size)
    return to_dense(x)[0]


class TestVectorize:
    def test_empty_text_zero_vector(self):
        vocab = build_ngram_vocab(_sentences(["ab"]), (2, 2))
        assert not vectorize("", vocab).any()

    def test_counts(self):
        vocab = build_ngram_vocab(_sentences(["ab", "ba"]), (2, 2))
        dense = vectorize("aba", vocab)
        assert dense[entries(vocab)["ab"]] == 1
        assert dense[entries(vocab)["ba"]] == 1

    def test_normalized(self):
        vocab = build_ngram_vocab(_sentences(["ab", "ba"]), (2, 2))
        dense = vectorize("aba", vocab, normalize=True)
        assert dense[entries(vocab)["ab"]] == pytest.approx(0.5)
        assert dense[entries(vocab)["ba"]] == pytest.approx(0.5)

    def test_oov_ignored(self):
        vocab = build_ngram_vocab(_sentences(["ab"]), (2, 2))
        assert vectorize("xyz ab", vocab).sum() == 1

    @given(clean_text)
    def test_counts_match_brute_force(self, text):
        corpus = _sentences([text or "ab", "hej med dig"])
        vocab = build_ngram_vocab(corpus, (2, 2))
        dense = vectorize(text, vocab)
        for gram, index in entries(vocab).items():
            expected = sum(
                1 for i in range(len(text) - 1) if text[i : i + 2] == gram
            )
            assert dense[index] == expected

    @given(clean_text)
    def test_normalized_sums_to_one(self, text):
        corpus = _sentences([text or "ab", "hej"])
        vocab = build_ngram_vocab(corpus, (2, 2))
        dense = vectorize(text, vocab, normalize=True)
        if dense.any():
            assert dense.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_indices_below_dim(self):
        vocab = build_ngram_vocab(_sentences(["hej med dig"]), (2, 2))
        assert vectorize("hej", vocab).shape == (vocab.size,)


class TestVectorizeBow:
    def test_counts_words(self):
        vocab = build_word_vocab(_sentences(["a b a"]))
        assert vectorize("a a b", vocab).tolist() == [2.0, 1.0]


class TestCharProfile:
    def test_simple_counts(self):
        pools = {"dk": [Sentence("ab ", "dk")]}
        profile = char_frequency_profile(pools)
        assert profile.raw[0, CHARSET_INDEX["a"]] == 1
        assert profile.raw[0, CHARSET_INDEX["b"]] == 1
        assert profile.raw[0, CHARSET_INDEX[" "]] == 1

    def test_exclusive_char_normalizes_to_one(self):
        pools = {
            "is": [Sentence("þaþ", "is")],
            "dk": [Sentence("ab", "dk")],
        }
        profile = char_frequency_profile(pools)
        k_is = LABELS.index("is")
        assert profile.normalized[k_is, CHARSET_INDEX["þ"]] == 1.0

    def test_constructed_thorn_exclusivity(self):
        pools = {
            "is": [Sentence("þór er þar", "is")],
            "dk": [Sentence("hej med dig", "dk")],
            "sv": [Sentence("hej du", "sv")],
        }
        profile = char_frequency_profile(pools)
        thorn = CHARSET_INDEX["þ"]
        for k, code in enumerate(LABELS):
            if code != "is":
                assert profile.raw[k, thorn] == 0

    def test_normalized_columns_sum_to_one_when_seen(self):
        pools = {
            "dk": [Sentence("abc", "dk")],
            "sv": [Sentence("abd", "sv")],
        }
        profile = char_frequency_profile(pools)
        sums = profile.normalized.sum(axis=0)
        seen = profile.raw.sum(axis=0) > 0
        assert np.allclose(sums[seen], 1.0)
        assert np.all(sums[~seen] == 0.0)


def reference_vocab(texts, n, cap=None) -> dict[str, int]:
    """N-gram vocabulary by Counter: descending count, ties in string order."""
    counts = Counter(g for t in texts for g in extract_char_ngrams(t, n))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
    return {gram: i for i, (gram, _) in enumerate(ranked)}


def reference_csr(texts, entries, n, normalize):
    """CSR arrays of per-text Counter rows, columns ascending."""
    indptr, indices, data = [0], [], []
    for text in texts:
        hits = [entries[g] for g in extract_char_ngrams(text, n) if g in entries]
        row = Counter(hits)
        for column in sorted(row):
            indices.append(column)
            data.append(row[column] / len(hits) if normalize else float(row[column]))
        indptr.append(len(indices))
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(data, dtype=np.float64))


def csr_arrays(x):
    """(indptr, indices, data) of a CSR or dense count matrix."""
    if isinstance(x, CsrMatrix):
        return x.indptr, x.indices, x.data
    rows, columns = np.nonzero(x)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=x.shape[0]))])
    return indptr.astype(np.int64), columns.astype(np.int64), x[rows, columns]


@pytest.mark.parametrize("n", [1, 2])
def test_count_matrix_sparse_on_request(n):
    corpus = _sentences(["hej med", "dig der", "hej hej", ""])
    vocab = build_ngram_vocab(corpus, (n, n))
    dense = count_matrix(corpus, vocab, normalize=True)
    sparse = count_matrix(corpus, vocab, normalize=True, sparse=True)
    assert not isinstance(dense, CsrMatrix) and isinstance(sparse, CsrMatrix)
    for got, want in zip(csr_arrays(sparse), csr_arrays(dense)):
        assert got.tobytes() == want.tobytes()


def test_count_matrix_matches_vectorize():
    corpus = _sentences(["hej med", "dig der", "hej hej"])
    vocab = build_ngram_vocab(corpus, (2, 2))
    matrix = count_matrix(corpus, vocab, normalize=False)
    expected = reference_csr([s.text for s in corpus], entries(vocab), 2, False)
    for got, want in zip(csr_arrays(matrix), expected):
        assert np.array_equal(got, want)


# Few distinct characters, the space among them, so that frequency ties
# and n-grams holding spaces are common.
tie_text = st.text(alphabet="ab þ", max_size=12)


class TestArrayFeaturizer:
    """The integer-coded featurizer against the Counter reference above."""

    @given(st.lists(st.one_of(tie_text, clean_text), max_size=10), st.integers(1, 3),
           st.sampled_from([None, 0, 3]))
    @settings(max_examples=150, deadline=None)
    def test_vocab_order(self, texts, n, cap):
        vocab = build_ngram_vocab(_sentences(texts), (n, n), cap=cap)
        assert list(entries(vocab).items()) == list(reference_vocab(texts, n, cap).items())

    @given(st.lists(st.one_of(tie_text, clean_text), max_size=10),
           st.lists(st.one_of(tie_text, clean_text), max_size=6),
           st.integers(1, 3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_csr_arrays_bit_for_bit(self, train, queries, n, normalize):
        vocab = build_ngram_vocab(_sentences(train), (n, n))
        x = count_matrix(queries, vocab, normalize)
        assert x.shape == (len(queries), vocab.size)
        expected = reference_csr(queries, entries(vocab), n, normalize)
        for got, want in zip(csr_arrays(x), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @given(st.lists(clean_text, max_size=6), st.integers(1, 5))
    def test_codes_sort_as_strings(self, texts, n):
        rows, grams = gram_codes(texts, n)
        expected = [(r, g) for r, t in enumerate(texts) for g in extract_char_ngrams(t, n)]
        assert [(r, gram_string(g, n)) for r, g in zip(rows.tolist(), grams.tolist())] == expected
        order = sorted(range(len(grams)), key=lambda i: grams[i])
        assert [expected[i][1] for i in order] == sorted(g for _, g in expected)

    @given(st.lists(st.one_of(tie_text, clean_text), max_size=6), st.integers(1, 5),
           st.integers(0, 3))
    def test_keys_list_every_order_text_by_text(self, texts, nmin, extra):
        nmax = min(nmin + extra, 5)
        rows, keys = gram_keys(texts, nmin, nmax)
        expected = [(r, g) for r, t in enumerate(texts) for n in range(nmin, nmax + 1)
                    for g in extract_char_ngrams(t, n)]
        grams = []
        for key in keys.tolist():
            n = max(m for m in range(1, 6) if KEY_START[m] <= key)
            grams.append(gram_string(key - KEY_START[n], n))
        assert list(zip(rows.tolist(), grams)) == expected
        order = np.argsort(key_string_order(keys, nmax), kind="stable")
        assert [grams[i] for i in order] == sorted(grams)

    def test_key_start_counts_the_lower_orders(self):
        assert KEY_START[1:4] == [0, 40, 40 + 40**2]
        assert KEY_START[-1] < 2**63

    def test_space_sorts_first(self):
        assert CODE_ORDER[0] == " " and CODE_ORDER == "".join(sorted(ALPHABET))
        assert char_codes(" a").tolist() == [0, 1]

    @pytest.mark.parametrize("text", ["Hej", "hej!", "snö\t", "ǅ"])
    def test_out_of_alphabet_character_raises(self, text):
        with pytest.raises(ValueError):
            char_codes(text)
        with pytest.raises(ValueError):
            count_matrix([text], build_ngram_vocab(_sentences(["hej"]), (1, 1)))

    @pytest.mark.parametrize("n", [4, 5])
    def test_high_orders_search_the_vocabulary(self, n):
        texts = ["hej med dig og så videre", "", "abc", "med dig"]
        vocab = build_ngram_vocab(_sentences(texts[:1]), (n, n))
        assert list(entries(vocab).items()) == list(reference_vocab(texts[:1], n).items())
        expected = reference_csr(texts, entries(vocab), n, False)
        for got, want in zip(csr_arrays(count_matrix(texts, vocab)), expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "orders, keys",
        [((2, 2), int64s(40, KEY_START[3])), ((2, 2), int64s(-1, 40)), ((2, 2), int64s(43, 41, 43)),
         ((2, 2), np.array([40.0, 41.0])), ((2, 2), int64s(40, 41).reshape(1, 2)),
         ((2, 2), [40, 41]), ((0, 0), int64s()), ((MAX_ORDER + 1,) * 2, int64s(1)),
         ((2.0, 2.0), int64s(40))],
        ids=["wrong-width", "negative", "repeated", "float", "two-d", "list", "order-0",
             "order-12", "order-float"],
    )
    def test_malformed_vocabulary_rejected_on_construction(self, orders, keys):
        """Keys of a wider gram (KEY_START[n + 1] and up), negative or
        repeated keys, keys that are not one 1-D int64 array, and orders
        outside 1..11."""
        with pytest.raises(ValueError):
            NgramVocabulary(orders, keys)

    def test_vocabulary_of_every_order_accepts_its_highest_code(self):
        for n in range(1, MAX_ORDER + 1):
            first, last = KEY_START[n], KEY_START[n + 1] - 1
            vocab = NgramVocabulary((n, n), np.array([last, first], dtype=np.int64))
            assert vocab.columns(np.array([first, last, first + 1])).tolist() == [1, 0, -1]

    @pytest.mark.parametrize("entries", [
        ("ab", 5), ("ab", "ba", "ab"), (["ab"], "ba"),
    ])
    def test_malformed_word_vocabulary_rejected_on_construction(self, entries):
        with pytest.raises(ValueError):
            WordVocabulary(entries)


def test_charset_index_covers_alphabet_in_order():
    assert len(CHARSET_INDEX) == 40
    assert CHARSET_INDEX["a"] == 0
    assert CHARSET_INDEX[" "] == 39
    assert clean_sentence("".join(CHARSET_INDEX)) == "".join(CHARSET_INDEX).lstrip()


# ---------------------------------------------------------------------------
# The hashed vocabulary against a pure-Python reference
# ---------------------------------------------------------------------------


def python_bucket(gram: str, buckets: int) -> int:
    """A gram's bucket with Python integers: its key (the grams of the lower
    orders, then its base-40 code in code-point order), times the golden
    ratio multiplier mod 2**64, top 32 bits, mod ``buckets``."""
    code = 0
    for ch in gram:
        code = code * 40 + sorted(ALPHABET).index(ch)
    key = sum(40**m for m in range(1, len(gram))) + code
    return (key * 0x9E3779B97F4A7C15 % 2**64 >> 32) % buckets


def python_grams(text: str, orders) -> list[str]:
    return [g for n in range(orders[0], orders[1] + 1) for g in extract_char_ngrams(text, n)]


def python_hits(texts, orders, buckets, occupied) -> list[tuple[int, int]]:
    """(text, column) of every gram whose bucket is occupied, text by text,
    the column being the bucket's rank among the occupied buckets."""
    rank = {b: j for j, b in enumerate(occupied)}
    return [(i, rank[b]) for i, text in enumerate(texts)
            for b in (python_bucket(g, buckets) for g in python_grams(text, orders)) if b in rank]


class TestHashedVocabulary:
    @given(texts=st.lists(st.text(ALPHABET, max_size=15), min_size=1, max_size=6),
           queries=st.lists(st.text(ALPHABET, max_size=15), max_size=4),
           orders=st.sampled_from([(1, 1), (2, 3), (3, 6), (1, 5)]),
           buckets=st.sampled_from([1, 2, 97, 1 << 20]))
    @settings(max_examples=150, deadline=None)
    def test_hits_and_counts_equal_python_reference(self, texts, queries, orders, buckets):
        """Built from ``texts`` and read on them and on ``queries``, whose
        grams may fall in unoccupied buckets, plus an empty text."""
        vocab = build_hashed_vocab(texts, orders, buckets)
        occupied = sorted({python_bucket(g, buckets) for t in texts for g in python_grams(t, orders)})
        assert vocab.occupied.dtype == np.int64 and vocab.occupied.tolist() == occupied
        lines = texts + queries + [""]
        hits = python_hits(lines, orders, buckets, occupied)
        rows, columns = ngram_hits(lines, vocab)
        assert list(zip(rows.tolist(), columns.tolist())) == hits
        dense = np.zeros((len(lines), len(occupied)))
        for i, j in hits:
            dense[i, j] += 1
        assert np.array_equal(to_dense(count_matrix(lines, vocab)), dense)

    def test_unoccupied_bucket_gives_minus_one_and_a_zero_row(self):
        grams = sorted(ALPHABET)
        buckets = [python_bucket(g, 97) for g in grams]
        occupied = sorted(set(buckets[:20]))
        vocab = HashedVocabulary((1, 1), 97, np.array(occupied, dtype=np.int64))
        expected = [occupied.index(b) if b in occupied else -1 for b in buckets]
        assert -1 in expected
        _, keys = gram_keys(grams, 1, 1)
        assert vocab.columns(keys).tolist() == expected
        unseen = "".join(g for g, b in zip(grams, buckets) if b not in occupied)
        x = to_dense(count_matrix([unseen, "", grams[0]], vocab))
        assert x.shape == (3, len(occupied)) and not x[:2].any() and x[2].sum() == 1

