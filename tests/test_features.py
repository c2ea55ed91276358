"""N-gram extraction, vocabularies, vectorization, and char profiles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nordlid.corpus import ALPHABET, LABELS, Sentence, clean_sentence
from nordlid.features import (
    CHARSET_INDEX,
    build_ngram_vocab,
    build_word_vocab,
    char_frequency_profile,
    count_matrix,
    extract_char_ngrams,
    vectorize,
    vectorize_bow,
    word_tokenize,
)

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


class TestNgramVocabulary:
    def test_single_entry(self):
        vocab = build_ngram_vocab(_sentences(["ab"]), 2)
        assert vocab.size == 1
        assert vocab.entries == {"ab": 0}

    def test_unigram_vocab_at_most_40(self):
        corpus = _sentences([GOLDEN_CLEAN, "þórður er maður", "aha"])
        assert build_ngram_vocab(corpus, 1).size <= 40

    def test_frequency_then_lexicographic(self):
        # 'ab' occurs twice ('aab','aba'); 'aa' and 'ba' once each
        vocab = build_ngram_vocab(_sentences(["aab", "aba"]), 2)
        assert vocab.entries == {"ab": 0, "aa": 1, "ba": 2}

    def test_cap_keeps_most_frequent(self):
        vocab = build_ngram_vocab(_sentences(["aab", "aba"]), 2, cap=1)
        assert vocab.entries == {"ab": 0}

    @given(st.lists(clean_text, min_size=1, max_size=8))
    def test_deterministic(self, texts):
        a = build_ngram_vocab(_sentences(texts), 2)
        b = build_ngram_vocab(_sentences(texts), 2)
        assert a.entries == b.entries


class TestWordVocabulary:
    def test_most_frequent_gets_rank_one(self):
        corpus = _sentences(["i og er i", "i og", "er i"])
        vocab = build_word_vocab(corpus)
        assert vocab.entries["i"] == 1

    def test_single_sentence(self):
        vocab = build_word_vocab(_sentences(["a b a"]))
        assert vocab.entries == {"a": 1, "b": 2}

    def test_tie_broken_lexicographically(self):
        vocab = build_word_vocab(_sentences(["b a", "a b"]))
        assert vocab.entries == {"a": 1, "b": 2}

    def test_index_is_rank_minus_one(self):
        vocab = build_word_vocab(_sentences(["a b a"]))
        assert vocab.index("a") == 0
        assert vocab.index("b") == 1
        assert vocab.index("zz") is None


class TestVectorize:
    def test_empty_text_zero_vector(self):
        vocab = build_ngram_vocab(_sentences(["ab"]), 2)
        assert vectorize("", vocab).entries == {}

    def test_counts(self):
        vocab = build_ngram_vocab(_sentences(["ab", "ba"]), 2)
        fv = vectorize("aba", vocab)
        dense = fv.to_dense()
        assert dense[vocab.entries["ab"]] == 1
        assert dense[vocab.entries["ba"]] == 1

    def test_normalized(self):
        vocab = build_ngram_vocab(_sentences(["ab", "ba"]), 2)
        fv = vectorize("aba", vocab, normalize=True)
        assert fv.entries[vocab.entries["ab"]] == pytest.approx(0.5)
        assert fv.entries[vocab.entries["ba"]] == pytest.approx(0.5)

    def test_oov_ignored(self):
        vocab = build_ngram_vocab(_sentences(["ab"]), 2)
        fv = vectorize("xyz ab", vocab)
        assert sum(fv.entries.values()) == 1

    @given(clean_text)
    def test_counts_match_brute_force(self, text):
        corpus = _sentences([text or "ab", "hej med dig"])
        vocab = build_ngram_vocab(corpus, 2)
        fv = vectorize(text, vocab)
        for gram, index in vocab.entries.items():
            expected = sum(
                1 for i in range(len(text) - 1) if text[i : i + 2] == gram
            )
            assert fv.entries.get(index, 0) == expected

    @given(clean_text)
    def test_normalized_sums_to_one(self, text):
        corpus = _sentences([text or "ab", "hej"])
        vocab = build_ngram_vocab(corpus, 2)
        fv = vectorize(text, vocab, normalize=True)
        if fv.entries:
            assert sum(fv.entries.values()) == pytest.approx(1.0, abs=1e-9)

    def test_all_indices_below_dim(self):
        vocab = build_ngram_vocab(_sentences(["hej med dig"]), 2)
        fv = vectorize("hej", vocab)
        assert all(i < fv.dim for i in fv.entries)


class TestVectorizeBow:
    def test_counts_words(self):
        vocab = build_word_vocab(_sentences(["a b a"]))
        fv = vectorize_bow("a a b", vocab)
        assert fv.to_dense().tolist() == [2.0, 1.0]


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


def test_count_matrix_matches_vectorize():
    corpus = _sentences(["hej med", "dig der", "hej hej"])
    vocab = build_ngram_vocab(corpus, 2)
    matrix = count_matrix(corpus, vocab, normalize=False)
    for row, sentence in zip(matrix, corpus):
        assert np.array_equal(row, vectorize(sentence.text, vocab).to_dense())


def test_charset_index_covers_alphabet_in_order():
    assert len(CHARSET_INDEX) == 40
    assert CHARSET_INDEX["a"] == 0
    assert CHARSET_INDEX[" "] == 39
    assert clean_sentence("".join(CHARSET_INDEX)) == "".join(CHARSET_INDEX).lstrip()
