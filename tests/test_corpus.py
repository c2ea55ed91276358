"""Cleaning, splitting, sampling, and ingestion behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nordlid.corpus import (
    ALPHABET,
    LABELS,
    Dataset,
    Sentence,
    clean_sentence,
    extract_sentences,
    ingest_raw_dir,
    ingest_tatoeba,
    load_dataset_tsv,
    save_dataset_tsv,
    stratified_sample,
    train_test_split,
)
from nordlid.errors import (
    InsufficientData,
    InvalidRatio,
    InvalidUtf8,
    MalformedRow,
    MissingLabelFile,
)

GOLDEN_RAW = (
    "Hesbjerg er dannet ved sammenlægning af de 2 gårde "
    "Store Hesbjerg og Lille Hesbjerg i 1822."
)
GOLDEN_CLEAN = (
    "hesbjerg er dannet ved sammenlægning af de gårde "
    "store hesbjerg og lille hesbjerg i "
)


class TestCleanSentence:
    def test_golden_example(self):
        assert clean_sentence(GOLDEN_RAW) == GOLDEN_CLEAN

    def test_empty(self):
        assert clean_sentence("") == ""

    def test_digits_become_single_trailing_space(self):
        assert clean_sentence("ABC123") == "abc "

    def test_uppercase_icelandic_letters(self):
        assert clean_sentence("Þórður og Ðe") == "þórður og ðe"

    @given(st.text(max_size=200))
    def test_idempotent(self, s):
        once = clean_sentence(s)
        assert clean_sentence(once) == once

    @given(st.text(max_size=200))
    def test_charset_closure(self, s):
        assert set(clean_sentence(s)) <= set(ALPHABET)

    @given(st.text(max_size=200))
    def test_no_leading_space_no_double_space(self, s):
        out = clean_sentence(s)
        assert not out.startswith(" ")
        assert "  " not in out

    @given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from("İßẞKΣ\t Åa")),
                   max_size=60))
    @settings(max_examples=500)
    def test_equals_character_by_character_reference(self, s):
        assert clean_sentence(s) == reference_clean(s)

    @pytest.mark.parametrize("raw", ["İstanbul", "Straße ẞ", "tab\there", "\t\tx\t", "ǅemal"])
    def test_reference_edge_cases(self, raw):
        assert clean_sentence(raw) == reference_clean(raw)


def reference_clean(s: str) -> str:
    """Cleaning one character at a time: lowercase, map every character
    off the alphabet to a space, collapse space runs, strip leading spaces."""
    replaced = "".join(c if c in ALPHABET else " " for c in s.lower())
    while "  " in replaced:
        replaced = replaced.replace("  ", " ")
    return replaced.lstrip(" ")


class TestExtractSentences:
    def test_empty(self):
        assert extract_sentences("") == []

    def test_linebreaks_and_terminals(self):
        assert extract_sentences("A b. C d!\nE f") == ["A b.", "C d!", "E f"]

    def test_abbreviation_guard(self):
        got = extract_sentences("Han kom ca. kl. fem. Det var sent.")
        assert got == ["Han kom ca. kl. fem.", "Det var sent."]

    def test_abbreviation_prefix_of_longer_word_still_splits(self):
        # "fca." ends with the guard "ca." but belongs to another word
        assert extract_sentences("Ordet fca. Det var.") == ["Ordet fca.", "Det var."]

    def test_question_and_exclamation(self):
        assert extract_sentences("Hvad? Ja! Nej") == ["Hvad?", "Ja!", "Nej"]


def _pools(counts: dict[str, int]) -> dict[str, list[Sentence]]:
    return {
        code: [Sentence(f"{code} sentence {i}", code) for i in range(n)]
        for code, n in counts.items()
    }


class TestStratifiedSample:
    def test_identity_when_pool_equals_n(self):
        pools = _pools({code: 5 for code in LABELS})
        ds = stratified_sample(pools, 5, seed=1)
        assert ds.per_class_count == {code: 5 for code in LABELS}
        assert set(ds.sentences) == {s for pool in pools.values() for s in pool}

    def test_determinism(self):
        pools = _pools({code: 100 for code in LABELS})
        a = stratified_sample(pools, 10, seed=42)
        b = stratified_sample(pools, 10, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        pools = _pools({code: 100 for code in LABELS})
        assert stratified_sample(pools, 10, 1) != stratified_sample(pools, 10, 2)

    def test_insufficient_data(self):
        pools = _pools({code: 10 for code in LABELS})
        pools["dk"] = pools["dk"][:3]
        with pytest.raises(InsufficientData) as err:
            stratified_sample(pools, 5, seed=0)
        assert err.value.label == "dk"
        assert err.value.available == 3
        assert err.value.requested == 5


class TestTrainTestSplit:
    def test_eighty_twenty(self):
        ds = stratified_sample(_pools({c: 10 for c in LABELS}), 10, 0)
        train, test = train_test_split(ds, 0.8, seed=7)
        assert train.per_class_count == {c: 8 for c in LABELS}
        assert test.per_class_count == {c: 2 for c in LABELS}

    def test_disjoint_and_complete(self):
        ds = stratified_sample(_pools({c: 10 for c in LABELS}), 10, 0)
        train, test = train_test_split(ds, 0.8, seed=7)
        assert set(train.sentences).isdisjoint(test.sentences)
        assert set(train.sentences) | set(test.sentences) == set(ds.sentences)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_ratio(self, ratio):
        ds = stratified_sample(_pools({c: 5 for c in LABELS}), 5, 0)
        with pytest.raises(InvalidRatio):
            train_test_split(ds, ratio, seed=0)

    def test_fifty_thousand_shape(self):
        # 80% of the large stratified dataset leaves 4/1 per label at n=5
        ds = stratified_sample(_pools({c: 5 for c in LABELS}), 5, 0)
        train, test = train_test_split(ds, 0.8, seed=0)
        assert all(v == 4 for v in train.per_class_count.values())
        assert all(v == 1 for v in test.per_class_count.values())
        # the same floor arithmetic at the 50K-per-label scale
        import math

        assert math.floor(0.8 * 50_000) == 40_000

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=20)
    def test_deterministic_in_seed(self, seed):
        ds = stratified_sample(_pools({c: 10 for c in LABELS}), 10, 0)
        assert train_test_split(ds, 0.8, seed) == train_test_split(ds, 0.8, seed)


class TestIngestRawDir:
    def test_six_files(self, tmp_path):
        for code in LABELS:
            (tmp_path / f"{code}.txt").write_text(
                f"Dette er {code}. Endnu en.", encoding="utf-8"
            )
        pools = ingest_raw_dir(tmp_path)
        assert set(pools) == set(LABELS)
        assert all(len(pool) == 2 for pool in pools.values())

    def test_missing_label_file(self, tmp_path):
        for code in LABELS:
            if code != "fo":
                (tmp_path / f"{code}.txt").write_text("En sætning.", encoding="utf-8")
        with pytest.raises(MissingLabelFile) as err:
            ingest_raw_dir(tmp_path)
        assert err.value.code == "fo"

    def test_numeric_only_file_yields_empty_pool(self, tmp_path):
        for code in LABELS:
            (tmp_path / f"{code}.txt").write_text("1822.", encoding="utf-8")
        pools = ingest_raw_dir(tmp_path)
        assert all(pool == [] for pool in pools.values())

    def test_invalid_utf8(self, tmp_path):
        for code in LABELS:
            (tmp_path / f"{code}.txt").write_text("God tekst.", encoding="utf-8")
        (tmp_path / "dk.txt").write_bytes(b"abc\xff\xfe")
        with pytest.raises(InvalidUtf8) as err:
            ingest_raw_dir(tmp_path)
        assert err.value.offset == 3


class TestIngestTatoeba:
    def test_tatoeba_example_sentence(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("dk\tJeg kan ikke lide æg.\n", encoding="utf-8")
        pools, skipped = ingest_tatoeba(f)
        assert skipped == 0
        assert pools["dk"] == [Sentence("jeg kan ikke lide æg ", "dk")]

    def test_unknown_label_skipped(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("xx\tfoo bar\ndk\tHej med dig.\n", encoding="utf-8")
        pools, skipped = ingest_tatoeba(f)
        assert skipped == 1
        assert len(pools["dk"]) == 1

    def test_malformed_row(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("dk foo\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            ingest_tatoeba(f)
        assert err.value.line_number == 1

    def test_two_tabs_malformed(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("dk\tfoo\tbar\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            ingest_tatoeba(f)


class TestDatasetTsv:
    def test_round_trip(self, tmp_path):
        # dataset text is cleaned text, so the sentence number is a letter
        pools = {c: [Sentence(f"{c} sentence {'abc'[i]}", c) for i in range(3)] for c in LABELS}
        ds = stratified_sample(pools, 3, 0)
        path = tmp_path / "d.tsv"
        save_dataset_tsv(ds, path)
        loaded = load_dataset_tsv(path)
        assert loaded.sentences == ds.sentences

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("zz\thej\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_dataset_tsv(path)

    @pytest.mark.parametrize("text", ["Hej", "hej 2", "hej\u00a0du", "snö!"])
    def test_uncleaned_text_rejected(self, tmp_path, text):
        path = tmp_path / "d.tsv"
        path.write_text(f"dk\thej med dig\nsv\t{text}\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            load_dataset_tsv(path)
        assert err.value.line_number == 2


def test_label_order_is_fixed():
    assert LABELS == ("dk", "sv", "nn", "nb", "fo", "is")


def test_dataset_iteration_order_stable():
    pools = _pools({c: 4 for c in LABELS})
    ds = stratified_sample(pools, 4, seed=5)
    assert list(ds) == list(ds.sentences)
    assert len(ds) == 24
