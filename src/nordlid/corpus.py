"""Corpus ingestion, cleaning, and stratified dataset construction.

Text is normalized to a fixed 40-character alphabet (26 ASCII letters,
13 accented Nordic letters, and the space) before any featurization.
All sampling operations take an explicit seed and are pure functions of
their inputs, so datasets are reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    InsufficientData,
    InvalidRatio,
    InvalidUtf8,
    MalformedRow,
    MissingLabelFile,
)

#: Language codes in fixed order; this order defines matrix axes and ties.
LABELS = ("dk", "sv", "nn", "nb", "fo", "is")
LABEL_INDEX = {code: i for i, code in enumerate(LABELS)}

#: ISO 639-1 equivalents, for report output only ("dk" is kept internally).
ISO_CODES = {"dk": "da", "sv": "sv", "nn": "nn", "nb": "nb", "fo": "fo", "is": "is"}

#: The accepted alphabet, in canonical index order: 39 letters plus space.
ALPHABET = "abcdefghijklmnopqrstuvwxyzáäåæéíðóöøúýþ "
_ACCEPTED = frozenset(ALPHABET)

#: Sentences shorter than this after cleaning carry no bigram and are dropped.
MIN_SENTENCE_CHARS = 2

#: Abbreviations that must not terminate a sentence at their trailing period.
DEFAULT_ABBREVIATIONS = (
    "ca.",
    "kl.",
    "bl.a.",
    "f.eks.",
    "etc.",
    "nr.",
    "dr.",
    "mr.",
    "t.d.",
    "o.s.frv.",
)

_TERMINALS = ".!?"
#: A run of anything but the alphabet's letters (spaces included).
_NON_LETTERS = re.compile("[^" + ALPHABET.replace(" ", "") + "]+")


@dataclass(frozen=True)
class Sentence:
    """A cleaned sentence with its language label."""

    text: str
    label: str

    @property
    def length(self) -> int:
        return len(self.text)


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of labeled sentences."""

    sentences: tuple[Sentence, ...]
    seed: int = 0

    @property
    def per_class_count(self) -> dict[str, int]:
        counts = Counter(s.label for s in self.sentences)
        return {code: counts.get(code, 0) for code in LABELS}

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


def load_abbreviations(path: str | Path) -> tuple[str, ...]:
    """Read one abbreviation per line; blank lines and '#' comments ignored."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line.lower())
    return tuple(out)


def _ends_with_abbreviation(
    lowered: str, dot_index: int, abbreviations: Sequence[str]
) -> bool:
    head = lowered[: dot_index + 1]
    for abbr in abbreviations:
        if not head.endswith(abbr):
            continue
        before = len(head) - len(abbr) - 1
        if before < 0 or not head[before].isalpha():
            return True
    return False


def _split_on_terminals(line: str, abbreviations: Sequence[str]) -> list[str]:
    lowered = line.lower()
    fragments = []
    start = 0
    for i, ch in enumerate(line):
        if ch not in _TERMINALS:
            continue
        if i + 1 >= len(line) or not line[i + 1].isspace():
            continue
        if ch == "." and _ends_with_abbreviation(lowered, i, abbreviations):
            continue
        fragments.append(line[start : i + 1])
        start = i + 1
    fragments.append(line[start:])
    return fragments


def extract_sentences(
    raw: str, abbreviations: Sequence[str] = DEFAULT_ABBREVIATIONS
) -> list[str]:
    """Split raw text into sentence fragments.

    First pass splits on line breaks; each line is then cut after '.', '!'
    or '?' followed by whitespace, unless the period belongs to a known
    abbreviation. Empty fragments are dropped.
    """
    fragments: list[str] = []
    for line in raw.splitlines():
        fragments.extend(_split_on_terminals(line, abbreviations))
    return [f for f in (fragment.strip() for fragment in fragments) if f]


def clean_sentence(s: str) -> str:
    """Normalize a sentence onto the accepted 40-character alphabet.

    Lowercases, replaces every out-of-alphabet character with a space,
    collapses space runs, and strips leading spaces. A single trailing
    space produced by replacement is kept.
    """
    return _NON_LETTERS.sub(" ", s.lower()).lstrip(" ")


def stratified_sample(
    pools: dict[str, list[Sentence]], n_per_class: int, seed: int
) -> Dataset:
    """Draw exactly ``n_per_class`` sentences per label, without replacement."""
    rng = random.Random(seed)
    chosen: list[Sentence] = []
    for code in LABELS:
        pool = pools.get(code, [])
        if len(pool) < n_per_class:
            raise InsufficientData(code, len(pool), n_per_class)
        chosen.extend(rng.sample(pool, n_per_class))
    return Dataset(tuple(chosen), seed=seed)


def train_test_split(
    dataset: Dataset, ratio: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Split per label so both halves stay stratified.

    The training half receives floor(ratio * n) sentences per label.
    """
    if not 0.0 < ratio < 1.0:
        raise InvalidRatio(ratio)
    by_label: dict[str, list[Sentence]] = {code: [] for code in LABELS}
    for sentence in dataset.sentences:
        by_label[sentence.label].append(sentence)
    rng = random.Random(seed)
    train: list[Sentence] = []
    test: list[Sentence] = []
    for code in LABELS:
        group = list(by_label[code])
        rng.shuffle(group)
        cut = math.floor(ratio * len(group))
        train.extend(group[:cut])
        test.extend(group[cut:])
    return Dataset(tuple(train), seed=seed), Dataset(tuple(test), seed=seed)


def _sentences_from_raw(
    raw: str, code: str, abbreviations: Sequence[str]
) -> list[Sentence]:
    out = []
    for fragment in extract_sentences(raw, abbreviations):
        text = clean_sentence(fragment)
        if len(text) >= MIN_SENTENCE_CHARS:
            out.append(Sentence(text, code))
    return out


def decode_utf8(data: bytes, source: str) -> str:
    """Strict UTF-8 decoding; ``source`` names the input in the error."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidUtf8(source, exc.start) from exc


def split_lines(text: str) -> list[str]:
    """Lines of ``text``: split on LF only, one trailing CR dropped.

    Other characters that ``str.splitlines`` breaks on (form feed, U+2028,
    ...) stay inside their line, so there is one line per LF-ended line.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _read_utf8(path: Path) -> str:
    return decode_utf8(path.read_bytes(), str(path))


def ingest_raw_dir(
    path: str | Path, abbreviations: Sequence[str] = DEFAULT_ABBREVIATIONS
) -> dict[str, list[Sentence]]:
    """Read one ``<code>.txt`` file per label and return cleaned pools."""
    base = Path(path)
    pools: dict[str, list[Sentence]] = {}
    for code in LABELS:
        file = base / f"{code}.txt"
        if not file.is_file():
            raise MissingLabelFile(code)
        pools[code] = _sentences_from_raw(_read_utf8(file), code, abbreviations)
    return pools


def ingest_tatoeba(path: str | Path) -> tuple[dict[str, list[Sentence]], int]:
    """Read a ``<label>\\t<raw sentence>`` TSV; returns (pools, skipped rows).

    Rows carrying an unknown label code are skipped and counted; rows
    without exactly one tab raise MalformedRow.
    """
    pools: dict[str, list[Sentence]] = {code: [] for code in LABELS}
    skipped = 0
    raw = _read_utf8(Path(path))
    for line_number, line in enumerate(split_lines(raw), start=1):
        if line.count("\t") != 1:
            raise MalformedRow(line_number)
        code, text = line.split("\t")
        if code not in LABEL_INDEX:
            skipped += 1
            continue
        cleaned = clean_sentence(text)
        if len(cleaned) >= MIN_SENTENCE_CHARS:
            pools[code].append(Sentence(cleaned, code))
    return pools, skipped


def save_dataset_tsv(dataset: Dataset | Iterable[Sentence], path: str | Path) -> None:
    """Write ``<label>\\t<text>`` rows, UTF-8, LF line endings, no header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sentence in dataset:
            fh.write(f"{sentence.label}\t{sentence.text}\n")


def load_dataset_tsv(path: str | Path, seed: int = 0) -> Dataset:
    """Read a dataset written by :func:`save_dataset_tsv`.

    Its text must be cleaned: a row holding a character outside the
    40-character alphabet raises MalformedRow.
    """
    sentences = []
    raw = _read_utf8(Path(path))
    for line_number, line in enumerate(split_lines(raw), start=1):
        if line.count("\t") != 1:
            raise MalformedRow(line_number)
        code, text = line.split("\t")
        if code not in LABEL_INDEX:
            raise MalformedRow(line_number, f"unknown label code {code!r}")
        if not _ACCEPTED.issuperset(text):
            bad = next(ch for ch in text if ch not in _ACCEPTED)
            raise MalformedRow(
                line_number, f"character {bad!r} is outside the 40-character alphabet"
            )
        sentences.append(Sentence(text, code))
    return Dataset(tuple(sentences), seed=seed)


def pools_from_dataset(dataset: Dataset | Iterable[Sentence]) -> dict[str, list[Sentence]]:
    pools: dict[str, list[Sentence]] = {code: [] for code in LABELS}
    for sentence in dataset:
        pools[sentence.label].append(sentence)
    return pools
