"""Language identification toolkit for six Nordic languages.

Pipeline: ingest raw text -> clean sentences over a 40-char alphabet ->
featurize (char n-grams, bag of words, or trained embeddings) -> train
one of seven classifier families -> evaluate, project, and persist.
"""

from .corpus import (
    ALPHABET,
    LABELS,
    Dataset,
    Sentence,
    clean_sentence,
    extract_sentences,
    ingest_raw_dir,
    ingest_tatoeba,
    stratified_sample,
    train_test_split,
)
from .features import (
    NgramVocabulary,
    WordVocabulary,
    build_ngram_vocab,
    build_word_vocab,
    char_frequency_profile,
    word_tokenize,
)

__version__ = "0.1.0"
