"""Hand-computable checks of the benchmark's oracles.

``run.py`` calls every ``test_*`` function here before it measures
anything, and pytest collects the same functions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

import oracles


def test_render_sentence_expected_cleaning():
    class Script:
        """Replays fixed draws in place of a random generator."""

        def __init__(self, values, picks, ranges):
            self.values, self.picks, self.ranges = list(values), list(picks), list(ranges)

        def random(self):
            return self.values.pop(0)

        def choice(self, seq):
            return self.picks.pop(0)

        def randrange(self, *args):
            return self.ranges.pop(0)

    rng = Script(values=[0.0, 0.0, 0.0], picks=["bl.a.", "?"], ranges=[1, 2, 3])
    raw, expected = oracles.render_sentence("hej med dig og dem", rng)
    assert raw == "Hej bl.a. med, Dig og dem?"
    assert expected == "hej bl a med dig og dem "

    # A sentence that ends in an abbreviation stem must not end in a period.
    rng = Script(values=[1.0, 1.0, 1.0], picks=[], ranges=[])
    raw, expected = oracles.render_sentence("ring til dr", rng)
    assert raw == "Ring til dr!"
    assert expected == "ring til dr "


def test_render_raw_text_keeps_every_sentence():
    sentences = [f"ord nummer {w} her" for w in ("et", "to", "tre", "fire", "fem")]
    raw, expected = oracles.render_raw_text(sentences, random.Random(3))
    assert len(expected) == len(sentences)
    assert all(e.endswith(" ") for e in expected)
    assert raw.count("!") + raw.count("?") + raw.count(".") >= len(sentences)


def test_char_ngrams_counts():
    assert oracles.char_ngrams("abab", 2) == {"ab": 2, "ba": 1}
    assert oracles.char_ngrams("a", 2) == {}
    matrix = oracles.l1_count_matrix(["abab", "zz"], ["ab", "ba"], 2)
    assert matrix.tolist() == [[2 / 3, 1 / 3], [0.0, 0.0]]


def test_naive_bayes_scores_match_exact_rationals():
    texts = ["aab", "abb", "bbb"]
    labels = ["dk", "dk", "sv"]
    nb = oracles.NaiveBayesOracle(texts, labels, n=1)
    # Unigram counts: dk a=3 b=3 (total 6), sv b=3 (total 3); V = 2.
    query = "abbc"  # c is out of vocabulary
    exact = {
        "dk": Fraction(2, 3) * Fraction(4, 8) * Fraction(4, 8) ** 2,
        "sv": Fraction(1, 3) * Fraction(1, 5) * Fraction(4, 5) ** 2,
    }
    scores = nb.scores(query)
    for code, value in exact.items():
        assert math.isclose(math.exp(scores[code]), float(value), rel_tol=1e-12)
    assert nb.predict(query) == ("dk", True)


def test_naive_bayes_tie_goes_to_first_label():
    nb = oracles.NaiveBayesOracle(["ab", "ab"], ["sv", "dk"], n=1)
    assert nb.predict("ab") == ("dk", False)


def test_knn_tie_rules():
    train = np.array([[0.0, 1.0], [0.0, -1.0], [3.0, 0.0], [0.0, 2.0], [10.0, 0.0]])
    labels = ["sv", "dk", "sv", "dk", "is"]
    query = np.array([0.0, 0.0])
    # Distances 1, 1, 3, 2, 10: nearest three are rows 0, 1, 3. Votes dk 2, sv 1.
    assert oracles.knn_predict(train, labels, query, k=3) == ("dk", True)
    # k=2 splits the vote 1:1 at equal summed distance, so label order decides.
    assert oracles.knn_predict(train, labels, query, k=2) == ("dk", False)
    # k=1: the distance tie between rows 0 and 1 keeps training order.
    label, decided = oracles.knn_predict(train, labels, query, k=1)
    assert (label, decided) == ("sv", False)
    # A numpy bool would not serialise into the run's provenance.
    assert type(decided) is bool


def test_top_eigenvalues():
    data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    # Population covariance is diag(0.5, 2).
    assert np.allclose(oracles.top_eigenvalues(data, 2), [2.0, 0.5], rtol=1e-12)
    # Fewer points than dimensions: the covariance is v v^T with v = (1, 1, 0).
    wide = np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])
    assert np.allclose(oracles.top_eigenvalues(wide, 1), [2.0], rtol=1e-12)


def test_same_label_neighbours():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    hits, chance = oracles.same_label_neighbours(points, ["dk", "dk", "sv", "sv"])
    assert hits == 4
    assert math.isclose(chance, 4 / 3)
