"""Reference computations the benchmark checks nordlid's outputs against.

Everything here is written from the documented behaviour of the toolkit,
with numpy and the standard library only. Nothing is imported from
``nordlid``, so a fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

LABELS = ("dk", "sv", "nn", "nb", "fo", "is")

#: The cleaner's documented default abbreviations: a period that ends one
#: of these does not end a sentence.
ABBREVIATIONS = (
    "ca.", "kl.", "bl.a.", "f.eks.", "etc.", "nr.", "dr.", "mr.", "t.d.", "o.s.frv.",
)

#: Two decisions closer than this (relative) may fall either way under a
#: different but equally valid summation order; they are counted apart.
NEAR_TIE = 1e-9


# ---------------------------------------------------------------------------
# Raw text rendering and the cleaned sentences it must yield
# ---------------------------------------------------------------------------


def render_sentence(text: str, rng) -> tuple[str, str]:
    """Dress a clean sentence as raw prose; return (raw, expected cleaned).

    Adds a capital, possibly an abbreviation and a comma mid-sentence, and
    a terminal mark. Cleaning lowercases, turns every mark into a space,
    collapses space runs and keeps one trailing space, so the expected
    text is the words (an abbreviation's letter groups included) joined
    by spaces plus one trailing space.
    """
    words = text.split(" ")
    raw_words = list(words)
    expected = list(words)
    if len(words) > 1 and rng.random() < 0.3:
        # Never in last place: a final abbreviation would swallow the
        # sentence boundary by design.
        at = rng.randrange(len(words) - 1)
        abbreviation = rng.choice(ABBREVIATIONS)
        raw_words.insert(at, abbreviation)
        expected[at:at] = [part for part in abbreviation.split(".") if part]
    if len(raw_words) > 2 and rng.random() < 0.3:
        raw_words[rng.randrange(len(raw_words) - 1)] += ","
    if len(raw_words) > 2 and rng.random() < 0.2:
        at = rng.randrange(1, len(raw_words))
        raw_words[at] = raw_words[at][:1].upper() + raw_words[at][1:]
    raw = " ".join(raw_words)
    raw = raw[:1].upper() + raw[1:]
    if words[-1] + "." in ABBREVIATIONS:
        terminal = "!"  # a period here would read as an abbreviation
    else:
        terminal = rng.choice(".....!?")
    return raw + terminal, " ".join(expected) + " "


def render_raw_text(sentences: list[str], rng) -> tuple[str, list[str]]:
    """Raw text for one language plus the cleaned sentences it must yield.

    Sentences run on within a line and break at random; lines of digits
    and marks, which clean to nothing, sit between them.
    """
    lines: list[str] = []
    current: list[str] = []
    expected: list[str] = []
    for text in sentences:
        raw, clean = render_sentence(text, rng)
        current.append(raw)
        expected.append(clean)
        if rng.random() < 0.35:
            lines.append(" ".join(current))
            current = []
            if rng.random() < 0.1:
                lines.append(rng.choice(("§ 12", "1990 - 2001", "", "* * *", "(3)")))
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines) + "\n", expected


# ---------------------------------------------------------------------------
# Character n-gram counts
# ---------------------------------------------------------------------------


def char_ngrams(text: str, n: int) -> Counter:
    """Counts of every width-n window of ``text``, spaces included."""
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


def l1_count_matrix(texts: list[str], vocab: list[str], n: int) -> np.ndarray:
    """Rows of in-vocabulary n-gram counts divided by their row total."""
    index = {gram: j for j, gram in enumerate(vocab)}
    out = np.zeros((len(texts), len(vocab)))
    for r, text in enumerate(texts):
        hits = Counter(index[g] for g in char_ngrams(text, n).elements() if g in index)
        total = sum(hits.values())
        for j, count in hits.items():
            out[r, j] = count / total
    return out


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes, Laplace smoothing
# ---------------------------------------------------------------------------


class NaiveBayesOracle:
    """Multinomial NB over character n-gram counts, alpha = 1.

    log p(k | x) = log prior_k + sum_g x_g log((count_k(g) + 1) /
    (total_k + V)) over in-vocabulary n-grams g, with V the number of
    distinct training n-grams. Out-of-vocabulary n-grams are ignored.
    """

    def __init__(self, texts: list[str], labels: list[str], n: int, alpha: float = 1.0):
        self.n = n
        self.labels = [code for code in LABELS if code in set(labels)]
        self.counts = {code: Counter() for code in self.labels}
        sizes = Counter(labels)
        for text, code in zip(texts, labels):
            self.counts[code].update(char_ngrams(text, n))
        vocab = set()
        for counter in self.counts.values():
            vocab.update(counter)
        self.vocab = vocab
        self.alpha = alpha
        self.log_prior = {code: math.log(sizes[code] / len(labels)) for code in self.labels}
        self.log_denominator = {
            code: math.log(sum(self.counts[code].values()) + alpha * len(vocab))
            for code in self.labels
        }

    def scores(self, text: str) -> dict[str, float]:
        grams = {g: c for g, c in char_ngrams(text, self.n).items() if g in self.vocab}
        return {
            code: self.log_prior[code] + sum(
                c * (math.log(self.counts[code][g] + self.alpha) - self.log_denominator[code])
                for g, c in grams.items()
            )
            for code in self.labels
        }

    def predict(self, text: str) -> tuple[str, bool]:
        """(label, decided): ties go to the first label in canonical order;
        ``decided`` is False when the best two scores are a near tie."""
        scores = self.scores(text)
        ranked = sorted(self.labels, key=lambda code: (-scores[code], LABELS.index(code)))
        best, second = scores[ranked[0]], scores[ranked[1]]
        return ranked[0], best - second > NEAR_TIE * max(1.0, abs(best))


# ---------------------------------------------------------------------------
# Exhaustive k-nearest neighbours
# ---------------------------------------------------------------------------


def knn_predict(
    train: np.ndarray, train_labels: list[str], query: np.ndarray, k: int = 3
) -> tuple[str, bool]:
    """Majority label of the k nearest rows by Euclidean distance.

    Documented tie rules: equal distances keep training order; a vote tie
    goes to the smallest summed distance, then to canonical label order.
    ``decided`` is False when a near tie of distances or sums could flip
    the answer.
    """
    distances = np.sqrt(((train - query) ** 2).sum(axis=1))
    order = np.argsort(distances, kind="stable")
    nearest = order[:k]
    scale = NEAR_TIE * max(1.0, float(distances[order[k - 1]]))
    decided = bool(len(order) == k or distances[order[k]] - distances[order[k - 1]] > scale)
    votes = Counter()
    sums = Counter()
    for i in nearest:
        votes[train_labels[i]] += 1
        sums[train_labels[i]] += float(distances[i])
    top = max(votes.values())
    candidates = sorted(
        (code for code in votes if votes[code] == top),
        key=lambda code: (sums[code], LABELS.index(code)),
    )
    if len(candidates) > 1 and sums[candidates[1]] - sums[candidates[0]] <= scale:
        decided = False
    return candidates[0], decided


# ---------------------------------------------------------------------------
# Principal components and projections
# ---------------------------------------------------------------------------


def top_eigenvalues(data: np.ndarray, m: int = 2) -> np.ndarray:
    """The m largest eigenvalues of the population covariance of ``data``.

    With centered data C of n rows, C^T C / n and C C^T / n share their
    non-zero eigenvalues, so the smaller of the two is decomposed.
    """
    centered = data - data.mean(axis=0)
    if centered.shape[0] < centered.shape[1]:
        product = centered @ centered.T / data.shape[0]
    else:
        product = centered.T @ centered / data.shape[0]
    return np.linalg.eigvalsh((product + product.T) / 2.0)[::-1][:m]


def same_label_neighbours(points: np.ndarray, labels: list[str]) -> tuple[int, float]:
    """(points whose nearest other point shares their label, count expected
    by chance). Chance for point i is (members of its label - 1) / (n - 1)."""
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nearest = d2.argmin(axis=1)
    hits = sum(labels[i] == labels[j] for i, j in enumerate(nearest))
    sizes = Counter(labels)
    chance = sum((sizes[code] - 1) / (len(labels) - 1) for code in labels)
    return hits, chance
