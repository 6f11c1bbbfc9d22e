"""TF-IDF featurization over word and character n-grams."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.errors import NotFittedError
from repro.nlp.tokenizer import Tokenizer, Utterance


class TfidfVectorizer:
    """TF-IDF vectorizer producing L2-normalized sparse feature matrices.

    Features combine word n-grams (robust to unseen orderings) and
    character n-grams (robust to misspellings such as "presciptions"),
    mirroring what commercial intent classifiers rely on for short,
    noisy queries.

    Parameters
    ----------
    word_ngrams:
        Inclusive (min, max) range of word n-gram sizes.
    char_ngrams:
        Inclusive (min, max) range of character n-gram sizes, applied to
        the normalized text with word-boundary padding.  ``None`` disables
        character features.
    min_df:
        Minimum number of training documents a feature must appear in.
    tokenizer:
        Tokenizer used for word features.
    """

    def __init__(
        self,
        word_ngrams: tuple[int, int] = (1, 2),
        char_ngrams: tuple[int, int] | None = (3, 4),
        min_df: int = 1,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        if word_ngrams[0] < 1 or word_ngrams[0] > word_ngrams[1]:
            raise ValueError(f"invalid word_ngrams range: {word_ngrams}")
        if char_ngrams is not None and (
            char_ngrams[0] < 1 or char_ngrams[0] > char_ngrams[1]
        ):
            raise ValueError(f"invalid char_ngrams range: {char_ngrams}")
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        self.word_ngrams = word_ngrams
        self.char_ngrams = char_ngrams
        self.min_df = min_df
        self.tokenizer = tokenizer or Tokenizer()
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None

    # -- feature extraction ---------------------------------------------------

    def _feature_names(self, utterance: Utterance) -> list[str]:
        """Every feature occurrence in ``utterance``: word n-grams by
        size, then character n-grams by size (first-occurrence order
        fixes the summation order of the L2 norm)."""
        lo, hi = self.word_ngrams
        names = [
            "w:" + gram
            for n in range(lo, hi + 1)
            for gram in self.tokenizer.ngrams(utterance, n)
        ]
        if self.char_ngrams is not None:
            padded = f" {utterance.normalized} "
            clo, chi = self.char_ngrams
            for n in range(clo, chi + 1):
                names += [
                    "c:" + padded[i : i + n] for i in range(len(padded) - n + 1)
                ]
        return names

    # -- fitting -------------------------------------------------------------

    def fit(self, documents: Sequence[str]) -> "TfidfVectorizer":
        """Learn the vocabulary and IDF weights from ``documents``."""
        doc_freq: Counter = Counter()
        for doc in documents:
            doc_freq.update(set(self._feature_names(Utterance.parse(doc))))
        vocabulary = {
            feature: index
            for index, feature in enumerate(
                sorted(f for f, df in doc_freq.items() if df >= self.min_df)
            )
        }
        n_docs = max(len(documents), 1)
        idf = np.ones(len(vocabulary), dtype=np.float64)
        for feature, index in vocabulary.items():
            # Smoothed IDF, as in standard TF-IDF practice.
            idf[index] = math.log((1 + n_docs) / (1 + doc_freq[feature])) + 1.0
        self.vocabulary_ = vocabulary
        self.idf_ = idf
        return self

    def fit_transform(self, documents: Sequence[str]) -> sparse.csr_matrix:
        """Fit on ``documents`` and return their feature matrix."""
        self.fit(documents)
        return self.transform(documents)

    def featurize(self, utterance: str | Utterance) -> tuple[np.ndarray, np.ndarray]:
        """One utterance's L2-normalized TF-IDF row as (column ids, values).

        Column ids come from direct vocabulary lookups and are returned
        ascending, as a CSR row stores them; no sparse matrix is built.
        """
        if self.vocabulary_ is None or self.idf_ is None:
            raise NotFittedError("TfidfVectorizer used before fit")
        names = self._feature_names(Utterance.parse(utterance))
        # Column id -> occurrences, in first-occurrence order.
        counts = Counter(map(self.vocabulary_.get, names))
        unknown = counts.pop(None, 0)
        columns = np.fromiter(counts, dtype=np.int64, count=len(counts))
        values = self.idf_[columns]
        if len(names) - unknown > len(counts):
            # Sublinear TF dampens repeated tokens in long queries.
            tf = np.fromiter(
                (1.0 + math.log(c) for c in counts.values()),
                dtype=np.float64,
                count=len(counts),
            )
            values = tf * values
        # Sum the squares one by one in first-occurrence order: the norm
        # (and so every value) is then the same on every platform and
        # Python version (builtin sum() compensates on 3.12+).
        norm = math.sqrt(np.cumsum(values * values)[-1]) if len(counts) else 0.0
        if norm <= 0:
            return columns[:0], values[:0]
        order = np.argsort(columns)
        return columns[order], values[order] / norm

    def transform(self, documents: Iterable[str]) -> sparse.csr_matrix:
        """Vectorize ``documents`` using the fitted vocabulary."""
        if self.vocabulary_ is None or self.idf_ is None:
            raise NotFittedError("TfidfVectorizer.transform called before fit")
        rows = [self.featurize(doc) for doc in documents]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(columns) for columns, _ in rows])
        if rows:
            indices = np.concatenate([columns for columns, _ in rows])
            data = np.concatenate([values for _, values in rows])
        else:
            indices = np.zeros(0, dtype=np.int64)
            data = np.zeros(0, dtype=np.float64)
        return sparse.csr_matrix(
            (data, indices, indptr), shape=(len(rows), len(self.vocabulary_))
        )

    def known_word_fraction(self, text: str | Utterance) -> float:
        """Fraction of word tokens with a known unigram feature.

        A cheap out-of-vocabulary detector: gibberish ("apfjhd") scores
        near 0, in-domain text near 1.  Empty input counts as fully
        unknown.
        """
        if self.vocabulary_ is None:
            raise NotFittedError("vectorizer is not fitted")
        tokens = self.tokenizer(text)
        if not tokens:
            return 0.0
        known = sum(1 for t in tokens if f"w:{t}" in self.vocabulary_)
        return known / len(tokens)

    @property
    def n_features(self) -> int:
        """Size of the fitted vocabulary."""
        if self.vocabulary_ is None:
            raise NotFittedError("vectorizer is not fitted")
        return len(self.vocabulary_)
