"""Differential tests: the per-turn classify/recognize path against the
reference implementations it replaced.

The reference functions below are the earlier per-turn code, kept here
(and only here) as the specification: featurization through a freshly
built CSR matrix and ``predict_proba``, re-featurizing for ``top_k``,
tokenizing once per consumer, and the brute-force first-letter bucket
scan for misspellings.  The per-turn path must give *exactly* the same
answers — probabilities compare with ``np.array_equal`` because the
golden transcripts compare ``confidence`` floats exactly.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.bootstrap.entities import Entity, EntityValue
from repro.engine.recognizer import (
    MAX_SURFACE_TOKENS,
    EntityRecognizer,
    RecognitionResult,
)
from repro.eval.workload import WorkloadGenerator
from repro.nlp.classifier import IntentPrediction
from repro.nlp.similarity import similarity_ratio
from repro.nlp.tokenizer import normalize, stem, tokenize

#: Workload utterances compared per test.
N_UTTERANCES = 5000


# -- reference implementations ------------------------------------------------


def reference_words(tokenizer, text):
    tokens = [t for t in tokenize(text) if t not in tokenizer.stopwords]
    if tokenizer.use_stemming:
        tokens = [stem(t) for t in tokens]
    return tokens


def reference_ngrams(tokenizer, text, n):
    tokens = reference_words(tokenizer, text)
    if n <= 1:
        return tokens
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def reference_features(vectorizer, text):
    counts = Counter()
    lo, hi = vectorizer.word_ngrams
    for n in range(lo, hi + 1):
        for gram in reference_ngrams(vectorizer.tokenizer, text, n):
            counts[f"w:{gram}"] += 1
    if vectorizer.char_ngrams is not None:
        padded = f" {normalize(text)} "
        clo, chi = vectorizer.char_ngrams
        for n in range(clo, chi + 1):
            for i in range(len(padded) - n + 1):
                counts[f"c:{padded[i : i + n]}"] += 1
    return counts


def reference_transform(vectorizer, documents):
    indptr = [0]
    indices = []
    data = []
    for doc in documents:
        row = {}
        for feature, count in reference_features(vectorizer, doc).items():
            idx = vectorizer.vocabulary_.get(feature)
            if idx is not None:
                row[idx] = (1.0 + math.log(count)) * vectorizer.idf_[idx]
        norm = math.sqrt(sum(v * v for v in row.values()))
        if norm > 0:
            for idx in sorted(row):
                indices.append(idx)
                data.append(row[idx] / norm)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), indptr),
        shape=(len(indptr) - 1, len(vectorizer.vocabulary_)),
    )


def reference_probabilities(classifier, utterance):
    features = reference_transform(classifier.vectorizer, [utterance])
    return classifier.model.predict_proba(features)[0]


def reference_top_k(classifier, utterance, k=3):
    probs = reference_probabilities(classifier, utterance)
    order = np.argsort(probs)[::-1][:k]
    return [IntentPrediction(classifier.model.classes_[i], float(probs[i])) for i in order]


def reference_known_word_fraction(vectorizer, text):
    tokens = reference_words(vectorizer.tokenizer, text)
    if not tokens:
        return 0.0
    known = sum(1 for t in tokens if f"w:{t}" in vectorizer.vocabulary_)
    return known / len(tokens)


class ReferenceRecognizer:
    """The brute-force recognizer: per-window stemming and a full scan
    of the token's first-letter bucket for misspellings."""

    def __init__(self, entities, fuzzy_threshold=0.84):
        self.fuzzy_threshold = fuzzy_threshold
        self.instance_surfaces = {}
        self.concept_surfaces = {}
        self.partial_index = {}
        self.buckets = {}
        for entity in entities:
            if entity.kind == "instance" and entity.concept:
                for value in entity.values:
                    for form in value.surface_forms():
                        key = " ".join(tokenize(form))
                        if not key:
                            continue
                        self.instance_surfaces.setdefault(
                            key, (entity.concept, value.value)
                        )
                        words = key.split()
                        if len(words) > 1:
                            self.partial_index.setdefault(words[0], []).append(
                                (entity.concept, value.value)
                            )
                        if len(key) >= 4:
                            self.buckets.setdefault(key[0], []).append(
                                (key, entity.concept, value.value)
                            )
            elif entity.kind in ("concept", "group"):
                for value in entity.values:
                    for form in value.surface_forms():
                        key = " ".join(tokenize(form))
                        if key:
                            self.concept_surfaces.setdefault(key, value.value)
                        stemmed = " ".join(stem(t) for t in tokenize(form))
                        if stemmed:
                            self.concept_surfaces.setdefault(stemmed, value.value)

    def recognize(self, utterance):
        tokens = tokenize(utterance)
        result = RecognitionResult()
        used = [False] * len(tokens)
        for length in range(min(MAX_SURFACE_TOKENS, len(tokens)), 0, -1):
            for start in range(len(tokens) - length + 1):
                if any(used[start : start + length]):
                    continue
                gram = " ".join(tokens[start : start + length])
                stemmed_gram = " ".join(stem(t) for t in tokens[start : start + length])
                if gram in self.instance_surfaces:
                    concept, value = self.instance_surfaces[gram]
                    result.values.setdefault(concept, value)
                    for i in range(start, start + length):
                        used[i] = True
                elif gram in self.concept_surfaces or (
                    stemmed_gram in self.concept_surfaces
                ):
                    concept = self.concept_surfaces.get(
                        gram, self.concept_surfaces.get(stemmed_gram)
                    )
                    if concept not in result.concepts:
                        result.concepts.append(concept)
                    for i in range(start, start + length):
                        used[i] = True
        for i, token in enumerate(tokens):
            if used[i] or len(token) < 4:
                continue
            distinct = []
            seen_values = set()
            for concept, value in self.partial_index.get(token, []):
                if value.lower() not in seen_values:
                    seen_values.add(value.lower())
                    distinct.append((concept, value))
            if len(distinct) == 1:
                concept, value = distinct[0]
                result.values.setdefault(concept, value)
                used[i] = True
                continue
            if len(distinct) > 1:
                distinct.sort(key=lambda pair: (pair[1], pair[0]))
                result.ambiguous[token] = distinct
                used[i] = True
                continue
            match = self.fuzzy_match(token)
            if match is not None:
                concept, value, surface = match
                if concept not in result.values:
                    result.values[concept] = value
                    result.fuzzy_matches[concept] = surface
                used[i] = True
        return result

    def fuzzy_match(self, token):
        best = None
        for surface, concept, value in self.buckets.get(token[0], []):
            if " " in surface:
                continue
            if abs(len(surface) - len(token)) > 2:
                continue
            ratio = similarity_ratio(token, surface)
            if ratio >= self.fuzzy_threshold and (best is None or ratio > best[0]):
                best = (ratio, concept, value, surface)
        if best is None:
            return None
        return best[1], best[2], best[3]


# -- the workload ---------------------------------------------------------------


@pytest.fixture(scope="module")
def workload(mdx_agent):
    """Table-5 traffic with the noise channels turned up, so misspelled,
    keyword, gibberish and management utterances are all well covered."""
    generator = WorkloadGenerator(
        mdx_agent.space,
        misspelling_rate=0.3,
        gibberish_rate=0.05,
        management_rate=0.1,
        seed=13,
    )
    queries = generator.generate(N_UTTERANCES)
    kinds = Counter(q.noise for q in queries)
    assert {"clean", "misspelled", "keyword", "gibberish", "management"} <= set(kinds)
    return [q.utterance for q in queries]


def test_probabilities_are_bit_identical(mdx_agent, workload):
    classifier = mdx_agent.classifier
    for utterance in workload:
        analysis = classifier.analyze(utterance)
        expected = reference_probabilities(classifier, utterance)
        assert np.array_equal(analysis.probabilities, expected), utterance


def test_predictions_and_top_k_are_equal(mdx_agent, workload):
    classifier = mdx_agent.classifier
    for utterance in workload:
        expected_top = reference_top_k(classifier, utterance, k=3)
        analysis = classifier.analyze(utterance)
        assert analysis.prediction == expected_top[0], utterance
        assert analysis.top_k(3) == expected_top, utterance
        assert classifier.classify(utterance) == expected_top[0]
        assert classifier.top_k(utterance, k=3) == expected_top


def test_batch_path_matches_the_per_turn_path(mdx_agent, workload):
    classifier = mdx_agent.classifier
    batch = workload[:500]
    expected = reference_transform(classifier.vectorizer, batch)
    actual = classifier.vectorizer.transform(batch)
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert np.array_equal(actual.data, expected.data)
    assert classifier.classify_batch(batch) == [classifier.classify(u) for u in batch]


def test_known_word_fraction_is_equal(mdx_agent, workload):
    vectorizer = mdx_agent.classifier.vectorizer
    for utterance in workload:
        analysis = mdx_agent.classifier.analyze(utterance)
        expected = reference_known_word_fraction(vectorizer, utterance)
        assert vectorizer.known_word_fraction(analysis.utterance) == expected
        assert vectorizer.known_word_fraction(utterance) == expected


def test_recognition_results_are_equal(mdx_agent, workload):
    recognizer = mdx_agent.recognizer
    reference = ReferenceRecognizer(mdx_agent.space.entities)
    for utterance in workload:
        analysis = mdx_agent.classifier.analyze(utterance)
        expected = reference.recognize(utterance)
        assert recognizer.recognize(analysis.utterance) == expected, utterance
        assert recognizer.recognize(utterance) == expected, utterance


def test_recognizer_index_is_compact(mdx_agent):
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        recognizer = EntityRecognizer(mdx_agent.space.entities)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert recognizer.recognize("asprin dose").values  # the index is live
    assert grown <= 2 * 1024 * 1024, f"recognizer holds {grown} bytes"


# -- indexed fuzzy matching against the bucket scan ------------------------------

_LETTERS = "abc"


@st.composite
def _edited(draw, base):
    """``base`` after up to four random single-character edits."""
    word = base
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["delete", "insert", "substitute"]))
        if op == "delete" and len(word) > 1:
            pos = draw(st.integers(0, len(word) - 1))
            word = word[:pos] + word[pos + 1 :]
        elif op == "insert":
            pos = draw(st.integers(0, len(word)))
            word = word[:pos] + draw(st.sampled_from(_LETTERS)) + word[pos:]
        else:
            pos = draw(st.integers(0, len(word) - 1))
            word = word[:pos] + draw(st.sampled_from(_LETTERS)) + word[pos + 1 :]
    return word


@st.composite
def _fuzzy_case(draw):
    """Long single-word surfaces around one base word, plus a query
    token near the base — distance-3 matches are legal at 0.84 for
    these lengths, and the tiny alphabet makes ratio ties common."""
    length = draw(st.integers(17, 21))
    base = draw(st.text(alphabet=_LETTERS, min_size=length, max_size=length))
    surfaces = draw(st.lists(_edited(base), min_size=1, max_size=12))
    # Equal-ratio rivals at different bucket positions: one substitution
    # each, at different places, all the same distance from ``base``.
    for pos in draw(st.lists(st.integers(1, length - 1), max_size=4)):
        swapped = "a" if base[pos] != "a" else "b"
        surfaces.append(base[:pos] + swapped + base[pos + 1 :])
    token = draw(_edited(base))
    return surfaces, token


@given(_fuzzy_case())
@settings(max_examples=300, deadline=None)
def test_indexed_fuzzy_match_equals_bucket_scan(case):
    surfaces, token = case
    entity = Entity(
        name="Thing", kind="instance", concept="Thing",
        values=[EntityValue(f"V{i}", synonyms=[s]) for i, s in enumerate(surfaces)],
    )
    indexed = EntityRecognizer([entity])
    reference = ReferenceRecognizer([entity])
    assert indexed._fuzzy_match(token) == reference.fuzzy_match(token)
    assert indexed.recognize(token) == reference.recognize(token)
