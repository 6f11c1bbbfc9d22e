"""Tests for string-similarity utilities."""

import pytest

from repro.nlp.similarity import (
    jaccard_similarity,
    levenshtein,
    similarity_ratio,
)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("aspirin", "aspirin") == 0

    def test_empty_cases(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_substitution(self):
        assert levenshtein("cat", "cut") == 1

    def test_insertion_deletion(self):
        assert levenshtein("aspirin", "asprin") == 1
        assert levenshtein("asprin", "aspirin") == 1

    def test_transposition_costs_two(self):
        assert levenshtein("ab", "ba") == 2

    def test_known_distance(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_limit_early_exit(self):
        assert levenshtein("aaaaaaaa", "bbbbbbbb", limit=2) == 3  # limit + 1

    def test_limit_not_triggered_when_close(self):
        assert levenshtein("aspirin", "asprin", limit=2) == 1

    def test_limit_length_gap_returns_at_once(self):
        # The lengths alone differ by more than the limit.
        assert levenshtein("ab", "abcdef", limit=3) == 4
        assert levenshtein("abcdef", "ab", limit=3) == 4
        assert levenshtein("", "abc", limit=1) == 2
        assert levenshtein("ab", "abcde", limit=3) == 3  # gap == limit

    def test_limit_zero(self):
        assert levenshtein("abc", "abcd", limit=0) == 1
        assert levenshtein("abc", "abd", limit=0) == 1
        assert levenshtein("abc", "abc", limit=0) == 0


class TestSimilarityRatio:
    def test_identical_is_one(self):
        assert similarity_ratio("abc", "abc") == 1.0

    def test_disjoint_is_zero(self):
        assert similarity_ratio("aaa", "bbb") == 0.0

    def test_both_empty(self):
        assert similarity_ratio("", "") == 1.0

    def test_misspelled_drug_above_threshold(self):
        assert similarity_ratio("asprin", "aspirin") > 0.84

    def test_symmetric(self):
        assert similarity_ratio("abcd", "abxd") == similarity_ratio("abxd", "abcd")


class TestJaccard:
    def test_identical(self):
        assert jaccard_similarity({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0

    def test_partial(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 1.0

