"""String similarity utilities for fuzzy entity matching.

The MDX deployment must recognize misspelled drug names ("heavy
misspellings" are called out in §7.2 as a main source of negative
interactions) and partial names (§6.1 entity disambiguation).  The
recognizer uses these distance functions for both.
"""

from __future__ import annotations


def levenshtein(a: str, b: str, limit: int | None = None) -> int:
    """Edit distance between ``a`` and ``b`` (insert/delete/substitute = 1).

    ``limit`` enables early exit: when the lengths alone differ by more
    than ``limit``, or once every entry of a row exceeds it, ``limit + 1``
    is returned, which callers treat as "too far".
    """
    if a == b:
        return 0
    if limit is not None and abs(len(a) - len(b)) > limit:
        return limit + 1
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        row_min = j
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            value = min(
                previous[i] + 1,        # deletion
                current[i - 1] + 1,     # insertion
                previous[i - 1] + cost,  # substitution
            )
            current.append(value)
            if value < row_min:
                row_min = value
        if limit is not None and row_min > limit:
            return limit + 1
        previous = current
    return previous[-1]


def similarity_ratio(a: str, b: str) -> float:
    """Normalized similarity in [0, 1]: 1 - distance / max_length."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def jaccard_similarity(a: set[str], b: set[str]) -> float:
    """Jaccard similarity of two token sets (1.0 when both are empty)."""
    if not a and not b:
        return 1.0
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)

