"""Entity recognition in user utterances.

Implements the recognition behaviours §6.1 describes for MDX:

* exact matching of entity values *and their synonyms* (brand names,
  base-with-salt descriptions, concept synonyms),
* fuzzy matching for misspellings ("asprin" → Aspirin; §7.2 names heavy
  misspellings as a main source of negative interactions),
* partial-name matching with disambiguation candidates ("Calcium" →
  Calcium Carbonate, Calcium Citrate, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bootstrap.entities import Entity
from repro.nlp.similarity import similarity_ratio
from repro.nlp.tokenizer import Utterance, stem, tokenize

#: Minimum normalized similarity for a fuzzy (misspelling) match.
DEFAULT_FUZZY_THRESHOLD = 0.84

#: Longest token n-gram considered when matching surfaces.
MAX_SURFACE_TOKENS = 6


@dataclass
class RecognitionResult:
    """Everything recognized in one utterance."""

    #: concept name -> canonical instance value (exact + fuzzy matches).
    values: dict[str, str] = field(default_factory=dict)
    #: ontology concepts mentioned by name/synonym ("precautions", "dosage").
    concepts: list[str] = field(default_factory=list)
    #: partial-name matches needing disambiguation:
    #: surface text -> list of (concept, candidate value).
    ambiguous: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    #: matches that were fuzzy (concept -> matched surface), for logging.
    fuzzy_matches: dict[str, str] = field(default_factory=dict)

    def has_any_entity(self) -> bool:
        return bool(self.values)


def fuzzy_depth(length: int, threshold: float) -> int:
    """Most edits a word of ``length`` can be from a fuzzy match.

    A match needs ``1 - d / max(len) >= threshold`` with the two lengths
    at most 2 apart, so ``d <= (1 - threshold) * (length + 2)`` for
    either word.  The tiny slack keeps a float-rounded boundary case
    inside the bound; a deeper neighbourhood only adds candidates,
    which :func:`similarity_ratio` then rejects.
    """
    return max(0, math.floor((1.0 - threshold) * (length + 2) + 1e-9))


def deletion_neighbourhood(word: str, depth: int) -> set[str]:
    """Every string reachable from ``word`` by at most ``depth`` deletions."""
    found = {word}
    level = found
    for _ in range(depth):
        level = {w[:i] + w[i + 1 :] for w in level for i in range(len(w))}
        found |= level
    return found


class EntityRecognizer:
    """Dictionary-based recognizer built from the conversation space's
    entities.

    Matching runs longest-n-gram-first over the tokenized utterance:
    instance values win over concept mentions on the same span, exact
    matches win over fuzzy ones, and leftover single tokens are checked
    for misspellings and partial names.

    A misspelling matches a single-word instance surface with the same
    first letter, a length at most 2 apart and a similarity ratio of at
    least ``fuzzy_threshold``; the most similar surface wins, ties going
    to the surface registered first.  Candidates come from a
    deletion-neighbourhood index (SymSpell-style) rather than a scan:
    two words within edit distance ``d`` share a string reachable from
    each by at most ``d`` deletions, so indexing every surface's tail
    to :func:`fuzzy_depth` and probing with the token's tail finds
    every surface that can pass the ratio check.
    """

    def __init__(
        self,
        entities: list[Entity],
        fuzzy_threshold: float = DEFAULT_FUZZY_THRESHOLD,
        enable_fuzzy: bool = True,
        enable_partial: bool = True,
    ) -> None:
        self.fuzzy_threshold = fuzzy_threshold
        self.enable_fuzzy = enable_fuzzy
        self.enable_partial = enable_partial
        # surface (token-joined) -> (concept, canonical value)
        self._instance_surfaces: dict[str, tuple[str, str]] = {}
        # surface -> concept name
        self._concept_surfaces: dict[str, str] = {}
        # first word of a multi-word value -> [(concept, value)]
        self._partial_index: dict[str, list[tuple[str, str]]] = {}
        # single-word instance surfaces in registration order (first
        # occurrence of each): (surface, concept, value)
        self._fuzzy_surfaces: list[tuple[str, str, str]] = []
        # first letter + a deletion variant of the surface's tail ->
        # ascending positions in _fuzzy_surfaces
        self._fuzzy_index: dict[str, tuple[int, ...]] = {}

        for entity in entities:
            if entity.kind == "instance" and entity.concept:
                for value in entity.values:
                    for form in value.surface_forms():
                        key = " ".join(tokenize(form))
                        if not key:
                            continue
                        first_seen = key not in self._instance_surfaces
                        self._instance_surfaces.setdefault(
                            key, (entity.concept, value.value)
                        )
                        words = key.split()
                        if len(words) > 1:
                            self._partial_index.setdefault(words[0], []).append(
                                (entity.concept, value.value)
                            )
                        # Later duplicates of a surface can never win a
                        # fuzzy match: ties go to the first registered.
                        if first_seen and len(words) == 1 and len(key) >= 4:
                            self._fuzzy_surfaces.append(
                                (key, entity.concept, value.value)
                            )
            elif entity.kind in ("concept", "group"):
                for value in entity.values:
                    for form in value.surface_forms():
                        key = " ".join(tokenize(form))
                        if key:
                            self._concept_surfaces.setdefault(key, value.value)
                        # Concept mentions are inflection-tolerant:
                        # "precautions"/"drugs" must hit "Precaution"/"Drug".
                        stemmed = " ".join(stem(t) for t in tokenize(form))
                        if stemmed:
                            self._concept_surfaces.setdefault(stemmed, value.value)
        if enable_fuzzy:
            self._build_fuzzy_index()

    def _build_fuzzy_index(self) -> None:
        index: dict[str, list[int]] = {}
        for position, (surface, _concept, _value) in enumerate(self._fuzzy_surfaces):
            depth = fuzzy_depth(len(surface), self.fuzzy_threshold)
            for variant in deletion_neighbourhood(surface[1:], depth):
                index.setdefault(surface[0] + variant, []).append(position)
        self._fuzzy_index = {key: tuple(ids) for key, ids in index.items()}

    # -- matching ----------------------------------------------------------

    def recognize(self, utterance: str | Utterance) -> RecognitionResult:
        """Recognize entities, concept mentions and ambiguities in
        ``utterance``."""
        text = Utterance.parse(utterance)
        tokens, stems = text.tokens, text.stems
        result = RecognitionResult()
        used = [False] * len(tokens)

        # Pass 1: exact n-gram matches, longest first.
        for length in range(min(MAX_SURFACE_TOKENS, len(tokens)), 0, -1):
            for start in range(len(tokens) - length + 1):
                end = start + length
                if any(used[start:end]):
                    continue
                gram = " ".join(tokens[start:end])
                if gram in self._instance_surfaces:
                    concept, value = self._instance_surfaces[gram]
                    result.values.setdefault(concept, value)
                    used[start:end] = [True] * length
                    continue
                concept = self._concept_surfaces.get(gram)
                if concept is None:
                    concept = self._concept_surfaces.get(" ".join(stems[start:end]))
                if concept is not None:
                    if concept not in result.concepts:
                        result.concepts.append(concept)
                    used[start:end] = [True] * length

        # Pass 2: leftover tokens — partial names, then misspellings.
        for i, token in enumerate(tokens):
            if used[i] or len(token) < 4:
                continue
            if self.enable_partial:
                candidates = self._partial_index.get(token, [])
                distinct = []
                seen_values: set[str] = set()
                for concept, value in candidates:
                    if value.lower() not in seen_values:
                        seen_values.add(value.lower())
                        distinct.append((concept, value))
                if len(distinct) == 1:
                    concept, value = distinct[0]
                    result.values.setdefault(concept, value)
                    used[i] = True
                    continue
                if len(distinct) > 1:
                    # Candidate order reaches the disambiguation prompt
                    # (and the journal): sort so it never depends on
                    # entity declaration/load order.
                    distinct.sort(key=lambda pair: (pair[1], pair[0]))
                    result.ambiguous[token] = distinct
                    used[i] = True
                    continue
            if self.enable_fuzzy:
                match = self._fuzzy_match(token)
                if match is not None:
                    concept, value, surface = match
                    if concept not in result.values:
                        result.values[concept] = value
                        result.fuzzy_matches[concept] = surface
                    used[i] = True
        return result

    def _fuzzy_match(self, token: str) -> tuple[str, str, str] | None:
        index = self._fuzzy_index
        first = token[0]
        depth = fuzzy_depth(len(token), self.fuzzy_threshold)
        positions: set[int] = set()
        for variant in deletion_neighbourhood(token[1:], depth):
            positions.update(index.get(first + variant, ()))
        best: tuple[float, str, str, str] | None = None
        # Registration order, so ties break toward the first surface.
        for position in sorted(positions):
            surface, concept, value = self._fuzzy_surfaces[position]
            if abs(len(surface) - len(token)) > 2:
                continue
            ratio = similarity_ratio(token, surface)
            if ratio >= self.fuzzy_threshold and (best is None or ratio > best[0]):
                best = (ratio, concept, value, surface)
        if best is None:
            return None
        return best[1], best[2], best[3]

    # -- lookups used by the agent ---------------------------------------------

    def values_for_concept(self, concept: str) -> list[str]:
        """Every canonical value recognized as ``concept`` (for elicitation
        checks)."""
        out: dict[str, None] = {}
        for mapped_concept, value in self._instance_surfaces.values():
            if mapped_concept.lower() == concept.lower():
                out.setdefault(value)
        return list(out)

    def whole_utterance_instance(
        self, utterance: str | Utterance
    ) -> tuple[str, str] | None:
        """If the *entire* utterance names one instance value (any surface
        form), return (concept, canonical value) — the paper's keyword-
        style, entity-only query ("cogentin")."""
        gram = " ".join(Utterance.parse(utterance).tokens)
        hit = self._instance_surfaces.get(gram)
        return hit if hit else None

    def is_instance_of(self, utterance: str | Utterance, concept: str) -> str | None:
        """If the whole utterance names an instance of ``concept``, return
        the canonical value (used when answering an elicitation)."""
        text = Utterance.parse(utterance)
        hit = self._instance_surfaces.get(" ".join(text.tokens))
        if hit and hit[0].lower() == concept.lower():
            return hit[1]
        result = self.recognize(text)
        return result.values.get(concept) or next(
            (
                v
                for c, v in result.values.items()
                if c.lower() == concept.lower()
            ),
            None,
        )
