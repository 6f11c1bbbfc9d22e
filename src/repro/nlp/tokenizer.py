"""Text normalization, tokenization and light stemming."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")

#: Small English stopword list.  Deliberately conservative: words such as
#: "what", "which" or "for" carry intent signal in short queries and are
#: therefore *not* stopwords here.
DEFAULT_STOPWORDS = frozenset(
    {
        "a", "an", "the", "is", "are", "was", "were", "be", "been",
        "am", "do", "does", "did", "to", "of", "in", "on", "at",
        "and", "or", "it", "its", "this", "that", "these", "those",
        "i", "me", "my", "we", "our", "you", "your", "please",
    }
)

_SUFFIXES = (
    ("ations", "ation"),
    ("ingly", ""),
    ("edly", ""),
    ("ies", "y"),
    ("ing", ""),
    ("ed", ""),
    ("es", ""),
    ("s", ""),
)


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace; strip surrounding punctuation."""
    return re.sub(r"\s+", " ", text.lower()).strip()


def stem(token: str) -> str:
    """Very light suffix-stripping stemmer.

    Not a full Porter stemmer — it only needs to conflate inflectional
    variants in short queries ("treats"/"treat", "precautions"/
    "precaution") without mangling drug names, so it never shortens a
    token below four characters.
    """
    if len(token) <= 4:
        return token
    for suffix, replacement in _SUFFIXES:
        if token.endswith(suffix):
            candidate = token[: len(token) - len(suffix)] + replacement
            if len(candidate) >= 4:
                return candidate
    return token


def tokenize(text: str) -> list[str]:
    """Tokenize normalized ``text`` into lowercase word tokens."""
    return _TOKEN_RE.findall(normalize(text))


@dataclass(frozen=True, slots=True)
class Utterance:
    """One utterance normalized, tokenized and stemmed exactly once.

    A turn builds one and shares it between the vectorizer, the
    classifier and the entity recognizer, so no consumer re-tokenizes.
    ``stems[i]`` is ``stem(tokens[i])``; stopwords are kept (the
    recognizer matches surfaces such as "black box warning for ...").
    """

    text: str
    normalized: str
    tokens: tuple[str, ...]
    stems: tuple[str, ...]

    @classmethod
    def parse(cls, text: str | Utterance) -> Utterance:
        """The analysis of ``text`` (an :class:`Utterance` passes through)."""
        if isinstance(text, Utterance):
            return text
        normalized = normalize(text)
        tokens = tuple(_TOKEN_RE.findall(normalized))
        return cls(text, normalized, tokens, tuple(stem(t) for t in tokens))


@dataclass
class Tokenizer:
    """Configurable tokenizer used by the vectorizer and recognizer.

    Parameters
    ----------
    stopwords:
        Tokens removed after tokenization.  Defaults to a conservative
        English list (see :data:`DEFAULT_STOPWORDS`).
    use_stemming:
        When True, each surviving token is passed through :func:`stem`.
    """

    stopwords: frozenset[str] = field(default=DEFAULT_STOPWORDS)
    use_stemming: bool = True

    def __call__(self, text: str | Utterance) -> list[str]:
        utterance = Utterance.parse(text)
        words = utterance.stems if self.use_stemming else utterance.tokens
        stopwords = self.stopwords
        return [
            word
            for token, word in zip(utterance.tokens, words)
            if token not in stopwords
        ]

    def ngrams(self, text: str | Utterance, n: int) -> list[str]:
        """Word n-grams over the tokenized text (joined with spaces)."""
        tokens = self(text)
        if n <= 1:
            return tokens
        return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
