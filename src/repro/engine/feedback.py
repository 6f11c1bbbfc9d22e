"""User feedback capture (thumbs up / thumbs down).

§7.2: success is measured from the feedback buttons — "we consider the
negative feedback more credible" — so every interaction is logged with
an optional feedback mark, and the evaluation harness computes success
rates from the log.

The log is shared by every concurrent session of an agent, so all
mutation and aggregation is guarded by a lock: concurrent sessions can
not interleave within an append or drop records, and
:meth:`mark_last_for_session` attaches feedback to *that conversation's*
latest interaction even when other sessions have logged since.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator


@dataclass(slots=True)
class InteractionRecord:
    """One logged user interaction (slotted: the log keeps one per turn)."""

    utterance: str
    response: str
    intent: str | None
    confidence: float
    outcome_kind: str
    feedback: str | None = None  # "up", "down" or None
    session_id: int = 0
    sme_label: str | None = None  # "positive"/"negative" when SME-reviewed


def _check_feedback(feedback: str) -> None:
    if feedback not in ("up", "down"):
        raise ValueError("feedback must be 'up' or 'down'")


class FeedbackLog:
    """A thread-safe append-only log of interactions with feedback marks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[InteractionRecord] = []
        # Response text -> the one copy the log keeps.  The log holds
        # every turn, and the same question mostly gets the same answer
        # text, so records share it rather than each keeping a copy.
        self._responses: dict[str, str] = {}

    def record(self, record: InteractionRecord) -> InteractionRecord:
        with self._lock:
            record.response = self._responses.setdefault(
                record.response, record.response
            )
            self._records.append(record)
        return record

    def mark_last(self, feedback: str) -> None:
        """Attach thumbs feedback to the most recent interaction."""
        _check_feedback(feedback)
        with self._lock:
            if not self._records:
                raise ValueError("no interaction to mark")
            self._records[-1].feedback = feedback

    def mark_last_for_session(self, session_id: int, feedback: str) -> None:
        """Attach feedback to ``session_id``'s most recent interaction.

        Under concurrent sessions the global tail may belong to another
        conversation, so the thumbs buttons must address the session's
        own latest turn.
        """
        _check_feedback(feedback)
        with self._lock:
            for record in reversed(self._records):
                if record.session_id == session_id:
                    record.feedback = feedback
                    return
        raise ValueError(f"no interaction to mark for session {session_id}")

    def records(self) -> list[InteractionRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[InteractionRecord]:
        return iter(self.records())

    # -- aggregates -----------------------------------------------------------

    def negative_count(self) -> int:
        with self._lock:
            return sum(1 for r in self._records if r.feedback == "down")

    def success_rate(self) -> float:
        """Equation 1: (interactions - negative) / interactions."""
        with self._lock:
            if not self._records:
                return 1.0
            negative = sum(1 for r in self._records if r.feedback == "down")
            return 1.0 - negative / len(self._records)

    def per_intent(self) -> dict[str, tuple[int, int]]:
        """intent -> (total interactions, negative interactions)."""
        out: dict[str, list[int]] = {}
        with self._lock:
            for record in self._records:
                key = record.intent or "<none>"
                bucket = out.setdefault(key, [0, 0])
                bucket[0] += 1
                if record.feedback == "down":
                    bucket[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}
