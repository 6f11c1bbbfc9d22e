"""Tests for the feedback log (§7.2)."""

import pytest

from repro.engine.feedback import FeedbackLog, InteractionRecord


def record(intent="A", feedback=None) -> InteractionRecord:
    return InteractionRecord(
        utterance="u", response="r", intent=intent, confidence=0.9,
        outcome_kind="answer", feedback=feedback,
    )


class TestLog:
    def test_append_and_len(self):
        log = FeedbackLog()
        log.record(record())
        assert len(log) == 1
        assert list(log)[0].intent == "A"

    def test_mark_last(self):
        log = FeedbackLog()
        log.record(record())
        log.mark_last("down")
        assert log.records()[0].feedback == "down"

    def test_mark_last_requires_record(self):
        with pytest.raises(ValueError):
            FeedbackLog().mark_last("down")

    def test_mark_last_validates_value(self):
        log = FeedbackLog()
        log.record(record())
        with pytest.raises(ValueError):
            log.mark_last("sideways")


class TestEquationOne:
    def test_empty_log_is_perfect(self):
        assert FeedbackLog().success_rate() == 1.0

    def test_success_rate(self):
        log = FeedbackLog()
        for feedback in (None, None, "down", "up"):
            log.record(record(feedback=feedback))
        assert log.negative_count() == 1
        assert log.success_rate() == 0.75

    def test_per_intent(self):
        log = FeedbackLog()
        log.record(record(intent="A"))
        log.record(record(intent="A", feedback="down"))
        log.record(record(intent="B"))
        per_intent = log.per_intent()
        assert per_intent["A"] == (2, 1)
        assert per_intent["B"] == (1, 0)

    def test_intentless_records_grouped(self):
        log = FeedbackLog()
        log.record(record(intent=None))
        assert "<none>" in log.per_intent()


class TestRecordFootprint:
    """The log keeps one record per turn for the life of the agent."""

    def test_records_are_slotted(self):
        assert not hasattr(record(), "__dict__")

    def test_equal_response_texts_share_one_object(self):
        log = FeedbackLog()
        texts = ["".join(["Here is what ", "I found."]) for _ in range(2)]
        assert texts[0] is not texts[1]
        for text in texts:
            log.record(InteractionRecord(
                utterance="u", response=text, intent="A", confidence=0.9,
                outcome_kind="answer",
            ))
        kept = log.records()
        assert kept[0].response is kept[1].response
        assert kept[0] == kept[1]  # values and equality unchanged
