"""Regression tests for the thread-pool server's concurrency bugs.

Each test here pins one of the fixed defects in place:

* the check-then-act admission race (``in_flight`` read in one lock
  acquisition, incremented in another) that let racing requests all
  pass the ``max_pending`` gate at once;
* the 504 path freeing a turn slot while the turn kept running on the
  executor — admission control under-counted real load, and the
  abandoned future's exception was never retrieved;
* unmatched request paths minted one ``http_requests_total`` label per
  raw URL, so a scanner could grow registry memory without bound;
* ``classify_batch`` falling through ``_TimingClassifier.__getattr__``
  untimed, silently blanking ``classifier_latency_seconds`` for
  batching callers;
* the same defect for ``analyze``, the per-turn entry point the
  classify stage calls: every served ``/chat`` turn must observe
  exactly one classifier latency sample.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.serving import MetricsRegistry, ServingError
from repro.serving.server import ConversationApp, _TimingClassifier
from tests.serving.conftest import build_toy_agent


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _blocked_agent(release: threading.Event):
    """A toy agent whose turns park until ``release`` is set."""
    agent = build_toy_agent()
    original = agent.respond

    def blocked(utterance, context, chunk_sink=None):
        release.wait(timeout=10.0)
        return original(utterance, context, chunk_sink)

    agent.respond = blocked
    return agent


class TestAtomicAdmissionGate:
    def test_racing_requests_admit_exactly_max_pending(self):
        """max_pending + k simultaneous requests: exactly k get 503.

        All threads pass a barrier and hit the admission gate together
        while every admitted turn stays parked, so no slot is released
        until the count is asserted.  Under the old split check/increment
        the gate could admit more than ``max_pending`` turns.
        """
        release = threading.Event()
        app = ConversationApp(
            _blocked_agent(release),
            max_workers=4,
            max_pending=4,
            request_timeout=30.0,
        )
        try:
            extra = 3
            total = app.max_pending + extra
            barrier = threading.Barrier(total)
            results: list[tuple] = []
            results_lock = threading.Lock()

            def go():
                barrier.wait(timeout=10.0)
                try:
                    out = app.chat({"utterance": "dosage for Aspirin"})
                except ServingError as exc:
                    with results_lock:
                        results.append(("rejected", exc.status, exc.code))
                else:
                    with results_lock:
                        results.append(("ok", out["kind"]))

            threads = [threading.Thread(target=go) for _ in range(total)]
            for thread in threads:
                thread.start()
            # The k rejections return immediately; the admitted turns
            # are still parked, holding their slots.
            assert _wait_until(lambda: len(results) >= extra)
            assert app.in_flight == app.max_pending
            rejected = [r for r in results if r[0] == "rejected"]
            assert len(rejected) == extra
            assert all(r[1:] == (503, "overloaded") for r in rejected)

            release.set()
            for thread in threads:
                thread.join(timeout=10.0)
            ok = [r for r in results if r[0] == "ok"]
            assert len(ok) == app.max_pending
            assert (
                app.metrics.counter(
                    "admission_rejected_total", ("reason", "overloaded")
                ).value
                == extra
            )
            assert _wait_until(lambda: app.in_flight == 0)
        finally:
            release.set()
            app.close(drain_timeout=10.0)


class TestTimedOutTurnSlot:
    def test_504_keeps_slot_reserved_until_turn_finishes(self):
        """A timed-out turn is abandoned, not forgotten by admission.

        The old code decremented ``in_flight`` on the 504 path even
        though the turn kept occupying an executor thread — admission
        control then over-admitted against phantom capacity.
        """
        release = threading.Event()
        app = ConversationApp(
            _blocked_agent(release),
            max_workers=1,
            max_pending=1,
            request_timeout=0.15,
        )
        try:
            with pytest.raises(ServingError) as info:
                app.chat({"utterance": "dosage for Aspirin"})
            assert info.value.status == 504
            # The turn is still running: its slot must stay reserved.
            assert app.in_flight == 1
            assert app.metrics.counter("turns_abandoned_total").value == 1
            assert app.metrics.counter("turn_timeouts_total").value == 1
            # Admission control still sees the abandoned turn as load.
            with pytest.raises(ServingError) as second:
                app.chat({"utterance": "help"})
            assert second.value.status == 503
            assert second.value.code == "overloaded"
            release.set()
            assert _wait_until(lambda: app.in_flight == 0)
        finally:
            release.set()
            app.close(drain_timeout=10.0)

    def test_abandoned_turn_exception_is_retrieved_and_logged(self, caplog):
        release = threading.Event()
        agent = build_toy_agent()

        def exploding(utterance, context, chunk_sink=None):
            release.wait(timeout=10.0)
            raise RuntimeError("post-abandonment boom")

        agent.respond = exploding
        app = ConversationApp(
            agent, max_workers=1, max_pending=1, request_timeout=0.1
        )
        try:
            with pytest.raises(ServingError) as info:
                app.chat({"utterance": "dosage for Aspirin"})
            assert info.value.status == 504
            with caplog.at_level(logging.WARNING, logger="repro.serving"):
                release.set()
                assert _wait_until(lambda: app.in_flight == 0)
            assert "turn abandoned" in caplog.text
            assert "post-abandonment boom" in caplog.text
        finally:
            release.set()
            app.close(drain_timeout=10.0)


class TestMetricLabelCardinality:
    def test_unmatched_routes_collapse_to_one_label(self):
        app = ConversationApp(build_toy_agent(), max_workers=2)
        try:
            for path in ("/scan/admin.php", "/scan/wp-login", "/.env"):
                status, _body = app.handle("GET", path, {})
                assert status == 404
            text = app.metrics.render()
            assert 'http_requests_total{route="<unmatched>"} 3' in text
            assert "scan" not in text
            assert ".env" not in text
            # Known routes keep their own label.
            app.handle("GET", "/healthz", {})
            assert (
                'http_requests_total{route="GET /healthz"} 1'
                in app.metrics.render()
            )
        finally:
            app.close(drain_timeout=10.0)

    def test_sync_server_declines_stream_route_with_501(self):
        app = ConversationApp(build_toy_agent(), max_workers=2)
        try:
            status, body = app.handle(
                "POST", "/chat/stream", {"utterance": "hi"}
            )
            assert status == 501
            assert body["error"] == "stream_unsupported"
        finally:
            app.close(drain_timeout=10.0)


class TestTimingClassifierBatch:
    class _Stub:
        marker = "stub"

        def classify(self, utterance):
            return "intent"

        def classify_batch(self, utterances):
            return ["intent"] * len(utterances)

    def test_classify_batch_observes_latency_per_utterance(self):
        registry = MetricsRegistry()
        proxy = _TimingClassifier(self._Stub(), registry)
        assert proxy.classify_batch(["a", "b", "c"]) == ["intent"] * 3
        histogram = registry.histogram("classifier_latency_seconds")
        assert histogram.count == 3  # fell through __getattr__ before: 0
        proxy.classify("x")
        assert histogram.count == 4
        proxy.classify_batch([])
        assert histogram.count == 4
        # Non-entry-point attributes still pass through.
        assert proxy.marker == "stub"


class TestTimingClassifierAnalyze:
    def test_every_chat_turn_observes_one_classifier_sample(self):
        app = ConversationApp(build_toy_agent(), max_workers=2)
        utterances = [
            "dosage for Aspirin", "precaution for Aspirin", "thanks",
            "qwertyuiop zxcvb", "Aspirin",
        ]
        try:
            session_id = None
            for utterance in utterances:
                payload = {"utterance": utterance}
                if session_id is not None:
                    payload["session_id"] = session_id
                status, body = app.handle("POST", "/chat", payload)
                assert status == 200
                session_id = body["session_id"]
            count = next(
                int(float(line.split()[-1]))
                for line in app.metrics.render().splitlines()
                if line.startswith("repro_classifier_latency_seconds_count")
            )
            assert count == len(utterances)  # analyze was untimed before: 0
        finally:
            app.close(drain_timeout=10.0)

    def test_analyze_is_proxied_explicitly(self):
        class Stub:
            def analyze(self, utterance):
                return ("analysis", utterance)

        registry = MetricsRegistry()
        proxy = _TimingClassifier(Stub(), registry)
        assert "analyze" in type(proxy).__dict__
        assert proxy.analyze("x") == ("analysis", "x")
        assert registry.histogram("classifier_latency_seconds").count == 1
