"""Zero-downtime KB refresh: the swap contract, validation, live traffic."""

from __future__ import annotations

import threading

import pytest

from repro.kb.backend import EPOCH_STRIDE, KBSnapshot, wrap_database
from repro.kb.io import load_database, save_sqlite
from repro.serving import ConversationApp, ConversationServer
from tests.conftest import make_toy_database
from tests.serving.conftest import build_toy_agent, http_json, http_text


def memory_builder():
    return wrap_database(make_toy_database(), "memory")


class TestRefreshContract:
    def test_refresh_swaps_epoch_and_generation(self):
        app = ConversationApp(build_toy_agent(), kb_builder=memory_builder)
        handle = app.agent.database
        generation_before = handle.generation

        status, body = app.handle("POST", "/refresh", {})
        assert status == 200
        assert body["status"] == "ok"
        assert body["epoch"] == 1
        assert body["validation_errors"] == 0
        assert handle.epoch == 1
        assert handle.generation > generation_before
        assert handle.generation >= EPOCH_STRIDE

        status, body = app.handle("POST", "/refresh", {})
        assert status == 200
        assert body["epoch"] == 2

    def test_answers_identical_across_refresh(self):
        app = ConversationApp(build_toy_agent(), kb_builder=memory_builder)
        _, before = app.handle(
            "POST", "/chat", {"utterance": "dosage for Aspirin"}
        )
        status, _ = app.handle("POST", "/refresh", {})
        assert status == 200
        _, after = app.handle(
            "POST", "/chat", {"utterance": "dosage for Aspirin"}
        )
        assert after["text"] == before["text"]

    def test_refresh_from_kb_db_file(self, tmp_path):
        path = save_sqlite(make_toy_database(), tmp_path / "kb.db")
        app = ConversationApp(
            build_toy_agent(),
            kb_builder=lambda: KBSnapshot(load_database(path)),
        )
        status, body = app.handle("POST", "/refresh", {})
        assert status == 200
        assert body["epoch"] == 1
        _, answer = app.handle(
            "POST", "/chat", {"utterance": "dosage for Aspirin"}
        )
        assert answer["kind"] == "answer"
        assert "10mg daily" in answer["text"]

    def test_without_builder_is_501(self):
        app = ConversationApp(build_toy_agent())
        status, body = app.handle("POST", "/refresh", {})
        assert status == 501
        assert body["error"] == "refresh_unsupported"

    def test_build_failure_is_500_and_keeps_snapshot(self):
        def broken_builder():
            raise RuntimeError("csv directory vanished")

        app = ConversationApp(build_toy_agent(), kb_builder=broken_builder)
        status, body = app.handle("POST", "/refresh", {})
        assert status == 500
        assert body["error"] == "refresh_build_failed"
        assert app.agent.database.epoch == 0
        _, answer = app.handle(
            "POST", "/chat", {"utterance": "dosage for Aspirin"}
        )
        assert "10mg daily" in answer["text"]

    def test_invalid_snapshot_is_409_and_keeps_snapshot(self):
        def invalid_builder():
            # A KB missing tables the space's templates query: the
            # pre-swap `repro check` validation must reject it.
            db = make_toy_database()
            broken = type(db)("toy")
            broken.create_table(db.table("drug").schema)
            return wrap_database(broken, "memory")

        app = ConversationApp(build_toy_agent(), kb_builder=invalid_builder)
        status, body = app.handle("POST", "/refresh", {})
        assert status == 409
        assert body["error"] == "refresh_validation_failed"
        assert app.agent.database.epoch == 0
        _, answer = app.handle(
            "POST", "/chat", {"utterance": "dosage for Aspirin"}
        )
        assert "10mg daily" in answer["text"]

    def test_metrics_expose_refresh_and_backend(self):
        app = ConversationApp(build_toy_agent(), kb_builder=memory_builder)
        app.handle("POST", "/refresh", {})
        _, text = app.handle("GET", "/metrics", {})
        assert "kb_refresh_total 1" in text
        assert 'plan_lowered_total{path="memory"}' in text
        assert "kb_epoch 1.0" in text
        assert "kb_refresh_duration_seconds_count 1" in text
        assert "query_cache_stale_served_total 0" in text

    def test_refresh_drops_stale_cache_entries(self):
        app = ConversationApp(build_toy_agent(), kb_builder=memory_builder)
        ask = {"utterance": "dosage for Aspirin"}
        app.handle("POST", "/chat", ask)
        app.handle("POST", "/chat", ask)  # warm: second turn can hit cache
        app.handle("POST", "/refresh", {})
        _, after = app.handle("POST", "/chat", ask)
        assert "10mg daily" in after["text"]
        # Whatever was cached against the old generation must have been
        # dropped on revalidation, never served.
        assert app.cache.stale_served == 0


class TestRefreshUnderLoad:
    def test_no_failed_and_no_stale_requests(self):
        """The ISSUE drill: swap repeatedly while traffic is in flight."""
        agent = build_toy_agent()
        server = ConversationServer(
            agent, port=0, max_workers=16, max_pending=256,
            request_timeout=30.0, kb_builder=memory_builder,
        )
        with server:
            address = server.address
            stop = threading.Event()
            failures: list[tuple[int, dict]] = []
            completed = [0]
            lock = threading.Lock()

            def client(drug: str, expected: str) -> None:
                while not stop.is_set():
                    status, body = http_json(
                        address + "/chat", {"utterance": f"dosage for {drug}"}
                    )
                    ok = status == 200 and expected in body.get("text", "")
                    with lock:
                        completed[0] += 1
                        if not ok:
                            failures.append((status, body))

            clients = [
                threading.Thread(target=client, args=("Aspirin", "10mg daily")),
                threading.Thread(target=client, args=("Ibuprofen", "20mg daily")),
                threading.Thread(target=client, args=("Benazepril", "50mg daily")),
            ]
            for thread in clients:
                thread.start()
            try:
                refreshes = 0
                for _ in range(3):
                    status, body = http_json(address + "/refresh", {})
                    assert status == 200, body
                    refreshes += 1
                assert server.app.agent.database.epoch == refreshes
            finally:
                stop.set()
                for thread in clients:
                    thread.join(timeout=30.0)

            assert failures == []
            assert completed[0] > 0
            _, metrics = http_text(address + "/metrics")
            assert f"kb_refresh_total {refreshes}" in metrics
            assert "query_cache_stale_served_total 0" in metrics

    def test_concurrent_refreshes_serialize(self):
        import time

        release = threading.Event()

        def slow_builder():
            release.wait(timeout=30.0)
            return memory_builder()

        app = ConversationApp(build_toy_agent(), kb_builder=slow_builder)
        results: list[tuple[int, dict]] = []

        def refresher():
            results.append(app.handle("POST", "/refresh", {}))

        first = threading.Thread(target=refresher)
        first.start()
        time.sleep(0.2)  # let the first refresh enter the build
        status, body = app.handle("POST", "/refresh", {})
        assert status == 409
        assert body["error"] == "refresh_in_progress"
        release.set()
        first.join(timeout=30.0)
        assert results and results[0][0] == 200
        assert app.agent.database.epoch == 1
