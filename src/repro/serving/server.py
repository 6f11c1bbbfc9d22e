"""JSON-over-HTTP conversation server multiplexing many user sessions.

The paper deploys Conversational MDX as a cloud service answering real
clinician traffic (§6–§7); this module is that serving layer for the
reproduction.  One shared, immutable :class:`ConversationAgent` answers
every request; all mutable per-conversation state lives in the
:class:`~repro.serving.session_store.SessionStore`, and repeated lookup
queries are short-circuited by the
:class:`~repro.serving.query_cache.QueryCache`.

Endpoints
---------
``POST /chat``
    ``{"utterance": ..., "session_id": optional, "debug": optional,
    "client_turn_id": optional}`` → the agent turn.  Omitting
    ``session_id`` opens a new session; the response always echoes the
    id to use on the next turn.  With ``"debug": true`` the response
    additionally carries the per-stage turn trace under ``"debug"``.
    ``client_turn_id`` (any client-chosen string, unique per attempted
    turn) makes retries idempotent: re-sending a turn the server
    already committed returns the committed response instead of
    running the turn twice.
``POST /feedback``
    ``{"session_id": ..., "feedback": "up"|"down"}`` → thumbs feedback
    on that session's most recent interaction (Equation 1 input).
``GET /healthz``
    Liveness plus session/in-flight gauges.
``GET /metrics``
    Prometheus-style text: per-intent turn latency histograms,
    per-stage pipeline latency histograms and deciding-stage counters,
    classifier latency, cache hit rate, session churn, HTTP counters,
    and (durable mode) journal/snapshot/recovery counters.
``GET /sessions`` / ``GET /session?session_id=N``
    Session inspection: live and journaled sessions, and one session's
    committed transcript (read-only — inspecting a journaled session
    does not page it back into memory).

Concurrency model: ``ThreadingHTTPServer`` accepts requests, but agent
turns execute on a bounded ``ThreadPoolExecutor`` — the worker pool is
the admission control.  Each request carries a timeout (504 on expiry)
and the server sheds load with 503 once ``max_pending`` turns are in
flight.  ``shutdown()`` drains: new chat turns are refused, in-flight
turns finish, then the interaction log is flushed atomically.

Durability: constructed with a ``data_dir`` the app replaces its
in-memory session store with a
:class:`~repro.persistence.store.DurableSessionStore` — every committed
turn is journaled *before* the response leaves the process, eviction
snapshots instead of losing state, unknown session ids are paged back
in from disk, and boot runs crash recovery.  See
:mod:`repro.persistence`.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, TimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.engine.agent import ConversationAgent
from repro.engine.kinds import ResponseKind
from repro.engine.logging import save_log
from repro.errors import EngineError
from repro.serving.metrics import MetricsRegistry
from repro.serving.query_cache import CachingDatabase, QueryCache
from repro.serving.session_store import SessionEntry, SessionStore

#: Maximum accepted request body, in bytes (an utterance, not an upload).
MAX_BODY_BYTES = 64 * 1024


def parse_content_length(value: str | None) -> int:
    """The request body size named by a ``Content-Length`` header value.

    Shared by every HTTP front end.  An absent or empty header means no
    body.  Anything but ASCII digits (a sign, a non-ASCII digit such as
    ``٢``, junk) is a 400 ``bad_request``; a size above
    :data:`MAX_BODY_BYTES` is a 413 ``too_large``.
    """
    text = (value or "").strip()
    if not text:
        return 0
    if not (text.isascii() and text.isdigit()):
        raise ServingError(400, "bad_request", "invalid Content-Length")
    length = int(text)
    if length > MAX_BODY_BYTES:
        raise ServingError(413, "too_large", "request body too large")
    return length

#: Routes the app serves; anything else is labelled ``<unmatched>`` in
#: ``http_requests_total`` so a scanner walking random 404 URLs cannot
#: grow metric label cardinality (and registry memory) without bound.
KNOWN_ROUTES = frozenset({
    "POST /chat",
    "POST /chat/stream",
    "POST /feedback",
    "POST /refresh",
    "GET /healthz",
    "GET /metrics",
    "GET /sessions",
    "GET /session",
})

logger = logging.getLogger("repro.serving")


def _session_sort_key(sid: str) -> tuple:
    return (not sid.isdigit(), int(sid) if sid.isdigit() else 0, sid)


class _TimingClassifier:
    """Delegating classifier proxy that records classification latency.

    ``analyze``, ``classify`` and ``classify_batch`` are proxied
    explicitly; none may fall through ``__getattr__`` untimed.
    ``analyze`` is the entry point the turn pipeline's
    classify stage calls, and ``IntentClassifier.classify`` delegates to
    it on the unwrapped object, so timing it here counts every served
    turn once.  ``classify_batch`` is the path batched callers take —
    letting it bypass the timer would silently blank
    ``classifier_latency_seconds`` for any batching server.  Batch
    latency is observed per utterance so the histogram stays comparable
    across the paths.
    """

    def __init__(self, classifier: Any, registry: MetricsRegistry) -> None:
        self._classifier = classifier
        self._registry = registry

    def _timed(self, method: str, utterance: Any) -> Any:
        start = time.perf_counter()
        try:
            return getattr(self._classifier, method)(utterance)
        finally:
            self._registry.histogram("classifier_latency_seconds").observe(
                time.perf_counter() - start
            )

    def analyze(self, utterance: Any) -> Any:
        return self._timed("analyze", utterance)

    def classify(self, utterance: str) -> Any:
        return self._timed("classify", utterance)

    def classify_batch(self, utterances: Any) -> Any:
        start = time.perf_counter()
        try:
            return self._classifier.classify_batch(utterances)
        finally:
            count = len(utterances)
            if count:
                per_utterance = (time.perf_counter() - start) / count
                histogram = self._registry.histogram(
                    "classifier_latency_seconds"
                )
                for _ in range(count):
                    histogram.observe(per_utterance)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._classifier, name)


class ServingError(Exception):
    """An error with an HTTP status and a machine-readable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class ConversationApp:
    """Transport-independent request handling (shared by tests and HTTP)."""

    def __init__(
        self,
        agent: ConversationAgent,
        *,
        max_sessions: int = 1024,
        session_ttl: float = 1800.0,
        cache_size: int = 512,
        cache_ttl: float = 300.0,
        max_workers: int = 16,
        max_pending: int = 128,
        request_timeout: float = 30.0,
        log_path: str | Path | None = None,
        data_dir: str | Path | None = None,
        fsync: str = "always",
        snapshot_every: int = 64,
        id_stride: int = 1,
        id_offset: int = 1,
        recover_on_boot: bool = True,
        kb_builder: Callable[[], Any] | None = None,
    ) -> None:
        self.agent = agent
        self.metrics = MetricsRegistry()
        #: Zero-argument callable producing the *next* KB snapshot for
        #: ``POST /refresh`` (typically a rebuild of the bootstrap
        #: pipeline).  Refresh is a 501 when no builder is wired.
        self._kb_builder = kb_builder
        self._refresh_state_lock = threading.Lock()
        self._refresh_in_progress = False
        self.durable = None
        if data_dir is not None:
            # Imported lazily: repro.persistence.store depends on this
            # package's session store, so a module-level import would be
            # circular.
            from repro.persistence.store import DurableSessionStore

            self.durable = DurableSessionStore(
                agent,
                data_dir,
                max_sessions=max_sessions,
                ttl=session_ttl,
                fsync=fsync,
                snapshot_every=snapshot_every,
                id_stride=id_stride,
                id_offset=id_offset,
                recover_on_boot=recover_on_boot,
            )
            #: ``sessions`` is the lifecycle surface (create/get page
            #: through disk in durable mode); ``store`` stays the
            #: in-memory working set for gauges and inspection.
            self.sessions = self.durable
            self.store = self.durable.store
        else:
            self.store = SessionStore(
                agent, max_sessions=max_sessions, ttl=session_ttl
            )
            self.sessions = self.store
        self.cache = QueryCache(max_entries=cache_size, ttl=cache_ttl)
        self.request_timeout = request_timeout
        self.max_pending = max_pending
        self.log_path = Path(log_path) if log_path is not None else None
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-turn"
        )
        self._in_flight = 0
        self._state_lock = threading.Lock()
        self._draining = False
        #: Turn futures whose client already got a 504: the turn is
        #: still running on the executor, its slot is still reserved
        #: (the done-callback frees it), and its eventual exception is
        #: retrieved and logged instead of becoming "never retrieved"
        #: noise.
        self._abandoned: set[Future] = set()
        # The agent is shared and immutable during serving *except* for
        # these two instrumentation hooks, installed for the server's
        # lifetime and removed by close(): the database proxy adds the
        # query cache, the classifier proxy adds latency telemetry.
        self._original_database = agent.database
        self._original_classifier = agent.classifier
        agent.database = CachingDatabase(agent.database, self.cache)
        agent.classifier = _TimingClassifier(agent.classifier, self.metrics)
        self.metrics.gauge("sessions_active", lambda: len(self.store))
        self.metrics.gauge(
            "sessions_evicted_ttl_total", lambda: self.store.evicted_ttl
        )
        self.metrics.gauge(
            "sessions_evicted_lru_total", lambda: self.store.evicted_lru
        )
        self.metrics.gauge("turns_in_flight", lambda: self.in_flight)
        self.metrics.gauge(
            "query_cache_hit_rate", lambda: round(self.cache.hit_rate(), 6)
        )
        # Plan/index observability (read from the unwrapped database so
        # the gauges keep working after close() restores the hooks).
        self.metrics.gauge(
            "plan_cache_hits_total",
            lambda: self._original_database.plan_stats()["hits"],
        )
        self.metrics.gauge(
            "plan_cache_misses_total",
            lambda: self._original_database.plan_stats()["misses"],
        )
        self.metrics.gauge(
            "plan_cache_plans", lambda: self._original_database.plan_stats()["plans"]
        )
        self.metrics.gauge(
            "plan_index_probes_total",
            lambda: self._original_database.plan_stats()["index_probes"],
        )
        self.metrics.gauge(
            "kb_index_builds_total",
            lambda: sum(
                int(t.index_stats()["builds"])
                for t in self._original_database.tables()
            ),
        )
        self.metrics.gauge(
            "kb_generation", lambda: self._original_database.generation
        )
        # KB refresh observability.  kb_refresh_total and the duration
        # histogram are registered now so they render as 0 before the
        # first refresh; plan_lowered_total counts plan executions of
        # the active snapshot under its one path label, ``memory``.
        self.metrics.counter("kb_refresh_total")
        self._refresh_duration = self.metrics.histogram(
            "kb_refresh_duration_seconds"
        )
        self.metrics.gauge(
            "kb_epoch",
            lambda: float(getattr(self._original_database, "epoch", 0)),
        )
        self.metrics.gauge(
            "plan_lowered_total",
            lambda: float(self._original_database.plan_stats()["executions"]),
            label=("path", "memory"),
        )
        self.metrics.gauge(
            "query_cache_stale_drops_total",
            lambda: float(self.cache.stale_drops),
        )
        self.metrics.gauge(
            "query_cache_stale_served_total",
            lambda: float(self.cache.stale_served),
        )
        if self.durable is not None:
            for name in self.durable.counters:
                self.metrics.gauge(
                    name, lambda n=name: self.durable.counter(n)
                )

    # -- state ---------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._state_lock:
            return self._in_flight

    @property
    def draining(self) -> bool:
        with self._state_lock:
            return self._draining

    def _try_reserve_slot(self) -> bool:
        """Atomically reserve one in-flight turn slot (the admission gate).

        The capacity check and the increment happen under a single lock
        acquisition, so N requests racing the gate admit at most
        ``max_pending`` turns.  (The old pattern read ``in_flight`` in
        one acquisition and incremented in a second — a check-then-act
        race that let concurrent requests all pass the gate at once.)
        """
        with self._state_lock:
            if self._in_flight >= self.max_pending:
                return False
            self._in_flight += 1
            return True

    def _release_slot(self) -> None:
        """Undo a reservation whose turn never reached the executor."""
        with self._state_lock:
            self._in_flight -= 1

    def _on_turn_done(self, future: Future) -> None:
        """Done-callback on every turn future: the only slot release.

        A 504 abandons the future, but ``Future.cancel`` cannot stop a
        turn that is already running — the executor thread it occupies
        is real load, so the slot stays reserved (visible to admission
        control) until the turn actually finishes, which is exactly when
        this callback fires.  Abandoned futures also get their exception
        retrieved and logged here instead of surfacing as "exception was
        never retrieved" noise at interpreter shutdown.
        """
        with self._state_lock:
            self._in_flight -= 1
            abandoned = future in self._abandoned
            self._abandoned.discard(future)
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None and abandoned:
            logger.warning(
                "turn abandoned by its 504 client failed: %r", exc
            )

    def begin_drain(self) -> None:
        with self._state_lock:
            self._draining = True

    def drain(self, timeout: float = 10.0) -> bool:
        """Refuse new turns, wait for in-flight ones; True when drained."""
        self.begin_drain()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.in_flight == 0:
                return True
            time.sleep(0.01)
        return self.in_flight == 0

    def close(self, drain_timeout: float = 10.0) -> bool:
        """Drain, stop workers, flush the log, restore the agent hooks.

        In durable mode every live session is snapshotted on the way
        out, so a clean restart recovers with zero journal replay.
        """
        drained = self.drain(drain_timeout)
        self._executor.shutdown(wait=True)
        self.agent.database = self._original_database
        self.agent.classifier = self._original_classifier
        if self.durable is not None:
            self.durable.close()
        self.flush_log()
        return drained

    def flush_log(self) -> int:
        """Write the interaction log (atomic replace); records written."""
        if self.log_path is None:
            return 0
        return save_log(self.agent.feedback_log, self.log_path)

    # -- request handling ----------------------------------------------------

    def handle(self, method: str, path: str, payload: dict) -> tuple[int, dict | str]:
        """Route one request; returns (status, JSON-able body or text).

        GET query parameters (``/session?session_id=7``) are folded into
        the payload; explicit payload keys win.
        """
        parts = urlsplit(path)
        if parts.query:
            query = {
                key: values[-1]
                for key, values in parse_qs(parts.query).items()
            }
            query.update(payload)
            payload = query
        route = f"{method} {parts.path}"
        self.metrics.counter(
            "http_requests_total",
            ("route", route if route in KNOWN_ROUTES else "<unmatched>"),
        ).inc()
        try:
            if route == "POST /chat":
                return 200, self.chat(payload)
            if route == "POST /chat/stream":
                raise ServingError(
                    501,
                    "stream_unsupported",
                    "streaming requires the async front end "
                    "(repro serve --async)",
                )
            if route == "POST /feedback":
                return 200, self.feedback(payload)
            if route == "POST /refresh":
                return 200, self.refresh_kb(payload)
            if route == "GET /healthz":
                return 200, self.health()
            if route == "GET /metrics":
                return 200, self.metrics.render()
            if route == "GET /sessions":
                return 200, self.list_sessions()
            if route == "GET /session":
                return 200, self.session_detail(payload)
            raise ServingError(404, "not_found", f"no route for {route}")
        except ServingError as exc:
            self.metrics.counter(
                "http_errors_total", ("code", exc.code)
            ).inc()
            return exc.status, {"error": exc.code, "message": exc.message}

    def _admit_chat(
        self, payload: dict
    ) -> tuple[str, str, SessionEntry, bool, str | None]:
        """Validate a chat payload and resolve its session (no slot yet)."""
        utterance = payload.get("utterance")
        if not isinstance(utterance, str) or not utterance.strip():
            raise ServingError(
                400, "bad_request", "'utterance' must be a non-empty string"
            )
        if self.draining:
            self.metrics.counter(
                "admission_rejected_total", ("reason", "draining")
            ).inc()
            raise ServingError(503, "draining", "server is shutting down")
        session_id = payload.get("session_id")
        if session_id is None:
            sid, entry = self.sessions.create()
        else:
            sid = str(session_id)
            found = self.sessions.get(sid)
            if found is None:
                raise ServingError(
                    404,
                    "unknown_session",
                    f"session {sid} does not exist (it may have expired)",
                )
            entry = found
        debug = bool(payload.get("debug"))
        client_turn_id = payload.get("client_turn_id")
        if client_turn_id is not None:
            client_turn_id = str(client_turn_id)
        return utterance, sid, entry, debug, client_turn_id

    def submit_turn(
        self,
        sid: str,
        entry: SessionEntry,
        utterance: str,
        debug: bool,
        client_turn_id: str | None,
        chunk_sink: Callable[[str, dict], None] | None = None,
    ) -> Future:
        """Reserve a slot and start the turn on the executor.

        Raises 503 when admission control refuses the turn; otherwise
        the returned future resolves to the committed-turn dict.  The
        slot is released by the future's done-callback — callers that
        stop waiting must report through :meth:`timeout_turn`, never by
        touching the slot count themselves.
        """
        if not self._try_reserve_slot():
            self.metrics.counter(
                "admission_rejected_total", ("reason", "overloaded")
            ).inc()
            raise ServingError(503, "overloaded", "too many turns in flight")
        try:
            future: Future = self._executor.submit(
                self._turn, sid, entry, utterance, debug, client_turn_id,
                chunk_sink,
            )
        except BaseException:
            self._release_slot()
            raise
        future.add_done_callback(self._on_turn_done)
        return future

    def timeout_turn(self, future: Future) -> ServingError:
        """Bookkeeping for a turn whose client gave up; returns the 504.

        ``Future.cancel`` cannot stop a running turn, so an uncancellable
        future is marked abandoned: its slot stays reserved (it is real
        executor load) until the done-callback fires, and its eventual
        exception is retrieved and logged there.
        """
        abandoned = False
        if not future.cancel():
            with self._state_lock:
                if not future.done():
                    self._abandoned.add(future)
                    abandoned = True
        if abandoned:
            self.metrics.counter("turns_abandoned_total").inc()
        self.metrics.counter("turn_timeouts_total").inc()
        return ServingError(
            504, "timeout", f"turn exceeded {self.request_timeout}s"
        )

    def stream_sink(
        self, emit: Callable[[str, dict], None]
    ) -> Callable[[str, dict], None]:
        """Wrap a transport ``emit`` as a shielded turn chunk sink.

        The returned sink runs on the executor thread driving the turn.
        If ``emit`` raises (the client went away mid-stream) the error
        is logged, further chunks are dropped, and the turn still
        commits; successful chunks count into ``stream_chunks_total``.
        """
        sink_broken: list[BaseException] = []

        def sink(kind: str, data: dict) -> None:
            if sink_broken:
                return
            try:
                emit(kind, data)
            except Exception as exc:
                sink_broken.append(exc)
                logger.warning(
                    "stream sink failed; dropping further chunks: %r", exc
                )
                return
            self.metrics.counter("stream_chunks_total").inc()

        return sink

    def _run_turn(
        self,
        sid: str,
        entry: SessionEntry,
        utterance: str,
        debug: bool,
        client_turn_id: str | None,
        chunk_sink: Callable[[str, dict], None] | None = None,
    ) -> dict:
        """Run one turn synchronously, enforcing the request timeout."""
        future = self.submit_turn(
            sid, entry, utterance, debug, client_turn_id, chunk_sink
        )
        try:
            return future.result(timeout=self.request_timeout)
        except TimeoutError:
            raise self.timeout_turn(future) from None

    def chat(self, payload: dict) -> dict:
        utterance, sid, entry, debug, client_turn_id = self._admit_chat(
            payload
        )
        return self._run_turn(sid, entry, utterance, debug, client_turn_id)

    def chat_stream(
        self, payload: dict, emit: Callable[[str, dict], None]
    ) -> dict:
        """Run one turn, streaming incremental events through ``emit``.

        Events arrive in order while the turn executes: ``rows`` batches
        from the answer stage (emitted as soon as the KB query returns,
        before the answer text is rendered or the turn committed), then
        one ``elicitation``/``disambiguation`` event for clarification
        turns.  The returned dict is the committed turn — byte-identical
        to what ``POST /chat`` returns — which the transport sends as
        the terminating ``done`` event.  Admission, timeout and
        abandonment semantics are exactly :meth:`chat`'s.

        ``emit`` runs on the executor thread driving the turn, so
        transports must hand chunks off thread-safely.  It is shielded:
        if it raises (client went away mid-stream), the error is logged,
        further chunks are dropped, and the turn still commits.
        """
        utterance, sid, entry, debug, client_turn_id = self._admit_chat(
            payload
        )
        return self._run_turn(
            sid, entry, utterance, debug, client_turn_id,
            chunk_sink=self.stream_sink(emit),
        )

    def _turn(
        self,
        sid: str,
        entry: SessionEntry,
        utterance: str,
        debug: bool = False,
        client_turn_id: str | None = None,
        chunk_sink: Callable[[str, dict], None] | None = None,
    ) -> dict:
        start = time.perf_counter()
        with entry.lock:
            if (
                client_turn_id is not None
                and entry.last_commit is not None
                and entry.last_commit[0] == client_turn_id
            ):
                # The client is retrying a turn that already committed
                # (it never saw the response — a dropped connection or a
                # worker death after the journal append): replay the
                # committed answer instead of mutating the conversation
                # a second time.
                self.metrics.counter("turns_deduplicated_total").inc()
                return dict(entry.last_commit[1])
            try:
                response = entry.session.ask(utterance, chunk_sink)
            except EngineError as exc:
                raise ServingError(400, "bad_request", str(exc)) from exc
            if chunk_sink is not None:
                if response.kind == ResponseKind.ELICIT:
                    chunk_sink("elicitation", {
                        "text": response.text,
                        "concept": response.elicit_concept,
                    })
                elif response.kind == ResponseKind.DISAMBIGUATE:
                    pending = (
                        entry.session.context.variables.get("disambiguation")
                        or {}
                    )
                    chunk_sink("disambiguation", {
                        "text": response.text,
                        "choices": [
                            value for _, value in pending.get("candidates", [])
                        ],
                    })
            entry.turn_count += 1
            result = {
                "session_id": sid,
                "text": response.text,
                "intent": response.intent,
                "confidence": response.confidence,
                "kind": response.kind,
                "entities": dict(response.entities),
                "sql": response.sql,
                "turn": entry.turn_count,
            }
            # The commit point: once the journal append returns, the
            # turn survives kill -9 and the response may go out.
            if self.durable is not None:
                self.durable.commit_turn(
                    sid, entry, utterance, result, client_turn_id
                )
            elif client_turn_id is not None:
                entry.last_commit = (client_turn_id, dict(result))
        elapsed = time.perf_counter() - start
        intent_label = response.intent or "<none>"
        self.metrics.counter("turns_total").inc()
        self.metrics.histogram("turn_latency_seconds").observe(elapsed)
        self.metrics.histogram(
            "turn_latency_seconds", ("intent", intent_label)
        ).observe(elapsed)
        trace = response.trace
        if trace is not None:
            for stage in trace.stages:
                self.metrics.histogram(
                    "turn_stage_latency_seconds", ("stage", stage.stage)
                ).observe(stage.duration)
            self.metrics.counter(
                "turn_stage_decisions_total",
                ("stage", trace.deciding_stage or "<none>"),
            ).inc()
        if debug and trace is not None:
            result = dict(result)
            result["debug"] = trace.to_dict()
        return result

    def feedback(self, payload: dict) -> dict:
        session_id = payload.get("session_id")
        feedback = payload.get("feedback")
        if session_id is None or feedback not in ("up", "down"):
            raise ServingError(
                400,
                "bad_request",
                "'session_id' and 'feedback' ('up'|'down') are required",
            )
        entry = self.sessions.get(str(session_id))
        if entry is None:
            raise ServingError(
                404, "unknown_session", f"session {session_id} does not exist"
            )
        with entry.lock:
            try:
                self.agent.feedback_log.mark_last_for_session(
                    entry.session.id, feedback
                )
            except ValueError as exc:
                raise ServingError(409, "no_interaction", str(exc)) from exc
        self.metrics.counter("feedback_total", ("feedback", feedback)).inc()
        return {"session_id": str(session_id), "feedback": feedback}

    def refresh_kb(self, payload: dict | None = None) -> dict:
        """Build, validate and atomically swap in the next KB snapshot.

        Runs on the calling request thread (each request has its own, so
        serving continues on the old snapshot throughout the build).
        The new snapshot is validated with the ``repro check`` space
        checker before the swap; a snapshot that fails validation is
        discarded and the live KB is untouched.  The swap itself is one
        atomic handle update — in-flight turns keep the snapshot object
        they already resolved, new turns observe the new one, and the
        epoch-scaled generation makes every cached plan/result from the
        old snapshot unservable.
        """
        handle = self._original_database
        if self._kb_builder is None:
            raise ServingError(
                501,
                "refresh_unsupported",
                "this server was started without a KB builder",
            )
        if not hasattr(handle, "swap"):
            raise ServingError(
                501,
                "refresh_unsupported",
                "the agent database is not behind a swappable KB handle",
            )
        with self._refresh_state_lock:
            if self._refresh_in_progress:
                raise ServingError(
                    409, "refresh_in_progress", "a KB refresh is already running"
                )
            self._refresh_in_progress = True
        start = time.perf_counter()
        try:
            try:
                snapshot = self._kb_builder()
            except Exception as exc:
                raise ServingError(
                    500, "refresh_build_failed", f"KB build failed: {exc}"
                ) from exc
            # Imported lazily — the analysis package is a toolchain
            # dependency the serving hot path never touches.
            from repro.analysis.diagnostics import error_count
            from repro.analysis.space_checker import check_space

            diagnostics = check_space(self.agent.space, snapshot)
            errors = error_count(diagnostics)
            if errors:
                raise ServingError(
                    409,
                    "refresh_validation_failed",
                    f"new KB snapshot failed validation with {errors} "
                    "error(s); keeping the current snapshot",
                )
            epoch = handle.swap(snapshot)
            duration = time.perf_counter() - start
            self.metrics.counter("kb_refresh_total").inc()
            self._refresh_duration.observe(duration)
            return {
                "status": "ok",
                "epoch": epoch,
                "generation": handle.generation,
                "tables": len(snapshot.table_names()),
                "duration_seconds": round(duration, 6),
                "validation_errors": 0,
            }
        finally:
            with self._refresh_state_lock:
                self._refresh_in_progress = False

    def health(self) -> dict:
        health = {
            "status": "draining" if self.draining else "ok",
            "sessions": len(self.store),
            "in_flight": self.in_flight,
            "turns_total": self.metrics.counter("turns_total").value,
            "cache": self.cache.stats(),
        }
        if self.durable is not None:
            health["durable"] = {
                "data_dir": str(self.durable.data_dir),
                "fsync": self.durable.fsync_policy,
                "turns_journaled": self.durable.counter(
                    "turns_journaled_total"
                ),
                "sessions_recovered": self.durable.counter(
                    "sessions_recovered_total"
                ),
            }
        return health

    def list_sessions(self) -> dict:
        """Live sessions plus every session with durable state on disk."""
        live = set(self.store.ids())
        out = {"live": sorted(live, key=_session_sort_key)}
        if self.durable is not None:
            from repro.persistence.recovery import list_session_ids

            durable = list_session_ids(self.durable.data_dir)
            out["durable"] = durable
            out["paged_out"] = [sid for sid in durable if sid not in live]
        return out

    def session_detail(self, payload: dict) -> dict:
        """One session's committed transcript (read-only).

        A live session answers from its in-memory context; a paged-out
        one is inspected straight from its journal/snapshot without
        being paged back in.
        """
        session_id = payload.get("session_id")
        if session_id is None:
            raise ServingError(400, "bad_request", "'session_id' is required")
        sid = str(session_id)
        entry = self.store.get(sid)
        if entry is not None:
            with entry.lock:
                history = [
                    record.to_dict()
                    for record in entry.session.context.history
                ]
            return {
                "session_id": sid,
                "source": "live",
                "turn_count": len(history),
                "turns": history,
            }
        if self.durable is not None:
            from repro.persistence.recovery import inspect_session

            detail = inspect_session(self.durable.data_dir, sid)
            if detail is not None:
                detail["source"] = "disk"
                return detail
        raise ServingError(
            404, "unknown_session", f"session {sid} does not exist"
        )


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter over :class:`ConversationApp`."""

    server: "_HTTPServer"
    protocol_version = "HTTP/1.1"

    def _read_payload(self) -> dict:
        length = parse_content_length(self.headers.get("Content-Length"))
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServingError(400, "bad_json", "body must be JSON") from exc
        if not isinstance(payload, dict):
            raise ServingError(400, "bad_json", "body must be a JSON object")
        return payload

    def _respond(self, status: int, body: dict | str) -> None:
        if isinstance(body, str):
            data = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str) -> None:
        try:
            try:
                payload = self._read_payload() if method == "POST" else {}
            except ServingError as exc:
                # The body was left unread, so the connection cannot be
                # reused: answer, then close.
                self.close_connection = True
                self._respond(exc.status, {"error": exc.code, "message": exc.message})
                return
            status, body = self.server.app.handle(method, self.path, payload)
            self._respond(status, body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:
        pass  # request logging lives in /metrics, not stderr


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Deep accept backlog: bursts of concurrent connects (the bench
    #: opens 50+ sockets at once) must queue, not get RST with the
    #: socketserver default of 5.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], app: ConversationApp) -> None:
        super().__init__(address, _Handler)
        self.app = app


class ConversationServer:
    """Owns the HTTP listener, the app, and the serving lifecycle.

    Usable as a context manager::

        with ConversationServer(agent, port=0) as server:
            ...  # server.port is the bound port
    """

    def __init__(
        self,
        agent: ConversationAgent,
        host: str = "127.0.0.1",
        port: int = 8080,
        **app_options: Any,
    ) -> None:
        self.app = ConversationApp(agent, **app_options)
        self._httpd = _HTTPServer((host, port), self.app)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ConversationServer":
        """Serve in a background thread; returns self once listening."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serving",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted, then drain."""
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self, drain_timeout: float = 10.0) -> bool:
        """Graceful stop: drain in-flight turns, flush the log, close.

        Returns True when every in-flight turn finished inside
        ``drain_timeout``.
        """
        drained = self.app.close(drain_timeout)
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        return drained

    def __enter__(self) -> "ConversationServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
