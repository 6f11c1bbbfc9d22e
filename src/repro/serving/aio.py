"""Asyncio streaming front end over the synchronous turn core.

The third serving architecture layer (threads → durable workers →
async/streaming): a stdlib-only ``asyncio.start_server`` HTTP/1.1
front end that multiplexes thousands of keep-alive connections on one
event loop while the existing synchronous :class:`ConversationApp`
turn core keeps running on its bounded thread pool.  A turn request
never parks a front-end thread: the loop submits the turn through
:meth:`ConversationApp.submit_turn` and awaits the wrapped future, so
concurrency is bounded by sessions and sockets, not threads.

Endpoints
---------
Everything the synchronous server exposes (``POST /chat``,
``POST /feedback``, ``GET /healthz`` / ``/metrics`` / ``/sessions`` /
``/session``) behaves identically — ``/chat`` responses are
byte-identical — plus:

``POST /chat/stream``
    Same payload as ``/chat``; the response is an SSE-style
    ``text/event-stream`` (chunked transfer encoding) of events emitted
    while the turn executes::

        event: rows
        data: {"batch": 0, "rows": [...]}

    ``rows`` batches arrive as soon as the KB query returns (before the
    answer text is rendered or the turn committed); clarification turns
    emit one ``elicitation`` or ``disambiguation`` event (the latter
    carrying the candidate ``choices``); the stream terminates with a
    ``done`` event whose data is exactly the committed-turn JSON that
    ``POST /chat`` would have returned, or an ``error`` event.
    Admission and validation failures before the first chunk are plain
    JSON error responses, not streams.

Admission control
-----------------
Three honest gates, all surfaced in ``/metrics`` as
``admission_rejected_total{reason=}`` (no silent queue growth):

* a bounded accept queue — more than ``accept_queue`` requests in
  flight on the front end are shed with 503 ``queue_full``;
* a per-session token bucket (``rate_limit`` turns/second sustained,
  ``rate_burst`` burst) — over-rate chat turns are shed with 429
  ``rate_limited``;
* the turn core's own slot gate (``max_pending``) — 503 ``overloaded``
  — and drain gate — 503 ``draining`` — exactly as in the sync server.

Concurrency model: everything in this module runs on the event-loop
thread except the blocking app calls, which run on a small I/O executor
(admission/session paging, feedback, inspection) or the app's own turn
pool (turns).  Turn chunks hop from the executor thread to the loop via
``loop.call_soon_threadsafe`` into a per-request ``asyncio.Queue``, so
event order is preserved and the turn never blocks on a slow client.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable
from urllib.parse import urlsplit

from repro.engine.agent import ConversationAgent
from repro.serving.server import (
    KNOWN_ROUTES,
    ConversationApp,
    ServingError,
    parse_content_length,
)

__all__ = ["AsyncConversationServer", "TokenBucket"]

logger = logging.getLogger("repro.serving.aio")

#: Minimal reason phrases for the statuses this server emits.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Header-block size cap (request line + headers, not the body).
MAX_HEAD_BYTES = 16 * 1024


class TokenBucket:
    """Per-key token buckets: ``rate`` tokens/second, ``burst`` capacity.

    Single-threaded by design — the async server consults it only from
    the event-loop thread, so no lock is needed.  ``clock`` is
    injectable (tests drive it deterministically).  Idle keys are
    pruned once their bucket refills to ``burst`` (a full bucket holds
    no rate-limiting state), so key cardinality stays bounded even
    under a scanner inventing session ids.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
        max_keys: int = 4096,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._max_keys = max_keys
        #: key -> (tokens remaining, stamp of last refill)
        self._buckets: dict[str, tuple[float, float]] = {}

    def __len__(self) -> int:
        return len(self._buckets)

    def allow(self, key: str) -> bool:
        """Take one token from ``key``'s bucket; False when empty."""
        now = self._clock()
        tokens, stamp = self._buckets.get(key, (self.burst, now))
        tokens = min(self.burst, tokens + (now - stamp) * self.rate)
        if tokens < 1.0:
            self._buckets[key] = (tokens, now)
            return False
        self._buckets[key] = (tokens - 1.0, now)
        if len(self._buckets) > self._max_keys:
            self._prune(now)
        return True

    def _prune(self, now: float) -> None:
        refilled = [
            key
            for key, (tokens, stamp) in self._buckets.items()
            if tokens + (now - stamp) * self.rate >= self.burst
        ]
        for key in refilled:
            del self._buckets[key]


class _Request:
    """One parsed HTTP request (head only; the body is read separately)."""

    __slots__ = ("method", "path", "headers")

    def __init__(self, method: str, path: str, headers: dict[str, str]):
        self.method = method
        self.path = path
        self.headers = headers

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


def _parse_head(head: bytes) -> _Request:
    try:
        text = head.decode("latin-1")
        request_line, _, header_block = text.partition("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError as exc:
        raise ServingError(400, "bad_request", "malformed request") from exc
    headers: dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return _Request(method.upper(), path, headers)


class AsyncConversationServer:
    """Owns the event loop, the listener, the app, and the lifecycle.

    API-compatible with :class:`~repro.serving.server.ConversationServer`
    (``start``/``shutdown``/``serve_forever``/``port``/``address``,
    usable as a context manager); the loop runs on a dedicated thread so
    synchronous callers (tests, the CLI) drive it the same way they
    drive the threaded server.
    """

    def __init__(
        self,
        agent: ConversationAgent,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        rate_limit: float = 0.0,
        rate_burst: float = 8.0,
        accept_queue: int = 256,
        io_threads: int = 8,
        clock: Callable[[], float] = time.monotonic,
        **app_options: Any,
    ) -> None:
        self.app = ConversationApp(agent, **app_options)
        self.accept_queue = accept_queue
        self.bucket: TokenBucket | None = (
            TokenBucket(rate_limit, rate_burst, clock=clock)
            if rate_limit > 0
            else None
        )
        self._requested = (host, port)
        self._bound: tuple[str, int] | None = None
        self._io = ThreadPoolExecutor(
            max_workers=io_threads, thread_name_prefix="repro-aio-io"
        )
        self._active = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return (self._bound or self._requested)[0]

    @property
    def port(self) -> int:
        return (self._bound or self._requested)[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncConversationServer":
        """Run the loop on a background thread; returns once listening."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-aio-serving", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            raise error
        if self._bound is None:
            raise RuntimeError("async server failed to start listening")
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # surfaced to start()'s caller
            self._startup_error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection,
            self._requested[0],
            self._requested[1],
            limit=MAX_HEAD_BYTES,
        )
        self._bound = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            leftovers = [t for t in self._conn_tasks if not t.done()]
            for task in leftovers:
                task.cancel()
            if leftovers:
                await asyncio.gather(*leftovers, return_exceptions=True)

    def shutdown(self, drain_timeout: float = 10.0) -> bool:
        """Graceful stop: drain turns, flush, stop the loop; True when
        every in-flight turn finished inside ``drain_timeout``."""
        drained = self.app.close(drain_timeout)
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._io.shutdown(wait=False)
        return drained

    def serve_forever(self) -> None:
        """Serve until interrupted (the foreground CLI path)."""
        if self._thread is None:
            self.start()
        try:
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def __enter__(self) -> "AsyncConversationServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away or sent an oversized/garbled head
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                return  # clean keep-alive close between requests
            try:
                request = _parse_head(head)
                length = parse_content_length(
                    request.headers.get("content-length")
                )
                body = await reader.readexactly(length) if length else b""
            except ServingError as exc:
                await self._send_json(
                    writer, exc.status,
                    {"error": exc.code, "message": exc.message},
                    keep_alive=False,
                )
                return
            keep_alive = await self._process_request(request, body, writer)
            if not keep_alive or request.wants_close:
                return

    # -- request processing --------------------------------------------------

    def _reject(self, reason: str, status: int, message: str) -> ServingError:
        self.app.metrics.counter(
            "admission_rejected_total", ("reason", reason)
        ).inc()
        return ServingError(status, reason, message)

    def _error_payload(self, exc: ServingError) -> dict:
        self.app.metrics.counter("http_errors_total", ("code", exc.code)).inc()
        return {"error": exc.code, "message": exc.message}

    def _count_route(self, route: str) -> None:
        self.app.metrics.counter(
            "http_requests_total",
            ("route", route if route in KNOWN_ROUTES else "<unmatched>"),
        ).inc()

    async def _process_request(
        self, request: _Request, body: bytes, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns False when the connection must close."""
        route = f"{request.method} {urlsplit(request.path).path}"
        chat_route = route in ("POST /chat", "POST /chat/stream")
        if self._active >= self.accept_queue:
            # The bounded accept queue: shed instead of queueing without
            # bound.  Counted under the stable route label, not the raw
            # path, to keep metric cardinality bounded.
            self._count_route(route)
            exc = self._reject(
                "queue_full", 503, "front-end accept queue is full"
            )
            await self._send_json(
                writer, exc.status, self._error_payload(exc)
            )
            return True
        self._active += 1
        try:
            if not chat_route:
                # Non-chat routes reuse the sync app's router verbatim
                # (it counts http_requests_total itself); the blocking
                # work runs on the I/O executor, never the loop.
                loop = asyncio.get_running_loop()
                payload, error = self._decode_payload(request, body)
                if error is not None:
                    # Mirrors the sync handler: a body that fails to
                    # parse is answered before routing (and so before
                    # the route counter).
                    await self._send_json(
                        writer, error.status, self._error_payload(error)
                    )
                    return True
                status, out = await loop.run_in_executor(
                    self._io, self.app.handle, request.method, request.path,
                    payload,
                )
                await self._send_json(writer, status, out)
                return True
            self._count_route(route)
            payload, error = self._decode_payload(request, body)
            if error is None:
                error = self._check_rate(payload)
            if error is not None:
                await self._send_json(
                    writer, error.status, self._error_payload(error)
                )
                return True
            if route == "POST /chat":
                return await self._chat_json(payload, writer)
            return await self._chat_stream(payload, writer)
        finally:
            self._active -= 1

    def _decode_payload(
        self, request: _Request, body: bytes
    ) -> tuple[dict, ServingError | None]:
        if request.method != "POST" or not body:
            return {}, None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {}, ServingError(400, "bad_json", "body must be JSON")
        if not isinstance(payload, dict):
            return {}, ServingError(
                400, "bad_json", "body must be a JSON object"
            )
        return payload, None

    def _check_rate(self, payload: dict) -> ServingError | None:
        """Per-session token bucket (chat routes, loop thread only)."""
        if self.bucket is None:
            return None
        session_id = payload.get("session_id")
        if session_id is None:
            return None  # opening turns have no key yet
        if self.bucket.allow(str(session_id)):
            return None
        return self._reject(
            "rate_limited", 429,
            "session exceeded its turn rate limit; retry later",
        )

    # -- /chat (non-streaming) ------------------------------------------------

    async def _chat_json(
        self, payload: dict, writer: asyncio.StreamWriter
    ) -> bool:
        loop = asyncio.get_running_loop()
        try:
            admitted = await loop.run_in_executor(
                self._io, self.app._admit_chat, payload
            )
            utterance, sid, entry, debug, client_turn_id = admitted
            future = self.app.submit_turn(
                sid, entry, utterance, debug, client_turn_id
            )
        except ServingError as exc:
            await self._send_json(
                writer, exc.status, self._error_payload(exc)
            )
            return True
        try:
            result = await asyncio.wait_for(
                asyncio.wrap_future(future), self.app.request_timeout
            )
        except asyncio.TimeoutError:
            exc = self.app.timeout_turn(future)
            await self._send_json(
                writer, exc.status, self._error_payload(exc)
            )
            return True
        except ServingError as exc:
            await self._send_json(
                writer, exc.status, self._error_payload(exc)
            )
            return True
        except Exception as exc:
            logger.exception("turn failed: %r", exc)
            error = ServingError(500, "internal", "turn failed")
            await self._send_json(
                writer, error.status, self._error_payload(error)
            )
            return True
        await self._send_json(writer, 200, result)
        return True

    # -- /chat/stream ---------------------------------------------------------

    async def _chat_stream(
        self, payload: dict, writer: asyncio.StreamWriter
    ) -> bool:
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def emit(kind: str, data: dict) -> None:
            # Runs on the executor thread driving the turn; hop to the
            # loop.  FIFO: chunks always precede the future's done hop.
            loop.call_soon_threadsafe(queue.put_nowait, (kind, data))

        try:
            admitted = await loop.run_in_executor(
                self._io, self.app._admit_chat, payload
            )
            utterance, sid, entry, debug, client_turn_id = admitted
            future = self.app.submit_turn(
                sid, entry, utterance, debug, client_turn_id,
                self.app.stream_sink(emit),
            )
        except ServingError as exc:
            await self._send_json(
                writer, exc.status, self._error_payload(exc)
            )
            return True

        wrapped = asyncio.wrap_future(future)
        wrapped.add_done_callback(
            lambda _f: queue.put_nowait(("__done__", {}))
        )
        timeout_handle = loop.call_later(
            self.app.request_timeout,
            lambda: queue.put_nowait(("__timeout__", {})),
        )
        started = False
        try:
            while True:
                kind, data = await queue.get()
                if kind == "__timeout__":
                    exc = self.app.timeout_turn(future)
                    await self._finish_with_error(writer, exc, started)
                    # The abandoned turn keeps running; its chunks drain
                    # into this queue, which dies with this request.
                    return True
                if kind == "__done__":
                    timeout_handle.cancel()
                    try:
                        result = future.result()
                    except ServingError as exc:
                        await self._finish_with_error(writer, exc, started)
                    except Exception as exc:
                        if not wrapped.cancelled():
                            logger.exception("streamed turn failed: %r", exc)
                        error = ServingError(500, "internal", "turn failed")
                        await self._finish_with_error(writer, error, started)
                    else:
                        if not started:
                            await self._start_stream(writer)
                            started = True
                        await self._send_event(writer, "done", result)
                        await self._end_stream(writer)
                    return True
                if not started:
                    await self._start_stream(writer)
                    started = True
                await self._send_event(writer, kind, data)
        except (ConnectionResetError, BrokenPipeError):
            # Mid-stream disconnect: the turn still commits (its slot is
            # released by the app's done-callback); we just stop writing.
            timeout_handle.cancel()
            self.app.metrics.counter("stream_disconnects_total").inc()
            return False

    async def _finish_with_error(
        self,
        writer: asyncio.StreamWriter,
        exc: ServingError,
        started: bool,
    ) -> None:
        payload = self._error_payload(exc)
        if not started:
            await self._send_json(writer, exc.status, payload)
            return
        await self._send_event(writer, "error", payload)
        await self._end_stream(writer)

    # -- wire format ----------------------------------------------------------

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: dict | str,
        keep_alive: bool = True,
    ) -> None:
        if isinstance(body, str):
            data = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "OK")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    async def _start_stream(self, writer: asyncio.StreamWriter) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: keep-alive\r\n\r\n"
        )
        await writer.drain()

    async def _send_event(
        self, writer: asyncio.StreamWriter, event: str, data: dict
    ) -> None:
        frame = f"event: {event}\ndata: {json.dumps(data)}\n\n".encode(
            "utf-8"
        )
        writer.write(f"{len(frame):x}\r\n".encode("latin-1"))
        writer.write(frame)
        writer.write(b"\r\n")
        await writer.drain()

    async def _end_stream(self, writer: asyncio.StreamWriter) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()
