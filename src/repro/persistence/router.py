"""Session-affine multi-worker front end: router + worker supervision.

One router process owns the public listening socket and forwards every
request to one of *N* worker subprocesses, each a full single-process
conversation server (``python -m repro serve --worker-index i``) with
its own immutable KB replica and its own slice of the durable data
directory::

    data_dir/
      workers/
        00/  worker 0: session_ids.json, sessions/, worker.json, worker.log
        01/  worker 1: ...

Affinity is the id space itself: worker *i* of *N* allocates session
ids ≡ *i* (mod *N*) (see
:class:`~repro.persistence.store.DurableSessionIdAllocator`), so the
router can route any request carrying a numeric ``session_id`` with
``int(sid) % N`` — no routing table, nothing to rebuild after a crash.
Requests without a session id (new conversations, health checks) are
spread round-robin.

Workers hand their bound port back through a ready file
(``worker.json``, written after the worker's server is listening); the
router deletes the file before each spawn so a stale file can never be
mistaken for the new process.  A monitor thread restarts dead workers;
a restarted worker replays its journals on boot
(``recover_on_boot``), so every session it owned resumes exactly where
its last committed turn left it.  While a worker is down, requests for
its sessions fail fast with ``503 worker_unavailable`` — clients retry
(idempotently, via ``client_turn_id``) until the replacement is up.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.errors import RouterError
from repro.serving.metrics import MetricsRegistry
from repro.serving.server import ServingError, parse_content_length

#: Ready file a worker writes into its worker directory once listening.
READY_FILE = "worker.json"

#: How long the router waits for a spawned worker to come up.  Workers
#: may build an agent from scratch (the full MDX build takes a while),
#: so this is generous; pass ``spawn_timeout`` to tighten it in tests.
DEFAULT_SPAWN_TIMEOUT = 180.0


def worker_dir(data_dir: str | Path, index: int) -> Path:
    """The slice of the data directory owned by worker ``index``."""
    return Path(data_dir) / "workers" / f"{index:02d}"


def affinity(session_id: str, workers: int) -> int:
    """Which worker owns ``session_id``.

    Numeric ids (the allocator's) map by residue class — the inverse of
    how workers allocate them.  Anything else hashes stably.
    """
    sid = session_id.strip()
    if sid.isdigit():
        return int(sid) % workers
    return zlib.crc32(sid.encode("utf-8")) % workers


class WorkerHandle:
    """One supervised worker subprocess and its lifecycle state."""

    def __init__(self, index: int, directory: Path) -> None:
        self.index = index
        self.directory = directory
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.restarts = 0
        self.lock = threading.Lock()  # guards respawn vs. kill races

    @property
    def base_url(self) -> str | None:
        with self.lock:
            port = self.port
        if port is None:
            return None
        return f"http://127.0.0.1:{port}"

    @property
    def alive(self) -> bool:
        with self.lock:
            process = self.process
        return process is not None and process.poll() is None


class _WorkerConnectionPool:
    """Keep-alive HTTP connections to workers, keyed by ``(host, port)``.

    The forward path used to open a fresh TCP socket per proxied request;
    at drill scale the handshake cost and ``TIME_WAIT`` churn dominate
    router latency.  Connections parked here are reused by the next
    request to the same worker.  Keys are per-port, and a restarted
    worker binds a new ephemeral port, so a replacement incarnation can
    never be handed a socket to its dead predecessor; stale keys are
    dropped on respawn.  A parked socket the worker closed while idle is
    detected at request time and retried once on a fresh connection (see
    :meth:`SessionRouter.forward`).
    """

    def __init__(self, max_idle_per_key: int = 8) -> None:
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, int], list[http.client.HTTPConnection]] = {}
        self._max_idle = max_idle_per_key
        self._closed = False

    def acquire(
        self, host: str, port: int
    ) -> http.client.HTTPConnection | None:
        """A parked connection to ``host:port``, or None (caller opens
        a fresh one — outside the pool lock)."""
        with self._lock:
            stack = self._idle.get((host, port))
            if stack:
                return stack.pop()
        return None

    def release(
        self,
        host: str,
        port: int,
        connection: http.client.HTTPConnection,
        reusable: bool,
    ) -> None:
        if reusable:
            with self._lock:
                if not self._closed:
                    stack = self._idle.setdefault((host, port), [])
                    if len(stack) < self._max_idle:
                        stack.append(connection)
                        return
        connection.close()

    def discard(self, host: str, port: int) -> None:
        """Drop every parked connection for a (dead) worker incarnation."""
        with self._lock:
            stale = self._idle.pop((host, port), [])
        for connection in stale:
            connection.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            parked = [
                connection
                for stack in self._idle.values()
                for connection in stack
            ]
            self._idle.clear()
        for connection in parked:
            connection.close()


class SessionRouter:
    """Spawns, fronts and supervises N conversation-server workers.

    ``worker_args`` is appended to every worker's command line — the
    agent-definition flags (``--space``/``--data``/``--name`` …) and
    durability tuning (``--fsync`` …) pass through untouched, so the
    router stays agnostic of how agents are built.
    """

    def __init__(
        self,
        workers: int,
        data_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        worker_args: list[str] | None = None,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        health_interval: float = 1.0,
        forward_timeout: float = 60.0,
    ) -> None:
        if workers < 1:
            raise RouterError("router needs at least one worker")
        self.data_dir = Path(data_dir)
        self.worker_args = list(worker_args or [])
        self.spawn_timeout = spawn_timeout
        self.health_interval = health_interval
        self.forward_timeout = forward_timeout
        self.metrics = MetricsRegistry()
        self.workers = [
            WorkerHandle(i, worker_dir(self.data_dir, i))
            for i in range(workers)
        ]
        self._round_robin = 0
        self._rr_lock = threading.Lock()
        self._pool = _WorkerConnectionPool()
        self._lifecycle_lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._httpd = _RouterHTTPServer((host, port), self)
        self._thread: threading.Thread | None = None
        self.metrics.gauge(
            "router_workers_alive",
            lambda: sum(1 for w in self.workers if w.alive),
        )
        self.metrics.gauge("router_workers_total", lambda: len(self.workers))

    # -- addresses -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- worker lifecycle ----------------------------------------------------

    def _command(self, index: int) -> list[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--worker-index", str(index),
            "--workers", str(len(self.workers)),
            "--data-dir", str(self.data_dir),
            "--host", "127.0.0.1", "--port", "0",
        ] + self.worker_args

    def spawn_worker(self, handle: WorkerHandle) -> None:
        """Start (or restart) one worker and wait until it is serving."""
        handle.directory.mkdir(parents=True, exist_ok=True)
        ready = handle.directory / READY_FILE
        ready.unlink(missing_ok=True)
        log = open(handle.directory / "worker.log", "ab")
        try:
            # fork/exec happens outside handle.lock: the kill/stop paths
            # take that lock and must never wait behind a spawn.
            process = subprocess.Popen(
                self._command(handle.index),
                stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                # Detach from the controlling terminal's process group:
                # a Ctrl-C must reach only the router, which then
                # coordinates one SIGTERM per worker so each drains
                # and snapshots exactly once.
                start_new_session=True,
            )
        finally:
            log.close()  # the child holds its own descriptor
        with handle.lock:
            old_port = handle.port
            handle.port = None
            handle.process = process
        if old_port is not None:
            # Sockets parked for the dead incarnation can never be valid
            # for the replacement (which binds a fresh ephemeral port).
            self._pool.discard("127.0.0.1", old_port)
        self._await_ready(handle, ready)

    def _await_ready(self, handle: WorkerHandle, ready: Path) -> None:
        deadline = time.monotonic() + self.spawn_timeout
        while time.monotonic() < deadline:
            with handle.lock:
                process = handle.process
            if process is not None and process.poll() is not None:
                raise RouterError(
                    f"worker {handle.index} exited with code "
                    f"{process.returncode} during startup (see "
                    f"{handle.directory / 'worker.log'})"
                )
            port = self._read_ready(ready, process.pid if process else None)
            if port is not None and self._healthy(port):
                with handle.lock:
                    handle.port = port
                return
            time.sleep(0.05)
        raise RouterError(
            f"worker {handle.index} did not become ready within "
            f"{self.spawn_timeout:.0f}s"
        )

    @staticmethod
    def _read_ready(ready: Path, expected_pid: int | None) -> int | None:
        try:
            data = json.loads(ready.read_text(encoding="utf-8"))
            port = int(data["port"])
        except (FileNotFoundError, KeyError, TypeError, ValueError):
            return None
        if expected_pid is not None and data.get("pid") != expected_pid:
            return None  # stale file from a previous incarnation
        return port

    @staticmethod
    def _healthy(port: int) -> bool:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5.0
            ) as response:
                return response.status == 200
        except (urllib.error.URLError, OSError, ValueError):
            return False

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Deliver ``sig`` to a worker (crash drills); returns its pid."""
        handle = self.workers[index]
        with handle.lock:
            process = handle.process
            if process is None or process.poll() is not None:
                raise RouterError(f"worker {index} is not running")
            process.send_signal(sig)
            return process.pid

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.health_interval):
            for handle in self.workers:
                if self._stopping.is_set():
                    return
                if handle.alive:
                    continue
                with handle.lock:
                    handle.restarts += 1
                self.metrics.counter("router_worker_restarts_total").inc()
                try:
                    self.spawn_worker(handle)
                except RouterError:
                    continue  # retried on the next sweep; counter shows it

    # -- routing -------------------------------------------------------------

    def pick_worker(self, session_id: str | None) -> WorkerHandle:
        if session_id:
            return self.workers[affinity(session_id, len(self.workers))]
        with self._rr_lock:
            index = self._round_robin % len(self.workers)
            self._round_robin += 1
        return self.workers[index]

    def forward(
        self,
        method: str,
        path: str,
        body: bytes | None,
        session_id: str | None,
    ) -> tuple[int, bytes, str]:
        """Proxy one request to its session's worker.

        Returns ``(status, body, content_type)``.  A dead or unreachable
        worker yields a fast 503 the client can retry against.
        """
        handle = self.pick_worker(session_id)
        self.metrics.counter(
            "router_requests_total", ("worker", str(handle.index))
        ).inc()
        return self._forward_to(handle, method, path, body)

    def _forward_to(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes | None,
    ) -> tuple[int, bytes, str]:
        """Proxy one request to one specific worker."""
        with handle.lock:
            port = handle.port
        if port is None or not handle.alive:
            return self._unavailable(handle)
        host = "127.0.0.1"
        headers = {"Content-Type": "application/json"}
        for _attempt in range(2):
            connection = self._pool.acquire(host, port)
            reused = connection is not None
            if connection is None:
                connection = http.client.HTTPConnection(
                    host, port, timeout=self.forward_timeout
                )
                self.metrics.counter("router_connections_opened_total").inc()
            else:
                self.metrics.counter("router_connections_reused_total").inc()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                payload = response.read()
            except (
                http.client.RemoteDisconnected,
                ConnectionResetError,
                BrokenPipeError,
            ) as error:
                del error
                connection.close()
                if reused:
                    # A keep-alive socket the worker closed while the
                    # router held it idle: retry exactly once on a fresh
                    # connection.  Only this stale-reuse case retries —
                    # a fresh connection failing means the worker is
                    # really down (and blind re-sends stay safe for
                    # clients passing ``client_turn_id``).
                    self.metrics.counter("router_forward_retries_total").inc()
                    continue
                return self._unavailable(handle)
            except (http.client.HTTPException, OSError) as error:
                del error  # refused / timed out: worker is (re)starting
                connection.close()
                return self._unavailable(handle)
            if response.status >= 400:
                # Worker answered with an error status — relayed verbatim.
                self.metrics.counter(
                    "router_errors_total", ("code", str(response.status))
                ).inc()
            self._pool.release(host, port, connection, not response.will_close)
            return (
                response.status,
                payload,
                response.getheader("Content-Type") or "application/json",
            )
        return self._unavailable(handle)

    def broadcast(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, bytes, str]:
        """Fan one request out to *every* worker and aggregate the results.

        Each worker owns an independent KB replica, so cluster-wide
        operations (``POST /refresh``) must reach all of them — session
        affinity would refresh one replica and leave N-1 serving the old
        snapshot.  Returns 200 only when every worker accepted; any
        failure downgrades the aggregate to the worst worker status so
        the operator sees a partial refresh instead of a silent one.
        """
        results = []
        worst = 200
        for handle in self.workers:
            self.metrics.counter(
                "router_broadcasts_total", ("worker", str(handle.index))
            ).inc()
            status, payload, _content_type = self._forward_to(
                handle, method, path, body
            )
            try:
                parsed: Any = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                parsed = payload.decode("utf-8", "replace")
            results.append(
                {"worker": handle.index, "status": status, "body": parsed}
            )
            worst = max(worst, status)
        body_out = json.dumps({
            "status": "ok" if worst < 400 else "partial_failure",
            "workers": results,
        }).encode("utf-8")
        return worst, body_out, "application/json"

    def _unavailable(self, handle: WorkerHandle) -> tuple[int, bytes, str]:
        self.metrics.counter("router_errors_total", ("code", "503")).inc()
        payload = json.dumps({
            "error": "worker_unavailable",
            "worker": handle.index,
            "message": "the session's worker is restarting; retry shortly",
        }).encode("utf-8")
        return 503, payload, "application/json"

    # -- router-local endpoints ---------------------------------------------

    def health(self) -> tuple[int, bytes, str]:
        workers = []
        all_up = True
        for handle in self.workers:
            with handle.lock:
                port = handle.port
                process = handle.process
                restarts = handle.restarts
            running = process is not None and process.poll() is None
            up = running and port is not None and self._healthy(port)
            all_up = all_up and up
            workers.append({
                "index": handle.index,
                "up": up,
                "port": port,
                "pid": process.pid if process else None,
                "restarts": restarts,
            })
        body = json.dumps({
            "status": "ok" if all_up else "degraded",
            "role": "router",
            "workers": workers,
        }).encode("utf-8")
        return (200 if all_up else 503), body, "application/json"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SessionRouter":
        """Spawn every worker, then serve in a background thread."""
        with self._lifecycle_lock:
            if self._thread is not None:
                raise RuntimeError("router already started")
        try:
            for handle in self.workers:
                self.spawn_worker(handle)
        except BaseException:
            self.stop()
            raise
        with self._lifecycle_lock:
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="repro-router-monitor",
                daemon=True,
            )
            self._monitor.start()
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-router",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted, then stop."""
        try:
            for handle in self.workers:
                self.spawn_worker(handle)
            with self._lifecycle_lock:
                self._monitor = threading.Thread(
                    target=self._monitor_loop,
                    name="repro-router-monitor",
                    daemon=True,
                )
                self._monitor.start()
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop the monitor, terminate every worker, close the listener."""
        self._stopping.set()
        with self._lifecycle_lock:
            monitor, self._monitor = self._monitor, None
        if monitor is not None:
            monitor.join(timeout=5.0)
        for handle in self.workers:
            with handle.lock:
                process, handle.process = handle.process, None
            if process is None or process.poll() is not None:
                continue
            process.terminate()  # workers drain + snapshot on SIGTERM
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        with self._lifecycle_lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            self._httpd.shutdown()
            thread.join(timeout=5.0)
        self._httpd.server_close()
        self._pool.close()

    def __enter__(self) -> "SessionRouter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class _RouterHandler(BaseHTTPRequestHandler):
    """Thin HTTP shim: extract the session id, delegate to the router."""

    protocol_version = "HTTP/1.1"
    server: "_RouterHTTPServer"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the router's metrics replace per-request stderr noise

    def _session_id(self, body: bytes | None) -> str | None:
        from urllib.parse import parse_qs, urlsplit

        query = parse_qs(urlsplit(self.path).query)
        if "session_id" in query:
            return query["session_id"][0]
        if body:
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                return None
            sid = payload.get("session_id") if isinstance(payload, dict) else None
            return str(sid) if sid is not None else None
        return None

    def _respond(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle(self, method: str) -> None:
        router = self.server.router
        try:
            length = parse_content_length(self.headers.get("Content-Length"))
        except ServingError as exc:
            # The body was left unread: answer, then close the connection.
            self.close_connection = True
            payload = json.dumps(
                {"error": exc.code, "message": exc.message}
            ).encode("utf-8")
            self._respond(exc.status, payload, "application/json")
            return
        body = self.rfile.read(length) if length else None
        path_only = self.path.split("?", 1)[0]
        if method == "GET" and path_only == "/healthz":
            self._respond(*router.health())
            return
        if method == "GET" and path_only == "/metrics":
            rendered = router.metrics.render().encode("utf-8")
            self._respond(200, rendered, "text/plain; version=0.0.4")
            return
        try:
            if method == "POST" and path_only == "/refresh":
                # Cluster-wide: every worker owns its own KB replica.
                status, payload, content_type = router.broadcast(
                    method, self.path, body
                )
            else:
                status, payload, content_type = router.forward(
                    method, self.path, body, self._session_id(body)
                )
        except Exception as error:
            payload = json.dumps(
                {"error": "router_error", "message": str(error)}
            ).encode("utf-8")
            status, content_type = 500, "application/json"
        self._respond(status, payload, content_type)

    def _dispatch(self, method: str) -> None:
        try:
            self._handle(method)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


class _RouterHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(
        self, address: tuple[str, int], router: SessionRouter
    ) -> None:
        super().__init__(address, _RouterHandler)
        self.router = router
