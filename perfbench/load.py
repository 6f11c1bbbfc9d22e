"""One-process HTTP load generator over keep-alive connections.

At most :data:`~common.NPROC` threads, each owning one keep-alive
connection, run interactions.  A *closed* phase starts the next
interaction as soon as the previous one ends and measures capacity; an
*open* phase starts interaction *k* at its seeded Poisson due time and
times every first turn from that due time, so a stall also delays the
requests queued behind it.  Follow-up turns are due when the previous
answer arrives.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from common import GateFailure, clock
from interactions import (
    FOLLOWUP_KINDS,
    MAX_FOLLOWUPS,
    Answer,
    ElicitMap,
    feedback_for,
    followup,
    is_correct,
    served_response,
)
from repro.engine.kinds import ResponseKind


class _CountingConnection(http.client.HTTPConnection):
    def __init__(self, port: int, on_connect: Callable[[], None]) -> None:
        super().__init__("127.0.0.1", port, timeout=60.0)
        self._on_connect = on_connect

    def connect(self) -> None:
        self._on_connect()
        super().connect()


class Client:
    """One keep-alive connection; reconnects (and counts it) after errors."""

    def __init__(self, port: int, on_connect: Callable[[], None]) -> None:
        self._conn = _CountingConnection(port, on_connect)

    def post(self, path: str, payload: dict) -> tuple[int, Any]:
        body = json.dumps(payload).encode("utf-8")
        try:
            self._conn.request("POST", path, body=body,
                               headers={"Content-Type": "application/json"})
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            return 0, None
        try:
            return response.status, json.loads(raw.decode("utf-8"))
        except ValueError:
            return response.status, None

    def close(self) -> None:
        self._conn.close()


@dataclass
class Spec:
    """Interaction *k*: its query, its randomness, and which earlier
    interaction's session it continues (``None`` opens a new session)."""

    query: Any
    rng: random.Random
    continues: int | None = None


@dataclass
class Turn:
    phase: str
    due: float
    send: float
    recv: float
    ok: bool
    rid: tuple | None = None

    @property
    def latency(self) -> float:
        """From due time; a failed or refused turn never completes."""
        return self.recv - self.due if self.ok else float("inf")

    @property
    def service(self) -> float:
        return self.recv - self.send


@dataclass
class Phase:
    name: str
    start: float = 0.0
    end: float = 0.0
    connects: int = 0
    interactions: int = 0
    offered_rate: float = 0.0
    lateness: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class LoadGenerator:
    """Drives interactions from ``spec_for(k)`` against one HTTP port."""

    def __init__(
        self,
        port: int,
        spec_for: Callable[[int], Spec],
        agent: Any,
        threads: int,
    ) -> None:
        self.port = port
        self.spec_for = spec_for
        self.threads = threads
        self.elicit = ElicitMap(agent)
        self.options_for = agent.recognizer.values_for_concept
        self.turns: list[Turn] = []
        self.phases: list[Phase] = []
        #: Session id -> every answer it gave, in commit order.
        self.scripts: dict[str, list[Answer]] = {}
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.correct = 0
        self.problems: list[str] = []
        self._next = 0
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._done: dict[int, str | None] = {}
        self._busy: set[str] = set()

    # -- phases --------------------------------------------------------------

    def closed(self, name: str, seconds: float) -> Phase:
        """Each thread runs interactions back to back for ``seconds``."""
        phase = Phase(name)
        stop_at = clock() + seconds

        def due_time(_k: int) -> float | None:
            now = clock()
            return now if now < stop_at else None

        return self._run(phase, due_time)

    def open(self, name: str, seconds: float, rate: float, seed: int) -> Phase:
        """Poisson arrivals at ``rate`` interactions/s for ``seconds``."""
        phase = Phase(name, offered_rate=rate)
        rng = random.Random(seed)
        first = self._next
        start = clock() + 0.05
        arrivals = []
        t = 0.0
        while True:
            t += rng.expovariate(rate)
            if t >= seconds:
                break
            arrivals.append(start + t)

        def due_time(k: int) -> float | None:
            i = k - first
            return arrivals[i] if i < len(arrivals) else None

        return self._run(phase, due_time)

    def _run(self, phase: Phase, due_time: Callable[[int], float | None]) -> Phase:
        def count_connect() -> None:
            with self._lock:
                phase.connects += 1

        def worker() -> None:
            client = Client(self.port, count_connect)
            try:
                while True:
                    with self._lock:
                        k = self._next
                        due = due_time(k)
                        if due is None:
                            return
                        self._next += 1
                    wait = due - clock()
                    if wait > 0:
                        time.sleep(wait)
                    lateness = max(0.0, clock() - due)
                    self._interaction(client, k, due, phase.name)
                    with self._lock:
                        phase.interactions += 1
                        phase.lateness.append(lateness)
            finally:
                client.close()

        phase.start = clock()
        workers = [threading.Thread(target=worker, name=f"load-{i}") for i in range(self.threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        phase.end = clock()
        self.phases.append(phase)
        return phase

    # -- sessions ------------------------------------------------------------

    def _acquire(self, earlier: int) -> str | None:
        """Wait for interaction ``earlier`` and for its session to be idle."""
        with self._cv:
            while earlier not in self._done:
                self._cv.wait(1.0)
            sid = self._done[earlier]
            if sid is None:
                return None
            while sid in self._busy:
                self._cv.wait(1.0)
            self._busy.add(sid)
            return sid

    def _release(self, k: int, sid: str | None) -> None:
        with self._cv:
            if sid is not None:
                self._busy.discard(sid)
            self._done[k] = sid
            self._cv.notify_all()

    # -- one interaction -----------------------------------------------------

    def _interaction(self, client: Client, k: int, due: float, phase: str) -> None:
        spec = self.spec_for(k)
        sid = self._acquire(spec.continues) if spec.continues is not None else None
        try:
            sid = self._turns(client, spec, sid, due, phase)
        finally:
            self._release(k, sid)

    def _turns(self, client: Client, spec: Spec, sid: str | None, due: float, phase: str) -> str | None:
        query = spec.query
        utterance = query.utterance
        final = None
        for step in range(MAX_FOLLOWUPS):
            payload: dict[str, Any] = {"utterance": utterance}
            if sid is not None:
                payload["session_id"] = sid
            send = clock()
            status, body = client.post("/chat", payload)
            recv = clock()
            ok = status == 200 and isinstance(body, dict) and "text" in body
            rid = (str(body["session_id"]), int(body["turn"])) if ok else None
            with self._lock:
                self.attempted += 1
                self.turns.append(Turn(phase, due, send, recv, ok, rid))
                if not ok:
                    self.failed += 1
                    return sid
                if sid is None:
                    sid = str(body["session_id"])
                    self._busy.add(sid)
                script = self.scripts.setdefault(sid, [])
                script.append(Answer(utterance, body["kind"], body.get("intent"), body["text"]))
                if int(body["turn"]) != len(script) or str(body["session_id"]) != sid:
                    self.problems.append(
                        f"session {sid}: answer {len(script)} came back as "
                        f"session {body['session_id']} turn {body['turn']}")
            final = body
            kind = body["kind"]
            if kind not in FOLLOWUP_KINDS or step == MAX_FOLLOWUPS - 1:
                break
            concept = (self.elicit.concept(body.get("intent"), body["text"])
                       if kind == ResponseKind.ELICIT else None)
            nxt = followup(kind, concept, query, self.options_for, spec.rng)
            if nxt is None:
                break
            utterance = nxt
            due = clock()
        if final is None:
            return sid
        correct = is_correct(query, served_response(final))
        thumbs = feedback_for(query, final["kind"], correct, spec.rng)
        ok_feedback = True
        if thumbs is not None:
            status, _body = client.post("/feedback", {"session_id": sid, "feedback": thumbs})
            ok_feedback = status == 200
        with self._lock:
            self.completed += 1
            self.correct += int(correct)
            if thumbs is not None:
                self.attempted += 1
                self.failed += int(not ok_feedback)
        return sid

    # -- results -------------------------------------------------------------

    def phase_turns(self, *names: str) -> list[Turn]:
        return [t for t in self.turns if t.phase in names]

    def check(self) -> None:
        if self.problems:
            raise GateFailure("; ".join(self.problems[:5]))


def backlogged(phase: Phase) -> bool:
    """Lateness grew over the phase: the generator fell behind its schedule."""
    late = phase.lateness
    if len(late) < 9:
        return False
    third = len(late) // 3
    head = sorted(late[:third])[third // 2]
    tail = sorted(late[-third:])[third // 2]
    return tail > max(2.0 * head, 0.1)
