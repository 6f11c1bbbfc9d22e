"""Span recorder that times calls into the program's public functions.

Nothing under ``src/`` is changed: :func:`install` replaces each target
function or method (see :data:`TARGETS`) with a wrapper that records a
span — name, start, end, parent span and request id — and
:func:`uninstall` puts the originals back.  Spans stay in memory; a
served process writes them out when it receives ``SIGUSR1`` or exits
(:func:`install_from_env`), and the benchmark merges the files.

Parent links follow the calling thread's stack of open spans.  One link
crosses threads: ``ConversationApp.submit_turn`` parks the request's
open span for its session, and the ``Session.ask`` that later runs on
an executor thread adopts it as parent, recording the gap as a
``serving.turn_wait`` span.  Spans on that executor thread stay under
the same request until the thread takes its next turn.

A request id is ``[session_id, turn]`` read from a ``/chat`` response;
the router's ``forward`` and the worker's ``handle`` for one request
carry the same id.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable

clock = time.perf_counter

#: (module, attribute path, span name).  A target the program no longer
#: has is listed in every span dump as missing, and the traced run fails
#: naming it, rather than reading as a layer that costs nothing.
TARGETS: list[tuple[str, str, str]] = [
    ("repro.nlp.classifier", "IntentClassifier.classify", "nlp.IntentClassifier.classify"),
    ("repro.nlp.classifier", "IntentClassifier.top_k", "nlp.IntentClassifier.top_k"),
    ("repro.nlp.vectorizer", "TfidfVectorizer.transform", "nlp.TfidfVectorizer.transform"),
    ("repro.nlp.vectorizer", "TfidfVectorizer.known_word_fraction",
     "nlp.TfidfVectorizer.known_word_fraction"),
    ("repro.engine.agent", "Session.ask", "engine.Session.ask"),
    ("repro.engine.pipeline", "TurnPipeline.run", "engine.TurnPipeline.run"),
    ("repro.engine.recognizer", "EntityRecognizer.recognize", "engine.EntityRecognizer.recognize"),
    ("repro.engine.recognizer", "EntityRecognizer.whole_utterance_instance",
     "engine.EntityRecognizer.whole_utterance_instance"),
    ("repro.engine.recognizer", "EntityRecognizer.is_instance_of",
     "engine.EntityRecognizer.is_instance_of"),
    ("repro.engine.feedback", "FeedbackLog.mark_last_for_session",
     "engine.FeedbackLog.mark_last_for_session"),
    ("repro.dialogue.tree", "DialogueTree.respond", "dialogue.DialogueTree.respond"),
    ("repro.nlq.templates", "StructuredQueryTemplate.execute", "nlq.StructuredQueryTemplate.execute"),
    ("repro.kb.sql.planner", "CompiledPlan.execute", "kb.CompiledPlan.execute"),
    ("repro.kb.backend", "KBHandle.prepare", "kb.KBHandle.prepare"),
    ("repro.serving.server", "ConversationApp.handle", "serving.ConversationApp.handle"),
    ("repro.serving.session_store", "SessionStore.get", "serving.SessionStore.get"),
    ("repro.serving.session_store", "SessionStore.create", "serving.SessionStore.create"),
    ("repro.persistence.store", "DurableSessionStore.commit_turn",
     "persistence.DurableSessionStore.commit_turn"),
    ("repro.persistence.store", "DurableSessionStore.get", "persistence.DurableSessionStore.get"),
    ("repro.persistence.store", "DurableSessionStore.recover",
     "persistence.DurableSessionStore.recover"),
    ("repro.persistence.journal", "SessionJournal.append", "persistence.SessionJournal.append"),
    ("os", "fsync", "persistence.os.fsync"),
    ("repro.persistence.snapshot", "write_snapshot", "persistence.write_snapshot"),
    ("repro.persistence.router", "SessionRouter.forward", "persistence.SessionRouter.forward"),
    # Set-up steps.
    ("repro.medical.build", "build_mdx_database", "setup.build_mdx_database"),
    ("repro.medical.build", "build_mdx_space", "setup.build_mdx_space"),
    ("repro.bootstrap.space", "ConversationSpace.train_classifier", "setup.train_classifier"),
    ("repro.engine.agent", "ConversationAgent.build", "setup.ConversationAgent.build"),
]

#: Spans timed per turn, in report order (``recover`` is a set-up step).
TURN_SPANS = [
    name for _module, _attr, name in TARGETS
    if not name.startswith("setup.") and not name.endswith(".recover")
]
TURN_WAIT = "serving.turn_wait"


def _chat_rid(status: Any, body: Any) -> list | None:
    """``[session_id, turn]`` of a successful ``/chat`` response body."""
    if status != 200 or not isinstance(body, dict):
        return None
    if "turn" not in body or "session_id" not in body:
        return None
    return [str(body["session_id"]), int(body["turn"])]


def _handle_rid(args: tuple, result: Any) -> list | None:
    # ConversationApp.handle(self, method, path, payload) -> (status, body)
    if len(args) < 3 or not str(args[2]).startswith("/chat"):
        return None
    status, body = result
    return _chat_rid(status, body)


def _forward_rid(args: tuple, result: Any) -> list | None:
    # SessionRouter.forward(self, method, path, body, sid) -> (status, bytes, type)
    if len(args) < 3 or not str(args[2]).startswith("/chat"):
        return None
    status, payload = result[0], result[1]
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, AttributeError):
        return None
    return _chat_rid(status, body)


def _rows(args: tuple, result: Any) -> int | None:
    rows = getattr(result, "rows", None)
    return len(rows) if rows is not None else None


#: Span name -> reader of the span's tag: the request id of a ``/chat``
#: request, or the number of rows a plan execution returned.
_TAG_READERS: dict[str, Callable[[tuple, Any], Any]] = {
    "serving.ConversationApp.handle": _handle_rid,
    "persistence.SessionRouter.forward": _forward_rid,
    "kb.CompiledPlan.execute": _rows,
}


class Recorder:
    """In-memory spans: ``[name, start, end, parent span, tag]`` lists."""

    def __init__(self) -> None:
        self.started = clock()
        self.spans: list[list] = []
        #: Names of targets that could not be wrapped.
        self.missing: list[str] = []
        self._local = threading.local()
        self._pending: dict[str, tuple[list | None, float]] = {}
        self._pending_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> list | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "request", None)

    def wrap(self, name: str, fn: Callable) -> Callable:
        tag_reader = _TAG_READERS.get(name)
        recorder = self
        if name == "engine.Session.ask":
            return self._wrap_ask(name, fn)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            span = [name, clock(), 0.0, recorder.current(), None]
            recorder.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag_reader is not None:
                span[4] = tag_reader(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_ask(self, name: str, fn: Callable) -> Callable:
        recorder = self

        def traced_ask(session: Any, *args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            if not stack:
                with recorder._pending_lock:
                    parked = recorder._pending.pop(str(session.id), None)
                if parked is not None:
                    request, submitted = parked
                    recorder._local.request = request
                    recorder.spans.append([TURN_WAIT, submitted, clock(), request, None])
            span = [name, clock(), 0.0, recorder.current(), None]
            recorder.spans.append(span)
            stack.append(span)
            try:
                return fn(session, *args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced_ask.__wrapped__ = fn
        return traced_ask

    def wrap_submit(self, fn: Callable) -> Callable:
        """``ConversationApp.submit_turn``: park the request for its turn."""
        recorder = self

        def parked_submit(app: Any, sid: Any, *args: Any, **kwargs: Any) -> Any:
            with recorder._pending_lock:
                recorder._pending[str(sid)] = (recorder.current(), clock())
            return fn(app, sid, *args, **kwargs)

        parked_submit.__wrapped__ = fn
        return parked_submit

    def snapshot(self) -> dict:
        """Closed spans with parents as indices, JSON-ready."""
        spans = [span for span in list(self.spans) if span[2]]
        index = {id(span): i for i, span in enumerate(spans)}
        rows = []
        for name, start, end, parent, tag in spans:
            parent_index = index.get(id(parent)) if parent is not None else None
            rows.append([name, start, end, parent_index, tag])
        return {"pid": os.getpid(), "started": self.started, "spans": rows,
                "missing": list(self.missing)}

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


class Installation:
    """Wrappers put in place by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[Callable[[], None]] = []

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _replace_everywhere(original: Any, replacement: Any, undo: list) -> None:
    """Rebind every ``repro`` module attribute that is ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append(lambda m=module, a=attr: setattr(m, a, original))


def _patch(installation: Installation, module_name: str, path: str, name: str) -> None:
    recorder = installation.recorder
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        recorder.missing.append(name)
        return
    undo = installation._undo
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        original = getattr(module, attr, None)
        if original is None:
            recorder.missing.append(name)
            return
        wrapped = recorder.wrap(name, original)
        setattr(module, attr, wrapped)
        undo.append(lambda: setattr(module, attr, original))
        _replace_everywhere(original, wrapped, undo)
        return
    owner = getattr(module, owner_name, None)
    if owner is None or attr not in vars(owner):
        recorder.missing.append(name)
        return
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        replacement: Any = classmethod(recorder.wrap(name, raw.__func__))
    elif isinstance(raw, staticmethod):
        replacement = staticmethod(recorder.wrap(name, raw.__func__))
    else:
        replacement = recorder.wrap(name, raw)
    setattr(owner, attr, replacement)
    undo.append(lambda: setattr(owner, attr, raw))


_ACTIVE: Installation | None = None


def install(recorder: Recorder | None = None) -> Installation:
    """Wrap every target; returns the installation (idempotent per process)."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    installation = Installation(recorder or Recorder())
    # Import the CLI first so names it imported by value get rebound too.
    try:
        importlib.import_module("repro.cli")
    except ImportError:
        pass
    for module_name, path, name in TARGETS:
        _patch(installation, module_name, path, name)
    try:
        server = importlib.import_module("repro.serving.server")
    except ImportError:
        server = None
    app = getattr(server, "ConversationApp", None)
    if app is not None and "submit_turn" in vars(app):
        raw = vars(app)["submit_turn"]
        app.submit_turn = installation.recorder.wrap_submit(raw)
        installation._undo.append(lambda: setattr(app, "submit_turn", raw))
    else:
        installation.recorder.missing.append(TURN_WAIT)
    _ACTIVE = installation
    return installation


def uninstall() -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.remove()
        _ACTIVE = None


#: Environment variable naming the directory a traced child dumps into.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def install_from_env() -> Installation | None:
    """Trace this process if :data:`TRACE_DIR_ENV` is set.

    Spans are written to ``<dir>/spans-<pid>.json`` on ``SIGUSR1`` and
    at interpreter exit; each dump holds every span so far.
    """
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    first = _ACTIVE is None
    installation = install()
    if first:
        recorder = installation.recorder
        atexit.register(recorder.dump, directory)
        signal.signal(signal.SIGUSR1, lambda _signum, _frame: recorder.dump(directory))
    return installation
