"""Per-layer metrics from recorded spans.

For each timed call ``F`` (``tracer.TURN_SPANS``):

* ``F.calls_per_turn`` — calls in the traced window per completed turn;
* ``F.self_us`` — median self time per call: span duration minus the
  time its child spans cover (a worker's ``handle`` is the child of the
  router's ``forward`` for the same request id);
* ``F.share`` — summed self time over the summed client-observed turn
  time.
"""

from __future__ import annotations

from dataclasses import dataclass

from common import median
from tracer import TURN_SPANS, TURN_WAIT

HANDLE = "serving.ConversationApp.handle"
FORWARD = "persistence.SessionRouter.forward"
ASK = "engine.Session.ask"
EXECUTE = "kb.CompiledPlan.execute"
RECOVER = "persistence.DurableSessionStore.recover"

SETUP_STEPS = [
    "import", "build_mdx_database", "build_mdx_space", "train_classifier",
    "agent_build_self", "boot_recovery", "server_start",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tag: object
    pid: int
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return max(0.0, self.duration - self.child_time)


def load_spans(dumps: list[dict]) -> list[Span]:
    """Merge span dumps of several processes; link router hops by request id.

    Fails, naming them, if a process could not wrap some targets.
    """
    missing = sorted({name for dump in dumps for name in dump.get("missing", ())})
    if missing:
        raise RuntimeError(f"the program no longer has these traced calls: {missing}")
    spans: list[Span] = []
    for dump in dumps:
        offset = len(spans)
        for name, start, end, parent, tag in dump["spans"]:
            spans.append(Span(name, start, end,
                              None if parent is None else offset + parent,
                              tag, dump["pid"]))
    forwards = {tuple(s.tag): i for i, s in enumerate(spans)
                if s.name == FORWARD and isinstance(s.tag, list)}
    for span in spans:
        if span.name == HANDLE and span.parent is None and isinstance(span.tag, list):
            span.parent = forwards.get(tuple(span.tag))
    for span in spans:
        if span.parent is not None:
            spans[span.parent].child_time += span.duration
    return spans


def by_rid(spans: list[Span], name: str) -> dict[tuple, Span]:
    return {tuple(s.tag): s for s in spans if s.name == name and isinstance(s.tag, list)}


def per_layer(
    spans: list[Span],
    window: tuple[float, float],
    turn_times: list[float],
    turn_rids: list[tuple | None],
) -> dict[str, float]:
    """Span metrics over ``window`` for the turns the client completed in it.

    ``turn_times`` are client-observed turn times (send to answer) and
    ``turn_rids`` their request ids (``None`` in process).
    """
    lo, hi = window
    inside = [s for s in spans if lo <= s.start < hi]
    turns = max(len(turn_times), 1)
    total = sum(turn_times) or 1.0
    out: dict[str, float] = {}
    for name in TURN_SPANS:
        selves = [s.self_time for s in inside if s.name == name]
        out[f"{name}.calls_per_turn"] = len(selves) / turns
        out[f"{name}.self_us"] = median(selves) * 1e6
        out[f"{name}.share"] = sum(selves) / total
    executes = [s for s in inside if s.name == EXECUTE]
    rows = [s.tag for s in executes if isinstance(s.tag, int)]
    out["kb.execute.rows_per_call"] = sum(rows) / len(rows) if rows else 0.0
    out["serving.turn_wait_us"] = median([s.duration for s in inside if s.name == TURN_WAIT]) * 1e6

    handles = by_rid(inside, HANDLE)
    forwards = by_rid(inside, FORWARD)
    transport, hops = [], []
    covered = 0.0
    for latency, rid in zip(turn_times, turn_rids):
        if rid is None:
            continue
        handle = handles.get(rid)
        outer = forwards.get(rid) or handle
        if handle is not None:
            transport.append(max(0.0, latency - handle.duration))
        if outer is not None:
            covered += min(latency, outer.duration)
        if handle is not None and rid in forwards:
            hops.append(max(0.0, forwards[rid].duration - handle.duration))
    if not any(turn_rids):
        covered = sum(s.duration for s in inside if s.name == ASK)
    out["serving.transport_us"] = median(transport) * 1e6
    out["persistence.router_hop_us"] = median(hops) * 1e6
    out["trace.unattributed_share"] = max(0.0, 1.0 - covered / total)
    return out


def setup_steps(dumps: list[dict], spans: list[Span], window: tuple[float, float],
                total: float, in_process: bool = False) -> dict[str, float]:
    """Split one set-up (or restart) of ``total`` seconds into its steps.

    Steps are summed over the processes that built an agent in
    ``window``; ``import`` runs from a process's start to its first KB
    build, and ``server_start`` is the rest of ``total``: serving
    objects, listening, health checks and, for a restart, noticing the
    crash.
    """
    lo, hi = window
    inside = [s for s in spans if lo <= s.start < hi]
    steps = dict.fromkeys(SETUP_STEPS, 0.0)
    started = {dump["pid"]: dump["started"] for dump in dumps}
    first_build: dict[int, float] = {}
    for span in inside:
        if span.name == "setup.build_mdx_database":
            steps["build_mdx_database"] += span.duration
            first_build[span.pid] = min(first_build.get(span.pid, span.start), span.start)
        elif span.name == "setup.build_mdx_space":
            steps["build_mdx_space"] += span.duration
        elif span.name == "setup.train_classifier":
            steps["train_classifier"] += span.duration
        elif span.name == "setup.ConversationAgent.build":
            steps["agent_build_self"] += span.duration
        elif span.name == RECOVER:
            steps["boot_recovery"] += span.duration
    steps["agent_build_self"] = max(0.0, steps["agent_build_self"] - steps["train_classifier"])
    if not in_process:
        steps["import"] = sum(start - started[pid] for pid, start in first_build.items())
    steps["server_start"] = max(0.0, total - sum(steps.values()))
    return steps
