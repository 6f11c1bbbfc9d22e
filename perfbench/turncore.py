"""``turn-core``: the in-process turn core, one thread, closed loop.

``Session.ask`` over a fresh seeded Table-5 mix with cooperative
follow-ups and in-process thumbs feedback; no HTTP, no journal, no
query cache.  Set-up is timed as an operator meets it: ``python -m
repro chat`` from process start to the agent's greeting.  ``restart_s``
is the agent rebuilt inside the already-running process.

The loop, the set-ups and the rebuilds are single-threaded CPU work, so
their times are reported at a reference host speed (:class:`HostSpeed`).
"""

from __future__ import annotations

import json
import resource
import subprocess
from dataclasses import dataclass, field

import tracer
from common import (
    GateFailure,
    HostSpeed,
    child_env,
    clock,
    median,
    percentile,
    program_command,
    read_until,
)
from interactions import (
    FOLLOWUP_KINDS,
    MAX_FOLLOWUPS,
    Answer,
    QueryStream,
    build_agent,
    feedback_for,
    followup,
    interaction_rng,
    is_correct,
    replay,
)
from layers import SETUP_STEPS, load_spans, per_layer, setup_steps
from repro.errors import EngineError

#: Interactions whose answers the correctness gate replays.
REPLAY_INTERACTIONS = 300
#: The loop is timed in blocks of about this many seconds, with a
#: :class:`HostSpeed` sample between blocks (outside the timing).
BLOCK_SECONDS = 0.5


@dataclass
class LoopResult:
    #: Turn latencies at the reference speed; a failed turn is ``inf``.
    latencies: list[float] = field(default_factory=list)
    #: The same as the wall clock timed them.
    raw: list[float] = field(default_factory=list)
    #: Loop seconds at the reference speed, and as the wall clock saw them.
    busy: float = 0.0
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    correct: int = 0
    next_index: int = 0
    scripts: dict[str, list[Answer]] = field(default_factory=dict)

    @property
    def turns(self) -> int:
        return sum(1 for value in self.latencies if value != float("inf"))

    def timings(self) -> dict[str, float]:
        """Turns/s over the loop; p50 and p99 over every turn of it."""
        return {
            "turns_per_s": self.turns / self.busy,
            "turn_p50_ms": percentile(self.latencies, 50) * 1e3,
            "turn_p99_ms": percentile(self.latencies, 99) * 1e3,
        }


def interaction(agent, query, rng, result: LoopResult, latencies: list[float],
                answers: list[Answer] | None) -> None:
    """One interaction in a fresh session: the query, its follow-ups, feedback."""
    session = agent.session()
    utterance = query.utterance
    response = None
    for step in range(MAX_FOLLOWUPS):
        result.attempted += 1
        began = clock()
        try:
            response = session.ask(utterance)
        except EngineError:
            result.failed += 1
            latencies.append(float("inf"))
            response = None
            break
        latencies.append(clock() - began)
        if answers is not None:
            answers.append(Answer(utterance, response.kind, response.intent, response.text))
        if response.kind not in FOLLOWUP_KINDS or step == MAX_FOLLOWUPS - 1:
            break
        nxt = followup(response.kind, response.elicit_concept, query,
                       agent.recognizer.values_for_concept, rng)
        if nxt is None:
            break
        utterance = nxt
    if response is None:
        return
    correct = is_correct(query, response)
    result.completed += 1
    result.correct += int(correct)
    thumbs = feedback_for(query, response.kind, correct, rng)
    if thumbs is not None:
        result.attempted += 1
        if thumbs == "up":
            session.thumbs_up()
        else:
            session.thumbs_down()


def closed_loop(agent, queries: QueryStream, speed: HostSpeed, seed: int, seconds: float,
                first: int = 0) -> LoopResult:
    """Interactions from ``first`` on, back to back, for ``seconds``."""
    result = LoopResult()
    k = first
    began = clock()
    deadline = began + seconds
    before = speed.sample()
    while clock() < deadline:
        block: list[float] = []
        block_began = clock()
        block_end = min(deadline, block_began + BLOCK_SECONDS)
        while clock() < block_end:
            answers: list[Answer] | None = [] if k - first < REPLAY_INTERACTIONS else None
            interaction(agent, queries[k], interaction_rng(seed, k), result, block, answers)
            if answers:
                result.scripts[str(k)] = answers
            k += 1
        elapsed = clock() - block_began
        after = speed.sample()
        scale = speed.scale(before, after)
        result.latencies.extend(latency * scale for latency in block)
        result.raw.extend(block)
        result.busy += elapsed * scale
        before = after
    result.wall = clock() - began
    result.next_index = k
    return result


def chat_setups(run, speed: HostSpeed, repeats: int,
                traced: bool) -> tuple[list[float], list[dict]]:
    """Start ``repro chat`` ``repeats`` times; seconds to the greeting each,
    at the reference speed (the child's start-up is single-threaded CPU work)."""
    totals, steps = [], []
    trace_dir = run.dir.sub("spans-setup") if traced else None
    for i in range(repeats):
        before = speed.sample(passes=3)
        began = clock()
        proc = run.procs.start(program_command(["chat"], traced), child_env(trace_dir),
                               run.dir.path / f"chat-{i}.log", stdin=subprocess.PIPE)
        _match, ready = read_until(proc, r"^A: ", 170.0)
        assert proc.stdin is not None
        proc.stdin.close()  # end of input: chat says goodbye and exits
        proc.wait(timeout=60.0)
        run.procs.stop(proc)
        if proc.returncode != 0:
            raise GateFailure(f"repro chat exited with {proc.returncode}")
        totals.append((ready - began) * speed.scale(before, speed.sample(passes=3)))
        if trace_dir is not None:
            dump = json.loads((trace_dir / f"spans-{proc.pid}.json").read_text())
            steps.append(setup_steps([dump], load_spans([dump]), (began, ready), ready - began))
    return totals, steps


def run_turn_core(run) -> dict[str, float]:
    seconds = run.seconds
    speed = HostSpeed()
    totals, setup_split = chat_setups(run, speed, run.setup_repeats, run.traced)

    if run.traced:
        installation = tracer.install()
    rebuilds = []
    agent = None
    for _ in range(run.restart_repeats):
        agent = None  # the previous agent is garbage before the next build
        before = speed.sample(passes=3)
        began = clock()
        agent = build_agent()
        took = clock() - began
        rebuilds.append(took * speed.scale(before, speed.sample(passes=3)))
    if run.traced:
        restart_window = (began, began + took)
        restart_spans = load_spans([installation.recorder.snapshot()])
        tracer.uninstall()

    queries = QueryStream(agent.space, run.seed)
    warm = closed_loop(agent, queries, speed, run.seed, min(1.0, seconds / 10))
    measured = closed_loop(agent, queries, speed, run.seed,
                           seconds / 2 if run.traced else seconds, first=warm.next_index)
    report = replay(agent, measured.scripts, corrupt=run.inject_fault)
    run.gate_replay(report)
    if measured.turns == 0:
        raise GateFailure("no turn completed")

    metrics = {
        "setup_s": median(totals),
        "restart_s": median(rebuilds),
        **measured.timings(),
        "success_rate": measured.correct / max(measured.completed, 1),
        "answered_share": 1.0 - measured.failed / max(measured.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    run.count(measured.attempted, measured.failed)
    run.note(f"turn-core: {measured.turns} turns over {measured.completed} interactions "
             f"in {measured.wall:.2f}s ({measured.busy:.2f}s at the reference speed); "
             f"replayed {report.turns} answers")
    if not run.traced:
        return metrics

    stats_before = agent.database.plan_stats()
    installation = tracer.install()
    window_began = clock()
    traced = closed_loop(agent, queries, speed, run.seed, seconds / 2, first=measured.next_index)
    window = (window_began, clock())
    spans = load_spans([installation.recorder.snapshot()])
    tracer.uninstall()
    stats_after = agent.database.plan_stats()
    # Span times are raw, so the shares divide by raw turn times.
    ok_times = [t for t in traced.raw if t != float("inf")]
    layer = per_layer(spans, window, ok_times, [None] * len(ok_times))
    hits = stats_after["hits"] - stats_before["hits"]
    misses = stats_after["misses"] - stats_before["misses"]
    executions = stats_after["executions"] - stats_before["executions"]
    layer["kb.plan_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layer["kb.index_probes_per_execute"] = (
        (stats_after["index_probes"] - stats_before["index_probes"]) / executions
        if executions else 0.0)
    layer["serving.query_cache.hit_ratio"] = 0.0
    for step in SETUP_STEPS:
        layer[f"setup.{step}_s"] = median([s[step] for s in setup_split])
    restart = setup_steps([], restart_spans, restart_window, took, in_process=True)
    for step in SETUP_STEPS:
        layer[f"restart.{step}_s"] = restart[step]
    traced_p50 = traced.timings()["turn_p50_ms"]
    layer["trace.overhead_pct"] = (traced_p50 / metrics["turn_p50_ms"] - 1.0) * 100.0
    layer.update({"client.connects": 0, "client.late_ms_p99": 0.0, "client.offered_rate": 0.0,
                  "client.achieved_rate": 0.0, "client.backlogged": 0})
    run.count(traced.attempted, traced.failed)
    return layer
