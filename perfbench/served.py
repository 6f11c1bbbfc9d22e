"""The served workload ``cluster-durable``.

It starts the program as an operator does (``python -m repro serve
...`` with default front-end flags) and drives it from this process over
:data:`~common.NPROC` keep-alive connections.  The end-to-end numbers
come from a closed phase: each connection sends its next request when
the previous answer arrives.  Traced runs add an open phase of Poisson
arrivals at a fixed rate, which reports how late the generator ran and
whether a backlog grew.

Why closed: each response of the thread front end may wait ~40 ms on
Nagle plus delayed ACK, depending on how long its connection was idle.
Under arrivals at a fixed rate roughly half the turns wait, so the
open-loop median flips between ~8 ms and ~30-45 ms from seed to seed
and with host load.  Back to back, every answer meets the same kernel
timer, so the closed-loop figures are steady and show the stall.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    NPROC,
    GateFailure,
    HostSpeed,
    child_env,
    clock,
    get_json,
    median,
    metrics_text,
    peak_rss_mb,
    percentile,
    pid_alive,
    program_command,
    read_until,
    wait_healthy,
)
from interactions import QueryStream, build_agent, interaction_rng, replay
from layers import SETUP_STEPS, load_spans, per_layer, setup_steps
from load import LoadGenerator, Spec, backlogged

#: Offered interactions/s of the open phase: about half the capacity the
#: closed phase measures (28/s).
OPEN_RATE = 14.0
#: Share of interactions continuing an earlier session.
CONTINUE_SHARE = 0.25
#: Per-worker ``--max-sessions``: below the sessions a run opens, so
#: sessions are snapshotted on eviction and paged back in.
MAX_SESSIONS = 48
WORKERS = 2


class ContinuingStream:
    """Fresh uniform Table-5 interactions; a share continue an earlier one's
    session, chosen uniformly from every interaction before it."""

    def __init__(self, space, seed: int) -> None:
        self.seed = seed
        self.queries = QueryStream(space, seed)
        self._rng = random.Random(seed + 3)
        self._continues: list[int | None] = []
        self._lock = threading.Lock()

    def spec(self, k: int) -> Spec:
        with self._lock:
            while len(self._continues) <= k:
                i = len(self._continues)
                picked = self._rng.randrange(i) if i and self._rng.random() < CONTINUE_SHARE else None
                self._continues.append(picked)
            return Spec(self.queries[k], interaction_rng(self.seed, k), self._continues[k])


@dataclass
class Served:
    """One launched router and the workers it reports."""

    proc: object
    port: int
    began: float
    ready: float
    trace_dir: Path | None
    #: :meth:`HostSpeed.scale` over the set-up.
    scale: float = 1.0
    workers: list[dict] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        """Set-up seconds at the reference speed: the workers' start-up is CPU work."""
        return (self.ready - self.began) * self.scale

    def pids(self) -> list[int]:
        return [self.proc.pid] + [w["pid"] for w in self.workers]


def launch(run, speed: HostSpeed, args: list[str], traced: bool, tag: str) -> Served:
    trace_dir = run.dir.sub(f"spans-{tag}") if traced else None
    env = child_env(trace_dir, hook=traced)
    cmd = program_command(["serve", "--host", "127.0.0.1", "--port", "0", *args], traced)
    before = speed.sample(passes=3)
    began = clock()
    proc = run.procs.start(cmd, env, run.dir.path / f"{tag}.log")
    match, _at = read_until(proc, r"http://127\.0\.0\.1:(\d+)", 170.0)
    port = int(match.group(1))
    ready = wait_healthy(port, proc)
    served = Served(proc, port, began, ready, trace_dir,
                    scale=speed.scale(before, speed.sample(passes=3)))
    _status, body = get_json(port, "/healthz")
    served.workers = body["workers"]
    for worker in served.workers:
        run.procs.adopt(worker["pid"])
    return served


def stop(run, served: Served) -> None:
    """Graceful stop (SIGINT drains and snapshots); waits for every worker."""
    run.procs.stop(served.proc, signal.SIGINT, timeout=60.0)
    deadline = clock() + 30.0
    while clock() < deadline and any(pid_alive(w["pid"]) for w in served.workers):
        time.sleep(0.05)


def dump_spans(served: Served, pids: list[int]) -> list[dict]:
    """Ask traced processes to write their spans; read the dumps."""
    assert served.trace_dir is not None
    paths = [served.trace_dir / f"spans-{pid}.json" for pid in pids]
    for path in paths:
        path.unlink(missing_ok=True)
    for pid in pids:
        os.kill(pid, signal.SIGUSR1)
    deadline = clock() + 60.0
    while clock() < deadline and not all(p.exists() for p in paths):
        time.sleep(0.02)
    missing = [p.name for p in paths if not p.exists()]
    if missing:
        raise GateFailure(f"no span dump from {missing}")
    return [json.loads(p.read_text()) for p in paths]


def kb_counters(served: Served) -> dict[str, float]:
    """Plan-cache and query-cache counters summed over serving processes."""
    out = dict.fromkeys(("plan_hits", "plan_misses", "probes", "executions",
                         "cache_hits", "cache_misses"), 0.0)
    for worker in served.workers:
        port = worker["port"]
        values = metrics_text(port)
        out["plan_hits"] += values.get("plan_cache_hits_total", 0.0)
        out["plan_misses"] += values.get("plan_cache_misses_total", 0.0)
        out["probes"] += values.get("plan_index_probes_total", 0.0)
        out["executions"] += sum(v for k, v in values.items() if k.startswith("plan_lowered_total"))
        _status, health = get_json(port, "/healthz")
        cache = health.get("cache", {}) if isinstance(health, dict) else {}
        out["cache_hits"] += cache.get("hits", 0)
        out["cache_misses"] += cache.get("misses", 0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def drive(run, gen: LoadGenerator, seconds: float, seed: int):
    """The closed phase; traced runs give half of it to the open phase."""
    if not run.traced:
        return gen.closed("closed", seconds), None
    closed = gen.closed("closed", seconds / 2)
    return closed, gen.open("open", seconds / 2, OPEN_RATE, seed)


def end_to_end(gen: LoadGenerator, closed) -> dict[str, float]:
    """Capacity and latency of the closed phase over the keep-alive connections."""
    turns = gen.phase_turns(closed.name)
    if not any(t.ok for t in turns):
        raise GateFailure("the load phase completed no turn")
    latencies = [t.latency for t in turns]
    return {
        "turns_per_s": sum(1 for t in turns if t.ok) / closed.seconds,
        "turn_p50_ms": percentile(latencies, 50) * 1e3,
        "turn_p99_ms": percentile(latencies, 99) * 1e3,
    }


def client_metrics(closed, opened) -> dict[str, float]:
    return {
        "client.connects": max(closed.connects, opened.connects),
        "client.late_ms_p99": percentile(opened.lateness or [0.0], 99) * 1e3,
        "client.offered_rate": opened.offered_rate,
        "client.achieved_rate": opened.interactions / opened.seconds,
        "client.backlogged": int(backlogged(opened)),
    }


def describe(run, gen: LoadGenerator, closed, opened) -> None:
    for phase in (closed, opened):
        if phase is None:
            continue
        turns = gen.phase_turns(phase.name)
        run.note(f"  {phase.name}: {phase.interactions} interactions, {len(turns)} turns in "
                 f"{phase.seconds:.2f}s, {phase.connects} connects"
                 + (f", offered {phase.offered_rate:.1f}/s, achieved "
                    f"{phase.interactions / phase.seconds:.1f}/s, lateness p99 "
                    f"{percentile(phase.lateness or [0.0], 99) * 1e3:.1f} ms, "
                    f"backlogged={backlogged(phase)}" if phase.offered_rate else ""))
        if turns:
            latencies = [t.latency for t in turns]
            run.note("    latency ms " + " ".join(
                f"p{q}={percentile(latencies, q) * 1e3:.1f}" for q in (10, 25, 50, 75, 90, 99)))


def verify(run, agent, gen: LoadGenerator) -> None:
    gen.check()
    report = replay(agent, gen.scripts, corrupt=run.inject_fault)
    run.gate_replay(report)
    run.note(f"  replayed {report.turns} served answers over {report.sessions} sessions in process")


def verify_durable(run, data_dir: Path, gen: LoadGenerator) -> None:
    """Zero lost turns: every acknowledged turn is in the durable transcripts."""
    from repro.persistence.recovery import inspect_session
    from repro.persistence.router import affinity, worker_dir

    lost = []
    checked = 0
    for sid, answers in gen.scripts.items():
        detail = inspect_session(worker_dir(data_dir, affinity(sid, WORKERS)), sid)
        turns = detail["turns"] if detail else []
        for i, answer in enumerate(answers):
            checked += 1
            if i >= len(turns) or (turns[i]["user"], turns[i]["agent"]) != (answer.utterance, answer.text):
                lost.append(f"{sid}#{i + 1}")
    if lost:
        raise GateFailure(f"{len(lost)} acknowledged turns missing from durable transcripts: {lost[:5]}")
    run.note(f"  all {checked} acknowledged turns found in the durable transcripts")


def traced_layers(gen: LoadGenerator, closed, opened,
                  dumps: list[dict], before: dict, after: dict) -> dict[str, float]:
    spans = load_spans(dumps)
    turns = [t for t in gen.phase_turns(closed.name, opened.name) if t.ok]
    layer = per_layer(spans, (closed.start, opened.end),
                      [t.service for t in turns], [t.rid for t in turns])
    delta = {k: after[k] - before[k] for k in after}
    layer["kb.plan_cache.hit_ratio"] = _ratio(delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"])
    layer["kb.index_probes_per_execute"] = _ratio(delta["probes"], delta["executions"])
    layer["serving.query_cache.hit_ratio"] = _ratio(
        delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"])
    layer.update(client_metrics(closed, opened))
    return layer


def _steps(prefix: str, dumps: list[dict], window: tuple[float, float], total: float) -> dict[str, float]:
    steps = setup_steps(dumps, load_spans(dumps), window, total)
    return {f"{prefix}.{step}_s": steps[step] for step in SETUP_STEPS}


def _kill(pid: int) -> float:
    os.kill(pid, signal.SIGKILL)
    return clock()


def _cluster_args(data_dir: Path, max_sessions: int) -> list[str]:
    return ["--workers", str(WORKERS), "--data-dir", str(data_dir),
            "--max-sessions", str(max_sessions)]


def _restart_worker(run, speed: HostSpeed, served: Served,
                    index: int) -> tuple[float, float, float, dict]:
    """SIGKILL worker ``index`` (pid from its ready file); time until the
    router reports it healthy again.  Returns (killed at, healthy at,
    :meth:`HostSpeed.scale` over the restart, worker)."""
    from repro.persistence.router import READY_FILE, worker_dir

    data_dir = Path(served.proc.args[served.proc.args.index("--data-dir") + 1])
    old_pid = json.loads((worker_dir(data_dir, index) / READY_FILE).read_text())["pid"]
    before = speed.sample(passes=3)
    killed = _kill(old_pid)

    def replaced(body) -> bool:
        worker = body["workers"][index]
        return body.get("status") == "ok" and worker["pid"] not in (None, old_pid)

    healthy = wait_healthy(served.port, served.proc, accept=replaced)
    scale = speed.scale(before, speed.sample(passes=3))
    _status, body = get_json(served.port, "/healthz")
    served.workers = body["workers"]
    worker = served.workers[index]
    run.procs.adopt(worker["pid"])
    return killed, healthy, scale, worker


def _cluster_pass(run, agent, speed: HostSpeed, seed: int, seconds: float, traced: bool,
                  tag: str, restarts: int) -> dict:
    """Launch, load, then SIGKILL and restart workers ``0, 1, 0, ...`` in turn."""
    data_dir = run.dir.sub(f"data-{tag}")
    max_sessions = 4 if run.tiny else MAX_SESSIONS
    served = launch(run, speed, _cluster_args(data_dir, max_sessions), traced=traced, tag=tag)
    stream = ContinuingStream(agent.space, seed)
    gen = LoadGenerator(served.port, stream.spec, agent, NPROC)
    before = kb_counters(served) if traced else None
    closed, opened = drive(run, gen, seconds, seed)
    after = kb_counters(served) if traced else None
    rss = sum(peak_rss_mb(pid) for pid in served.pids())
    dumps = dump_spans(served, served.pids()) if traced else []
    restart_times, window, restart_dumps = [], (0.0, 0.0), []
    for i in range(restarts):
        killed, healthy, scale, worker = _restart_worker(run, speed, served, i % WORKERS)
        restart_times.append((healthy - killed) * scale)
        window = (killed, healthy)
        if traced:
            restart_dumps = dump_spans(served, [worker["pid"]])
    stop(run, served)
    run.note(f"cluster-durable{' (traced)' if traced else ''}:")
    describe(run, gen, closed, opened)
    verify(run, agent, gen)
    verify_durable(run, data_dir, gen)
    run.count(gen.attempted, gen.failed)
    return {
        "served": served, "gen": gen, "closed": closed, "opened": opened, "rss": rss,
        "restarts": restart_times, "restart_window": window,
        "dumps": dumps, "restart_dumps": restart_dumps, "before": before, "after": after,
    }


def run_cluster_durable(run) -> dict[str, float]:
    agent = build_agent()
    speed = HostSpeed()
    seconds = run.seconds / 2 if run.traced else run.seconds
    plain = _cluster_pass(run, agent, speed, run.seed, seconds, traced=False, tag="cluster",
                          restarts=0 if run.traced else run.restart_repeats)
    gen, closed, opened = plain["gen"], plain["closed"], plain["opened"]
    metrics = {"setup_s": plain["served"].setup_s, "restart_s": median(plain["restarts"])}
    metrics.update(end_to_end(gen, closed))
    metrics.update({
        "success_rate": gen.correct / max(gen.completed, 1),
        "answered_share": 1.0 - gen.failed / max(gen.attempted, 1),
        "peak_rss_mb": plain["rss"],
    })
    if not run.traced:
        return metrics

    traced = _cluster_pass(run, agent, speed, run.seed + 1, seconds, traced=True,
                           tag="cluster-traced", restarts=1)
    served = traced["served"]
    layer = traced_layers(traced["gen"], traced["closed"], traced["opened"],
                          traced["dumps"], traced["before"], traced["after"])
    # The steps are raw span times, so they split the raw totals.
    layer.update(_steps("setup", traced["dumps"], (served.began, served.ready),
                        served.ready - served.began))
    killed, healthy = traced["restart_window"]
    layer.update(_steps("restart", traced["restart_dumps"], (killed, healthy), healthy - killed))
    traced_p50 = end_to_end(traced["gen"], traced["closed"])["turn_p50_ms"]
    layer["trace.overhead_pct"] = (traced_p50 / metrics["turn_p50_ms"] - 1.0) * 100.0
    return layer
