"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``chat``
    Interactive session with Conversational MDX, or with an agent built
    from an exported conversation space (``--space``) and a knowledge
    base (``--data``: a CSV directory or an SQLite ``kb.db`` file).
``demo``
    Replay the paper's §6.3 sample conversations.
``simulate``
    Run the §7 evaluation: workload → success rates → Table 5 / Figure
    11 / Figure 12 reports.
``export``
    Build Conversational MDX and write its artifacts to a directory:
    conversation space JSON, ontology as OWL, knowledge base as CSVs
    (``--sqlite`` adds a ``kb.db`` file), and the dialogue logic table.
``serve``
    Run the concurrent JSON-over-HTTP conversation server
    (``POST /chat``, ``POST /feedback``, ``GET /healthz``,
    ``GET /metrics``) over Conversational MDX or a custom space/KB.
    ``--data-dir`` makes sessions durable (journaled turns, atomic
    snapshots, crash recovery on boot); ``--workers N`` with N > 1 runs
    the session-affine router in front of N worker processes, each
    owning a slice of the data directory.
``refresh``
    Trigger a zero-downtime KB refresh on a running server: the server
    rebuilds its KB snapshot off the request path, validates it, and
    atomically swaps it in under live traffic (the router broadcasts the
    refresh to every worker replica).
``sessions``
    List or inspect the durable sessions in a ``serve --data-dir``
    directory (including per-worker slices) without starting a server.
``check``
    Statically validate the conversation-space artifacts (templates,
    logic table, dialogue tree, entities) without executing a query;
    ``--deep`` additionally runs the semantic audit.
``lint``
    Run the concurrency/purity lint pass over the codebase; ``--deep``
    additionally runs the whole-program race and purity analyzers.
``race``
    Whole-program concurrency & crash-consistency analyzer: lock-order
    cycles, inconsistently guarded fields, blocking syscalls under
    request-path locks, signal-handler locking (codes R001–R004) and
    write→fsync→rename / journal commit-point discipline (codes
    D001–D003).  ``--graph`` dumps the lock-order graph as DOT.
``purity``
    Whole-program replay-determinism & exception-flow analyzer over the
    turn pipeline: nondeterministic calls, unordered-iteration escapes,
    hidden shared-state writes, environment dependence (codes
    P001–P004) and stage exception escapes / dead handlers / over-broad
    catches (codes X001–X003), each with a witness call chain.
``audit``
    Run the semantic audit: typed symbolic evaluation over every
    template's SQL AST (codes T001–T008) and conversation ambiguity
    analysis over training examples, entities, templates, and
    elicitations (codes A001–A005).
``baseline``
    Show baseline suppression status; ``--update`` regenerates
    ``.repro-baseline`` from current findings.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Callable

from repro.bootstrap import space_from_dict, space_to_dict
from repro.engine import ConversationAgent
from repro.kb.backend import KBSnapshot
from repro.kb.io import load_database, save_database, save_sqlite
from repro.medical import build_mdx_agent, build_mdx_database, build_mdx_space
from repro.medical.build import rename_to_paper_intents
from repro.medical.knowledge import mdx_glossary
from repro.ontology import ontology_to_owl


def _load_database(args: argparse.Namespace):
    """The in-memory database the agent serves: ``--data`` or the MDX build."""
    if args.space:
        if not args.data:
            raise SystemExit(
                "--space requires --data (a CSV KB directory or a kb.db file)"
            )
        return load_database(args.data)
    return build_mdx_database()


def _build_agent(args: argparse.Namespace) -> ConversationAgent:
    database = _load_database(args)
    if args.space:
        space = space_from_dict(
            json.loads(Path(args.space).read_text(encoding="utf-8")),
            database=database,
        )
        return ConversationAgent.build(
            space, KBSnapshot(database), agent_name=args.name, domain=args.domain
        )
    # The space is bootstrapped from the raw database (ontology
    # generation samples column statistics); the agent then serves every
    # query through a frozen snapshot of it.
    space = build_mdx_space(database)
    rename_to_paper_intents(space)
    return ConversationAgent.build(
        space,
        KBSnapshot(database),
        glossary=mdx_glossary(),
        agent_name="Micromedex",
        domain="drug reference",
    )


def _kb_builder(args: argparse.Namespace) -> Callable[[], KBSnapshot]:
    """The zero-argument snapshot builder ``POST /refresh`` invokes.

    Reloads ``--data`` (a CSV directory or a kb.db file; the synthetic
    MDX build without ``--space``) and wraps it in a :class:`KBSnapshot`.
    """
    return lambda: KBSnapshot(_load_database(args))


def cmd_chat(
    args: argparse.Namespace,
    input_fn: Callable[[str], str] = input,
    output_fn: Callable[[str], None] = print,
) -> int:
    """Interactive REPL; ``input_fn``/``output_fn`` are injectable for tests."""
    from repro.engine.pipeline import render_trace

    output_fn("Building the conversation agent...")
    agent = _build_agent(args)
    session = agent.session()
    output_fn(f"A: {session.open()}")
    output_fn("(type 'quit' to exit; '+1'/'-1' for thumbs feedback)")
    while True:
        try:
            utterance = input_fn("U: ").strip()
        except EOFError:
            break
        if not utterance:
            continue
        if utterance.lower() in ("quit", "exit"):
            break
        if utterance == "+1":
            session.thumbs_up()
            continue
        if utterance == "-1":
            session.thumbs_down()
            continue
        response = session.ask(utterance)
        output_fn(f"A: {response.text}")
        if getattr(args, "trace", False) and response.trace is not None:
            output_fn(render_trace(response.trace))
    output_fn(
        f"Session over. Equation-1 success rate: "
        f"{agent.feedback_log.success_rate():.1%}"
    )
    return 0


def cmd_demo(args: argparse.Namespace, output_fn=print) -> int:
    """Replay the §6.3 conversations against a freshly built agent."""
    agent = build_mdx_agent()
    for title, turns in (
        ("clinical session", [
            "show me drugs that treat psoriasis", "adult", "I mean pediatric",
            "what do you mean by effective?", "thanks",
            "dosage for Tazarotene", "how about for Fluocinonide?",
            "thanks", "no", "goodbye",
        ]),
        ("User 480", [
            "cogentin", "What are the side effects of cogentin",
            "no", "cogentin adverse effects",
        ]),
    ):
        output_fn(f"\n===== §6.3 {title} =====")
        session = agent.session()
        output_fn(f"A: {session.open()}")
        for utterance in turns:
            response = session.ask(utterance)
            output_fn(f"U: {utterance}")
            output_fn(f"A: {response.text}")
    return 0


def cmd_simulate(args: argparse.Namespace, output_fn=print) -> int:
    """Run the §7 evaluation and print the reports."""
    from repro.eval import (
        WorkloadGenerator,
        per_intent_success,
        render_bar_figure,
        simulate_usage,
        success_rate,
    )

    agent = build_mdx_agent()
    generator = WorkloadGenerator(agent.space, seed=args.seed)
    result = simulate_usage(agent, generator.generate(args.interactions))
    output_fn(render_bar_figure(
        per_intent_success(result.records, "user", top_k=10),
        "Success rate per intent (user feedback, top-10)",
    ))
    output_fn(f"total success rate: {success_rate(result.records):.1%} "
              "(paper: 96.3%)")
    sample = result.sampled_records()
    output_fn(f"SME sample: user {success_rate(sample, 'user'):.1%} vs "
              f"SME {success_rate(sample, 'sme'):.1%} "
              "(paper: 97.9% vs 90.8%)")
    deaths = result.stage_decisions(only_incorrect=True)
    if deaths:
        output_fn("mishandled interactions by deciding pipeline stage:")
        for stage, count in deaths.items():
            output_fn(f"  {stage:<14} {count}")
    return 0


def cmd_export(args: argparse.Namespace, output_fn=print) -> int:
    """Write the MDX artifacts (space JSON, OWL, CSV KB, logic table)."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    database = build_mdx_database()
    space = build_mdx_space(database)
    rename_to_paper_intents(space)
    # Build once so the management intents and glossary are folded in.
    agent = ConversationAgent.build(
        space, database, glossary=mdx_glossary(),
        agent_name="Micromedex", domain="drug reference",
    )
    (out / "conversation_space.json").write_text(
        json.dumps(space_to_dict(space), indent=2), encoding="utf-8"
    )
    (out / "ontology.owl").write_text(
        ontology_to_owl(space.ontology), encoding="utf-8"
    )
    save_database(database, out / "kb")
    (out / "dialogue_logic_table.txt").write_text(
        agent.logic_table.render(), encoding="utf-8"
    )
    extras = ""
    if getattr(args, "sqlite", False):
        save_sqlite(database, out / "kb.db")
        extras = "  kb.db"
    output_fn(f"Artifacts written to {out}/")
    output_fn("  conversation_space.json  ontology.owl  kb/  "
              f"dialogue_logic_table.txt{extras}")
    return 0


def cmd_refresh(args: argparse.Namespace, output_fn=print) -> int:
    """Trigger a zero-downtime KB refresh on a running server.

    POSTs ``/refresh`` to the server (or router, which broadcasts to
    every worker) and prints the outcome; exits non-zero when the
    refresh was rejected or any worker failed.
    """
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/refresh"
    request = urllib.request.Request(
        url, data=b"{}", headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as exc:
        status, body = exc.code, exc.read()
    except (urllib.error.URLError, OSError) as exc:
        output_fn(f"refresh failed: cannot reach {url}: {exc}")
        return 1
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError:
        payload = {"raw": body.decode("utf-8", "replace")}
    output_fn(json.dumps(payload, indent=2))
    return 0 if status < 400 else 1


def cmd_serve(
    args: argparse.Namespace, output_fn=print, run_forever: bool = True
) -> int:
    """Start the conversation server; blocks until interrupted.

    Three shapes, picked from the flags:

    * default — one process, in-memory sessions (plus durability when
      ``--data-dir`` is set),
    * ``--workers N`` (N > 1) — the session-affine router fronting N
      worker subprocesses (requires ``--data-dir``),
    * ``--worker-index i`` — one router-managed worker (internal; set
      by the router when it spawns ``python -m repro serve``).

    ``run_forever=False`` starts and immediately drains (for tests).

    Any shape takes ``--async``: each serving process swaps its
    thread-per-connection listener for the asyncio front end
    (``repro.serving.aio``), gaining ``POST /chat/stream`` and the
    front-end admission knobs (``--rate-limit``/``--rate-burst``/
    ``--accept-queue``).
    """
    if args.worker_index is not None:
        return _serve_worker(args, output_fn, run_forever)
    if args.workers > 1:
        return _serve_router(args, output_fn, run_forever)

    output_fn("Building the conversation agent...")
    agent = _build_agent(args)
    server = _make_server(args, agent, args.data_dir, kb_builder=_kb_builder(args))
    if not run_forever:
        server.start()
    output_fn(f"Serving on {server.address} (Ctrl-C to drain and stop)")
    if args.use_async:
        output_fn("  async front end: POST /chat/stream streams turn events")
    if args.data_dir:
        output_fn(f"  durable sessions under {args.data_dir} "
                  f"(fsync={args.fsync})")
    output_fn('  try: curl -s -X POST -d \'{"utterance": "help"}\' '
              f"{server.address}/chat")
    if not run_forever:
        server.shutdown()
        return 0
    server.serve_forever()
    output_fn("Server stopped; interaction log flushed.")
    return 0


def _make_server(
    args: argparse.Namespace, agent, data_dir, **extra: object
):
    """One serving process: threaded by default, asyncio with --async."""
    from repro.serving import AsyncConversationServer, ConversationServer

    common: dict = dict(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        cache_size=args.cache_size,
        cache_ttl=args.cache_ttl,
        max_workers=args.turn_threads,
        request_timeout=args.request_timeout,
        log_path=args.log,
        data_dir=data_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )
    common.update(extra)
    if args.use_async:
        return AsyncConversationServer(
            agent,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            accept_queue=args.accept_queue,
            **common,
        )
    return ConversationServer(agent, **common)


def _interrupt_once() -> Callable[[int, object], None]:
    """Signal handler that starts the graceful-drain path exactly once.

    The first SIGTERM/SIGINT raises ``KeyboardInterrupt`` so the serve
    loop falls into its drain-and-snapshot ``finally`` block; any later
    signal is swallowed so it cannot abort the drain mid-snapshot (the
    router's SIGTERM and a terminal Ctrl-C can otherwise both arrive).
    """
    state = {"fired": False}

    def handler(signum, frame) -> None:
        if state["fired"]:
            return
        state["fired"] = True
        raise KeyboardInterrupt

    return handler


def _serve_worker(args: argparse.Namespace, output_fn, run_forever) -> int:
    """Router-managed worker: serve one slice of the durable data dir.

    The worker owns ids ≡ ``worker_index`` (mod ``workers``) — exactly
    the sessions the router hashes to it — and announces its bound port
    through an atomically written ready file once it is listening.
    """
    from repro.persistence.router import READY_FILE, worker_dir

    if not args.data_dir:
        raise SystemExit("--worker-index requires --data-dir")
    index = args.worker_index
    directory = worker_dir(args.data_dir, index)
    directory.mkdir(parents=True, exist_ok=True)
    output_fn(f"[worker {index}] building the conversation agent...")
    agent = _build_agent(args)
    server = _make_server(
        args,
        agent,
        directory,
        id_stride=max(args.workers, 1),
        id_offset=index,
        kb_builder=_kb_builder(args),
    )
    server.start()
    ready = directory / READY_FILE
    tmp = ready.with_name(ready.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"port": server.port, "pid": os.getpid()}, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, ready)
    output_fn(f"[worker {index}] serving on {server.address}")
    if not run_forever:
        server.shutdown()
        return 0
    handler = _interrupt_once()
    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        output_fn(f"[worker {index}] stopped")
    return 0


def _serve_router(args: argparse.Namespace, output_fn, run_forever) -> int:
    """Front ``--workers N`` worker subprocesses with the session router."""
    from repro.persistence.router import SessionRouter

    if not args.data_dir:
        raise SystemExit(
            "--workers > 1 requires --data-dir (the durable session root)"
        )
    worker_args = []
    if args.space:
        worker_args += ["--space", args.space]
    if args.data:
        worker_args += ["--data", args.data]
    worker_args += [
        "--name", args.name,
        "--domain", args.domain,
        "--session-ttl", str(args.session_ttl),
        "--max-sessions", str(args.max_sessions),
        "--cache-size", str(args.cache_size),
        "--cache-ttl", str(args.cache_ttl),
        "--turn-threads", str(args.turn_threads),
        "--request-timeout", str(args.request_timeout),
        "--fsync", args.fsync,
        "--snapshot-every", str(args.snapshot_every),
    ]
    if args.use_async:
        worker_args += [
            "--async",
            "--rate-limit", str(args.rate_limit),
            "--rate-burst", str(args.rate_burst),
            "--accept-queue", str(args.accept_queue),
        ]
    router = SessionRouter(
        args.workers,
        args.data_dir,
        host=args.host,
        port=args.port,
        worker_args=worker_args,
    )
    output_fn(f"Routing {args.workers} workers on {router.address} "
              "(Ctrl-C to stop)")
    output_fn(f"  durable sessions under {args.data_dir} "
              f"(per-worker slices in {args.data_dir}/workers/)")
    if not run_forever:
        router.start()
        router.stop()
        return 0
    router.serve_forever()
    output_fn("Router stopped; workers terminated.")
    return 0


def cmd_sessions(args: argparse.Namespace, output_fn=print) -> int:
    """List or inspect the durable sessions under a serve data dir."""
    from repro.persistence.recovery import inspect_session, list_session_ids

    root = Path(args.data_dir)
    # A data dir is either a single-process root or a router root whose
    # workers/ subdirectories each hold one worker's slice.
    slices: list[tuple[str | None, Path]] = []
    if (root / "sessions").is_dir():
        slices.append((None, root))
    workers_root = root / "workers"
    if workers_root.is_dir():
        for sub in sorted(workers_root.iterdir()):
            if (sub / "sessions").is_dir():
                slices.append((sub.name, sub))
    if not slices:
        output_fn(f"no durable sessions under {root}")
        return 1

    if args.session:
        for worker, directory in slices:
            detail = inspect_session(directory, args.session)
            if detail is None:
                continue
            if worker is not None:
                detail["worker"] = worker
            if args.json:
                output_fn(json.dumps(detail, indent=2))
                return 0
            header = f"session {detail['session_id']}"
            if worker is not None:
                header += f" (worker {worker})"
            torn = ", torn tail" if detail["journal_torn"] else ""
            output_fn(
                f"{header}: {detail['turn_count']} turns "
                f"({detail['snapshot_turns']} snapshotted, "
                f"{detail['journal_suffix']} journaled{torn})"
            )
            for turn in detail["turns"]:
                output_fn(f"U: {turn['user']}")
                output_fn(f"A: {turn['agent']}")
            return 0
        output_fn(f"session {args.session} has no durable state under {root}")
        return 1

    rows = []
    for worker, directory in slices:
        for sid in list_session_ids(directory):
            detail = inspect_session(directory, sid)
            if detail is None:
                continue
            rows.append({
                "session_id": sid,
                "worker": worker,
                "turns": detail["turn_count"],
                "snapshot_turns": detail["snapshot_turns"],
                "journal_suffix": detail["journal_suffix"],
                "journal_bytes": detail["journal_bytes"],
                "journal_torn": detail["journal_torn"],
            })
    if args.json:
        output_fn(json.dumps(rows, indent=2))
        return 0
    if not rows:
        output_fn(f"no durable sessions under {root}")
        return 0
    output_fn(f"{'session':>8}  {'worker':>6}  {'turns':>5}  {'snap':>5}  "
              f"{'journal':>7}  {'bytes':>8}  torn")
    for row in rows:
        output_fn(
            f"{row['session_id']:>8}  {(row['worker'] or '-'):>6}  "
            f"{row['turns']:>5}  {row['snapshot_turns']:>5}  "
            f"{row['journal_suffix']:>7}  {row['journal_bytes']:>8}  "
            f"{'yes' if row['journal_torn'] else 'no'}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the `repro` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ontology-based conversation system (SIGMOD 2020 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chat = sub.add_parser("chat", help="interactive conversation")
    chat.add_argument("--space", help="exported conversation-space JSON")
    chat.add_argument("--data",
                      help="knowledge base: a CSV directory or a kb.db file")
    chat.add_argument("--name", default="Assistant", help="agent name")
    chat.add_argument("--domain", default="knowledge base", help="domain label")
    chat.add_argument("--trace", action="store_true",
                      help="print the per-stage pipeline trace after each turn")
    chat.set_defaults(handler=cmd_chat)

    demo = sub.add_parser("demo", help="replay the paper's §6.3 conversations")
    demo.set_defaults(handler=cmd_demo)

    simulate = sub.add_parser("simulate", help="run the §7 evaluation")
    simulate.add_argument("-n", "--interactions", type=int, default=1000)
    simulate.add_argument("--seed", type=int, default=99)
    simulate.set_defaults(handler=cmd_simulate)

    export = sub.add_parser("export", help="write the MDX artifacts")
    export.add_argument("--out", default="mdx-artifacts")
    export.add_argument("--sqlite", action="store_true",
                        help="also write the KB as an SQLite file (kb.db), "
                             "usable as --data for chat, serve, check and "
                             "audit")
    export.set_defaults(handler=cmd_export)

    serve = sub.add_parser("serve", help="run the HTTP conversation server")
    serve.add_argument("--space", help="exported conversation-space JSON")
    serve.add_argument("--data",
                       help="knowledge base: a CSV directory or a kb.db file")
    serve.add_argument("--name", default="Assistant", help="agent name")
    serve.add_argument("--domain", default="knowledge base", help="domain label")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks a free one)")
    serve.add_argument("--session-ttl", type=float, default=1800.0,
                       help="idle seconds before a session is evicted")
    serve.add_argument("--max-sessions", type=int, default=1024,
                       help="LRU cap on live sessions")
    serve.add_argument("--cache-size", type=int, default=512,
                       help="query-cache entries")
    serve.add_argument("--cache-ttl", type=float, default=300.0,
                       help="query-cache entry lifetime, seconds")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes; > 1 runs the session-affine "
                            "router in front (requires --data-dir)")
    serve.add_argument("--turn-threads", type=int, default=16,
                       help="turn-executor thread pool size per process")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-turn timeout, seconds (504 past it)")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="asyncio front end: keep-alive scales past "
                            "thread-per-connection and POST /chat/stream "
                            "streams turn events (SSE)")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="async: sustained turns/second allowed per "
                            "session (0 disables the token bucket)")
    serve.add_argument("--rate-burst", type=float, default=8.0,
                       help="async: token-bucket burst size per session")
    serve.add_argument("--accept-queue", type=int, default=256,
                       help="async: max requests in flight on the front "
                            "end before shedding 503 queue_full")
    serve.add_argument("--log", default=None,
                       help="interaction-log path, flushed on shutdown")
    serve.add_argument("--data-dir", default=None,
                       help="durable session root: journaled turns, atomic "
                            "snapshots, crash recovery on boot")
    serve.add_argument("--fsync", choices=("always", "interval", "never"),
                       default="always",
                       help="journal fsync policy in durable mode")
    serve.add_argument("--snapshot-every", type=int, default=64,
                       help="journaled turns between snapshot + compaction")
    # Internal: the router passes this when spawning its workers.
    serve.add_argument("--worker-index", type=int, default=None,
                       help=argparse.SUPPRESS)
    serve.set_defaults(handler=cmd_serve)

    refresh = sub.add_parser(
        "refresh",
        help="trigger a zero-downtime KB refresh on a running server",
    )
    refresh.add_argument("--url", default="http://127.0.0.1:8080",
                         help="server (or router) base URL")
    refresh.add_argument("--timeout", type=float, default=300.0,
                         help="seconds to wait for the rebuild + swap")
    refresh.set_defaults(handler=cmd_refresh)

    sessions = sub.add_parser(
        "sessions", help="list or inspect durable sessions in a data dir"
    )
    sessions.add_argument("--data-dir", required=True,
                          help="durable session root (as passed to serve)")
    sessions.add_argument("--session", default=None,
                          help="show one session's committed transcript")
    sessions.add_argument("--json", action="store_true",
                          help="machine-readable output")
    sessions.set_defaults(handler=cmd_sessions)

    from repro.analysis.runner import (
        add_analysis_arguments,
        add_audit_arguments,
        cmd_audit,
        cmd_baseline,
        cmd_check,
        cmd_lint,
        cmd_purity,
        cmd_race,
    )

    check = sub.add_parser(
        "check", help="statically validate the conversation space"
    )
    check.add_argument("--space", help="exported conversation-space JSON")
    check.add_argument("--data",
                       help="knowledge base: a CSV directory or a kb.db file")
    check.add_argument("--deep", action="store_true",
                       help="also run the semantic audit (T/A codes)")
    add_analysis_arguments(check)
    add_audit_arguments(check)
    check.set_defaults(handler=cmd_check)

    lint = sub.add_parser(
        "lint", help="run the concurrency/purity lint over the codebase"
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--deep", action="store_true",
                      help="also run the race/durability (R/D) and "
                      "purity/exception-flow (P/X) analyzers")
    add_analysis_arguments(lint)
    lint.set_defaults(handler=cmd_lint)

    race = sub.add_parser(
        "race",
        help="whole-program concurrency & crash-consistency analyzer "
        "(R/D codes)",
    )
    race.add_argument("paths", nargs="*",
                      help="files/directories to analyze (default: src/repro)")
    race.add_argument("--graph", action="store_true",
                      help="dump the lock-order graph as DOT and exit")
    add_analysis_arguments(race)
    race.set_defaults(handler=cmd_race)

    purity = sub.add_parser(
        "purity",
        help="replay-determinism & exception-flow analyzer (P/X codes)",
    )
    purity.add_argument("paths", nargs="*",
                        help="files/directories to analyze "
                        "(default: src/repro)")
    add_analysis_arguments(purity)
    purity.set_defaults(handler=cmd_purity)

    audit = sub.add_parser(
        "audit",
        help="semantic audit: SQL type/dataflow (T) + NL ambiguity (A)",
    )
    audit.add_argument("--space", help="exported conversation-space JSON")
    audit.add_argument("--data",
                       help="knowledge base: a CSV directory or a kb.db file")
    add_analysis_arguments(audit)
    add_audit_arguments(audit)
    audit.set_defaults(handler=cmd_audit)

    baseline = sub.add_parser(
        "baseline", help="show or regenerate the .repro-baseline file"
    )
    baseline.add_argument("--update", action="store_true",
                          help="regenerate the baseline from current findings")
    baseline.add_argument("--space", help="exported conversation-space JSON")
    baseline.add_argument("--data",
                          help="knowledge base: a CSV directory or a kb.db file")
    add_analysis_arguments(baseline)
    add_audit_arguments(baseline)
    baseline.set_defaults(handler=cmd_baseline)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
