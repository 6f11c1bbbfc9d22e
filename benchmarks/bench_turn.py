#!/usr/bin/env python
"""End-to-end turn-latency benchmark over the staged pipeline.

Builds the full-scale MDX agent, replays a fixed set of representative
conversations (answer, keyword elicitation, slot filling, management,
fallback), and reports end-to-end turn latency (p50/p95) plus the
per-stage breakdown recorded in each turn's
:class:`~repro.engine.pipeline.TurnTrace` — the same trace the serving
layer exports on ``/metrics`` and ``python -m repro chat --trace``
prints.

Two modes:

* **Timing mode** (default) — replays the workload ``--repeats`` times
  and prints p50/p95 per conversation kind and mean/p95/share per
  pipeline stage, then splits the ``classify`` stage into its pieces —
  featurize (tokenizing included), score, recognize and the gibberish
  guard — by calling each piece directly on the workload utterances.
* **Smoke mode** (``--smoke``, run in CI) — a single replay, and one
  pass over the classify pieces, that asserts every turn produced a
  complete, well-formed trace (every stage timed, a deciding stage
  present, durations consistent) instead of asserting latency numbers,
  which would flake on shared CI runners.

Either mode can emit a JSON report via ``--json PATH`` for the CI
artifact upload.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_turn.py --smoke --json out.json
    PYTHONPATH=src python benchmarks/bench_turn.py --repeats 20
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from repro.engine.kinds import ResponseKind
from repro.medical import build_mdx_agent
from repro.nlp.tokenizer import Utterance

#: Fixed replay workload: one scripted conversation per behaviour the
#: pipeline distinguishes, so every stage shows up in the breakdown.
CONVERSATIONS: list[tuple[str, list[str]]] = [
    ("answer", ["What are the adverse effects of cogentin"]),
    ("keyword", ["cogentin", "no"]),
    ("slot-filling", ["what is the dosage", "cogentin", "Parkinsonism", "adult"]),
    ("context-switch", ["dosage for Tazarotene", "how about for Fluocinonide?"]),
    ("management", ["thanks"]),
    ("fallback", ["apfjhd qwkjh"]),
]


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (must be non-empty)."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def replay_once(agent: Any) -> list[dict[str, Any]]:
    """Replay every conversation in a fresh session; one dict per turn."""
    turns: list[dict[str, Any]] = []
    for name, script in CONVERSATIONS:
        session = agent.session()
        for utterance in script:
            response = session.ask(utterance)
            trace = response.trace
            turns.append({
                "conversation": name,
                "utterance": utterance,
                "kind": response.kind,
                "trace": trace,
            })
    return turns


def check_traces(turns: list[dict[str, Any]]) -> list[str]:
    """Well-formedness problems with the recorded traces, if any."""
    problems: list[str] = []
    for turn in turns:
        where = f"{turn['conversation']}:{turn['utterance']!r}"
        trace = turn["trace"]
        if trace is None:
            problems.append(f"{where}: no trace recorded")
            continue
        if trace.deciding_stage is None:
            problems.append(f"{where}: no deciding stage")
        if trace.kind not in ResponseKind.ALL:
            problems.append(f"{where}: unknown kind {trace.kind!r}")
        if not trace.stages:
            problems.append(f"{where}: no stages timed")
            continue
        if trace.stages[-1].stage != trace.deciding_stage:
            problems.append(
                f"{where}: last timed stage {trace.stages[-1].stage!r} "
                f"!= deciding stage {trace.deciding_stage!r}"
            )
        if any(stage.duration < 0 for stage in trace.stages):
            problems.append(f"{where}: negative stage duration")
        stage_sum = sum(stage.duration for stage in trace.stages)
        if trace.duration + 1e-9 < stage_sum:
            problems.append(f"{where}: stage durations exceed turn duration")
    return problems


def aggregate(all_turns: list[dict[str, Any]]) -> dict[str, Any]:
    """p50/p95 per conversation kind plus the per-stage breakdown."""
    by_conversation: dict[str, list[float]] = {}
    stage_samples: dict[str, list[float]] = {}
    stage_decisions: dict[str, int] = {}
    totals: list[float] = []
    for turn in all_turns:
        trace = turn["trace"]
        if trace is None:
            continue
        totals.append(trace.duration)
        by_conversation.setdefault(turn["conversation"], []).append(
            trace.duration
        )
        for stage in trace.stages:
            stage_samples.setdefault(stage.stage, []).append(stage.duration)
        deciding = trace.deciding_stage or "<none>"
        stage_decisions[deciding] = stage_decisions.get(deciding, 0) + 1

    grand_total = sum(totals) or 1.0
    stages = []
    for name, samples in stage_samples.items():
        stage_total = sum(samples)
        stages.append({
            "stage": name,
            "turns": len(samples),
            "mean_us": round(1e6 * stage_total / len(samples), 2),
            "p95_us": round(1e6 * percentile(samples, 0.95), 2),
            "share": round(stage_total / grand_total, 4),
            "decisions": stage_decisions.get(name, 0),
        })
    stages.sort(key=lambda s: -s["share"])
    return {
        "turns": len(totals),
        "p50_ms": round(1e3 * percentile(totals, 0.50), 3),
        "p95_ms": round(1e3 * percentile(totals, 0.95), 3),
        "conversations": {
            name: {
                "turns": len(samples),
                "p50_ms": round(1e3 * percentile(samples, 0.50), 3),
                "p95_ms": round(1e3 * percentile(samples, 0.95), 3),
            }
            for name, samples in sorted(by_conversation.items())
        },
        "stages": stages,
    }


def time_pieces(agent: Any, repeats: int) -> dict[str, float]:
    """Mean microseconds per utterance of each piece of the classify
    stage, each called directly on every workload utterance."""
    classifier, recognizer = agent.classifier, agent.recognizer
    vectorizer, model = classifier.vectorizer, classifier.model
    utterances = [u for _, script in CONVERSATIONS for u in script]
    texts = [Utterance.parse(u) for u in utterances]
    rows = [vectorizer.featurize(u) for u in utterances]
    pieces = {
        "featurize": lambda i: vectorizer.featurize(utterances[i]),
        "score": lambda i: model.score(*rows[i]),
        "recognize": lambda i: recognizer.recognize(texts[i]),
        "gibberish_guard": lambda i: vectorizer.known_word_fraction(texts[i]),
    }
    indices = range(len(utterances))
    timings: dict[str, float] = {}
    for name, piece in pieces.items():
        began = time.perf_counter()
        for _ in range(repeats):
            for i in indices:
                piece(i)
        elapsed = time.perf_counter() - began
        timings[name] = round(1e6 * elapsed / (repeats * len(utterances)), 2)
    return timings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="single replay asserting trace completeness, no timing gates",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the report as JSON to PATH"
    )
    parser.add_argument(
        "--repeats", type=int, default=20,
        help="workload replays in timing mode",
    )
    args = parser.parse_args(argv)

    print("building the full-scale MDX agent...")
    agent = build_mdx_agent()
    repeats = 1 if args.smoke else args.repeats

    all_turns: list[dict[str, Any]] = []
    for _ in range(repeats):
        all_turns.extend(replay_once(agent))

    problems = check_traces(all_turns)
    report: dict[str, Any] = {
        "benchmark": "turn",
        "mode": "smoke" if args.smoke else "timing",
        "repeats": repeats,
        "workload": [name for name, _ in CONVERSATIONS],
        "problems": problems,
    }
    summary = aggregate(all_turns)
    report.update(summary)
    report["classify_pieces_us"] = time_pieces(agent, repeats)
    ok = not problems and summary["turns"] > 0

    print(f"turns: {summary['turns']}  "
          f"p50 {summary['p50_ms']}ms  p95 {summary['p95_ms']}ms")
    for name, stats in summary["conversations"].items():
        print(f"  {name:<16} p50 {stats['p50_ms']:>8}ms  "
              f"p95 {stats['p95_ms']:>8}ms  ({stats['turns']} turns)")
    print("per-stage breakdown (by share of total turn time):")
    for stage in summary["stages"]:
        print(f"  {stage['stage']:<16} mean {stage['mean_us']:>10}us  "
              f"p95 {stage['p95_us']:>10}us  share {stage['share']:>7.2%}  "
              f"decided {stage['decisions']}")
    print("classify pieces (mean per utterance, called directly):")
    for name, micros in report["classify_pieces_us"].items():
        print(f"  {name:<16} {micros:>10}us")
    for problem in problems:
        print(f"PROBLEM: {problem}")

    report["ok"] = ok
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
