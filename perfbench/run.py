"""The repo benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload turn-core --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``turn-core`` — ``Session.ask`` in process, one thread, closed loop
  (:mod:`turncore`);
* ``cluster-durable`` — the router plus two durable workers with
  ``--fsync always``, a quarter of interactions continuing earlier
  sessions, then each worker SIGKILLed and restarted (:mod:`served`).
  It reports capacity and latency from a closed loop over two
  keep-alive connections (see :mod:`served` for why).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it runs half the load untraced and half with
span wrappers installed from this directory (in process, through
``launch.py``, and through the ``hook/`` start-up hook for router
workers), so ``trace.overhead_pct`` compares the two halves.

Every run checks its outputs: served answers are replayed in process
and must match, ``cluster-durable`` must find every acknowledged turn in
the durable transcripts, and ``turn-core`` replays its first sessions.
A failed check exits 1 and prints no numbers.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import dataclass, field

from common import SRC, GateFailure, Processes, RunDir

END_TO_END_UNITS = {
    "setup_s": "s",
    "restart_s": "s",
    "turns_per_s": "turns/s",
    "turn_p50_ms": "ms",
    "turn_p99_ms": "ms",
    "success_rate": "ratio",
    "answered_share": "ratio",
    "peak_rss_mb": "MB",
}

#: How many times a run sets the program up (``setup_s`` is their median)
#: and restarts it (``restart_s``); a cluster set-up builds two agents.
SETUP_REPEATS = {"turn-core": 2, "cluster-durable": 1}
RESTART_REPEATS = {"turn-core": 3, "cluster-durable": 2}

WORKLOADS = ("turn-core", "cluster-durable")


def per_layer_units() -> dict[str, str]:
    from layers import SETUP_STEPS
    from tracer import TURN_SPANS

    units: dict[str, str] = {}
    for name in TURN_SPANS:
        units[f"{name}.calls_per_turn"] = "calls/turn"
        units[f"{name}.self_us"] = "us"
        units[f"{name}.share"] = "ratio"
    units.update({
        "kb.execute.rows_per_call": "rows/call",
        "kb.plan_cache.hit_ratio": "ratio",
        "kb.index_probes_per_execute": "probes/call",
        "serving.turn_wait_us": "us",
        "serving.query_cache.hit_ratio": "ratio",
        "serving.transport_us": "us",
        "persistence.router_hop_us": "us",
    })
    for prefix in ("setup", "restart"):
        for step in SETUP_STEPS:
            units[f"{prefix}.{step}_s"] = "s"
    units.update({
        "trace.unattributed_share": "ratio",
        "trace.overhead_pct": "%",
        "client.connects": "count",
        "client.late_ms_p99": "ms",
        "client.offered_rate": "1/s",
        "client.achieved_rate": "1/s",
        "client.backlogged": "flag",
    })
    return units


@dataclass
class Run:
    """One benchmark run: its settings, scratch space and processes."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    tiny: bool = False
    inject_fault: bool = False
    attempted: int = 0
    failed: int = 0
    dir: RunDir = field(init=False)
    procs: Processes = field(default_factory=Processes)

    @property
    def setup_repeats(self) -> int:
        return 1 if self.tiny else SETUP_REPEATS[self.workload]

    @property
    def restart_repeats(self) -> int:
        return 1 if self.tiny or self.traced else RESTART_REPEATS[self.workload]

    def note(self, message: str) -> None:
        print(message, flush=True)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def gate_replay(self, report) -> None:
        if report.mismatches:
            first = report.mismatches[0]
            raise GateFailure(
                f"{len(report.mismatches)} of {report.turns} answers differ from the "
                f"in-process replay; session {first.session} turn {first.turn}: "
                f"expected {first.expected!r}, got {first.got!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one set-up per run and a small session cap (for the tests)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one recorded answer before the comparison")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              tiny=args.tiny, inject_fault=args.inject_fault)
    run.dir = RunDir(args.workload)
    try:
        if args.workload == "turn-core":
            from turncore import run_turn_core as body
        else:
            from served import run_cluster_durable as body
        values = body(run)
    except GateFailure as failure:
        print(f"perfbench: correctness check failed: {failure}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        run.procs.stop_all()
        run.dir.remove()

    units = per_layer_units() if run.traced else END_TO_END_UNITS
    missing = sorted(name for name in units
                     if name not in values or not math.isfinite(values[name]))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    if run.attempted < 1:
        print("perfbench: nothing attempted", file=sys.stderr)
        return 2
    for name, unit in units.items():
        print(f"  {name:55s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
