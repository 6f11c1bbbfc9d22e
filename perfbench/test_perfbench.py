"""Tests of the benchmark itself (not part of the program's tier-1 suite).

    PYTHONPATH=src python3 -m pytest perfbench -q

A tiny run of each workload must print every metric ``BENCHMARK.json``
names, with its unit; a deliberately corrupted answer must fail the
correctness gate with no numbers; and without the program's source the
benchmark must fail fast.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from common import percentile  # noqa: E402
from layers import load_spans, per_layer, setup_steps  # noqa: E402
from run import END_TO_END_UNITS, WORKLOADS, per_layer_units  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT, timeout: float = 400.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def tiny(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return bench("--workload", workload, "--seed", "3", "--seconds", "2",
                 "--trace", str(trace), "--tiny", *extra)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    done = tiny(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    elif workload != "turn-core":
        # The served workload keeps its keep-alive connections.
        assert 1 <= result["metrics"]["client.connects"]["value"] <= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_fails_the_gate(workload):
    done = tiny(workload, 0, "--inject-fault")
    assert done.returncode == 1, done.stderr[-3000:]
    assert "correctness check failed" in done.stderr
    assert '"metrics"' not in done.stdout


def test_without_program_source_it_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "turn-core", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=60.0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_percentile_counts_failures_as_slowest():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([1.0] * 99 + [float("inf")], 99) == 1.0
    assert percentile([1.0] * 98 + [float("inf")] * 2, 99) == float("inf")


def test_self_time_and_router_hop_from_spans():
    router = {"pid": 1, "started": 0.0, "spans": [
        ["persistence.SessionRouter.forward", 10.0, 10.010, None, ["7", 1]],
    ]}
    worker = {"pid": 2, "started": 0.0, "spans": [
        ["serving.ConversationApp.handle", 10.001, 10.008, None, ["7", 1]],
        ["serving.turn_wait", 10.002, 10.003, 0, None],
        ["engine.Session.ask", 10.003, 10.007, 0, None],
        ["nlp.IntentClassifier.classify", 10.004, 10.005, 2, None],
    ]}
    spans = load_spans([router, worker])
    layer = per_layer(spans, (9.0, 11.0), [0.050], [("7", 1)])
    assert layer["engine.Session.ask.self_us"] == pytest.approx(3000.0)
    assert layer["serving.ConversationApp.handle.self_us"] == pytest.approx(2000.0)
    assert layer["persistence.SessionRouter.forward.self_us"] == pytest.approx(3000.0)
    assert layer["persistence.router_hop_us"] == pytest.approx(3000.0)
    assert layer["serving.transport_us"] == pytest.approx(43000.0)
    assert layer["serving.turn_wait_us"] == pytest.approx(1000.0)
    assert layer["trace.unattributed_share"] == pytest.approx(0.8)


def test_setup_split_sums_to_the_total():
    dump = {"pid": 5, "started": 1.0, "spans": [
        ["setup.build_mdx_database", 1.5, 1.6, None, None],
        ["setup.build_mdx_space", 1.6, 1.7, None, None],
        ["setup.ConversationAgent.build", 1.7, 5.7, None, None],
        ["setup.train_classifier", 1.8, 5.6, 2, None],
    ]}
    steps = setup_steps([dump], load_spans([dump]), (0.0, 10.0), total=6.0)
    assert steps["import"] == pytest.approx(0.5)
    assert steps["train_classifier"] == pytest.approx(3.8)
    assert steps["agent_build_self"] == pytest.approx(0.2)
    assert sum(steps.values()) == pytest.approx(6.0)


def test_a_target_the_program_lost_fails_the_traced_run():
    dump = {"pid": 1, "started": 0.0, "spans": [], "missing": ["engine.EntityRecognizer.recognize"]}
    with pytest.raises(RuntimeError, match="EntityRecognizer.recognize"):
        load_spans([dump])
