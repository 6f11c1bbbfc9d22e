"""Paths, child processes and statistics shared by the workloads."""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any

clock = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HOOK_DIR = BENCH_DIR / "hook"
LAUNCHER = BENCH_DIR / "launch.py"
#: Scratch space inside the checkout; every run removes its own subdirectory.
TMP_ROOT = ROOT / ".perfbench-tmp"

#: Connections and threads of the load generator.
NPROC = max(1, min(os.cpu_count() or 1, 2))


class GateFailure(Exception):
    """A correctness check failed: the run reports no numbers."""


def child_env(trace_dir: Path | None = None, hook: bool = False) -> dict[str, str]:
    """The pinned environment of every program process the benchmark starts.

    The caller's ``REPRO_KB_BACKEND`` and ``PYTHONPATH`` never leak in;
    traced children get the span directory, and router-spawned workers
    the startup hook on their import path.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_KB_BACKEND", "PYTHONPATH", "PERFBENCH_TRACE_DIR")}
    paths = [str(SRC)]
    if hook:
        paths.append(str(HOOK_DIR))
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


def program_command(args: list[str], traced: bool) -> list[str]:
    """``python -m repro <args>``, or the benchmark launcher when traced."""
    if traced:
        return [sys.executable, str(LAUNCHER), *args]
    return [sys.executable, "-m", "repro", *args]


class Processes:
    """Every process a run starts; :meth:`stop_all` ends each one."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []
        self._foreign: set[int] = set()

    def start(self, cmd: list[str], env: dict[str, str], log: Path,
              stdin: Any = subprocess.DEVNULL) -> subprocess.Popen:
        with open(log, "ab") as err:
            proc = subprocess.Popen(
                cmd, cwd=str(ROOT), env=env, stdin=stdin,
                stdout=subprocess.PIPE, stderr=err,
            )
        self._procs.append(proc)
        return proc

    def adopt(self, pid: int) -> None:
        """Track a process another process started (a router's worker)."""
        self._foreign.add(pid)

    def stop(self, proc: subprocess.Popen, sig: int = signal.SIGINT, timeout: float = 30.0) -> None:
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        if proc.stdout is not None:
            proc.stdout.close()

    def stop_all(self) -> None:
        for proc in self._procs:
            self.stop(proc, signal.SIGKILL, timeout=10.0)
        for pid in self._foreign:
            if pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(pid_alive(p) for p in self._foreign):
            time.sleep(0.05)


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # A zombie still answers signal 0; it holds no memory or sockets.
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise GateFailure(f"no VmHWM for pid {pid}")


def read_until(proc: subprocess.Popen, pattern: str, timeout: float) -> tuple[re.Match, float]:
    """Read the child's stdout until a line matches; (match, clock time)."""
    regex = re.compile(pattern)
    result: dict[str, Any] = {}

    def reader() -> None:
        assert proc.stdout is not None
        for raw in proc.stdout:
            line = raw.decode("utf-8", "replace")
            match = regex.search(line)
            if match is not None:
                result["match"] = match
                result["at"] = clock()
                break

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    if "match" not in result:
        raise GateFailure(f"process {proc.pid} never printed /{pattern}/ "
                          f"(exit code {proc.poll()})")
    drain = threading.Thread(target=_drain, args=(proc,), daemon=True)
    drain.start()
    return result["match"], result["at"]


def _drain(proc: subprocess.Popen) -> None:
    try:
        assert proc.stdout is not None
        for _line in proc.stdout:
            pass
    except (OSError, ValueError):
        pass


def get_json(port: int, path: str, timeout: float = 10.0) -> tuple[int, Any]:
    """One GET on a fresh connection (control traffic, not load)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    try:
        return response.status, json.loads(raw.decode("utf-8"))
    except ValueError:
        return response.status, raw.decode("utf-8", "replace")


def wait_healthy(port: int, proc: subprocess.Popen, timeout: float = 170.0,
                 accept: Any = None) -> float:
    """Poll ``/healthz`` until 200 (and ``accept(body)``); the clock time."""
    deadline = clock() + timeout
    while clock() < deadline:
        if proc.poll() is not None:
            raise GateFailure(f"process {proc.pid} exited with {proc.returncode} before ready")
        try:
            status, body = get_json(port, "/healthz", timeout=timeout)
        except (OSError, http.client.HTTPException):
            status, body = 0, None
        now = clock()
        if status == 200 and (accept is None or accept(body)):
            return now
        time.sleep(0.01)
    raise GateFailure(f"port {port} not healthy within {timeout:.0f}s")


def metrics_text(port: int) -> dict[str, float]:
    """``GET /metrics`` as ``{name{labels}: value}``, without the ``repro_`` prefix."""
    _status, text = get_json(port, "/metrics")
    values: dict[str, float] = {}
    for line in str(text).splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        name = name.removeprefix("repro_")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


class RunDir:
    """A fresh scratch directory for one run, removed when the run ends."""

    def __init__(self, workload: str) -> None:
        TMP_ROOT.mkdir(exist_ok=True)
        self.path = TMP_ROOT / f"{workload}-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir()

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    if not values:
        raise GateFailure("no samples")
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class HostSpeed:
    """How fast the host runs right now, from a fixed reference kernel.

    On a shared cloud host the speed of CPU-bound Python can drift by a
    third within a minute, as other tenants load the caches and memory.
    The kernel here (100,000 random reads over an 8 MiB buffer, in a
    Python loop) slows down with it.  A timed interval is scaled by
    ``NOMINAL_S`` over the kernel's mean time just before and just after
    it, so times read as on a host where the kernel takes ``NOMINAL_S``.
    The kernel is benchmark code with a fixed seed: a change to the
    program moves only the interval, never the scale.  The benchmark
    scales CPU-bound times (turn-core's loop, and set-ups and restarts),
    not served turn latencies, which a kernel timer dominates.
    """

    NOMINAL_S = 0.015

    def __init__(self) -> None:
        rng = random.Random(0)
        self._buffer = bytearray(rng.randbytes(8 << 20))
        self._reads = array("q", (rng.randrange(len(self._buffer)) for _ in range(100_000)))

    def sample(self, passes: int = 1) -> float:
        """Seconds one pass of the kernel takes now (median of ``passes``)."""
        buffer = self._buffer
        times = []
        for _ in range(passes):
            began = clock()
            total = 0
            for i in self._reads:
                total += buffer[i]
            times.append(clock() - began)
        return median(times)

    def scale(self, before: float, after: float) -> float:
        return self.NOMINAL_S / ((before + after) / 2)
