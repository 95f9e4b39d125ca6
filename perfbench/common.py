"""Shared helpers: checkout paths, statistics, environment record, and
the child-process runner that reports a process's peak RSS."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

#: The checkout root: the benchmark always runs from it.
ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = ROOT / "src"
#: Scratch space for inputs, stores and traces; listed in .gitignore.
WORK_ROOT = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed child)."""


def require_program() -> None:
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program to measure: {SRC_DIR / 'repro'} is missing; run "
            f"from the root of a checkout of the repository"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return statistics.median(values)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of the samples."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples to take a percentile of")
    rank = max(0, min(len(ordered) - 1, int(round(share * len(ordered))) - 1))
    return ordered[rank]


def steal_ticks() -> int:
    """Aggregate CPU steal ticks from /proc/stat (0 where unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_line_count() -> int:
    total = 0
    for path in sorted(SRC_DIR.rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def environment(steal_before: int) -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "steal_ticks_delta": steal_ticks() - steal_before,
        "src_lines": src_line_count(),
    }


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def wait_with_rusage(process: subprocess.Popen, timeout: float):
    """Wait for ``process``; return (exit code, peak RSS in MB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            process.kill()
            _, status, usage = os.wait4(process.pid, 0)
            process.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"{process.args} exceeded {timeout:.0f} s")
        time.sleep(0.02)


def run_child(args: List[str], timeout: float) -> float:
    """Run ``python3 perfbench/<args>`` to completion; return its peak
    RSS in MB.  Output goes to this process's stderr."""
    process = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdout=sys.stderr, stderr=sys.stderr,
    )
    try:
        code, rss_mb = wait_with_rusage(process, timeout)
    finally:
        if process.returncode is None:
            process.kill()
            process.wait()
    if code != 0:
        raise BenchError(f"{' '.join(args)} exited with code {code}")
    return rss_mb


def pin_to_cpu(position: int):
    """Pin this process to one of its allowed CPUs (``position`` counts
    from the first; -1 is the last).  Returns the previous CPU set, or
    None where there is only one CPU or no affinity API."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None
    if len(allowed) < 2:
        return None
    os.sched_setaffinity(0, {allowed[position]})
    return set(allowed)


def read_json(path: Path) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
