"""Shared plumbing of the benchmark: environment, statistics, processes.

Everything here is stdlib-only and imports nothing from ``repro``, so the
benchmark can scrub the environment before the program is first imported.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
RESULTS_DIR = REPO_ROOT / "results"

# Variables the program reads ambiently (cache dir and tier, HMAC
# secret, fault plans, simulation engine, log level).  Any REPRO_* name
# is dropped, not only these, so a new one cannot leak in unnoticed.
ENV_PREFIX = "REPRO_"

# A tail percentile needs at least this many samples beyond it; with
# too few samples a lower percentile that has them is reported instead.
TAIL_SAMPLES = 10

# AF_UNIX socket paths (multiprocessing's forkserver) are limited to
# 107 bytes; a temp root deeper than this stays on the system default.
_MAX_TMP_ROOT = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, dead server, ...)."""


# -- environment -------------------------------------------------------


def scrub_env(env: Mapping[str, str]) -> Dict[str, str]:
    """A copy of ``env`` without any ``REPRO_*`` variable."""
    return {k: v for k, v in env.items() if not k.startswith(ENV_PREFIX)}


def child_env(tmp_root: Optional[Path] = None) -> Dict[str, str]:
    """Environment for every process the benchmark spawns: scrubbed,
    importing the checkout's sources, writing no bytecode into it."""
    env = scrub_env(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if tmp_root is not None and len(str(tmp_root)) <= _MAX_TMP_ROOT:
        env["TMPDIR"] = str(tmp_root)
    return env


def check_sources() -> None:
    """Fail fast when the program or the reference tables are absent."""
    missing = [
        str(p.relative_to(REPO_ROOT))
        for p in (SRC_DIR / "repro" / "__init__.py",
                  *(RESULTS_DIR / f"table{i}.txt" for i in range(1, 5)))
        if not p.is_file()
    ]
    if missing:
        raise BenchError(f"checkout lacks {', '.join(missing)}")


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO_ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment_record(default_engine: str) -> Dict[str, object]:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sim_engine": default_engine,
        "commit": git_commit(),
    }


# -- statistics ----------------------------------------------------------


def tail_percentile(samples: Sequence[float], q: float) -> Tuple[float, float]:
    """The ``q`` quantile (nearest rank) if at least :data:`TAIL_SAMPLES`
    samples lie beyond it, else the highest quantile that has them, else
    the largest sample.  Returns ``(value, quantile used)``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 1.0
    q = min(q, (n - TAIL_SAMPLES) / n)
    rank = max(1, math.ceil(q * n))  # nearest rank: 1-based
    return ordered[rank - 1], q


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among the
    processes it spawned and reaped (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- processes and files -------------------------------------------------


class TempRoot:
    """Fresh scratch directories for one run, removed on close.

    Lives inside the checkout (``.perfbench-tmp/``) so the benchmark
    writes nowhere else.
    """

    def __init__(self) -> None:
        base = REPO_ROOT / ".perfbench-tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self._base = base

    def fresh(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self._base.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass


def free_port() -> int:
    """A port the kernel reports free now (``serve`` cannot announce
    an ephemeral port, so the benchmark picks one)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ProcessGroup:
    """Every process the benchmark spawns, reaped on :meth:`close`.

    Each child leads its own session, so the process group also holds
    its pool workers and forkserver; stopping sends SIGTERM to the
    leader (a graceful drain), then SIGKILL to the whole group.
    """

    def __init__(self, tmp_root: Optional[Path] = None) -> None:
        self._procs: List[subprocess.Popen] = []
        self._env = child_env(tmp_root)

    def python(self, *args: str, **kwargs) -> subprocess.Popen:
        """Start ``python args...`` in the checkout, in its own session."""
        proc = subprocess.Popen(
            [sys.executable, *args], env=self._env, cwd=str(REPO_ROOT),
            start_new_session=True, **kwargs,
        )
        self._procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace_s: float = 10.0) -> None:
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                pass
        _kill_group(proc.pid)
        if proc.poll() is None:
            proc.wait(timeout=grace_s)
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        if proc in self._procs:
            self._procs.remove(proc)

    def close(self) -> None:
        for proc in list(self._procs):
            self.stop(proc)


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of a process group, from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command: state ppid pgrp ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _kill_group(pgid: int, deadline_s: float = 10.0) -> None:
    """SIGKILL what is left of a session and wait until it is gone.

    Zombies are ignored: orphans are reaped by init, which in a
    container may never happen, and a zombie holds nothing."""
    end = time.monotonic() + deadline_s
    while _group_members(pgid):
        if time.monotonic() > end:
            raise BenchError(f"process group {pgid} did not exit")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        try:
            os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            pass
        time.sleep(0.02)


def read_json_line(proc: subprocess.Popen, timeout_s: float) -> Dict:
    """The last stdout line of a finished child, as JSON."""
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("child timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])
