"""Launching the program under test: one process, bounded in time, reaped with rusage.

The benchmark drives the program only as users do, through ``python -m
repro ...`` processes, so this module is the single place that knows
where the program's sources are and how a child process is started,
timed and collected.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def program_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The caller's environment with the program's sources importable.

    ``REPRO_*`` knobs are dropped so that only the command line chooses the
    backend, workers and caches of a job.  ``PYTHONDONTWRITEBYTECODE`` is
    dropped too: users' interpreters cache bytecode, and without the cache
    every launch would recompile the program (2,300 lines of numpy backend
    alone) and time that instead.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def python_argv(module_args: Sequence[str]) -> List[str]:
    """``python -m repro <args>`` with the interpreter running the benchmark."""
    return [sys.executable, "-m", "repro", *module_args]


@dataclass
class Exit:
    """How one program process ended."""

    code: int
    start_ns: int
    end_ns: int
    maxrss_mb: float
    timed_out: bool

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out


def reap(process: subprocess.Popen, start_ns: int, timeout: float) -> Exit:
    """Wait for ``process``, killing it if it runs ``timeout`` s more.

    The wait blocks without polling, so the end time is exact, and the
    ``os.wait4`` rusage gives the child's peak RSS (psutil is not a
    dependency).  ``os.waitid(WNOWAIT)`` first waits for the exit without
    reaping, so the watchdog can never signal a recycled pid.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                state["killed"] = True
                os.kill(process.pid, signal.SIGKILL)

    watchdog = threading.Timer(timeout, kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        os.waitid(os.P_PID, process.pid, os.WEXITED | os.WNOWAIT)
        end_ns = time.monotonic_ns()
        with lock:
            state["exited"] = True
    except BaseException:
        with lock:
            state["exited"] = True
        process.kill()
        os.wait4(process.pid, 0)
        raise
    finally:
        watchdog.cancel()
    _pid, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        code=process.returncode,
        start_ns=start_ns,
        end_ns=end_ns,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        timed_out=state["killed"],
    )


def run(argv: Sequence[str], timeout: float, stdout_path: Optional[Path] = None) -> Exit:
    """Run one process to completion; stdout goes to ``stdout_path`` (or nowhere).

    Output goes to a file rather than a pipe so a chatty child can never
    block on a full pipe while we wait for it.
    """
    out = err = subprocess.DEVNULL
    if stdout_path is not None:
        out = open(stdout_path, "wb")
        err = open(stdout_path.with_suffix(".err"), "wb")
    try:
        start_ns = time.monotonic_ns()
        process = subprocess.Popen(list(argv), stdout=out, stderr=err, env=program_env(), cwd=ROOT)
        return reap(process, start_ns, timeout)
    finally:
        if stdout_path is not None:
            out.close()
            err.close()


class Server:
    """One ``repro serve --port 0`` process and a closed-loop HTTP client for it.

    The port is read from the startup banner; every HTTP call has a
    timeout; :meth:`stop` sends SIGINT and reaps the process with
    ``os.wait4`` so its peak RSS is known and it cannot outlive the run.
    """

    BANNER = re.compile(rb"listening on http://([^:\s]+):(\d+)")

    def __init__(self, argv: Sequence[str], log_path: Path, timeout: float = 30.0) -> None:
        self._argv = list(argv)
        self._log_path = log_path
        self._timeout = timeout
        self.process: Optional[subprocess.Popen] = None
        self._err = None
        self.host = ""
        self.port = 0
        self.start_ns = 0
        #: Launch until the first ``/healthz`` answer, in seconds.
        self.setup_s = 0.0

    def start(self) -> None:
        self._err = open(self._log_path, "wb")
        self.start_ns = time.monotonic_ns()
        self.process = subprocess.Popen(
            self._argv, stdout=subprocess.PIPE, stderr=self._err,
            env=program_env({"PYTHONUNBUFFERED": "1"}), cwd=ROOT,
        )
        deadline = time.monotonic() + self._timeout
        seen = b""
        fd = self.process.stdout.fileno()
        while True:
            match = self.BANNER.search(seen)
            if match:
                break
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(f"server printed no banner: {seen[-200:]!r}")
            seen += chunk
        self.host, self.port = match.group(1).decode(), int(match.group(2))
        status, payload = self.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}: {payload}")
        self.setup_s = (time.monotonic_ns() - self.start_ns) / 1e9

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """One HTTP call; returns ``(status, decoded JSON body)``."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self._timeout)
        try:
            data = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def rss_mb(self) -> float:
        """The server's current resident set (VmRSS) in MB; 0 once it has exited."""
        try:
            with open(f"/proc/{self.process.pid}/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> Optional[Exit]:
        """SIGINT, then reap; a server that ignores it is killed.

        Safe after a failed :meth:`start`; returns None if nothing was launched.
        """
        try:
            if self.process is None:
                return None
            self.process.send_signal(signal.SIGINT)
            return reap(self.process, self.start_ns, self._timeout)
        finally:
            if self.process is not None:
                self.process.stdout.close()
            if self._err is not None:
                self._err.close()
