"""Run commands from a small helper process, one at a time, and report
each one's wall time, exit code and own peak RSS.

Linux charges a new process, at exec, with the peak RSS of the address
space it was started from, so a command spawned straight from the
benchmark (numpy, scipy and the corpus in memory) would report at least
the benchmark's own size. The helper imports nothing heavy, so the peak
RSS ``os.wait4`` returns for a command is the command's own. ``wait4`` on
the one child, rather than ``RUSAGE_CHILDREN``, matters too: the latter
keeps the maximum over every child reaped so far, so it would report an
earlier, larger command's peak.

    with Spawner(env, cwd) as spawner:
        child = spawner.run(argv, log_path, timeout)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int


def run_child(argv: list[str], log: str, timeout: float) -> Child:
    """Run one command to completion, killing it after ``timeout`` seconds."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    return Child(elapsed, usage.ru_maxrss / 1024.0, proc.returncode)


class Spawner:
    """Owns the helper process; ``close`` (or leaving ``with``) stops it."""

    def __init__(self, env: dict[str, str], cwd: str):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True,
        )

    def run(self, argv: list[str], log, timeout: float) -> Child:
        self._proc.stdin.write(json.dumps([list(argv), str(log), timeout]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self._proc.wait()}")
        return Child(**json.loads(reply))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    for line in sys.stdin:
        argv, log, timeout = json.loads(line)
        sys.stdout.write(json.dumps(vars(run_child(argv, log, timeout))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
