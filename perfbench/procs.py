"""The server process under test, and what ``/proc`` says about it."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r"listening on [^\s]*:(\d+) ")

#: server knobs, pinned so a change of a CLI default cannot change the
#: workload (README "Server settings")
SERVE_FLAGS = [
    "--backend", "cext",
    "--cache-size", "1024",
    "--batch-window-ms", "2",
    "--max-batch", "64",
    "--max-inflight", "256",
    "--k", "10",
]
#: WAL policy of write-mix: fsync every write before acknowledging it
FSYNC = "always"


def process_start_s() -> float:
    """This process's start, on the CLOCK_BOOTTIME scale."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / _CLK_TCK


def since_process_start() -> float:
    return time.clock_gettime(time.CLOCK_BOOTTIME) - process_start_s()


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of host CPU time the hypervisor stole between two samples.

    Columns: user nice system idle iowait irq softirq steal (guest time
    is already inside user, so it is not added again).
    """
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


class Server:
    """``repro serve --tcp`` in a child process, on a port it picks."""

    def __init__(self, root: str, bundle: str, log_path: str,
                 wal_dir: Optional[str] = None, snapshot_every: int = 0,
                 trace: bool = False):
        self.root = root
        self.log_path = log_path
        argv = [sys.executable, "-m", "repro.cli", "serve", bundle,
                "--tcp", "127.0.0.1:0", *SERVE_FLAGS]
        if wal_dir is not None:
            argv += ["--wal-dir", wal_dir, "--fsync", FSYNC,
                     "--snapshot-every", str(snapshot_every),
                     # keep every snapshot so the bytes written under the
                     # WAL directory can be read off its final size
                     "--snapshot-keep", "1000"]
        if trace:
            argv += ["--trace-sample", "1"]
        self.argv = argv
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self, timeout: float = 150.0) -> "Server":
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log,
            )
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: {self.log_tail()}")
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(f"server not listening after {timeout}s")
            with open(self.log_path, "rb") as f:
                found = _LISTENING.findall(f.read().decode("utf-8", "replace"))
            if found:
                self.port = int(found[-1])
            else:
                time.sleep(0.005)
        return self

    @property
    def pid(self) -> int:
        return self.proc.pid

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as f:
            return f.read()[-2000:].decode("utf-8", "replace")

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain (SIGTERM); SIGKILL if it does not end in time."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc is not None:
            self.proc.wait()
