"""Child processes of a run: spawn, readiness probe, reaping, memory, and
the host-interference counters.

Every program under test is started as a child through the real CLI
(``python -m repro ...``, or the tracing launcher with the same
arguments) with ``src/`` of this checkout on ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAUNCHER = Path(__file__).resolve().parent / "launch.py"
_TICK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run cannot produce a valid measurement."""


def repro_command(args, trace_file=None):
    """argv running ``repro <args>``, through the launcher when traced."""
    if trace_file is None:
        return [sys.executable, "-m", "repro", *map(str, args)]
    return [sys.executable, str(_LAUNCHER), str(trace_file),
            *map(str, args)]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _is_repro(cmdline: bytes) -> bool:
    argv = cmdline.split(b"\0")
    return (any(a == b"repro" for a in argv) and b"-m" in argv) or any(
        a.endswith(b"perfbench/launch.py") for a in argv)


def refuse_leftovers() -> None:
    """Exit if a ``repro`` process from an earlier run is still alive."""
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if _is_repro(cmdline):
            raise BenchError(
                f"a repro process (pid {entry.name}) is still running; "
                "stop it before benchmarking")


class Child:
    """One spawned program; ``stop`` and ``wait_exit`` always reap it."""

    def __init__(self, args, trace_file=None):
        self.trace_file = trace_file
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_command(args, trace_file), cwd=ROOT, env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.rusage = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the running process."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def wait_exit(self, timeout: float) -> int:
        """Wait for a child that ends by itself; keeps its rusage."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return self.proc.returncode
            if time.monotonic() > deadline:
                self.stop(signal.SIGKILL)
                raise BenchError(f"child {self.pid} did not finish in time")
            time.sleep(0.002)

    def dump_trace(self) -> None:
        """Ask a traced child to write its spans now (before a SIGKILL)."""
        if self.trace_file is None:
            return
        done = Path(f"{self.trace_file}.dumped")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not done.exists():
            if time.monotonic() > deadline or not self.alive():
                raise BenchError("traced child did not write its spans")
            time.sleep(0.005)
        done.unlink()

    def stop(self, sig=signal.SIGTERM, timeout: float = 30.0) -> None:
        if self.alive():
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        else:
            self.proc.wait()


def host_busy() -> tuple[float, float]:
    """``(busy CPU seconds of the whole host, steal seconds)``."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(
        int, fields[:8])
    return (user + nice + system + irq + softirq) / _TICK, steal / _TICK


def tree_cpu(children) -> float:
    """CPU seconds of this process, its reaped children and live ones."""
    t = os.times()
    total = t.user + t.system + t.children_user + t.children_system
    for child in children:
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


class Interference:
    """Host steal time and CPU burnt outside the benchmark, per phase."""

    def __init__(self):
        self.steal_s = 0.0
        self.foreign_cpu_s = 0.0
        self._start = None

    def begin(self, children) -> None:
        self._start = (*host_busy(), tree_cpu(children))

    def end(self, children) -> None:
        busy, steal = host_busy()
        busy0, steal0, tree0 = self._start
        self.steal_s += steal - steal0
        self.foreign_cpu_s += max(
            0.0, (busy - busy0) - (tree_cpu(children) - tree0))


def wait_quiet(limit_s: float = 10.0, window_s: float = 0.25) -> float:
    """Wait (up to ``limit_s``) until other processes use under a quarter
    of a CPU; returns the seconds waited."""
    start = time.perf_counter()
    while time.perf_counter() - start < limit_s:
        busy0, _ = host_busy()
        own0 = tree_cpu(())
        time.sleep(window_s)
        busy1, _ = host_busy()
        if (busy1 - busy0) - (tree_cpu(()) - own0) < 0.25 * window_s:
            break
    return time.perf_counter() - start
