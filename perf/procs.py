"""The server child: launch, window marks, CPU and memory, and reaping."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
#: Where traced runs write their span files (ignored by git).
RESULTS = HERE / "results"
_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")
#: Seconds a child gets to exit after SIGTERM before it is killed.
TERM_TIMEOUT = 5.0


class ChildError(RuntimeError):
    """The server child failed; the message carries its stderr."""


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name (field 2) may hold spaces; utime and stime are
        # fields 14 and 15, counted here from the closing parenthesis.
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a process in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ChildError(f"no VmHWM for pid {pid}")


#: CPUs this process may run on, read before anything is pinned.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
#: The bench process is pinned to one CPU. A closed-loop client and its
#: server run in lock-step — one waits while the other works — so the server
#: child shares that CPU: throughput is then 1 / (CPU per op of both), which
#: repeats within 3% in a quiet hour, where on two CPUs it is no higher for
#: small ops and every wake-up crossing the hypervisor makes it wander by 8%.
#: Only the open-loop server gets the last CPU to itself: its generator spins.
BENCH_CPU, OTHER_CPU = ALLOWED_CPUS[0], ALLOWED_CPUS[-1]


def take_turns(turn: int, *pids: int) -> None:
    """Pin the processes, together, to the first or the last CPU by turn.

    A neighbour on the host slows one vCPU of the reference box to half for
    5-60 s at a time, each vCPU at its own times. Work that is repeated
    anyway (the slices of a window, the repetitions of a replay) therefore
    takes turns on the two, and ``measurement.steady`` reads the fast end of
    it: ten ``net_large`` runs ranged 17% on one CPU and 8% by turns.
    """
    for pid in pids:
        os.sched_setaffinity(pid, {(BENCH_CPU, OTHER_CPU)[turn % 2]})


class ServerChild:
    """``perf/serve.py`` as a child process that is always reaped."""

    def __init__(self, workload: str, cpu: int, trace_out: Optional[Path] = None) -> None:
        command: List[str] = [
            sys.executable, str(HERE / "serve.py"), "--workload", workload, "--cpu", str(cpu),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self._process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        self.pid = self._process.pid
        self.endpoint: Dict[str, object] = {}
        try:
            self.endpoint = self._read_endpoint()
        except BaseException:
            self._reap()
            raise

    def _read_endpoint(self) -> Dict[str, object]:
        # run.py's watchdog bounds this read; a child that dies closes its
        # stdout, which ends the read with an empty line.
        assert self._process.stdout is not None
        line = self._process.stdout.readline()
        if not line:
            _out, err = self._reap()
            raise ChildError(f"server child exited before serving:\n{err}")
        return json.loads(line)

    def mark_window_start(self) -> None:
        self._process.send_signal(signal.SIGUSR1)

    def mark_window_end(self) -> None:
        self._process.send_signal(signal.SIGUSR2)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def _reap(self) -> "tuple[str, str]":
        """SIGTERM, SIGKILL after :data:`TERM_TIMEOUT`; returns (stdout, stderr)."""
        process = self._process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            return process.communicate(timeout=TERM_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            _out, err = process.communicate()
            raise ChildError(f"server child ignored SIGTERM and was killed:\n{err}") from None

    def stop(self) -> Dict[str, object]:
        """Stop the child and return the window report it printed."""
        out, err = self._reap()
        if self._process.returncode != 0:
            raise ChildError(
                f"server child exited with {self._process.returncode}:\n{err}"
            )
        lines = [line for line in out.splitlines() if line.strip()]
        return json.loads(lines[-1]) if lines else {}

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, exc_type: object, *_exc: object) -> None:
        if self._process.returncode is None:
            try:
                self._reap()
            except ChildError:
                if exc_type is None:
                    raise
