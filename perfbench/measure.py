"""Measurement helpers: resident-memory high-water mark and latency summaries."""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path

import numpy as np

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
MIB = float(1 << 20)


def rss_bytes(pid: str = "self") -> int:
    """Resident set size of a process, from ``/proc/<pid>/statm``."""
    with open(f"/proc/{pid}/statm") as handle:
        return int(handle.read().split()[1]) * PAGE_BYTES


def private_bytes(pid: str) -> int:
    """Pages only this process maps (clean + dirty private), in bytes.

    Fork workers share the parent's pages copy-on-write; counting their
    private pages adds what the worker allocated without counting the
    shared pages twice.
    """
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1]) * 1024
    return total


def child_pids() -> list[str]:
    pids: list[str] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend((task / "children").read_text().split())
        except OSError:
            continue
    return pids


class RssSampler:
    """Polls resident memory in a background thread between start and stop.

    The sampled figure is the process RSS plus the private pages of its
    live child processes (fork workers).  ``growth_bytes`` is the
    high-water mark minus the RSS at ``start``.
    """

    def __init__(self, interval_s: float = 0.01) -> None:
        self.interval_s = interval_s
        self.baseline = 0
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> int:
        total = rss_bytes()
        for pid in child_pids():
            try:
                total += private_bytes(pid)
            except OSError:  # the worker exited between listing and reading
                continue
        self.peak = max(self.peak, total)
        return total

    def _poll(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def start(self) -> None:
        self.baseline = self.peak = rss_bytes()
        self._stop.clear()
        self._thread = threading.Thread(target=self._poll, name="rss-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.sample()

    @property
    def growth_bytes(self) -> int:
        return self.peak - self.baseline


def tail(values: list[float]) -> tuple[float, float, int]:
    """The value at the highest percentile leaving >= 10 samples beyond it.

    Returns ``(value, percentile, samples)``: the 11th-largest sample,
    the share of samples at or below it, and the sample count.  With
    fewer than 11 samples the maximum is returned.
    """
    ordered = sorted(values)
    count = len(ordered)
    index = max(0, count - 11)
    return ordered[index], 100.0 * (index + 1) / count, count


def digest(result) -> str:
    """Byte-level identity of a selection: indices, tau and oracle calls."""
    indices = np.ascontiguousarray(result.indices)
    hasher = hashlib.sha256()
    hasher.update(indices.dtype.str.encode())
    hasher.update(indices.tobytes())
    hasher.update(np.float64(result.tau).tobytes())
    hasher.update(str(int(result.oracle_calls)).encode())
    return hasher.hexdigest()
