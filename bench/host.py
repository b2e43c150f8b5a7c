"""Host-side readings: process-tree resources (Linux /proc) and host speed."""

from __future__ import annotations

import bisect
import multiprocessing
import os
import resource
import statistics
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")

#: CPU seconds the calibration loop takes on the reference host.
REFERENCE_S = 0.0015


def _calibration_loop() -> int:
    table = {}
    total = 0
    for i in range(10_000):
        total += (i * 7) % 13
        table[i & 1023] = total
    return total


class SpeedProbe:
    """Samples how fast this host runs Python, on a background thread.

    On a shared host the interpreter's speed swings by 1.5x or more within
    seconds, and every simulator timing swings with it. Every ``interval``
    seconds the thread times a fixed pure-Python loop in thread CPU time
    (waiting for the GIL or for a core does not count); :meth:`factor` is
    the median over a window divided by :data:`REFERENCE_S`, so a host
    seconds reading divided by it is seconds on the reference host.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        #: (perf_counter time, loop CPU seconds), in time order.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            began = time.thread_time()
            _calibration_loop()
            self.samples.append((time.perf_counter(), time.thread_time() - began))

    def factor(self, start: float, end: float) -> float:
        """Host slowness over ``[start, end]`` relative to the reference.

        A window holding fewer than five samples is widened to the five
        nearest its middle.
        """
        samples = list(self.samples)
        times = [when for when, _ in samples]
        low, high = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        if high - low < 5:
            middle = bisect.bisect_left(times, (start + end) / 2)
            low, high = max(0, middle - 3), min(len(samples), middle + 2)
        window = [seconds for _, seconds in samples[low:high]] or [REFERENCE_S]
        return statistics.median(window) / REFERENCE_S


def _stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            data = handle.read()
    except OSError:
        return None
    return data[data.rindex(")") + 2:].split()


def descendants(root: int | None = None) -> list[int]:
    """Live descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def tree_cpu_s() -> float:
    """User+sys CPU of this process, its reaped children and live descendants."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for pid in descendants():
        fields = _stat(pid)
        if fields is not None:
            # utime, stime, cutime, cstime (stat fields 14-17).
            total += sum(int(v) for v in fields[11:15]) / _TICK
    return total


def peak_rss_mb() -> float:
    """Largest resident set of any process in the tree so far, in MiB."""
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kib = max(peak_kib, int(line.split()[1]))
        except OSError:
            continue
    return peak_kib / 1024.0


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every multiprocessing child (pool workers) has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise TimeoutError("pool workers still running after "
                               f"{timeout:.0f}s")
        time.sleep(0.005)


def wait_gone(pids, timeout: float = 30.0) -> None:
    """Wait until none of ``pids`` runs (a zombie has ended)."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while (fields := _stat(pid)) is not None and fields[0] != "Z":
            if time.monotonic() > deadline:
                raise TimeoutError(f"process {pid} still running")
            time.sleep(0.01)
