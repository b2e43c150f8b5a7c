"""Deterministic, seeded fault injection for self-checking the checker.

A checker that has never caught anything is untested code. This harness
plants one structural fault of a chosen class into a live pipeline —
deterministically, so a failing test replays exactly — and the resilience
tests then prove the invariant checker or the watchdog converts each fault
into a structured failure instead of a wrong-but-plausible ``SimResult``.

Faults are armed by wrapping a bound method on the *instance* (never the
class), so one poisoned pipeline cannot contaminate another. Each armed
fault records whether it actually fired via :attr:`FaultInjector.fired`,
letting tests assert the fault was exercised and not merely scheduled.

Two catalogs live here, both mirrored by ``docs/RESILIENCE.md`` and
linted by ``scripts/check_invariant_catalog.py``:

* :data:`FAULT_CLASSES` — *structural* faults planted inside one pipeline
  (armed by :class:`FaultInjector`), caught by the invariant checker or
  the watchdog.
* :data:`CHAOS_CLASSES` — *process-level* faults inflicted on the
  execution substrate (armed by :class:`ChaosInjector`): dead or hung
  pool workers and corrupted cache entries, caught by the pool
  supervisor (:mod:`repro.parallel.executor`, :mod:`repro.serve`) and
  the result cache's entry validation.
"""

from __future__ import annotations

import os
import random
import signal

#: Fault catalog: name -> (what breaks, which guard must catch it).
FAULT_CLASSES = {
    "dropped_wakeup": (
        "a completed producer fails to mark one consumer ready: the "
        "instruction holds its RS entry forever — caught by the "
        "rs_accounting invariant, or by the watchdog once the ROB head "
        "reaches it"
    ),
    "stuck_mshr": (
        "an MSHR is allocated with a fill time that never arrives — "
        "caught by the mshr_leak invariant (stuck arm), or by the "
        "watchdog when the file saturates"
    ),
    "leaked_mshr": (
        "a filled MSHR entry survives the lazy-fill sweep — caught by "
        "the mshr_leak invariant (leak arm)"
    ),
    "lost_ftq_entry": (
        "a pushed FTQ entry silently vanishes, losing instruction-"
        "prefetch coverage — caught by the ftq_conservation invariant"
    ),
    "corrupt_age_matrix_row": (
        "one age-matrix row's ordering bits are corrupted (self-age or "
        "symmetric inversion) — caught by the age_matrix_order audit"
    ),
}


class FaultInjector:
    """Arms exactly one fault into a pipeline (or age matrix).

    ``seed`` fixes the trigger point: the fault fires on the n-th
    qualifying call, with n drawn deterministically from ``trigger_range``.
    Pass ``at`` to pin n explicitly (tests that need the earliest possible
    detection usually pin ``at=1``).
    """

    def __init__(self, seed: int, *, trigger_range: tuple[int, int] = (1, 16)):
        self.seed = seed
        self.rng = random.Random(seed)
        lo, hi = trigger_range
        self.trigger = self.rng.randint(lo, hi)
        self.fired = False

    def arm(self, pipeline, fault: str, *, at: int | None = None) -> None:
        """Plant ``fault`` (a :data:`FAULT_CLASSES` key) into ``pipeline``."""
        if fault not in FAULT_CLASSES:
            raise ValueError(f"unknown fault {fault!r}; known: {sorted(FAULT_CLASSES)}")
        if at is not None:
            self.trigger = at
        getattr(self, f"_arm_{fault}")(pipeline)

    # -- fault arms -----------------------------------------------------------

    def _arm_dropped_wakeup(self, pipeline) -> None:
        sched = pipeline.scheduler
        real_add_ready = sched.add_ready
        calls = {"n": 0}

        def add_ready(seq, fu, critical):
            calls["n"] += 1
            if calls["n"] == self.trigger and not self.fired:
                self.fired = True
                return  # the wakeup is lost; the RS entry is now orphaned
            real_add_ready(seq, fu, critical)

        sched.add_ready = add_ready

    def _arm_stuck_mshr(self, pipeline) -> None:
        mshr = pipeline.hierarchy.mshr
        real_allocate = mshr.allocate
        calls = {"n": 0}

        def allocate(byte_addr, completion):
            calls["n"] += 1
            if calls["n"] == self.trigger and not self.fired:
                self.fired = True
                completion = 1 << 40  # a fill time that never arrives
            real_allocate(byte_addr, completion)

        mshr.allocate = allocate

    def _arm_leaked_mshr(self, pipeline) -> None:
        mshr = pipeline.hierarchy.mshr
        real_expire = mshr.expire
        state = {"n": 0, "leaked": None}

        def expire(now):
            done = real_expire(now)
            if done and not self.fired:
                state["n"] += 1
                if state["n"] == self.trigger:
                    # Put one "filled" line back with its original (stale)
                    # completion time: the entry leaks forever.
                    self.fired = True
                    leaked = done.pop()
                    state["leaked"] = leaked
                    state["completion"] = now
                    mshr._pending[leaked] = now
            elif state["leaked"] is not None and state["leaked"] in done:
                done.remove(state["leaked"])  # keep the leak leaked
                mshr._pending[state["leaked"]] = state["completion"]
            return done

        mshr.expire = expire

    def _arm_lost_ftq_entry(self, pipeline) -> None:
        ftq = pipeline.ftq
        real_push = ftq.push
        calls = {"n": 0}

        def push(line_addr):
            before = len(ftq)
            ok = real_push(line_addr)
            if ok and len(ftq) > before:  # a real append, not a coalesce
                calls["n"] += 1
                if calls["n"] == self.trigger and not self.fired:
                    self.fired = True
                    ftq._queue.pop()  # the entry vanishes; counters stand
            return ok

        ftq.push = push

    def _arm_corrupt_age_matrix_row(self, matrix) -> None:
        """Corrupt one occupied row of an AgeMatrix (not a Pipeline)."""
        occupied = [
            s for s in range(matrix.num_slots) if (matrix._occupied >> s) & 1
        ]
        if not occupied:
            raise ValueError("cannot corrupt an empty age matrix")
        row = occupied[self.trigger % len(occupied)]
        row_mask = matrix._age_mask[row]
        elder = next(
            (s for s in occupied if s != row and (row_mask >> s) & 1), None
        )
        if elder is not None:
            # Symmetric inversion: both slots now claim the other is older.
            matrix._age_mask[elder] |= 1 << row
        else:
            matrix._age_mask[row] |= 1 << row  # self-age bit
        self.fired = True


def inject(target, fault: str, *, seed: int = 1234, at: int | None = None) -> FaultInjector:
    """One-shot helper: build an injector, arm ``fault``, return it."""
    injector = FaultInjector(seed)
    injector.arm(target, fault, at=at)
    return injector


# -- process-level chaos -------------------------------------------------------

#: Chaos catalog: name -> (what breaks, which guard must catch it).
CHAOS_CLASSES = {
    "killed_worker": (
        "a pool worker process dies mid-cell (SIGKILL: OOM killer, node "
        "failure) and every in-flight future breaks — caught by the pool "
        "supervisor, which rebuilds the pool and re-enqueues only the "
        "lost cells as transient failures"
    ),
    "hung_worker": (
        "a pool worker stops making progress while holding a cell (no "
        "heartbeat past the wall-clock deadline) — caught by the serve "
        "supervisor, which kills the pool's workers so the hang surfaces "
        "as a worker crash and the cells are retried"
    ),
    "corrupt_cache_entry": (
        "an on-disk result-cache entry is truncated or bit-flipped — "
        "caught by ResultCache.get's entry validation, which counts it "
        "(parallel.cache.corrupt) and degrades to a miss so the cell is "
        "re-simulated and the entry overwritten"
    ),
}


class ChaosInjector:
    """Seeded process-level chaos: kills workers, corrupts cache entries.

    Unlike :class:`FaultInjector` (which wraps methods on one pipeline),
    chaos targets the execution substrate shared by many cells — the
    process pool and the on-disk result cache. Every choice (which
    worker, which entry, which bytes) is drawn from a seeded RNG over a
    *sorted* candidate list, so a chaos schedule replays exactly.
    """

    def __init__(self, seed: int = 1234):
        self.seed = seed
        self.rng = random.Random(seed)
        #: Log of (action, detail) tuples, for test assertions.
        self.actions: list[tuple[str, str]] = []

    # -- killed_worker / hung_worker ------------------------------------------

    def worker_pids(self, pool) -> list[int]:
        """Live worker PIDs of a ``ProcessPoolExecutor``, sorted."""
        processes = getattr(pool, "_processes", None) or {}
        return sorted(
            proc.pid for proc in processes.values() if proc.is_alive()
        )

    def kill_worker(self, pool) -> int | None:
        """SIGKILL one deterministic live worker; returns its PID.

        Models the ``killed_worker`` chaos class. Returns ``None`` when
        the pool has no live workers (nothing to kill is not an error:
        chaos schedules race the work they disturb).
        """
        pids = self.worker_pids(pool)
        if not pids:
            return None
        pid = self.rng.choice(pids)
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            return None  # already gone
        self.actions.append(("killed_worker", str(pid)))
        return pid

    # -- corrupt_cache_entry --------------------------------------------------

    def corrupt_cache_entry(self, cache) -> str | None:
        """Truncate one deterministic cache entry mid-byte; returns its path.

        Models the ``corrupt_cache_entry`` chaos class against a
        :class:`repro.parallel.cache.ResultCache`. Returns ``None`` when
        the cache is empty.
        """
        entries = sorted(cache._entries())
        if not entries:
            return None
        path = self.rng.choice(entries)
        with open(path, "rb") as handle:
            data = handle.read()
        cut = self.rng.randrange(1, max(2, len(data)))
        with open(path, "wb") as handle:
            handle.write(data[:cut] + b"\xff")
        self.actions.append(("corrupt_cache_entry", path))
        return path
