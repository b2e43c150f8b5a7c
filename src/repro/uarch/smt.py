"""Two-thread SMT model for the Section 6.2 criticality studies.

The paper's discussion section proposes using the criticality bit across
hardware threads: "the instructions of a latency-sensitive thread can be
prioritized over instructions of a latency-insensitive thread enabling both
high CPU utilization while enforcing SLOs" -- and warns that the same knob
is a denial-of-service vector ("simply tagging all instructions of a
program as critical"), to be mitigated by "policies guaranteeing the
scheduling of some non-critical instructions".

This module implements a deliberately compact SMT core for exactly those
experiments: two threads share the issue queue, functional-unit ports and
the entire memory hierarchy; fetch alternates between threads and each
thread has a private (statically partitioned) ROB, as in real SMT designs.
Front-end detail (FTQ/FDIP, i-cache) and load/store buffers are omitted --
this model studies *issue-bandwidth and memory interference between
threads*, not front-end effects; the single-thread :class:`Pipeline`
remains the reference model for everything else.

Scheduling modes:

* ``priority="none"``      -- age order across both threads (baseline SMT).
* ``priority="thread0"``   -- every thread-0 instruction is critical (SLO).
* per-thread ``critical_pcs`` -- CRISP annotations, usable per thread; a
  malicious thread passing *all* of its PCs is the DoS attack.
* ``fair_slots`` -- the mitigation: at least this many of the 6 issue slots
  per cycle go to the oldest ready instructions regardless of criticality.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from ..frontend.simple_predictors import make_predictor
from ..isa.emulator import ExecutionTrace
from ..isa.opcodes import FuClass, Opcode
from ..memory.hierarchy import MemoryHierarchy
from ..resilience.crash_bundle import build_bundle
from ..resilience.watchdog import Watchdog
from .config import CoreConfig

#: Legacy SMT cycle ceiling, used when neither the caller nor the watchdog
#: sets one (the model has no trace-length-derived default).
SMT_DEFAULT_MAX_CYCLES = 10_000_000


@dataclass
class SmtThreadStats:
    retired: int = 0
    cycles: int = 0  # completion time of this thread
    issued_critical: int = 0

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0


@dataclass
class SmtStats:
    cycles: int = 0
    threads: list[SmtThreadStats] = field(default_factory=list)

    @property
    def total_ipc(self) -> float:
        return sum(t.retired for t in self.threads) / self.cycles if self.cycles else 0.0


class SmtPipeline:
    """Two traces through one shared backend."""

    def __init__(
        self,
        traces: list[ExecutionTrace],
        config: CoreConfig | None = None,
        *,
        priority: str = "none",
        critical_pcs: list[frozenset[int]] | None = None,
        fair_slots: int = 0,
        watchdog: Watchdog | None = None,
        run_context: dict | None = None,
    ):
        if len(traces) != 2:
            raise ValueError("the SMT model supports exactly two threads")
        if priority not in ("none", "thread0"):
            raise ValueError(f"unknown priority mode {priority!r}")
        self.traces = traces
        self.config = config or CoreConfig.skylake()
        self.priority = priority
        self.critical_pcs = critical_pcs or [frozenset(), frozenset()]
        self.fair_slots = fair_slots
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        self.predictors = [make_predictor(self.config.predictor) for _ in traces]
        # Per-thread code layouts, disjoint in the address space.
        self.layouts = [
            trace.program.layout(self.critical_pcs[tid]) for tid, trace in enumerate(traces)
        ]
        self._code_offset = [tid * 0x0100_0000 for tid in range(len(traces))]
        self.stats = SmtStats(threads=[SmtThreadStats() for _ in traces])
        # Same watchdog/crash-bundle machinery as the single-thread
        # Pipeline (docs/RESILIENCE.md), replacing the bare RuntimeError.
        self.watchdog = watchdog if watchdog is not None else Watchdog()
        self.run_context = dict(run_context or {})

    def _bundle(self, **kw) -> dict:
        """Crash-bundle builder handed to the watchdog on failure."""
        bundle = build_bundle(config=self.config, context=self.run_context, **kw)
        bundle["smt_threads"] = [
            {"retired": t.retired, "issued_critical": t.issued_critical}
            for t in self.stats.threads
        ]
        return bundle

    def _is_critical(self, tid: int, pc: int) -> bool:
        if self.priority == "thread0" and tid == 0:
            return True
        return pc in self.critical_pcs[tid]

    def run(self, max_cycles: int | None = None) -> SmtStats:
        cfg = self.config
        watchdog = self.watchdog
        if max_cycles is None:
            max_cycles = watchdog.max_cycles
        if max_cycles is None:
            max_cycles = SMT_DEFAULT_MAX_CYCLES
        livelock_limit = watchdog.livelock_cycles
        last_progress = 0
        # Each thread's instructions, built once from its trace's columns.
        insts = [list(t) for t in self.traces]
        n = [len(t) for t in insts]
        fetch_seq = [0, 0]
        fetch_blocked = [0, 0]
        pending_redirect: list[int | None] = [None, None]
        decode_queue = [deque(), deque()]
        rob = [deque(), deque()]  # (t_seq) in order; per-thread split capacity
        rob_capacity = cfg.rob_entries // 2
        done = [set(), set()]
        retired = [0, 0]
        dep_count: dict[tuple[int, int], int] = {}
        waiters: dict[tuple[int, int], list[tuple[int, int]]] = {}
        critical_flag: dict[tuple[int, int], bool] = {}
        age_of: dict[tuple[int, int], int] = {}
        next_age = 0
        rs_used = 0
        ready: list[tuple[int, int, int, int]] = []  # (key, age, tid, t_seq)
        events: list[tuple[int, int, int]] = []  # (cycle, tid, t_seq)
        now = 0

        def add_ready(tid: int, t_seq: int) -> None:
            crit = critical_flag[(tid, t_seq)]
            key = 0 if crit else 1
            heapq.heappush(ready, (key, age_of[(tid, t_seq)], tid, t_seq))

        while retired[0] < n[0] or retired[1] < n[1]:
            if now >= max_cycles:
                raise watchdog.cycle_limit_exceeded(
                    self._bundle, now=now, max_cycles=max_cycles,
                    retired=retired[0] + retired[1], total=n[0] + n[1],
                )
            if now - last_progress >= livelock_limit:
                raise watchdog.livelock_detected(
                    self._bundle, now=now, last_progress=last_progress,
                    retired=retired[0] + retired[1], total=n[0] + n[1],
                )

            # Completions.
            while events and events[0][0] <= now:
                _, tid, t_seq = heapq.heappop(events)
                done[tid].add(t_seq)
                if pending_redirect[tid] == t_seq:
                    pending_redirect[tid] = None
                    fetch_blocked[tid] = now + cfg.mispredict_redirect_penalty
                for wtid, wseq in waiters.pop((tid, t_seq), ()):
                    dep_count[(wtid, wseq)] -= 1
                    if dep_count[(wtid, wseq)] == 0:
                        add_ready(wtid, wseq)

            # Retire (per thread, in order).
            for tid in range(2):
                width = cfg.retire_width
                while rob[tid] and width and rob[tid][0] in done[tid]:
                    t_seq = rob[tid].popleft()
                    done[tid].discard(t_seq)
                    critical_flag.pop((tid, t_seq), None)
                    age_of.pop((tid, t_seq), None)
                    retired[tid] += 1
                    last_progress = now
                    width -= 1
                    if retired[tid] == n[tid]:
                        self.stats.threads[tid].cycles = now

            # Issue: up to issue_width, port-capped, fairness-guarded.
            budget = {FuClass.ALU: cfg.alu_ports, FuClass.LOAD: cfg.load_ports,
                      FuClass.STORE: cfg.store_ports}
            picked = []
            deferred = []
            slots = cfg.issue_width
            critical_picked = 0
            while ready and slots:
                key, age, tid, t_seq = heapq.heappop(ready)
                if (
                    key == 0
                    and self.fair_slots
                    and critical_picked >= cfg.issue_width - self.fair_slots
                ):
                    # Mitigation: reserve slots for non-critical work.
                    deferred.append((key, age, tid, t_seq))
                    continue
                d = insts[tid][t_seq]
                fu = d.sinst.fu
                if budget.get(fu, 0) <= 0:
                    deferred.append((key, age, tid, t_seq))
                    continue
                budget[fu] -= 1
                slots -= 1
                if key == 0:
                    critical_picked += 1
                    self.stats.threads[tid].issued_critical += 1
                picked.append((tid, t_seq))
            for item in deferred:
                heapq.heappush(ready, item)
            for tid, t_seq in picked:
                d = insts[tid][t_seq]
                sinst = d.sinst
                rs_used -= 1
                if sinst.is_load:
                    addr_pc = self.layouts[tid].addresses[d.pc] + self._code_offset[tid]
                    completion = self.hierarchy.load(addr_pc, d.addr ^ (tid << 40), now).completion
                elif sinst.is_store:
                    addr_pc = self.layouts[tid].addresses[d.pc] + self._code_offset[tid]
                    self.hierarchy.store(addr_pc, d.addr ^ (tid << 40), now)
                    completion = now + 1
                elif sinst.opcode is Opcode.PREFETCH:
                    completion = now + 1
                else:
                    completion = now + sinst.latency
                heapq.heappush(events, (completion, tid, t_seq))

            # Dispatch: alternate threads, half width each.
            for tid in range(2):
                width = cfg.rename_width // 2
                queue = decode_queue[tid]
                while queue and width:
                    t_seq = queue[0]
                    d = insts[tid][t_seq]
                    needs_rs = d.sinst.fu is not FuClass.NONE
                    if len(rob[tid]) >= rob_capacity:
                        break
                    if needs_rs and rs_used >= cfg.rs_entries:
                        break
                    queue.popleft()
                    width -= 1
                    rob[tid].append(t_seq)
                    if not needs_rs:
                        heapq.heappush(events, (now + 1, tid, t_seq))
                        continue
                    nonlocal_key = (tid, t_seq)
                    critical_flag[nonlocal_key] = self._is_critical(tid, d.pc)
                    age_of[nonlocal_key] = next_age
                    next_age += 1
                    rs_used += 1
                    remaining = 0
                    for producer in d.producers():
                        if producer >= retired[tid] and producer not in done[tid]:
                            waiters.setdefault((tid, producer), []).append(nonlocal_key)
                            remaining += 1
                    if remaining:
                        dep_count[nonlocal_key] = remaining
                    else:
                        add_ready(tid, t_seq)

            # Fetch: the active thread this cycle (round-robin).
            tid = now & 1
            if (
                pending_redirect[tid] is None
                and now >= fetch_blocked[tid]
                and fetch_seq[tid] < n[tid]
                and len(decode_queue[tid]) < cfg.decode_queue
            ):
                fetched = 0
                while (
                    fetch_seq[tid] < n[tid]
                    and fetched < cfg.fetch_width
                    and len(decode_queue[tid]) < cfg.decode_queue
                ):
                    d = insts[tid][fetch_seq[tid]]
                    decode_queue[tid].append(fetch_seq[tid])
                    fetch_seq[tid] += 1
                    fetched += 1
                    if d.sinst.is_cond_branch:
                        pc_addr = self.layouts[tid].addresses[d.pc]
                        predicted = self.predictors[tid].predict(pc_addr, d.taken)
                        self.predictors[tid].update(pc_addr, d.taken)
                        if predicted != d.taken:
                            pending_redirect[tid] = fetch_seq[tid] - 1
                            break
                        if d.taken:
                            break
                    elif d.sinst.is_branch:
                        self.predictors[tid].note_branch(True)
                        break
            now += 1

        self.stats.cycles = now
        for tid in range(2):
            self.stats.threads[tid].retired = retired[tid]
            if self.stats.threads[tid].cycles == 0:
                self.stats.threads[tid].cycles = now
        return self.stats
