"""Cycle-level out-of-order core model (the Scarab stand-in).

The pipeline replays a functional :class:`~repro.isa.emulator.ExecutionTrace`
through a Skylake-like core (Table 1): a decoupled front end (TAGE + BTB +
RAS + FTQ + FDIP), 6-wide rename/dispatch into a 224-entry ROB and 96-entry
unified reservation station, policy-driven issue over 4 ALU / 2 load /
1 store ports, a transaction-level cache/DRAM hierarchy with MSHRs and
hardware prefetchers, and 6-wide in-order retirement.

Speculation model
-----------------
Wrong-path instructions are not executed. Fetch follows the trace (the
correct path); at each branch the real predictor is consulted, and when it
disagrees with the actual outcome, fetch stops *after the branch* and
resumes ``mispredict_redirect_penalty`` cycles after the branch executes.
The misprediction penalty is therefore endogenous -- it shrinks when the
branch's operands are computed earlier -- which is precisely the lever
CRISP's branch slices pull (Section 3.4). Taken branches whose target
misses the BTB pay a fixed decode-redirect bubble instead.

Criticality
-----------
Instructions are tagged critical either statically (``critical_pcs`` from
the CRISP rewriter -- the "instruction prefix") or dynamically by a
hardware IBDA engine passed as ``ibda``. The ``crisp`` scheduler policy
issues ready critical instructions before older ready non-critical ones;
see :mod:`repro.uarch.scheduler` and the bit-level model in
:mod:`repro.uarch.age_matrix`.
"""

from __future__ import annotations

import heapq
from collections import deque

from ..frontend.btb import Btb
from ..frontend.fdip import Fdip
from ..frontend.ftq import FetchTargetQueue
from ..frontend.ras import ReturnAddressStack
from ..frontend.simple_predictors import make_predictor
from ..isa.emulator import ExecutionTrace
from ..isa.opcodes import FuClass, Opcode
from ..isa.program import CodeLayout
from ..memory.hierarchy import MemoryHierarchy
from ..resilience.crash_bundle import bundle_from_pipeline
from ..resilience.errors import DeadlockError, InvariantViolation, SimulationError
from ..resilience.invariants import InvariantChecker
from ..resilience.watchdog import Watchdog
from ..telemetry.registry import StatsRegistry
from ..telemetry.tracer import EventTracer
from .config import CoreConfig
from .functional_units import PortPools
from .lsq import LoadStoreQueues
from .rob import ReorderBuffer
from .scheduler import Scheduler
from .stats import SimStats

__all__ = ["Pipeline", "SimulationError", "DeadlockError", "InvariantViolation"]


class Pipeline:
    """One simulation run: a trace through a configured core."""

    def __init__(
        self,
        trace: ExecutionTrace,
        config: CoreConfig | None = None,
        *,
        critical_pcs: frozenset[int] | set[int] = frozenset(),
        ibda=None,
        layout: CodeLayout | None = None,
        upc_window: int = 0,
        record_timing: bool = False,
        tracer: EventTracer | None = None,
        invariants: InvariantChecker | str | None = None,
        watchdog: Watchdog | None = None,
        run_context: dict | None = None,
        hierarchy=None,
        predictor=None,
        btb: Btb | None = None,
        ras: ReturnAddressStack | None = None,
    ):
        self.trace = trace
        self.config = config or CoreConfig()
        self.critical_pcs = frozenset(critical_pcs)
        self.ibda = ibda
        if ibda is not None and critical_pcs:
            raise ValueError("pass either static critical_pcs or an IBDA engine, not both")
        self.layout = layout or trace.program.layout(self.critical_pcs)
        self.upc_window = upc_window

        cfg = self.config
        # Long-lived microarchitectural state may be injected pre-warmed
        # (sampled simulation functionally warms these across skipped trace
        # regions; see repro.sampling.warmup). Default: cold structures.
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy(cfg.hierarchy)
        self.predictor = predictor if predictor is not None else make_predictor(cfg.predictor)
        self.btb = btb if btb is not None else Btb(cfg.btb_entries)
        self.ras = ras if ras is not None else ReturnAddressStack(cfg.ras_depth)
        self.ftq = FetchTargetQueue(cfg.ftq_entries)
        self.fdip = Fdip(self.hierarchy, self.ftq, cfg.fdip_lines_per_cycle)
        self.ports = PortPools(cfg.alu_ports, cfg.load_ports, cfg.store_ports)
        self.scheduler = Scheduler(cfg.scheduler, self.ports, cfg.issue_width)
        self.rob = ReorderBuffer(cfg.rob_entries)
        self.lsq = LoadStoreQueues(cfg.load_buffer, cfg.store_buffer)
        self.stats = SimStats(upc_window=upc_window)
        # Optional per-dynamic-instruction timing introspection: seq ->
        # cycle. Populated only when record_timing is set (debugging and
        # the scheduler-behaviour tests use this; it is too large to keep
        # for full evaluation runs). An attached tracer implies it: the
        # ready->issue delay histogram needs the ready timestamps.
        self.tracer = tracer
        self.record_timing = record_timing or tracer is not None
        self.ready_times: dict[int, int] = {}
        self.issue_times: dict[int, int] = {}
        self.dispatch_times: dict[int, int] = {}
        # Observability: every structure registers its counters into one
        # hierarchical registry at construction time. Counters are
        # collector-backed (zero hot-loop cost); the gauges returned here
        # are occupancy-over-time series the run loop samples on the
        # tracer's interval.
        self.telemetry = StatsRegistry()
        self._gauges = self._register_telemetry()
        # Resilience: structural audits (off unless requested) + the
        # progress watchdog that replaces the raw cycle-limit abort. See
        # docs/RESILIENCE.md.
        if isinstance(invariants, str):
            invariants = InvariantChecker.from_mode(invariants)
        self.invariants = invariants
        self.watchdog = watchdog if watchdog is not None else Watchdog()
        self.run_context = dict(run_context or {})

    def _bundle(self, **kw) -> dict:
        """Crash-bundle builder handed to the watchdog on failure."""
        return bundle_from_pipeline(self, **kw)

    def _register_telemetry(self) -> dict:
        reg = self.telemetry
        gauges: dict = {}
        self.stats.register_into(reg)
        gauges.update(self.rob.register_stats(reg.scope("uarch.rob")))
        gauges.update(self.scheduler.register_stats(reg.scope("uarch.sched")))
        gauges.update(self.lsq.register_stats(reg.scope("uarch.lsq")))
        self.ports.register_stats(reg.scope("uarch.ports"))
        gauges.update(self.hierarchy.register_stats(reg.scope("memory")))
        self.btb.register_stats(reg.scope("frontend.btb"))
        self.ras.register_stats(reg.scope("frontend.ras"))
        self.fdip.register_stats(reg.scope("frontend.fdip"))
        gauges["ftq"] = reg.gauge(
            "frontend.ftq.occupancy",
            unit="entries",
            desc="fetch-target-queue entries queued for FDIP (sampled)",
            owner="FTQ",
            figure="fig12",
        )
        gauges["rs"] = reg.gauge(
            "uarch.rs.occupancy",
            unit="entries",
            desc="reservation-station entries in flight (sampled)",
            owner="reservation station",
            figure="fig9",
        )
        self._load_latency_hist = reg.histogram(
            "memory.demand.load_latency",
            unit="cycles",
            desc="per-load issue-to-data latency (traced runs only)",
            owner="L1D/LLC/DRAM",
            figure="fig4",
            bounds=(4, 8, 16, 36, 64, 128, 256, 512, 1024),
        )
        self._issue_delay_hist = reg.histogram(
            "uarch.sched.ready_to_issue_delay",
            unit="cycles",
            desc="cycles an instruction sat ready before issue (traced runs only)",
            owner="scheduler",
            figure="fig9",
        )
        return gauges

    # -- front-end helpers ---------------------------------------------------

    def _predict_branch(self, seq: int, now: int) -> str:
        """Run prediction for the branch at trace position ``seq``.

        Returns "ok" (continue fetching next instruction), "taken" (correct
        taken prediction: fetch group ends), "btb_miss" (fixed bubble), or
        "mispredict" (fetch blocked until the branch executes).
        """
        d = self.trace[seq]
        sinst = d.sinst
        pc_addr = self.layout.addresses[d.pc]
        stats = self.stats

        if sinst.is_cond_branch:
            stats.cond_branches += 1
            pc_branch = stats.branch_stats(d.pc)
            pc_branch.execs += 1
            predicted = self.predictor.predict(pc_addr, d.taken)
            self.predictor.update(pc_addr, d.taken)
            if predicted != d.taken:
                stats.branch_mispredicts += 1
                pc_branch.mispredicts += 1
                return "mispredict"
            if not d.taken:
                return "ok"
            # Correct taken prediction still needs the target from the BTB.
            known_target = self.btb.lookup(pc_addr)
            actual_target = self.layout.addresses[self.trace.pc_after(seq)]
            self.btb.update(pc_addr, actual_target)
            if known_target != actual_target:
                stats.btb_misses += 1
                return "btb_miss"
            return "taken"

        # Unconditional control flow.
        self.predictor.note_branch(True)
        if sinst.is_ret:
            predicted = self.ras.pop()
            actual_target = self.layout.addresses[self.trace.pc_after(seq)]
            if predicted != actual_target:
                stats.ras_mispredicts += 1
                return "mispredict"
            return "taken"
        # JMP / CALL: static targets, predicted via the BTB.
        if sinst.is_call:
            return_pc = sinst.idx + 1
            self.ras.push(self.layout.addresses[return_pc])
        known_target = self.btb.lookup(pc_addr)
        actual_target = self.layout.addresses[self.trace.pc_after(seq)]
        self.btb.update(pc_addr, actual_target)
        if known_target != actual_target:
            stats.btb_misses += 1
            return "btb_miss"
        return "taken"

    def _is_critical(self, d) -> bool:
        if self.ibda is not None:
            pcs = self.trace.pc
            producer_pcs = tuple(pcs[p] for p in d.register_producers())
            return self.ibda.on_dispatch(d.pc, d.sinst.is_load, producer_pcs)
        return d.pc in self.critical_pcs

    # -- main loop -------------------------------------------------------------

    def run(self, max_cycles: int | None = None) -> SimStats:
        """Run the trace to completion and return the stats.

        A thin drain over :meth:`cycles`; single-core callers see exactly
        the historical monolithic-loop behaviour (same digests), while the
        multicore lockstep driver (:mod:`repro.multicore.engine`) consumes
        :meth:`cycles` directly to interleave several cores in time order.
        """
        gen = self.cycles(max_cycles)
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    def cycles(self, max_cycles: int | None = None):
        """Generator form of the main loop: yields the local clock once per
        loop iteration (after time advances), returning the final SimStats.

        The yield sits after ``now += advance``, so the yielded value is
        the cycle the *next* iteration will simulate — a lockstep driver
        resumes the core whose next cycle is globally smallest, which keeps
        every shared-memory access in nondecreasing global time order.
        """
        trace = self.trace
        # The trace's instructions, built once from its columns: the loop
        # reads each several times.
        insts = list(trace)
        n = len(insts)
        cfg = self.config
        stats = self.stats
        layout_addr = self.layout.addresses
        layout_size = self.layout.sizes
        line_mask = ~(self.hierarchy.config.line_bytes - 1)
        watchdog = self.watchdog
        if max_cycles is None:
            max_cycles = watchdog.max_cycles
        if max_cycles is None:
            max_cycles = 600 * n + 100_000
        livelock_limit = watchdog.livelock_cycles
        last_progress = 0
        checker = self.invariants
        next_audit = checker.interval if checker is not None else 0

        decode_queue: deque[int] = deque()
        events: list[tuple[int, int]] = []  # (completion cycle, seq)
        # LLC-missing loads awaiting completion-time MLP sampling:
        # seq -> (pc, outstanding misses sampled at issue).
        inflight_miss: dict[int, tuple[int, int]] = {}
        done: set[int] = set()
        waiters: dict[int, list[int]] = {}
        dep_count: dict[int, int] = {}
        critical_flag: dict[int, bool] = {}
        rs_used = 0

        fetch_seq = 0
        ftq_seq = 0
        fetch_blocked_until = 0
        pending_redirect: int | None = None  # seq of unresolved mispredict
        last_line = -1
        retired = 0
        now = 0
        window_retired = 0
        next_window_end = self.upc_window if self.upc_window else 0

        sched = self.scheduler
        rob = self.rob
        lsq = self.lsq
        hier = self.hierarchy
        tracer = self.tracer
        next_sample = 0

        while retired < n:
            if now >= max_cycles:
                raise watchdog.cycle_limit_exceeded(
                    self._bundle, now=now, max_cycles=max_cycles,
                    retired=retired, total=n,
                )
            if now - last_progress >= livelock_limit:
                raise watchdog.livelock_detected(
                    self._bundle, now=now, last_progress=last_progress,
                    retired=retired, total=n,
                )

            # 1. Completion events -> wakeup.
            while events and events[0][0] <= now:
                _, seq = heapq.heappop(events)
                done.add(seq)
                rob.mark_done(seq)
                if tracer is not None:
                    tracer.complete(now, seq)
                if seq in inflight_miss:
                    # Sample MLP again at completion: a load issued first in
                    # a volley sees no overlap at issue but plenty at
                    # completion (and vice versa); the max of the two
                    # samples identifies bandwidth-bound volleys robustly.
                    pc, issue_mlp = inflight_miss.pop(seq)
                    hier._advance(now)
                    completion_mlp = hier.outstanding_demand_misses() + 1
                    stats.load_stats(pc).mlp_sum += max(issue_mlp, completion_mlp)
                if pending_redirect == seq:
                    # Mispredicted branch resolved: redirect the front end.
                    fetch_blocked_until = max(
                        fetch_blocked_until, now + cfg.mispredict_redirect_penalty
                    )
                    pending_redirect = None
                for w in waiters.pop(seq, ()):
                    dep_count[w] -= 1
                    if dep_count[w] == 0:
                        del dep_count[w]
                        dw = insts[w]
                        sched.add_ready(w, dw.sinst.fu, critical_flag[w])
                        if self.record_timing:
                            self.ready_times[w] = now

            # 2. Retire.
            if not rob.empty and not rob.head_done():
                stats.rob_head_stall_cycles += 1
                head_pc = insts[rob.head()].pc
                stats.rob_head_stall_by_pc[head_pc] = (
                    stats.rob_head_stall_by_pc.get(head_pc, 0) + 1
                )
            for seq in rob.retire(cfg.retire_width):
                lsq.release(seq)
                done.discard(seq)
                critical_flag.pop(seq, None)
                retired += 1
                window_retired += 1
                last_progress = now
                if tracer is not None:
                    tracer.retire(now, seq, insts[seq].pc)

            # 3. Issue.
            picks = sched.pick()
            if picks:
                oldest_pick = min(seq for seq, _ in picks)
            for seq, crit in picks:
                d = insts[seq]
                sinst = d.sinst
                rs_used -= 1
                if self.record_timing:
                    self.issue_times[seq] = now
                op = sinst.opcode
                if sinst.is_load:
                    pc_loads = stats.load_stats(d.pc)
                    pc_loads.execs += 1
                    stats.loads += 1
                    if d.mem_src >= 0 and lsq.store_buffered(d.mem_src):
                        completion = now + cfg.store_forward_latency
                        lsq.note_forward()
                        stats.store_forwards += 1
                        pc_loads.forwarded += 1
                        pc_loads.latency_sum += cfg.store_forward_latency
                    else:
                        res = hier.load(layout_addr[d.pc], d.addr, now)
                        completion = res.completion
                        pc_loads.latency_sum += completion - now
                        if res.level == "l1":
                            pc_loads.l1_hits += 1
                        elif res.level == "llc":
                            pc_loads.llc_hits += 1
                        if res.llc_miss:
                            pc_loads.llc_misses += 1
                            inflight_miss[seq] = (d.pc, res.mlp)
                            stats.llc_load_misses += 1
                            if self.ibda is not None:
                                self.ibda.on_llc_miss(d.pc)
                            if tracer is not None:
                                tracer.llc_miss(now, seq, d.pc, d.addr)
                elif op is Opcode.PREFETCH:
                    hier.software_prefetch(layout_addr[d.pc], d.addr, now)
                    completion = now + 1
                elif sinst.is_store:
                    hier.store(layout_addr[d.pc], d.addr, now)
                    completion = now + 1
                else:
                    completion = now + sinst.latency
                heapq.heappush(events, (completion, seq))
                if tracer is not None:
                    tracer.issue(now, seq, d.pc, crit)
                    ready = self.ready_times.get(seq)
                    if ready is not None:
                        self._issue_delay_hist.observe(now - ready)
                    if sinst.is_load:
                        self._load_latency_hist.observe(completion - now)
                stats.issued += 1
                if crit:
                    stats.issued_critical += 1
                    if seq != oldest_pick:
                        stats.critical_bypass_events += 1

            # 4. Rename / dispatch.
            dispatched = 0
            dispatch_blocked = False
            while decode_queue and dispatched < cfg.rename_width:
                seq = decode_queue[0]
                d = insts[seq]
                sinst = d.sinst
                if rob.full:
                    dispatch_blocked = True
                    break
                needs_rs = sinst.fu is not FuClass.NONE
                if needs_rs and rs_used >= cfg.rs_entries:
                    dispatch_blocked = True
                    break
                if sinst.is_load and not lsq.can_allocate_load():
                    dispatch_blocked = True
                    break
                if sinst.is_store and not lsq.can_allocate_store():
                    dispatch_blocked = True
                    break
                decode_queue.popleft()
                dispatched += 1
                rob.allocate(seq)
                stats.dynamic_code_bytes += layout_size[d.pc]
                if sinst.is_load:
                    lsq.allocate_load(seq)
                elif sinst.is_store:
                    lsq.allocate_store(seq)
                if not needs_rs:  # HALT
                    heapq.heappush(events, (now + 1, seq))
                    continue
                crit = self._is_critical(d)
                critical_flag[seq] = crit
                rs_used += 1
                if tracer is not None:
                    tracer.dispatch(now, seq, d.pc, crit)
                remaining = 0
                for p in d.producers():
                    # Retirement is in order, so every seq < `retired` has
                    # completed even if pruned from the `done` set.
                    if p >= retired and p not in done:
                        waiters.setdefault(p, []).append(seq)
                        remaining += 1
                if self.record_timing:
                    self.dispatch_times[seq] = now
                if remaining:
                    dep_count[seq] = remaining
                else:
                    sched.add_ready(seq, sinst.fu, crit)
                    if self.record_timing:
                        self.ready_times[seq] = now

            # 5. Fetch.
            if pending_redirect is None and now >= fetch_blocked_until:
                fetched = 0
                while (
                    fetch_seq < n
                    and fetched < cfg.fetch_width
                    and len(decode_queue) < cfg.decode_queue
                ):
                    d = insts[fetch_seq]
                    addr = layout_addr[d.pc]
                    end_addr = addr + layout_size[d.pc] - 1
                    stall = False
                    for probe in (addr & line_mask, end_addr & line_mask):
                        if probe != last_line:
                            ready_at = hier.inst_fetch(probe, now)
                            if ready_at > now:
                                fetch_blocked_until = ready_at
                                stats.icache_stall_cycles += ready_at - now
                                stall = True
                                break
                            last_line = probe
                    if stall:
                        break
                    seq = fetch_seq
                    decode_queue.append(seq)
                    fetch_seq += 1
                    fetched += 1
                    if tracer is not None:
                        tracer.fetch(now, seq, d.pc)
                    if d.sinst.is_branch:
                        outcome = self._predict_branch(seq, now)
                        if outcome == "mispredict":
                            pending_redirect = seq
                            self.ftq.flush()
                            ftq_seq = fetch_seq
                            if tracer is not None:
                                tracer.flush(now, seq, d.pc)
                            break
                        if outcome == "btb_miss":
                            fetch_blocked_until = now + cfg.btb_miss_penalty
                            break
                        if outcome == "taken":
                            break
            else:
                stats.fetch_stall_cycles += 1

            # 6. FTQ fill + FDIP.
            if pending_redirect is None:
                while ftq_seq < n and not self.ftq.full:
                    d = insts[ftq_seq]
                    if not self.ftq.push(layout_addr[d.pc] & line_mask):
                        break
                    ftq_seq += 1
            self.fdip.tick(now)

            # 7. Advance time, fast-forwarding through provably idle cycles.
            # A cycle is idle when nothing is ready to issue, nothing can
            # retire, dispatch is resource-blocked (or has nothing), fetch is
            # blocked (or starved by a full decode queue whose drain needs a
            # retire, i.e. an event), and FDIP has no queued work. The next
            # state change is then a completion event or the fetch unblock.
            advance = 1
            if (
                len(sched) == 0
                and not rob.head_done()
                and (dispatch_blocked or not decode_queue)
                and (
                    pending_redirect is not None
                    or fetch_blocked_until > now + 1
                    or fetch_seq >= n
                    or len(decode_queue) >= cfg.decode_queue
                )
                and len(self.ftq) == 0
                and (pending_redirect is not None or ftq_seq >= n)
            ):
                targets = []
                if events:
                    targets.append(events[0][0])
                if (
                    pending_redirect is None
                    and fetch_seq < n
                    and len(decode_queue) < cfg.decode_queue
                ):
                    targets.append(fetch_blocked_until)
                if targets:
                    advance = max(1, min(targets) - now)
            if advance > 1:
                idle = advance - 1
                if not rob.empty and not rob.head_done():
                    stats.rob_head_stall_cycles += idle
                    head_pc = insts[rob.head()].pc
                    stats.rob_head_stall_by_pc[head_pc] = (
                        stats.rob_head_stall_by_pc.get(head_pc, 0) + idle
                    )
                if pending_redirect is not None or fetch_blocked_until > now + 1:
                    stats.fetch_stall_cycles += idle
            if checker is not None and now >= next_audit:
                # End-of-cycle is the one point where the in-flight
                # bookkeeping (RS/ready/waiters/done) is self-consistent.
                try:
                    checker.audit(
                        self, now, retired=retired, rs_used=rs_used,
                        dep_count=dep_count, waiters=waiters, done=done,
                    )
                except InvariantViolation as violation:
                    raise watchdog.attach_bundle(
                        violation, self._bundle, now=now, retired=retired,
                        total=n,
                    ) from None
                next_audit = now + checker.interval
            if tracer is not None and now >= next_sample:
                occupancy = {
                    "rob": len(rob),
                    "rs": rs_used,
                    "sched_ready": len(sched),
                    "mshr": hier.mshr.occupancy(),
                    "ftq": len(self.ftq),
                    "lsq_loads": lsq.load_occupancy,
                    "lsq_stores": lsq.store_occupancy,
                }
                for key, value in occupancy.items():
                    self._gauges[key].sample(value)
                tracer.sample(now, occupancy)
                next_sample = now + tracer.sample_interval
            now += advance
            if self.upc_window:
                while now >= next_window_end:
                    stats.upc_timeline.append(window_retired)
                    window_retired = 0
                    next_window_end += self.upc_window
            yield now

        if checker is not None:
            try:
                checker.final_audit(self, now, retired=retired, rs_used=rs_used)
            except InvariantViolation as violation:
                raise watchdog.attach_bundle(
                    violation, self._bundle, now=now, retired=retired, total=n,
                ) from None
        stats.cycles = now
        stats.retired = retired
        self._finalize()
        return stats

    def _finalize(self) -> None:
        """Copy hierarchy-level counters into the flat stats object."""
        stats = self.stats
        hier = self.hierarchy
        stats.l1i_accesses = hier.l1i.stats.accesses
        stats.l1i_misses = hier.l1i.stats.misses
        stats.l1d_accesses = hier.l1d.stats.accesses
        stats.l1d_misses = hier.l1d.stats.misses
        stats.llc_accesses = hier.llc.stats.accesses
        stats.llc_misses = hier.llc.stats.misses
        stats.dram_requests = hier.dram.stats.requests
        stats.dram_row_hit_rate = hier.dram.stats.row_hit_rate
