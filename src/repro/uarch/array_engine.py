"""Struct-of-arrays simulation engine (``--engine=array``).

:class:`ArrayPipeline` is the second implementation of the cycle model in
:class:`~repro.uarch.pipeline.Pipeline` — same core, same trace, same
cycle-by-cycle scheduling decisions, different data layout. Where the
object engine walks per-entry Python objects (``ReorderBuffer`` deque +
done set, ``Scheduler`` tuple heaps, ``LoadStoreQueues`` sets, per-access
``DynInst`` attribute chains), the array engine runs the hot loop over
preallocated flat tables indexed by sequence number:

* one **batched decode pass** spreads per-PC tables (FU class, latency,
  load/store/branch flags, code-layout addresses and i-cache line probes)
  over the trace's ``pc`` column; PCs, effective addresses, branch
  outcomes and producer links are read from the trace's own columns,
* one **batched branch-prediction pass** replays TAGE/BTB/RAS for every
  branch in trace order before timing starts (fetch consults predictors
  strictly in trace order, so the outcome stream is a pure function of the
  trace — the loop then consumes a precomputed outcome byte per branch),
* the ROB becomes two integers (``retired``/``alloc_seq`` — allocation and
  retirement are both in program order, so the ROB *is* the contiguous
  window between them) plus a completion bytearray,
* the scheduler becomes six plain-int heaps (per FU class × priority
  level, entries packed ``(seq << 1) | critical``) with a batched
  stage-sort-select pick identical to the object scheduler's
  per-class-budget merge,
* the LSQ becomes two occupancy counters plus an O(1) window test for
  store-to-load forwarding, and
* wakeup becomes index arithmetic over ``dep_count``/``waiters`` arrays.

The equivalence contract (docs/ENGINE.md): for every workload × mode cell
the array engine produces a :class:`~repro.uarch.stats.SimStats` whose
:meth:`~repro.uarch.stats.SimStats.digest` is identical to the object
engine's, emits an identical event stream to an attached tracer, and runs
the same invariant audits — its array state is mapped back onto the object
structures (:meth:`ArrayPipeline._sync_views`) whenever the invariant
checker, a crash bundle, or end-of-run telemetry needs to observe them.
``tests/sim/test_engine_equivalence.py`` asserts the digest contract;
``tests/uarch/test_array_engine.py`` covers the view mapping.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from itertools import accumulate, compress

from ..isa.opcodes import FuClass
from ..resilience.errors import InvariantViolation
from .pipeline import Pipeline
from .stats import PcLoadStats

__all__ = ["ArrayPipeline"]

#: FU-class order shared with the object scheduler's heap map.
_FU_ORDER = (FuClass.ALU, FuClass.LOAD, FuClass.STORE)

#: Branch-outcome codes in the precomputed per-seq outcome table.
_OK, _TAKEN, _BTB_MISS, _MISPREDICT = 0, 1, 2, 3


class ArrayPipeline(Pipeline):
    """The array engine: one simulation run over struct-of-arrays state.

    Construction is identical to :class:`~repro.uarch.pipeline.Pipeline`
    (same structures are built and registered into telemetry — they serve
    as the *views* the invariant checker and crash bundles observe); only
    :meth:`run` is replaced.
    """

    # -- batched decode ------------------------------------------------------

    def _decode_tables(self):
        """Spread per-PC tables over the trace's ``pc`` column.

        Static properties (FU class, latency, layout address, i-cache line
        probes, ...) are first tabulated per *static* instruction — the
        program is tiny next to the dynamic trace — and then broadcast to
        per-seq tables with C-speed ``map`` passes over the ``pc`` column.
        Addresses, branch outcomes and producer links are the trace's own
        columns, read in place.

        The layout-independent tables are a pure function of the (immutable)
        trace, so they are memoized on it — runs over one trace, such as
        the cells of one ``run_cells`` input group, decode it once.
        Layout-dependent tables (addresses, line probes, code sizes shift
        with the annotation prefixes) are rebuilt per run.
        """
        trace = self.trace
        pc_a = trace.pc
        n = len(pc_a)
        shared = getattr(trace, "_soa_shared", None)
        if shared is None:
            shared = self._decode_shared(trace)
            trace._soa_shared = shared
        (fu_a, lat_a, flags_a, kind_a, isload_a, isstore_a, brkind_a,
         links_a, cload_a, cstore_a) = shared

        # Layout-dependent tables (annotation prefixes move addresses).
        layout = self.layout
        addresses = layout.addresses
        sizes = layout.sizes
        probes_pc = layout.line_probes(self.hierarchy.config.line_bytes)
        line_pc = [p if p.__class__ is int else p[0] for p in probes_pc]
        la_a = list(map(addresses.__getitem__, pc_a))
        probes_a = list(map(probes_pc.__getitem__, pc_a))
        ftq_line_a = list(map(line_pc.__getitem__, pc_a))
        # Same-line run table over ftq_line_a: run_end_a[s] is the first seq
        # past the run containing s. The FTQ fill coalesces adjacent equal
        # lines; consuming a whole run per iteration keeps the fill O(runs)
        # even when mispredict flushes re-walk the stream from fetch_seq.
        run_end_a = [n] * n
        for s in range(n - 2, -1, -1):
            if ftq_line_a[s + 1] == ftq_line_a[s]:
                run_end_a[s] = run_end_a[s + 1]
            else:
                run_end_a[s] = s + 1
        # Dispatch is in program order, so dynamic code footprint is a
        # prefix sum over fetched sizes — read off at spill time instead of
        # accumulated per dispatch. The prefix-sum tables are only indexed,
        # so they are packed machine words, not one int object per seq.
        csize_a = array("q", accumulate(map(sizes.__getitem__, pc_a)))

        critical = self.critical_pcs
        if self.ibda is None and critical:
            crit_b = bytearray(map(critical.__contains__, pc_a))
        else:
            # Hardware IBDA marks at dispatch from LLC-miss history, which
            # is timing-dependent — criticality stays dynamic.
            crit_b = bytearray(n)
        return (pc_a, trace.addr, fu_a, lat_a, la_a, probes_a, ftq_line_a,
                run_end_a, links_a, flags_a, kind_a, isload_a, isstore_a,
                brkind_a, crit_b, csize_a, cload_a, cstore_a)

    @staticmethod
    def _decode_shared(trace):
        """The layout-independent per-seq tables (memoized per trace)."""
        pc_a = trace.pc
        statics = trace.program.insts

        # Per-PC (static) tables, one short pass over the program.
        fu_index = {FuClass.ALU: 0, FuClass.LOAD: 1, FuClass.STORE: 2,
                    FuClass.NONE: 0}
        fu_pc: list[int] = []
        # bit0 needs-RS, bit1 load, bit2 store, bit3 branch — one fused
        # flag byte per PC so the loop reads one table, not four.
        flags_pc: list[int] = []
        # Access and branch kind codes: see Program.pc_kinds.
        kind_pc, brkind_pc = trace.program.pc_kinds()
        lat_pc: list[int] = []
        isload_pc = bytearray(len(statics))
        isstore_pc = bytearray(len(statics))
        for pc, s in enumerate(statics):
            fu = s.fu
            fu_pc.append(fu_index[fu])
            f = 0 if fu is FuClass.NONE else 1
            kind = kind_pc[pc]
            if kind == 1:
                isload_pc[pc] = 1
                f |= 2
            elif kind == 2:
                isstore_pc[pc] = 1
                f |= 4
            lat_pc.append(s.latency)
            if brkind_pc[pc]:
                f |= 8
            flags_pc.append(f)

        # Broadcast to per-seq tables (C-speed passes over the pc column).
        fu_a = bytearray(map(fu_pc.__getitem__, pc_a))
        lat_a = bytearray(map(lat_pc.__getitem__, pc_a))
        flags_a = bytearray(map(flags_pc.__getitem__, pc_a))
        kind_a = bytearray(map(kind_pc.__getitem__, pc_a))
        isload_a = bytearray(map(isload_pc.__getitem__, pc_a))
        isstore_a = bytearray(map(isstore_pc.__getitem__, pc_a))
        brkind_a = bytearray(map(brkind_pc.__getitem__, pc_a))
        # The link columns each seq's dispatch reads: its PC's tuple, one
        # shared object per PC, so dispatch skips the unused slots.
        links_a = list(map(trace.pc_links().__getitem__, pc_a))
        # Allocation and retirement are both in order, so load/store buffer
        # occupancy is a difference of prefix counts (loads/stores among
        # seqs < i) — no per-dispatch/per-retire counter updates.
        cload_a = array("q", [0])
        cload_a.extend(accumulate(isload_a))
        cstore_a = array("q", [0])
        cstore_a.extend(accumulate(isstore_a))
        return (fu_a, lat_a, flags_a, kind_a, isload_a, isstore_a, brkind_a,
                links_a, cload_a, cstore_a)

    # -- batched branch prediction -------------------------------------------

    def _batch_predict(self, pc_a, brkind_a) -> bytearray:
        """Replay every branch prediction in trace order, before timing.

        Fetch walks the trace in sequence order and consults the predictor,
        BTB, and RAS exactly once per fetched branch, so the prediction
        outcome stream — and every predictor/BTB/RAS state transition and
        branch counter — is independent of timing. This pass performs the
        identical call sequence :meth:`Pipeline._predict_branch` would and
        returns one outcome byte per seq (``_OK``/``_TAKEN``/``_BTB_MISS``/
        ``_MISPREDICT``); branch stats land in ``self.stats`` here.
        ``brkind_a`` is the per-seq branch-kind byte from the decode pass;
        non-branches are skipped at C speed.
        """
        trace = self.trace
        taken_a = trace.taken
        pc_after = trace.pc_after
        addresses = self.layout.addresses
        predictor = self.predictor
        note_branch = predictor.note_branch
        btb = self.btb
        ras = self.ras
        stats = self.stats
        n = len(taken_a)
        out = bytearray(n)
        for seq in compress(range(n), brkind_a):
            kind = brkind_a[seq]
            pc_addr = addresses[pc_a[seq]]
            if kind == 1:  # conditional
                taken = taken_a[seq] == 2
                stats.cond_branches += 1
                pc_branch = stats.branch_stats(pc_a[seq])
                pc_branch.execs += 1
                predicted = predictor.predict(pc_addr, taken)
                predictor.update(pc_addr, taken)
                if predicted != taken:
                    stats.branch_mispredicts += 1
                    pc_branch.mispredicts += 1
                    out[seq] = _MISPREDICT
                    continue
                if not taken:
                    continue
                known_target = btb.lookup(pc_addr)
                actual_target = addresses[pc_after(seq)]
                btb.update(pc_addr, actual_target)
                if known_target != actual_target:
                    stats.btb_misses += 1
                    out[seq] = _BTB_MISS
                else:
                    out[seq] = _TAKEN
                continue
            note_branch(True)
            if kind == 2:  # return
                predicted = ras.pop()
                actual_target = addresses[pc_after(seq)]
                if predicted != actual_target:
                    stats.ras_mispredicts += 1
                    out[seq] = _MISPREDICT
                else:
                    out[seq] = _TAKEN
                continue
            if kind == 3:  # call (pushes the RAS, then predicts via BTB)
                ras.push(addresses[pc_a[seq] + 1])
            known_target = btb.lookup(pc_addr)
            actual_target = addresses[pc_after(seq)]
            btb.update(pc_addr, actual_target)
            if known_target != actual_target:
                stats.btb_misses += 1
                out[seq] = _BTB_MISS
            else:
                out[seq] = _TAKEN
        return out

    # -- state mapping ---------------------------------------------------------

    def _sync_views(self, *, retired, alloc_seq, done_b, heaps, ready_size,
                    isload_a, isstore_a, lsq_counters, port_counters,
                    port_limited, ftq_counters, fdip_count):
        """Map array state onto the object structures (the audit views).

        The invariant checker, crash bundles, and telemetry collectors all
        observe ``self.rob`` / ``self.scheduler`` / ``self.lsq`` / counters
        on ``self.ports`` / ``self.ftq`` / ``self.fdip``. The array engine
        reconstructs those structures from its flat state whenever one of
        these observers runs — audits are periodic and failures terminal,
        so the mapping is off the hot path.
        """
        rob = self.rob
        rob._queue = deque(range(retired, alloc_seq))
        rob._done = {s for s in range(retired, alloc_seq) if done_b[s]}
        sched = self.scheduler
        rebuilt = {}
        for fu_i, fu in enumerate(_FU_ORDER):
            entries = [(0, e >> 1, e & 1) for e in heaps[fu_i][0]]
            entries += [(1, e >> 1, e & 1) for e in heaps[fu_i][1]]
            heapq.heapify(entries)
            rebuilt[fu] = entries
        sched._heaps = rebuilt
        sched._size = ready_size
        lsq = self.lsq
        lsq._loads = {s for s in range(retired, alloc_seq) if isload_a[s]}
        lsq._stores = {s for s in range(retired, alloc_seq) if isstore_a[s]}
        (lsq.stats.load_allocs, lsq.stats.store_allocs,
         lsq.stats.lb_full_stalls, lsq.stats.sb_full_stalls,
         lsq.stats.forwards) = lsq_counters
        self.ports.stats.issued = {
            FuClass.ALU: port_counters[0],
            FuClass.LOAD: port_counters[1],
            FuClass.STORE: port_counters[2],
        }
        self.ports.stats.port_limited_cycles = port_limited
        ftq = self.ftq
        ftq.pushed, ftq.popped, ftq.flushed = ftq_counters
        self.fdip.stats.prefetches = fdip_count

    def _spill_stats(self, counters, rob_stall_by_pc, load_pc_rows):
        """Write the loop's local counters into ``self.stats``.

        Idempotent (plain assignment), so it can run both at a failure
        raise site (the crash bundle's stall attribution reads the stats)
        and at the normal end of the run.
        """
        stats = self.stats
        (stats.rob_head_stall_cycles, stats.fetch_stall_cycles,
         stats.icache_stall_cycles, stats.issued, stats.issued_critical,
         stats.critical_bypass_events, stats.loads, stats.llc_load_misses,
         stats.store_forwards, stats.dynamic_code_bytes) = counters
        stats.rob_head_stall_by_pc = rob_stall_by_pc
        stats.load_pcs = {
            pc: PcLoadStats(*rec) for pc, rec in load_pc_rows.items()
        }

    # -- main loop -------------------------------------------------------------

    def run(self, max_cycles: int | None = None):
        """Drain :meth:`cycles` to completion (same contract as the object
        engine's ``run``; the generator exists for the multicore driver)."""
        gen = self.cycles(max_cycles)
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    def cycles(self, max_cycles: int | None = None):
        """Generator form of the hot loop: yields the local clock after
        each ``now += advance``, returning the final stats — see
        :meth:`Pipeline.cycles` for the lockstep ordering contract."""
        cfg = self.config
        stats = self.stats
        n = len(self.trace)
        watchdog = self.watchdog
        if max_cycles is None:
            max_cycles = watchdog.max_cycles
        if max_cycles is None:
            max_cycles = 600 * n + 100_000
        livelock_limit = watchdog.livelock_cycles
        last_progress = 0
        checker = self.invariants
        next_audit = checker.interval if checker is not None else 0

        (pc_a, addr_a, fu_a, lat_a, la_a, probes_a, ftq_line_a, run_end_a,
         links_a, flags_a, kind_a, isload_a, isstore_a, brkind_a, crit_b,
         csize_a, cload_a, cstore_a) = self._decode_tables()
        src_dist = self.trace.src_dist
        mem_dist = self.trace.mem_dist
        outcome_a = self._batch_predict(pc_a, brkind_a)

        # Hot-path locals (method/attribute lookups hoisted out of the loop).
        hier = self.hierarchy
        hier_load = hier.load
        hier_store = hier.store
        hier_swpf = hier.software_prefetch
        hier_ifetch = hier.inst_fetch
        hier_ipf = hier.inst_prefetch
        hier_advance = hier._advance
        hier_outstanding = hier.outstanding_demand_misses
        # L1 hit fast paths are inlined below: when no fill is pending
        # (``now < hier._next_fill``) and the probed line is resident, the
        # loop applies the exact side effects of the hierarchy's hit branch
        # (stats, LRU tick, ``last_advance``) without the call chain. Any
        # other outcome falls back to the full hierarchy entry point, which
        # re-probes and counts the access itself.
        line_bytes = hier.config.line_bytes
        l1d = hier.l1d
        l1d_sets = l1d._sets
        l1d_nsets = l1d.num_sets
        l1d_stats = l1d.stats
        l1d_lat = hier.config.l1d_latency
        l1i = hier.l1i
        l1i_sets = l1i._sets
        l1i_nsets = l1i.num_sets
        l1i_stats = l1i.stats
        ibda = self.ibda
        tracer = self.tracer
        record_timing = self.record_timing
        ready_times = self.ready_times
        issue_times = self.issue_times
        dispatch_times = self.dispatch_times
        gauges = self._gauges
        heappush = heapq.heappush
        heappop = heapq.heappop

        fetch_width = cfg.fetch_width
        rename_width = cfg.rename_width
        issue_width = cfg.issue_width
        retire_width = cfg.retire_width
        rob_entries = cfg.rob_entries
        rs_entries = cfg.rs_entries
        lb_entries = cfg.load_buffer
        sb_entries = cfg.store_buffer
        dq_cap = cfg.decode_queue
        redirect_penalty = cfg.mispredict_redirect_penalty
        btb_miss_penalty = cfg.btb_miss_penalty
        fwd_latency = cfg.store_forward_latency
        fdip_lines = cfg.fdip_lines_per_cycle
        ftq_entries = cfg.ftq_entries
        bud_alu = cfg.alu_ports
        bud_ld = cfg.load_ports
        bud_st = cfg.store_ports
        crisp = self.scheduler.policy == "crisp"

        # Struct-of-arrays in-flight state.
        done_b = bytearray(n)          # completion scoreboard, by seq
        dep_a = [0] * n                # outstanding producer count, by seq
        waiters_a: list = [None] * n   # consumer seq lists, by producer seq
        heaps = ([], []), ([], []), ([], [])  # [fu][priority] ready heaps
        h_alu0, h_alu1 = heaps[0]
        h_ld0, h_ld1 = heaps[1]
        h_st0, h_st1 = heaps[2]
        ready_size = 0
        events: list[int] = []         # packed completion * stride + seq
        stride = n + 1
        inflight_miss: dict[int, tuple[int, int]] = {}
        load_pc_rows: dict[int, list] = {}  # pc -> PcLoadStats field list
        rob_stall_by_pc: dict[int, int] = {}
        ftq_q = self.ftq._queue        # shared so len(self.ftq) stays live

        # Ready-heap routing, resolved per seq ahead of time: rheap_a[seq]
        # is the exact heap object a ready push targets and rpacked_a[seq]
        # the packed ``(seq << 1) | crit`` entry. Static criticality (ooo /
        # crisp annotations) fills both up front; IBDA fills them at
        # dispatch, when its dynamic marking decision is made.
        key_bit = 1 << 30              # packed entries stay below this
        pack_mask = key_bit - 1
        if ibda is None:
            if crisp:
                rheap_a = [heaps[fu_a[s]][0 if crit_b[s] else 1]
                           for s in range(n)]
            else:
                rheap_a = [heaps[fu_a[s]][1] for s in range(n)]
            rpacked_a = [(s << 1) | crit_b[s] for s in range(n)]
        else:
            rheap_a = [None] * n
            rpacked_a = [0] * n

        # Flat counters (spilled into stats / structure views on demand).
        rob_head_stall = fetch_stall = icache_stall = 0
        stall_pc = -1                  # current ROB-head stall run (pc, len)
        stall_acc = 0
        issued_ct = issued_crit_ct = bypass_ct = 0
        loads_ct = llc_misses_ct = store_forwards_ct = 0
        load_allocs = store_allocs = lb_full = sb_full = forwards_ct = 0
        alu_issued = ld_issued = st_issued = port_limited = 0
        ftq_pushed = ftq_popped = ftq_flushed = fdip_ct = 0
        ftq_len = 0                    # mirrors len(ftq_q)

        fetch_seq = 0
        dq_head = 0                    # decode queue is the range [dq_head, fetch_seq)
        ftq_seq = 0
        fetch_blocked_until = 0
        pending_redirect: int | None = None
        last_line = -1
        retired = 0
        alloc_seq = 0                  # ROB tail: window is [retired, alloc_seq)
        rs_used = 0
        now = 0
        window_retired = 0
        upc_window = self.upc_window
        next_window_end = upc_window if upc_window else 0
        # Sentinel deadlines collapse the "is this observer attached?"
        # checks into one int compare per cycle.
        _far = 1 << 62
        next_audit = checker.interval if checker is not None else _far
        next_sample = 0 if tracer is not None else _far
        failure = None                 # "cycle_limit" | "livelock"

        try:
            while retired < n:
                if now >= max_cycles:
                    failure = "cycle_limit"
                    break
                if now - last_progress >= livelock_limit:
                    failure = "livelock"
                    break

                # 1. Completion events -> batched wakeup.
                ev_limit = now * stride + stride
                while events and events[0] < ev_limit:
                    seq = heappop(events) % stride
                    done_b[seq] = 1
                    if tracer is not None:
                        tracer.complete(now, seq)
                    if inflight_miss:
                        miss = inflight_miss.pop(seq, None)
                        if miss is not None:
                            # Completion-time MLP resample (object engine
                            # does the same max-of-two-samples accounting).
                            pc, issue_mlp = miss
                            hier_advance(now)
                            completion_mlp = hier_outstanding() + 1
                            load_pc_rows[pc][6] += (
                                issue_mlp if issue_mlp > completion_mlp
                                else completion_mlp
                            )
                    if pending_redirect == seq:
                        t = now + redirect_penalty
                        if t > fetch_blocked_until:
                            fetch_blocked_until = t
                        pending_redirect = None
                    wl = waiters_a[seq]
                    if wl is not None:
                        waiters_a[seq] = None
                        for w in wl:
                            dep_a[w] -= 1
                            if dep_a[w] == 0:
                                heappush(rheap_a[w], rpacked_a[w])
                                ready_size += 1
                                if record_timing:
                                    ready_times[w] = now

                # 2. Retire (in order, from the window head). The retired
                # span is the run of set scoreboard bytes at the head, found
                # with one C-speed scan for the first incomplete entry.
                if alloc_seq > retired:
                    if done_b[retired]:
                        lim = retired + retire_width
                        if lim > alloc_seq:
                            lim = alloc_seq
                        stop = done_b.find(0, retired, lim)
                        new_r = lim if stop < 0 else stop
                        if tracer is not None:
                            for s in range(retired, new_r):
                                tracer.retire(now, s, pc_a[s])
                        window_retired += new_r - retired
                        retired = new_r
                        last_progress = now
                    else:
                        # Stall cycles at one window head come in long runs;
                        # accumulate locally and flush to the per-PC dict
                        # when the head (or an observer) changes.
                        rob_head_stall += 1
                        head_pc = pc_a[retired]
                        if head_pc == stall_pc:
                            stall_acc += 1
                        else:
                            if stall_acc:
                                rob_stall_by_pc[stall_pc] = (
                                    rob_stall_by_pc.get(stall_pc, 0)
                                    + stall_acc
                                )
                            stall_pc = head_pc
                            stall_acc = 1

                # 3. Issue: batched stage-sort-select over the ready heaps.
                # Per-FU staging pops up to the port budget (priority-0
                # heap first), the merged candidates sort by (priority,
                # age) via the key_bit packing, and the issue width takes
                # the front -- the same decision the object scheduler's
                # pick() makes, without tuple churn.
                if ready_size:
                    cands: list = []
                    stage = cands.append
                    b = bud_alu
                    while b and h_alu0:
                        stage(heappop(h_alu0))
                        b -= 1
                    while b and h_alu1:
                        stage(key_bit | heappop(h_alu1))
                        b -= 1
                    b = bud_ld
                    while b and h_ld0:
                        stage(heappop(h_ld0))
                        b -= 1
                    while b and h_ld1:
                        stage(key_bit | heappop(h_ld1))
                        b -= 1
                    b = bud_st
                    while b and h_st0:
                        stage(heappop(h_st0))
                        b -= 1
                    while b and h_st1:
                        stage(key_bit | heappop(h_st1))
                        b -= 1
                    cands.sort()
                    if len(cands) > issue_width:
                        picks = cands[:issue_width]
                        for v in cands[issue_width:]:
                            e = v & pack_mask
                            heappush(
                                heaps[fu_a[e >> 1]][0 if v < key_bit else 1], e
                            )
                    else:
                        picks = cands
                    ready_size -= len(picks)
                    if len(picks) == issue_width and ready_size:
                        port_limited += 1
                    oldest_pick = (picks[0] & pack_mask) >> 1
                    if crisp:
                        for v in picks:
                            s = (v & pack_mask) >> 1
                            if s < oldest_pick:
                                oldest_pick = s
                    for v in picks:
                        e = v & pack_mask
                        seq = e >> 1
                        crit = e & 1
                        rs_used -= 1
                        if record_timing:
                            issue_times[seq] = now
                        kind = kind_a[seq]
                        if kind == 1:  # load
                            pc = pc_a[seq]
                            rec = load_pc_rows.get(pc)
                            if rec is None:
                                rec = load_pc_rows[pc] = [0, 0, 0, 0, 0, 0, 0]
                            rec[0] += 1
                            loads_ct += 1
                            ms = seq - mem_dist[seq]
                            if ms >= retired and isstore_a[ms]:
                                completion = now + fwd_latency
                                forwards_ct += 1
                                store_forwards_ct += 1
                                rec[4] += 1
                                rec[5] += fwd_latency
                            else:
                                ad = addr_a[seq]
                                line = ad - (ad % line_bytes)
                                cset = l1d_sets[
                                    (line // line_bytes) % l1d_nsets
                                ]
                                if now < hier._next_fill and line in cset:
                                    # Inlined L1D hit (hierarchy.load's
                                    # first branch; no fill can apply).
                                    if now > hier.last_advance:
                                        hier.last_advance = now
                                    l1d_stats.accesses += 1
                                    l1d_stats.hits += 1
                                    l1d._tick += 1
                                    cset[line] = l1d._tick
                                    completion = now + l1d_lat
                                    rec[1] += 1
                                    rec[5] += l1d_lat
                                else:
                                    res = hier_load(la_a[seq], ad, now)
                                    completion = res.completion
                                    rec[5] += completion - now
                                    level = res.level
                                    if level == "l1":
                                        rec[1] += 1
                                    elif level == "llc":
                                        rec[2] += 1
                                    if res.llc_miss:
                                        rec[3] += 1
                                        inflight_miss[seq] = (pc, res.mlp)
                                        llc_misses_ct += 1
                                        if ibda is not None:
                                            ibda.on_llc_miss(pc)
                                        if tracer is not None:
                                            tracer.llc_miss(now, seq, pc, ad)
                        elif kind == 3:  # software prefetch
                            hier_swpf(la_a[seq], addr_a[seq], now)
                            completion = now + 1
                        elif kind == 2:  # store
                            ad = addr_a[seq]
                            line = ad - (ad % line_bytes)
                            cset = l1d_sets[(line // line_bytes) % l1d_nsets]
                            if now < hier._next_fill and line in cset:
                                # Inlined L1D store hit (hierarchy.store's
                                # first branch; result is unused).
                                if now > hier.last_advance:
                                    hier.last_advance = now
                                l1d_stats.accesses += 1
                                l1d_stats.hits += 1
                                l1d._tick += 1
                                cset[line] = l1d._tick
                            else:
                                hier_store(la_a[seq], ad, now)
                            completion = now + 1
                        else:
                            completion = now + lat_a[seq]
                        heappush(events, completion * stride + seq)
                        fu_i = fu_a[seq]
                        if fu_i == 0:
                            alu_issued += 1
                        elif fu_i == 1:
                            ld_issued += 1
                        else:
                            st_issued += 1
                        if tracer is not None:
                            tracer.issue(now, seq, pc_a[seq], bool(crit))
                            ready = ready_times.get(seq)
                            if ready is not None:
                                self._issue_delay_hist.observe(now - ready)
                            if kind == 1:
                                self._load_latency_hist.observe(
                                    completion - now
                                )
                        issued_ct += 1
                        if crit:
                            issued_crit_ct += 1
                            if seq != oldest_pick:
                                bypass_ct += 1

                # 4. Rename / dispatch. Fetch appends consecutive seqs and
                # dispatch drains from the front, so the decode queue is
                # always the contiguous range [dq_head, fetch_seq).
                dispatched = 0
                dispatch_blocked = False
                clr = cload_a[retired]
                csr = cstore_a[retired]
                while dq_head < fetch_seq and dispatched < rename_width:
                    seq = dq_head
                    if alloc_seq - retired >= rob_entries:
                        dispatch_blocked = True
                        break
                    f = flags_a[seq]
                    if f & 1 and rs_used >= rs_entries:
                        dispatch_blocked = True
                        break
                    if f & 2:
                        # Load-buffer occupancy = loads in [retired, seq)
                        # (alloc_seq == seq while dispatching in order).
                        if cload_a[seq] - clr >= lb_entries:
                            lb_full += 1
                            dispatch_blocked = True
                            break
                        load_allocs += 1
                    elif f & 4:
                        if cstore_a[seq] - csr >= sb_entries:
                            sb_full += 1
                            dispatch_blocked = True
                            break
                        store_allocs += 1
                    dq_head += 1
                    dispatched += 1
                    alloc_seq += 1
                    if not f & 1:  # HALT
                        heappush(events, now * stride + stride + seq)
                        continue
                    if ibda is not None:
                        crit = 1 if ibda.on_dispatch(pc_a[seq], bool(f & 2), tuple(
                            pc_a[p] for col in src_dist
                            if (p := seq - col[seq]) >= 0
                        )) else 0
                        crit_b[seq] = crit
                        rpacked_a[seq] = (seq << 1) | crit
                        rheap_a[seq] = heaps[fu_a[seq]][
                            0 if (crisp and crit) else 1
                        ]
                        if tracer is not None:
                            tracer.dispatch(now, seq, pc_a[seq], bool(crit))
                    elif tracer is not None:
                        tracer.dispatch(now, seq, pc_a[seq],
                                        bool(crit_b[seq]))
                    rs_used += 1
                    if record_timing:
                        dispatch_times[seq] = now
                    remaining = 0
                    for col in links_a[seq]:
                        # Retirement is in order, so every seq < `retired`
                        # has completed (a link from before the trace lands
                        # on a negative seq); the scoreboard covers the rest.
                        p = seq - col[seq]
                        if p >= retired and not done_b[p]:
                            wl = waiters_a[p]
                            if wl is None:
                                waiters_a[p] = [seq]
                            else:
                                wl.append(seq)
                            remaining += 1
                    if remaining:
                        dep_a[seq] = remaining
                    else:
                        heappush(rheap_a[seq], rpacked_a[seq])
                        ready_size += 1
                        if record_timing:
                            ready_times[seq] = now

                # 5. Fetch (branch outcomes precomputed by the batch pass).
                if pending_redirect is None and now >= fetch_blocked_until:
                    fetched = 0
                    while (fetch_seq < n and fetched < fetch_width
                           and fetch_seq - dq_head < dq_cap):
                        seq = fetch_seq
                        pr = probes_a[seq]
                        if pr != last_line:
                            # An int probe can equal last_line; a tuple
                            # (line-straddling encoding) never does.
                            stall = False
                            if pr.__class__ is int:
                                hit = False
                                if now < hier._next_fill:
                                    cset = l1i_sets[
                                        (pr // line_bytes) % l1i_nsets
                                    ]
                                    if pr in cset:
                                        # Inlined L1I hit (inst_fetch's hit
                                        # branch; probes are line-aligned).
                                        if now > hier.last_advance:
                                            hier.last_advance = now
                                        l1i_stats.accesses += 1
                                        l1i_stats.hits += 1
                                        l1i._tick += 1
                                        cset[pr] = l1i._tick
                                        last_line = pr
                                        hit = True
                                if not hit:
                                    ready_at = hier_ifetch(pr, now)
                                    if ready_at > now:
                                        fetch_blocked_until = ready_at
                                        icache_stall += ready_at - now
                                        stall = True
                                    else:
                                        last_line = pr
                            else:
                                for probe in pr:
                                    if probe == last_line:
                                        continue
                                    if now < hier._next_fill:
                                        cset = l1i_sets[
                                            (probe // line_bytes) % l1i_nsets
                                        ]
                                        if probe in cset:
                                            if now > hier.last_advance:
                                                hier.last_advance = now
                                            l1i_stats.accesses += 1
                                            l1i_stats.hits += 1
                                            l1i._tick += 1
                                            cset[probe] = l1i._tick
                                            last_line = probe
                                            continue
                                    ready_at = hier_ifetch(probe, now)
                                    if ready_at > now:
                                        fetch_blocked_until = ready_at
                                        icache_stall += ready_at - now
                                        stall = True
                                        break
                                    last_line = probe
                            if stall:
                                break
                        fetch_seq += 1
                        fetched += 1
                        if tracer is not None:
                            tracer.fetch(now, seq, pc_a[seq])
                        if flags_a[seq] & 8:
                            outcome = outcome_a[seq]
                            if outcome == _MISPREDICT:
                                pending_redirect = seq
                                ftq_flushed += ftq_len
                                ftq_q.clear()
                                ftq_len = 0
                                ftq_seq = fetch_seq
                                if tracer is not None:
                                    tracer.flush(now, seq, pc_a[seq])
                                break
                            if outcome == _BTB_MISS:
                                fetch_blocked_until = now + btb_miss_penalty
                                break
                            if outcome == _TAKEN:
                                break
                else:
                    fetch_stall += 1

                # 6. FTQ fill + FDIP (inlined; coalesces duplicate lines).
                # run_end_a jumps over a whole same-line run at once: the
                # run's first line either coalesces into the queue tail or
                # is pushed, and the rest of the run would coalesce with it
                # seq by seq. Only the resting value of ftq_seq when the
                # queue drains is observable, and runs are consumed whole
                # by then either way.
                if pending_redirect is None:
                    while ftq_seq < n and ftq_len < ftq_entries:
                        line = ftq_line_a[ftq_seq]
                        if ftq_len and ftq_q[-1] == line:
                            ftq_seq = run_end_a[ftq_seq]
                            continue
                        ftq_q.append(line)
                        ftq_len += 1
                        ftq_pushed += 1
                        ftq_seq = run_end_a[ftq_seq]
                if ftq_len:
                    k = fdip_lines
                    while k and ftq_len:
                        ftq_popped += 1
                        line = ftq_q.popleft()
                        ftq_len -= 1
                        fdip_ct += 1
                        k -= 1
                        if now < hier._next_fill:
                            cset = l1i_sets[(line // line_bytes) % l1i_nsets]
                            if line in cset:
                                # Inlined inst_prefetch hit: uncounted probe
                                # (count=False) that still touches LRU.
                                if now > hier.last_advance:
                                    hier.last_advance = now
                                l1i._tick += 1
                                cset[line] = l1i._tick
                                continue
                        hier_ipf(line, now)

                # 7. Advance time (identical idle fast-forward condition).
                advance = 1
                if (
                    ready_size == 0
                    and not (alloc_seq > retired and done_b[retired])
                    and (dispatch_blocked or dq_head >= fetch_seq)
                    and (
                        pending_redirect is not None
                        or fetch_blocked_until > now + 1
                        or fetch_seq >= n
                        or fetch_seq - dq_head >= dq_cap
                    )
                    and not ftq_len
                    and (pending_redirect is not None or ftq_seq >= n)
                ):
                    targets = []
                    if events:
                        targets.append(events[0] // stride)
                    if (pending_redirect is None and fetch_seq < n
                            and fetch_seq - dq_head < dq_cap):
                        targets.append(fetch_blocked_until)
                    if targets:
                        advance = min(targets) - now
                        if advance < 1:
                            advance = 1
                if advance > 1:
                    idle = advance - 1
                    if alloc_seq > retired and not done_b[retired]:
                        rob_head_stall += idle
                        head_pc = pc_a[retired]
                        if head_pc == stall_pc:
                            stall_acc += idle
                        else:
                            if stall_acc:
                                rob_stall_by_pc[stall_pc] = (
                                    rob_stall_by_pc.get(stall_pc, 0)
                                    + stall_acc
                                )
                            stall_pc = head_pc
                            stall_acc = idle
                    if (pending_redirect is not None
                            or fetch_blocked_until > now + 1):
                        fetch_stall += idle
                if now >= next_audit:
                    # Map the array state into the object views, then run
                    # the same audit the object engine runs
                    # (docs/RESILIENCE.md). An InvariantViolation raised
                    # here propagates to the handler below with the views
                    # already synced for the crash bundle.
                    if stall_acc:
                        rob_stall_by_pc[stall_pc] = (
                            rob_stall_by_pc.get(stall_pc, 0) + stall_acc
                        )
                        stall_acc = 0
                    self._spill_stats(
                        (rob_head_stall, fetch_stall, icache_stall,
                         issued_ct, issued_crit_ct, bypass_ct, loads_ct,
                         llc_misses_ct, store_forwards_ct,
                         csize_a[alloc_seq - 1] if alloc_seq else 0),
                        rob_stall_by_pc, load_pc_rows,
                    )
                    self._sync_views(
                        retired=retired, alloc_seq=alloc_seq, done_b=done_b,
                        heaps=heaps, ready_size=ready_size,
                        isload_a=isload_a, isstore_a=isstore_a,
                        lsq_counters=(load_allocs, store_allocs, lb_full,
                                      sb_full, forwards_ct),
                        port_counters=(alu_issued, ld_issued, st_issued),
                        port_limited=port_limited,
                        ftq_counters=(ftq_pushed, ftq_popped, ftq_flushed),
                        fdip_count=fdip_ct,
                    )
                    window = range(retired, alloc_seq)
                    checker.audit(
                        self, now, retired=retired, rs_used=rs_used,
                        dep_count={s: dep_a[s] for s in window if dep_a[s]},
                        waiters={s: waiters_a[s] for s in window
                                 if waiters_a[s]},
                        done={s for s in window if done_b[s]},
                    )
                    next_audit = now + checker.interval
                if now >= next_sample:
                    occupancy = {
                        "rob": alloc_seq - retired,
                        "rs": rs_used,
                        "sched_ready": ready_size,
                        "mshr": hier.mshr.occupancy(),
                        "ftq": ftq_len,
                        "lsq_loads": cload_a[alloc_seq] - cload_a[retired],
                        "lsq_stores": cstore_a[alloc_seq] - cstore_a[retired],
                    }
                    for key, value in occupancy.items():
                        gauges[key].sample(value)
                    tracer.sample(now, occupancy)
                    next_sample = now + tracer.sample_interval
                now += advance
                if upc_window:
                    while now >= next_window_end:
                        stats.upc_timeline.append(window_retired)
                        window_retired = 0
                        next_window_end += upc_window
                yield now
        except InvariantViolation as violation:
            raise watchdog.attach_bundle(
                violation, self._bundle, now=now, retired=retired, total=n,
            ) from None

        # One spill + view sync covers every post-loop observer: watchdog
        # crash bundles, the final audit, and end-of-run telemetry.
        if stall_acc:
            rob_stall_by_pc[stall_pc] = (
                rob_stall_by_pc.get(stall_pc, 0) + stall_acc
            )
            stall_acc = 0
        self._spill_stats(
            (rob_head_stall, fetch_stall, icache_stall, issued_ct,
             issued_crit_ct, bypass_ct, loads_ct, llc_misses_ct,
             store_forwards_ct, csize_a[alloc_seq - 1] if alloc_seq else 0),
            rob_stall_by_pc, load_pc_rows,
        )
        self._sync_views(
            retired=retired, alloc_seq=alloc_seq, done_b=done_b, heaps=heaps,
            ready_size=ready_size, isload_a=isload_a, isstore_a=isstore_a,
            lsq_counters=(load_allocs, store_allocs, lb_full, sb_full,
                          forwards_ct),
            port_counters=(alu_issued, ld_issued, st_issued),
            port_limited=port_limited,
            ftq_counters=(ftq_pushed, ftq_popped, ftq_flushed),
            fdip_count=fdip_ct,
        )
        if failure == "cycle_limit":
            raise watchdog.cycle_limit_exceeded(
                self._bundle, now=now, max_cycles=max_cycles,
                retired=retired, total=n,
            )
        if failure == "livelock":
            raise watchdog.livelock_detected(
                self._bundle, now=now, last_progress=last_progress,
                retired=retired, total=n,
            )
        if checker is not None:
            try:
                checker.final_audit(self, now, retired=retired,
                                    rs_used=rs_used)
            except InvariantViolation as violation:
                raise watchdog.attach_bundle(
                    violation, self._bundle, now=now, retired=retired,
                    total=n,
                ) from None
        stats.cycles = now
        stats.retired = retired
        self._finalize()
        return stats
