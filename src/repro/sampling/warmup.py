"""Functional warmup of long-lived microarchitectural state.

Skipping trace regions in sampled simulation is only sound if the state
with long history — cache tags/LRU, TAGE tables and folded histories, BTB
targets, the RAS, prefetcher tables — reflects the skipped instructions
when the detailed interval starts. :class:`FunctionalWarmer` replays the
skipped region *without timing*: every instruction fetch, branch outcome,
load, store, and software prefetch is applied to the same structures in
the same program order the detailed pipeline would apply them, on a
synthetic clock that advances far enough per instruction that every lazy
fill lands before the next access.

Fidelity (guarded by ``tests/sampling/test_warmup.py``): for serial
workloads with hardware prefetchers disabled, warming over a region leaves
cache content/LRU order, predictor tables, BTB, and RAS byte-identical to
detailed simulation of the same region — branch-predictor and i-side
updates happen at fetch in trace order in the pipeline, and d-side
accesses of a serial dependence chain issue in program order. With
prefetchers or deep OOO overlap the warmed state is an approximation (the
standard SMARTS trade-off); store-forwarded loads are assumed forwarded
and skip the hierarchy.

The module also provides the canonical *state digests* the fidelity test
asserts on; they work on a warmer and a pipeline alike.
"""

from __future__ import annotations

import hashlib
import pickle

from ..frontend.btb import Btb
from ..frontend.ras import ReturnAddressStack
from ..frontend.simple_predictors import make_predictor
from ..memory.hierarchy import MemoryHierarchy
from ..uarch.config import CoreConfig

#: Synthetic cycles between warmed instructions: larger than any DRAM
#: round-trip, so every fill issued by instruction i is resident before
#: instruction i+1 probes (matching a serial detailed execution).
CLOCK_STRIDE = 8192


class FunctionalWarmer:
    """Replays a trace region to warm caches, predictors, BTB, and RAS.

    Construct with the same program / core config / annotation as the
    detailed interval (the annotation changes the code layout, so warmed
    i-side state must see the same byte addresses), ``warm()`` over the
    skipped region, ``finish()`` to drain in-flight fills and zero the
    warmup-era counters, then hand :meth:`components` to
    :class:`~repro.uarch.pipeline.Pipeline` as pre-warmed structures.
    Warming ``[0, a)`` then ``[a, b)`` leaves the same state as warming
    ``[0, b)``, so one warmer can walk forward through a trace and
    :meth:`copy` out the state each interval starts from.
    """

    def __init__(
        self,
        program,
        config: CoreConfig | None = None,
        *,
        critical_pcs: frozenset[int] | set[int] = frozenset(),
    ):
        self.config = config or CoreConfig.skylake()
        cfg = self.config
        self.layout = program.layout(frozenset(critical_pcs))
        self.hierarchy = MemoryHierarchy(cfg.hierarchy)
        self.predictor = make_predictor(cfg.predictor)
        self.btb = Btb(cfg.btb_entries)
        self.ras = ReturnAddressStack(cfg.ras_depth)
        self.clock = 0
        self.warmed_insts = 0
        self._last_line = -1
        # Per-PC rows the walk reads: (code address, i-line probe, access
        # kind, branch kind); see warm().
        self._rows = list(zip(
            self.layout.addresses,
            self.layout.line_probes(cfg.hierarchy.line_bytes),
            *program.pc_kinds(),
        ))

    # -- replay ---------------------------------------------------------------

    def warm(self, trace, start: int = 0, end: int | None = None) -> None:
        """Functionally apply trace positions ``[start, end)``.

        Each dynamic instruction reads its PC's row of the table the
        constructor built from the warmer's layout: code address, i-line
        probe (one line, or a pair when the encoding straddles two) and
        the access and branch kinds of
        :meth:`~repro.isa.program.Program.pc_kinds`, the classification
        the array engine's decode uses; nothing is decoded per dynamic
        instruction ahead of the walk. TAGE, BTB and RAS train inline in
        the order ``Pipeline._predict_branch`` updates them. An L1I or L1D
        hit with no fill pending (``now < hier._next_fill``) applies the
        hierarchy's hit branch inline, as ``ArrayPipeline.cycles`` does;
        every other access goes through the ``MemoryHierarchy`` call. The
        walk leaves every attribute byte-identical to a per-``DynInst``
        walk through those calls, which ``tests/sampling/test_warmup.py``
        keeps as the reference.
        """
        insts = trace.insts
        n = len(insts)
        if end is None:
            end = n
        hier = self.hierarchy
        addrs = self.layout.addresses
        line_bytes = hier.config.line_bytes
        rows = self._rows
        hier_ifetch = hier.inst_fetch
        hier_load = hier.load
        hier_store = hier.store
        l1i = hier.l1i
        l1i_sets = l1i._sets
        l1i_nsets = l1i.num_sets
        l1i_stats = l1i.stats
        l1d = hier.l1d
        l1d_sets = l1d._sets
        l1d_nsets = l1d.num_sets
        l1d_stats = l1d.stats
        predict = self.predictor.predict
        update = self.predictor.update
        note_branch = self.predictor.note_branch
        btb_lookup = self.btb.lookup
        btb_update = self.btb.update
        ras = self.ras
        now = self.clock
        last_line = self._last_line
        for pos in range(start, end):
            d = insts[pos]
            now += CLOCK_STRIDE
            pc = d.sinst.idx
            pc_addr, probe, access, branch = rows[pc]
            # Instruction side: same per-line probing as pipeline fetch.
            if probe != last_line:
                for line in ((probe,) if probe.__class__ is int else probe):
                    if line == last_line:
                        continue
                    last_line = line
                    if now < hier._next_fill:
                        cset = l1i_sets[(line // line_bytes) % l1i_nsets]
                        if line in cset:
                            # Inlined L1I hit (inst_fetch's hit branch).
                            if now > hier.last_advance:
                                hier.last_advance = now
                            l1i_stats.accesses += 1
                            l1i_stats.hits += 1
                            l1i._tick += 1
                            cset[line] = l1i._tick
                            continue
                    hier_ifetch(line, now)
            if branch:  # no branch accesses data
                if branch == 1:  # conditional
                    taken = d.taken
                    predicted = predict(pc_addr, taken)
                    update(pc_addr, taken)
                    # A mispredict or a correct not-taken leaves the BTB be.
                    if predicted != taken or not taken:
                        continue
                else:
                    note_branch(True)
                    if branch == 2:  # return
                        ras.pop()
                        continue
                    if branch == 3:  # call
                        ras.push(addrs[pc + 1])
                nxt = pos + 1
                btb_lookup(pc_addr)
                btb_update(pc_addr, addrs[
                    insts[nxt].sinst.idx if nxt < n else trace.pc_after(pos)
                ])
                continue
            if access:
                if access == 3:  # software prefetch
                    hier.software_prefetch(pc_addr, d.addr, now)
                    continue
                # Loads with an in-trace producing store are assumed
                # store-forwarded (the overwhelmingly common detailed-sim
                # outcome) and do not touch the hierarchy.
                if access == 1 and d.mem_src >= 0:
                    continue
                ad = d.addr
                line = ad - (ad % line_bytes)
                cset = l1d_sets[(line // line_bytes) % l1d_nsets]
                if now < hier._next_fill and line in cset:
                    # Inlined L1D hit (load's and store's shared hit branch).
                    if now > hier.last_advance:
                        hier.last_advance = now
                    l1d_stats.accesses += 1
                    l1d_stats.hits += 1
                    l1d._tick += 1
                    cset[line] = l1d._tick
                elif access == 1:
                    hier_load(pc_addr, ad, now)
                else:
                    hier_store(pc_addr, ad, now)
        self.clock = now
        self._last_line = last_line
        self.warmed_insts += max(0, end - start)

    # -- handoff --------------------------------------------------------------

    def copy(self) -> "FunctionalWarmer":
        """An independent copy of this warmer and all its state.

        A pickle round trip, several times faster than ``copy.deepcopy``;
        finishing the copy leaves this warmer free to keep warming.
        """
        return pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))

    def finish(self) -> "FunctionalWarmer":
        """Drain in-flight fills and zero warmup-era statistics.

        The injected structures must carry warmed *state* but clean
        *counters*: the detailed interval's stats start from zero, so the
        per-interval SimStats stay exact.
        """
        self.clock += 4 * CLOCK_STRIDE
        hier = self.hierarchy
        hier._advance(self.clock)
        # Rebase absolute-time state to cycle 0: the detailed pipeline that
        # inherits these structures starts its own clock from scratch, and a
        # hierarchy whose reservations sit at warmup-era timestamps would
        # never complete its fills. Content state (cache lines, LRU ticks,
        # open DRAM rows, predictor tables) is what warming is for and is
        # untouched; the in-flight sets are empty after the drain above.
        hier.last_advance = 0
        hier.mshr._pending.clear()
        hier._pending_pf.clear()
        hier._pending_inst.clear()
        hier.dram._bank_free = [0] * len(hier.dram._bank_free)
        hier.dram._bus_free = 0
        for cache in (hier.l1i, hier.l1d, hier.llc):
            cache.reset_stats()
        hier.mshr.stats = type(hier.mshr.stats)()
        hier.dram.reset_stats()
        self.predictor.stats = type(self.predictor.stats)()
        self.btb.stats = type(self.btb.stats)()
        self.ras.stats = type(self.ras.stats)()
        return self

    def components(self) -> dict:
        """Keyword arguments for ``Pipeline(..., **warmer.components())``."""
        return {
            "hierarchy": self.hierarchy,
            "predictor": self.predictor,
            "btb": self.btb,
            "ras": self.ras,
        }

    def digest(self) -> str:
        return state_digest(self.hierarchy, self.predictor, self.btb, self.ras)


# -- state digests -------------------------------------------------------------
#
# Canonical, timing-free views of the long-lived state: content in recency
# order rather than raw tick values, since logical tick counters advance at
# different rates under warmup and detailed simulation.


def cache_state(cache) -> list[list[int]]:
    """Per-set resident lines in LRU→MRU order."""
    return [
        [line for line, _ in sorted(cache_set.items(), key=lambda kv: kv[1])]
        for cache_set in cache._sets
    ]


def btb_state(btb) -> list[list[tuple[int, int]]]:
    """Per-set (pc, target) entries in LRU→MRU order."""
    return [
        [(pc, target) for pc, (target, _) in sorted(s.items(), key=lambda kv: kv[1][1])]
        for s in btb._sets
    ]


def ras_state(ras) -> list[int]:
    return list(ras._stack)


def predictor_state(predictor) -> list:
    """All persistent predictor state, excluding stats and transients."""
    state = []
    for key in sorted(vars(predictor)):
        if key in ("stats", "_last"):
            continue
        state.append((key, _canon(getattr(predictor, key))))
    return state


def _canon(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return sorted((str(k), _canon(v)) for k, v in value.items())
    if hasattr(value, "value"):  # _FoldedHistory: only .value is dynamic
        return _canon(value.value)
    return repr(value)


def state_digest(hierarchy, predictor, btb, ras, *, drain: bool = True) -> str:
    """One hex digest over all warmed state; equal digests == equal state.

    ``drain`` first applies every in-flight fill (prefetches, i-misses,
    MSHR entries) far in the future, so a pipeline that stopped mid-fill
    and a warmer compare on settled state.
    """
    if drain:
        hierarchy._advance(hierarchy.last_advance + (1 << 40))
    payload = repr(
        {
            "l1i": cache_state(hierarchy.l1i),
            "l1d": cache_state(hierarchy.l1d),
            "llc": cache_state(hierarchy.llc),
            "predictor": predictor_state(predictor),
            "btb": btb_state(btb),
            "ras": ras_state(ras),
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def pipeline_state_digest(pipeline, *, drain: bool = True) -> str:
    """Digest of a pipeline's warmed state (same shape as a warmer's)."""
    return state_digest(
        pipeline.hierarchy, pipeline.predictor, pipeline.btb, pipeline.ras,
        drain=drain,
    )
