"""Simulation statistics.

Collects the quantities the paper reports: IPC/UPC (identical here -- the
mini-ISA is one µop per instruction, documented in DESIGN.md), head-of-ROB
stall cycles (the paper's confirmation metric in Section 5.2), per-PC load
profiles (the simulated PMU/PEBS feed for CRISP's software pass), branch
misprediction rates per PC, cache/DRAM statistics, and an optional windowed
UPC timeline used to regenerate Figure 1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields


@dataclass
class PcLoadStats:
    """Per-static-PC load behaviour (what PEBS sampling would report)."""

    execs: int = 0
    l1_hits: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    forwarded: int = 0
    latency_sum: int = 0
    mlp_sum: int = 0  # outstanding demand misses sampled at each LLC miss

    @property
    def llc_miss_rate(self) -> float:
        return self.llc_misses / self.execs if self.execs else 0.0

    @property
    def amat(self) -> float:
        """Average memory access time over this load's executions."""
        return self.latency_sum / self.execs if self.execs else 0.0

    @property
    def avg_mlp(self) -> float:
        return self.mlp_sum / self.llc_misses if self.llc_misses else 0.0


@dataclass
class PcBranchStats:
    """Per-static-PC conditional branch behaviour."""

    execs: int = 0
    mispredicts: int = 0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.execs if self.execs else 0.0


@dataclass
class SimStats:
    """Aggregate result of one timing-simulation run."""

    cycles: int = 0
    retired: int = 0
    # Stall decomposition.
    rob_head_stall_cycles: int = 0
    fetch_stall_cycles: int = 0
    icache_stall_cycles: int = 0
    # Scheduler behaviour.
    issued: int = 0
    issued_critical: int = 0
    critical_bypass_events: int = 0  # a critical inst issued over an older ready one
    # Branch behaviour.
    cond_branches: int = 0
    branch_mispredicts: int = 0
    btb_misses: int = 0
    ras_mispredicts: int = 0
    # Memory behaviour.
    loads: int = 0
    llc_load_misses: int = 0
    store_forwards: int = 0
    # Per-PC tables (simulated PMU).
    load_pcs: dict[int, PcLoadStats] = field(default_factory=dict)
    branch_pcs: dict[int, PcBranchStats] = field(default_factory=dict)
    rob_head_stall_by_pc: dict[int, int] = field(default_factory=dict)
    # Dynamic code footprint in bytes (sum of encoded sizes of retired insts).
    dynamic_code_bytes: int = 0
    # Optional UPC timeline: retired µops per window of `upc_window` cycles.
    upc_window: int = 0
    upc_timeline: list[int] = field(default_factory=list)
    # Filled in by the pipeline from hierarchy/predictor objects at the end.
    l1i_misses: int = 0
    l1i_accesses: int = 0
    l1d_misses: int = 0
    l1d_accesses: int = 0
    llc_misses: int = 0
    llc_accesses: int = 0
    dram_requests: int = 0
    dram_row_hit_rate: float = 0.0

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0

    #: µops per cycle; identical to IPC in this one-µop-per-inst ISA.
    upc = ipc

    @property
    def branch_mispredict_rate(self) -> float:
        return self.branch_mispredicts / self.cond_branches if self.cond_branches else 0.0

    def l1i_mpki(self) -> float:
        return 1000.0 * self.l1i_misses / self.retired if self.retired else 0.0

    def llc_mpki(self) -> float:
        return 1000.0 * self.llc_misses / self.retired if self.retired else 0.0

    def load_stats(self, pc: int) -> PcLoadStats:
        stats = self.load_pcs.get(pc)
        if stats is None:
            stats = self.load_pcs[pc] = PcLoadStats()
        return stats

    def branch_stats(self, pc: int) -> PcBranchStats:
        stats = self.branch_pcs.get(pc)
        if stats is None:
            stats = self.branch_pcs[pc] = PcBranchStats()
        return stats

    # -- combination -----------------------------------------------------------
    #
    # Sampled simulation (repro.sampling) runs disjoint trace intervals
    # through separate pipelines and needs one whole-run view: merge is the
    # exact combine — every pure counter sums, per-PC tables merge bin-wise,
    # and derived rates (IPC, miss rates, DRAM row-hit rate) recompute from
    # the merged numerators/denominators instead of being averaged.

    #: Scalar fields that combine by plain summation.
    _SUMMED_FIELDS = (
        "cycles", "retired",
        "rob_head_stall_cycles", "fetch_stall_cycles", "icache_stall_cycles",
        "issued", "issued_critical", "critical_bypass_events",
        "cond_branches", "branch_mispredicts", "btb_misses", "ras_mispredicts",
        "loads", "llc_load_misses", "store_forwards",
        "dynamic_code_bytes",
        "l1i_misses", "l1i_accesses", "l1d_misses", "l1d_accesses",
        "llc_misses", "llc_accesses", "dram_requests",
    )

    @classmethod
    def merge(cls, parts: "list[SimStats]") -> "SimStats":
        """Exact combination of per-interval stats into one run's stats.

        Counters sum; ``load_pcs``/``branch_pcs``/``rob_head_stall_by_pc``
        merge per-PC field-wise; ``dram_row_hit_rate`` is recomputed from
        the merged row-hit numerator (rate x requests per part) over the
        merged request count; UPC timelines concatenate in part order when
        every part used the same window (else the merged timeline is
        dropped). Properties (`ipc`, miss rates, MPKI) need no handling —
        they always recompute from the merged fields.
        """
        parts = list(parts)
        merged = cls()
        for name in cls._SUMMED_FIELDS:
            setattr(merged, name, sum(getattr(p, name) for p in parts))
        for part in parts:
            for pc, src in part.load_pcs.items():
                dst = merged.load_stats(pc)
                for f in fields(PcLoadStats):
                    setattr(dst, f.name, getattr(dst, f.name) + getattr(src, f.name))
            for pc, src in part.branch_pcs.items():
                dst = merged.branch_stats(pc)
                dst.execs += src.execs
                dst.mispredicts += src.mispredicts
            for pc, n in part.rob_head_stall_by_pc.items():
                merged.rob_head_stall_by_pc[pc] = (
                    merged.rob_head_stall_by_pc.get(pc, 0) + n
                )
        # Row-hit rate: recover each part's hit count, re-derive the rate.
        if merged.dram_requests:
            row_hits = sum(p.dram_row_hit_rate * p.dram_requests for p in parts)
            merged.dram_row_hit_rate = row_hits / merged.dram_requests
        windows = {p.upc_window for p in parts}
        if len(windows) == 1 and parts and parts[0].upc_window:
            merged.upc_window = parts[0].upc_window
            for part in parts:
                merged.upc_timeline.extend(part.upc_timeline)
        return merged

    def scaled(self, factor: float) -> "SimStats":
        """Extrapolated copy: every summed counter and per-PC table scaled.

        Used by the sampled estimator to extrapolate the detailed-interval
        counters to full-run magnitude; rates and rate-like fields are left
        untouched (they are scale-invariant).
        """
        out = SimStats.merge([self])
        for name in self._SUMMED_FIELDS:
            setattr(out, name, round(getattr(self, name) * factor))
        for table in (out.load_pcs, out.branch_pcs):
            for stats in table.values():
                for f in fields(stats):
                    setattr(stats, f.name, round(getattr(stats, f.name) * factor))
        out.rob_head_stall_by_pc = {
            pc: round(n * factor) for pc, n in out.rob_head_stall_by_pc.items()
        }
        return out

    # -- serialization ---------------------------------------------------------
    #
    # The parallel layer (repro.parallel) moves results across process
    # boundaries and stores them in the content-addressed cache as JSON, so
    # the round trip must be exact: from_dict(json(to_dict(s))) == s.

    def to_dict(self) -> dict:
        """JSON-serializable dict of every field (per-PC keys as strings)."""
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("load_pcs", "branch_pcs"):
                # Rows hold only int fields, set in field order by __init__:
                # a shallow copy of each instance dict equals asdict().
                data[f.name] = {str(pc): dict(vars(s)) for pc, s in value.items()}
            elif f.name == "rob_head_stall_by_pc":
                data[f.name] = {str(pc): n for pc, n in value.items()}
            elif f.name == "upc_timeline":
                data[f.name] = list(value)
            else:
                data[f.name] = value
        return data

    def digest(self) -> str:
        """Canonical content hash of this result (hex sha256).

        The digest is computed over the sorted-key JSON rendering of
        :meth:`to_dict`, so dict *insertion order* (which may legitimately
        differ between the object and array engines' bookkeeping) never
        affects it while every counter value does. Two runs of the same
        cell are equivalent iff their digests match — this is the
        cross-engine equivalence contract of docs/ENGINE.md, asserted by
        ``tests/sim/test_engine_equivalence.py``.
        """
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Exact inverse of :meth:`to_dict` (accepts int or str PC keys)."""
        data = dict(data)
        load_pcs = {
            int(pc): PcLoadStats(**s)
            for pc, s in data.pop("load_pcs", {}).items()
        }
        branch_pcs = {
            int(pc): PcBranchStats(**s)
            for pc, s in data.pop("branch_pcs", {}).items()
        }
        rob_by_pc = {
            int(pc): n for pc, n in data.pop("rob_head_stall_by_pc", {}).items()
        }
        return cls(
            load_pcs=load_pcs,
            branch_pcs=branch_pcs,
            rob_head_stall_by_pc=rob_by_pc,
            **data,
        )

    def register_into(self, registry) -> None:
        """Back every aggregate field with a collector in ``registry``.

        The dataclass fields stay plain integers (the pipeline's hot loop
        mutates them directly, at zero observability cost); the registry
        reads them through collectors at snapshot time. Metric names,
        units, owners, and paper figures registered here are the contract
        documented in docs/METRICS.md and enforced by
        ``scripts/check_metrics_docs.py``.
        """
        spec = (
            # name, field, unit, owner, figure, description
            ("core.cycles", "cycles", "cycles", "pipeline", "fig7",
             "simulated cycles for the run"),
            ("core.retired", "retired", "insts", "pipeline", "fig7",
             "instructions retired (one uop each; IPC = retired/cycles)"),
            ("core.dynamic_code_bytes", "dynamic_code_bytes", "bytes", "pipeline", "fig12",
             "summed encoded size of retired instructions (prefix overhead)"),
            ("core.stall.rob_head_cycles", "rob_head_stall_cycles", "cycles", "ROB", "fig1",
             "cycles an uncompleted instruction sat at the ROB head (Sec 5.2)"),
            ("core.stall.fetch_cycles", "fetch_stall_cycles", "cycles", "front end", "fig1",
             "cycles fetch was blocked (mispredict redirect or i-miss wait)"),
            ("core.stall.icache_cycles", "icache_stall_cycles", "cycles", "L1I", "fig12",
             "fetch-blocked cycles attributable to L1I miss fills"),
            ("uarch.sched.issued", "issued", "uops", "scheduler", "fig9",
             "instructions issued to functional units"),
            ("uarch.sched.issued_critical", "issued_critical", "uops", "scheduler", "fig9",
             "issued instructions carrying the critical tag"),
            ("uarch.sched.critical_bypass_events", "critical_bypass_events", "events",
             "scheduler", "fig9",
             "critical instructions issued over an older ready non-critical one"),
            ("frontend.branch.cond_branches", "cond_branches", "events", "TAGE", "fig8",
             "conditional branches predicted"),
            ("frontend.branch.mispredicts", "branch_mispredicts", "events", "TAGE", "fig8",
             "conditional-branch mispredictions"),
            ("frontend.btb.misses", "btb_misses", "events", "BTB", "fig12",
             "taken branches whose target was absent or stale in the BTB"),
            ("frontend.ras.mispredicts", "ras_mispredicts", "events", "RAS", "fig7",
             "returns whose RAS prediction was wrong"),
            ("memory.demand.loads", "loads", "events", "LSQ/L1D", "fig4",
             "demand loads issued"),
            ("memory.demand.llc_load_misses", "llc_load_misses", "events", "LLC", "fig4",
             "demand loads that missed the LLC (the delinquency signal)"),
            ("memory.demand.store_forwards", "store_forwards", "events", "store buffer",
             "fig4", "loads satisfied by store-to-load forwarding"),
        )
        for name, field_name, unit, owner, figure, desc in spec:
            registry.counter(
                name,
                unit=unit,
                desc=desc,
                owner=owner,
                figure=figure,
                collect=lambda f=field_name: getattr(self, f),
            )

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"cycles={self.cycles} retired={self.retired} IPC={self.ipc:.3f} "
            f"robHeadStall={self.rob_head_stall_cycles} "
            f"brMiss={self.branch_mispredict_rate:.3%} "
            f"llcMPKI={self.llc_mpki():.2f} l1iMPKI={self.l1i_mpki():.3f}"
        )
