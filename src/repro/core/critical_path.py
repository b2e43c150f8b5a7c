"""Critical-path filtering of slices (Section 3.5).

Large slices would fill the reservation station and leave the scheduler
nothing to deprioritise, so CRISP promotes only the instructions on (or
near) the slice's critical path. The slice DAG's nodes are weighted with
fixed instruction latencies (the paper cites uops.info / Agner Fog tables;
here the ISA's latency metadata) except loads, which use the AMAT measured
by the profiler (Section 3.2). For each node the *aggregated path latency*
through it -- longest leaf-to-node plus longest node-to-root path -- is
compared against the DAG's critical-path length; nodes below
``keep_fraction`` of it are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.emulator import ExecutionTrace
from .profiler import ProfileReport
from .slicer import Slice, SliceDag


@dataclass(frozen=True)
class CriticalPathConfig:
    #: Keep nodes whose through-path is at least this fraction of the
    #: critical path. 1.0 keeps strictly critical instructions only.
    keep_fraction: float = 0.75


def node_latency(trace: ExecutionTrace, seq: int, profile: ProfileReport | None) -> float:
    """Latency weight of one dynamic node: table latency, or AMAT for loads."""
    pc = trace.pc[seq]
    sinst = trace.program.insts[pc]
    if sinst.is_load and profile is not None:
        stats = profile.loads.get(pc)
        if stats is not None and stats.execs:
            return max(stats.amat, float(sinst.latency))
    return float(sinst.latency)


def analyze_dag(
    trace: ExecutionTrace,
    dag: SliceDag,
    profile: ProfileReport | None,
) -> tuple[dict[int, float], float]:
    """Compute per-node through-path latencies and the critical-path length.

    Returns ``(through, critical_length)`` where ``through[seq]`` is the
    longest leaf-to-root path passing through ``seq``.
    """
    lat = {seq: node_latency(trace, seq, profile) for seq in dag.nodes}
    consumers: dict[int, list[int]] = {}
    producers: dict[int, list[int]] = {}
    for p, c in dag.edges:
        if p in dag.nodes and c in dag.nodes:
            consumers.setdefault(p, []).append(c)
            producers.setdefault(c, []).append(p)

    order = sorted(dag.nodes)  # producers always precede consumers in seq

    # Longest path from any leaf down to each node (inclusive).
    from_leaf: dict[int, float] = {}
    for seq in order:
        best = 0.0
        for p in producers.get(seq, ()):
            best = max(best, from_leaf[p])
        from_leaf[seq] = best + lat[seq]

    # Longest path from each node up to the root (inclusive).
    to_root: dict[int, float] = {}
    for seq in reversed(order):
        best = 0.0
        for c in consumers.get(seq, ()):
            best = max(best, to_root[c])
        to_root[seq] = best + lat[seq]

    through = {seq: from_leaf[seq] + to_root[seq] - lat[seq] for seq in dag.nodes}
    critical = max(through.values()) if through else 0.0
    return through, critical


def filter_slice(
    trace: ExecutionTrace,
    slice_: Slice,
    profile: ProfileReport | None = None,
    config: CriticalPathConfig | None = None,
) -> set[int]:
    """Static PCs of ``slice_`` that survive critical-path filtering.

    A PC survives if *any* sampled instance places one of its dynamic
    instances on a near-critical path. The root PC always survives.
    """
    config = config or CriticalPathConfig()
    kept: set[int] = {slice_.root_pc}
    for dag in slice_.dags:
        through, critical = analyze_dag(trace, dag, profile)
        if critical <= 0.0:
            continue
        threshold = config.keep_fraction * critical
        for seq, value in through.items():
            if value >= threshold:
                kept.add(trace.pc[seq])
    # Only PCs that were in the (already merged) slice can be tagged.
    return kept & (slice_.pcs | {slice_.root_pc})
