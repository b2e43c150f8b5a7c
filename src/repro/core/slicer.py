"""Backward slice extraction (Sections 3.3 and 3.4).

Given a delinquent load (or hard branch), the slicer walks the dynamic
trace backwards along data dependencies -- through registers *and* through
memory -- collecting the instructions that combine to produce the root's
address (or branch condition). The frontier algorithm and its termination
rules follow Section 3.3 exactly:

1. the ancestor instruction is already contained in the load slice
   (static-PC dedup; this is what terminates loop-carried recursion, as in
   the Figure 3 walkthrough where ``0x15da``'s ancestor ``0x15e1`` is
   already in the slice),
2. the source operand is a constant (no ancestor),
3. the ancestor is a system-call return (the mini-ISA has no syscalls; the
   rule is represented by the trace-boundary check),
4. the beginning of the trace is reached.

Two sizes are distinguished, because the paper uses both:

* the *static* slice -- unique tagged PCs (what the rewriter annotates and
  Figure 11 counts),
* the *dynamic* slice -- the full backward dependence cone of one instance
  without PC dedup (what a hardware slice buffer would have to hold;
  Figure 4 plots its average, often far beyond ROB size).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from ..isa.emulator import ExecutionTrace


@dataclass
class SliceDag:
    """The dependence DAG of one dynamic slice instance.

    ``edges`` are (producer_seq, consumer_seq) pairs; all sequence numbers
    are members of ``nodes``; ``root_seq`` is the delinquent instance.
    """

    root_seq: int
    nodes: set[int] = field(default_factory=set)
    edges: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class Slice:
    """Merged extraction result for one root PC (Figure 5's merge step)."""

    root_pc: int
    kind: str  # "load" | "branch"
    pcs: set[int] = field(default_factory=set)
    dags: list[SliceDag] = field(default_factory=list)
    #: The trace the DAGs were sliced from, and the per-instance node cap:
    #: what :attr:`dynamic_sizes` measures the cones on.
    trace: ExecutionTrace | None = field(default=None, repr=False, compare=False)
    max_nodes: int = 4096

    @property
    def static_size(self) -> int:
        return len(self.pcs)

    @cached_property
    def dynamic_sizes(self) -> list[int]:
        """Each instance's full dependence-cone size (Figure 4), capped.

        Only Figure 4 and the reports read these, and the annotation never
        does, so the cones are walked on first read rather than while
        slicing.
        """
        if self.trace is None:
            return []
        return [
            dynamic_cone_size(self.trace, dag.root_seq, self.max_nodes)
            for dag in self.dags
        ]

    @property
    def avg_dynamic_size(self) -> float:
        if not self.dynamic_sizes:
            return 0.0
        return sum(self.dynamic_sizes) / len(self.dynamic_sizes)


def sample_instances(trace: ExecutionTrace, pc: int, count: int) -> list[int]:
    """Up to ``count`` dynamic instances of ``pc``, sampled across the run.

    Sampling is uniform-random with a per-PC deterministic seed rather
    than strided: a fixed stride aliases with periodic call-site
    rotation (e.g. a root called from N blocks where the stride shares
    a factor with N samples only N/gcd of them), which would leave
    whole call paths out of the merged slice.
    """
    instances = trace.pc_index().get(pc, [])
    if len(instances) <= count:
        return list(instances)
    rng = random.Random(0x5EED ^ pc)
    return sorted(rng.sample(instances, count))


def _slice_instance(
    trace: ExecutionTrace, root_seq: int, max_nodes: int
) -> tuple[SliceDag, set[int]]:
    """Extract one instance's slice DAG and its static PC set."""
    pcs = trace.pc
    producers = trace.producers
    dag = SliceDag(root_seq, nodes={root_seq})
    slice_pcs = {pcs[root_seq]}
    frontier: deque[int] = deque([root_seq])
    while frontier:
        seq = frontier.popleft()
        for producer in producers(seq):
            dag.edges.append((producer, seq))
            if producer in dag.nodes:
                continue
            dag.nodes.add(producer)
            ancestor_pc = pcs[producer]
            if ancestor_pc in slice_pcs:
                # Rule 1: static instruction already in the slice; keep the
                # node for DAG completeness but stop recursing.
                continue
            slice_pcs.add(ancestor_pc)
            if len(dag.nodes) >= max_nodes:
                frontier.clear()
                break
            frontier.append(producer)
    return dag, slice_pcs


def dynamic_cone_size(trace: ExecutionTrace, root_seq: int, max_nodes: int = 4096) -> int:
    """Size of the full backward dependence cone (no PC dedup), capped.

    This is the quantity Figure 4 reports: how many dynamic instructions a
    hardware slice mechanism would have to track per delinquent load.
    """
    visited = {root_seq}
    frontier: deque[int] = deque([root_seq])
    while frontier:
        seq = frontier.popleft()
        for producer in trace.producers(seq):
            if producer in visited:
                continue
            visited.add(producer)
            if len(visited) >= max_nodes:
                return max_nodes
            frontier.append(producer)
    return len(visited)


def extract_slice(
    trace: ExecutionTrace,
    root_pc: int,
    *,
    kind: str = "load",
    max_instances: int = 6,
    max_nodes_per_instance: int = 4096,
) -> Slice:
    """Extract and merge the slice of ``root_pc`` over sampled instances.

    Multiple dynamic instances are sliced and merged (Section 4.1: "merging
    code slices that refer to the same delinquent load instruction") so the
    static slice covers all paths that feed the root.
    """
    result = Slice(root_pc=root_pc, kind=kind, trace=trace,
                   max_nodes=max_nodes_per_instance)
    for root_seq in sample_instances(trace, root_pc, max_instances):
        dag, pcs = _slice_instance(trace, root_seq, max_nodes_per_instance)
        result.dags.append(dag)
        result.pcs |= pcs
    return result
