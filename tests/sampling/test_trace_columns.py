"""Trace columns against the per-``DynInst`` view they replaced.

``slice_trace`` cuts every column of a trace with an array slice: a
producer link is a distance back, so positions rebase to the slice with no
per-instruction work, and a link that reaches before the slice lands on a
negative position. The reference here is the slicer the columns replaced,
which copied each ``DynInst`` of the range with its position and every
producer rebased, and producers before the slice mapped to -1. The per-PC
queries (``pc_index``, ``exec_counts``, ``dynamic_count``, ``pc_after``)
and the producer queries the slicer and the engines read are checked
against a walk over ``trace[seq]``.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from hypothesis import given, settings, strategies as st

from repro.isa import DynInst
from repro.sampling import slice_trace
from repro.workloads import REGISTRY

#: Scale-0.1 inputs with calls and returns, spills reloaded through memory
#: (load-to-store links), indexed stores (three register links) and
#: software prefetches between them.
NAMES = ("mcf", "xz", "perlbench", "gcc", "memcached", "deepsjeng")


@cache
def _trace(name: str):
    return REGISTRY.build(name, variant="ref", scale=0.1).trace()


def reference_slice(trace, start: int, end: int) -> list[DynInst]:
    """Positions ``[start, end)`` as the per-``DynInst`` slicer made them."""
    sliced = []
    for pos in range(start, end):
        d = trace[pos]
        sliced.append(DynInst(
            pos - start,
            d.sinst,
            addr=d.addr,
            taken=d.taken,
            reg_srcs=tuple(s - start if s >= start else -1 for s in d.reg_srcs),
            mem_src=d.mem_src - start if d.mem_src >= start else -1,
        ))
    return sliced


def fields(d: DynInst) -> tuple:
    return (d.seq, d.sinst, d.addr, d.taken, d.reg_srcs, d.mem_src)


@st.composite
def ranges(draw):
    """A trace and a ``[start, end)`` range of it, short ones as likely as
    long ones, so slice boundaries fall inside dependence chains."""
    trace = _trace(draw(st.sampled_from(NAMES)))
    n = len(trace)
    start = draw(st.integers(0, n - 1))
    length = draw(st.one_of(st.integers(1, 64), st.integers(1, n - start)))
    return trace, start, min(n, start + length)


@given(ranges())
@settings(max_examples=60, deadline=None)
def test_slice_equals_per_dyninst_rebasing(case):
    trace, start, end = case
    sl = slice_trace(trace, start, end)
    assert len(sl) == end - start
    assert [fields(d) for d in sl] == [
        fields(d) for d in reference_slice(trace, start, end)]
    assert sl.boundary_pc == (trace[end].pc if end < len(trace) else -1)
    if end < len(trace):
        assert sl.pc_after(len(sl) - 1) == trace[end].pc
    assert sl.halted == (end == len(trace))
    for seq in range(len(sl)):
        d = sl[seq]
        assert sl.producers(seq) == d.producers()
        assert sl.register_producers(seq) == d.register_producers()


@given(ranges())
@settings(max_examples=40, deadline=None)
def test_per_pc_queries_equal_a_walk_over_instructions(case):
    trace, start, end = case
    for view in (trace, slice_trace(trace, start, end)):
        walked: dict[int, list[int]] = {}
        for d in view:
            walked.setdefault(d.pc, []).append(d.seq)
        index = view.pc_index()
        assert list(index.items()) == list(walked.items())
        for pc in range(len(view.program)):
            assert view.dynamic_count(pc) == len(walked.get(pc, ()))
        for seq in range(len(view) - 1):
            assert view.pc_after(seq) == view[seq + 1].pc
    counts = Counter(d.pc for d in trace)
    assert list(trace.exec_counts.items()) == list(counts.items())
