"""A trace holds a few machine words per dynamic instruction.

``execute`` appends each instruction's PC, address, branch outcome and
four producer links to columns: 49 bytes per instruction, and no object
per instruction for the cyclic garbage collector to track. A list of one
``DynInst`` and its ``reg_srcs`` tuple per instruction held 189 B per
instruction for xz ``ref`` at scale 1.0, and the collector tracked each
``DynInst``.
"""

import gc
import tracemalloc

from repro.isa import execute
from repro.workloads import REGISTRY

#: Traced bytes a trace may keep alive per dynamic instruction.
BYTES_PER_INST = 64


def _emulate(workload):
    return execute(workload.program, regs=workload.regs, memory=workload.memory)


def test_trace_keeps_at_most_64_bytes_per_instruction():
    workload = REGISTRY.build("xz", variant="ref", scale=1.0)
    _emulate(workload)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        trace = _emulate(workload)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) > 30_000
    per_inst = held / len(trace)
    assert per_inst <= BYTES_PER_INST, f"{per_inst:.0f} B per instruction"


def test_trace_adds_no_object_per_instruction_to_the_collector():
    workload = REGISTRY.build("xz", variant="ref", scale=1.0)
    gc.collect()
    before = len(gc.get_objects())
    trace = _emulate(workload)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert tracked < 100, f"{tracked} tracked objects for {len(trace)} insts"
