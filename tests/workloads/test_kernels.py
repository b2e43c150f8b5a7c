"""Workload kernel builders: data-structure construction."""

import random

from repro.isa import Asm, MemoryImage, execute
from repro.workloads.kernels import (
    build_array,
    build_index_array,
    build_linked_list,
    build_offset_cycle,
    emit_dispatch_tree,
    emit_reload_burst,
)


def test_linked_list_terminates_and_covers_all_nodes():
    memory = {}
    rng = random.Random(0)
    addrs = build_linked_list(memory, rng, base=0x1000, num_nodes=50, node_stride=64)
    assert len(addrs) == 50
    seen = set()
    cur = addrs[0]
    while cur:
        assert cur not in seen
        seen.add(cur)
        cur = memory[cur >> 3]
    assert len(seen) == 50


def test_linked_list_order_is_shuffled():
    memory = {}
    rng = random.Random(1)
    addrs = build_linked_list(memory, rng, base=0x1000, num_nodes=100, node_stride=64)
    deltas = {addrs[i + 1] - addrs[i] for i in range(len(addrs) - 1)}
    assert len(deltas) > 10, "traversal deltas must be irregular"


def test_offset_cycle_is_single_full_cycle():
    memory = {}
    rng = random.Random(2)
    stride = 128
    order = build_offset_cycle(memory, rng, base=0x2000, num_slots=64, stride=stride)
    assert sorted(order) == list(range(64))
    cur = order[0]
    for _ in range(64):
        cur = memory[(0x2000 + cur * stride) >> 3]
    assert cur == order[0], "must return to start after exactly N hops"


def test_index_array_within_bounds():
    memory = MemoryImage()
    rng = random.Random(3)
    build_index_array(memory, rng, base=0x3000, num_entries=100, target_entries=500)
    for i in range(100):
        assert 0 <= memory[(0x3000 + 8 * i) >> 3] < 500


def test_array_initialisation():
    memory = MemoryImage()
    build_array(memory, base=0x4000, values=[i * i for i in range(10)])
    assert memory[(0x4000 + 8 * 3) >> 3] == 9
    assert len(memory) == 10


def test_dispatch_tree_reaches_every_handler():
    for n in (2, 3, 4, 7, 8):
        a = Asm()
        a.movi("r1", 0)
        a.movi("r2", n)
        a.movi("r8", 0)
        a.label("loop")
        handlers = [f"h{i}" for i in range(n)]
        emit_dispatch_tree(a, "r1", handlers)
        for i in range(n):
            a.label(f"h{i}")
            a.addi("r8", "r8", 1 << i)  # handler signature
            a.jmp("next")
        a.label("next")
        a.addi("r1", "r1", 1)
        a.blt("r1", "r2", "loop")
        a.halt()
        trace = execute(a.build())
        # Each handler ran exactly once: the signature sum is 2^n - 1.
        assert trace.final_regs[8] == (1 << n) - 1, f"n={n}"


def test_reload_burst_is_load_heavy_and_gated():
    a = Asm()
    a.movi("sp", 0x7FFF0000)
    a.movi("r1", 7)
    a.movi("r10", 0x6000)
    a.store("sp", "r1", 0)
    emit_reload_burst(a, slot=0, reloads=8, consumers=2)
    a.halt()
    program = a.build()
    trace = execute(program)
    loads = [d for d in trace if d.sinst.is_load]
    assert len(loads) == 8
    spill_seq = next(d.seq for d in trace if d.sinst.is_store)
    for load in loads:
        assert load.mem_src == spill_seq, "burst must be gated on the spill"
