"""Functional emulator: semantics and dependence recording."""

from array import array

import pytest

from repro.isa import Asm, EmulationError, EmulationLimitError, execute
from repro.isa.opcodes import Opcode


def test_loop_executes_correct_count(tiny_loop_program):
    trace = execute(tiny_loop_program)
    assert trace.halted
    assert trace.final_regs[1] == 20
    # addi executes 20 times, blt 20 times, movi 2, halt 1.
    assert len(trace) == 43
    assert trace.dynamic_count(2) == 20


def test_register_dependences_recorded(tiny_loop_program):
    trace = execute(tiny_loop_program)
    addis = [d for d in trace if d.sinst.opcode is Opcode.ADDI]
    # First addi depends on movi (seq 0); later addis depend on prior addi.
    assert addis[0].reg_srcs == (0,)
    for prev, cur in zip(addis, addis[1:]):
        assert cur.reg_srcs == (prev.seq,)


def test_memory_dependence_through_stack(store_load_program):
    trace = execute(store_load_program)
    store = next(d for d in trace if d.sinst.is_store)
    load = next(d for d in trace if d.sinst.is_load)
    assert load.mem_src == store.seq
    assert store.seq in load.producers()
    # Register-only view (what IBDA sees) omits the memory producer.
    assert store.seq not in load.register_producers()
    assert trace.final_regs[2] == 42
    assert trace.final_regs[3] == 43


def test_load_from_initial_memory_has_no_mem_src():
    a = Asm()
    a.movi("r1", 0x1000)
    a.load("r2", "r1", 0)
    a.halt()
    trace = execute(a.build(), memory={0x1000 >> 3: 99})
    load = trace[1]
    assert load.mem_src == -1
    assert trace.final_regs[2] == 99


def test_effective_addresses_recorded():
    a = Asm()
    a.movi("r1", 0x2000)
    a.movi("r2", 0x10)
    a.load("r3", "r1", 8)
    a.load_idx("r4", "r1", "r2", 4)
    a.halt()
    trace = execute(a.build())
    assert trace[2].addr == 0x2008
    assert trace[3].addr == 0x2000 + 0x10 + 4


def test_branch_taken_flags():
    a = Asm()
    a.movi("r1", 1)
    a.beq("r1", "r0", "skip")  # not taken
    a.bne("r1", "r0", "skip")  # taken
    a.movi("r9", 111)  # skipped
    a.label("skip")
    a.halt()
    trace = execute(a.build())
    branches = [d for d in trace if d.sinst.is_cond_branch]
    assert [b.taken for b in branches] == [False, True]
    assert trace.final_regs[9] == 0


def test_call_ret_flow():
    a = Asm()
    a.movi("r1", 1)
    a.call("fn")
    a.addi("r1", "r1", 100)  # executes after return
    a.halt()
    a.label("fn")
    a.addi("r1", "r1", 10)
    a.ret()
    trace = execute(a.build())
    assert trace.final_regs[1] == 111
    rets = [d for d in trace if d.sinst.is_ret]
    assert len(rets) == 1 and rets[0].taken


def test_ret_without_call_raises():
    a = Asm()
    a.ret()
    a.halt()
    with pytest.raises(EmulationError, match="empty call stack"):
        execute(a.build())


def test_instruction_limit_enforced():
    a = Asm()
    a.label("forever")
    a.jmp("forever")
    a.halt()
    with pytest.raises(EmulationLimitError):
        execute(a.build(), max_insts=100)


def test_prefetch_has_address_but_no_memory_effect():
    a = Asm()
    a.movi("r1", 0x3000)
    a.prefetch("r1", 64)
    a.load("r2", "r1", 64)
    a.halt()
    trace = execute(a.build(), memory={(0x3000 + 64) >> 3: 7})
    pf = trace[1]
    assert pf.sinst.is_prefetch
    assert pf.addr == 0x3040
    assert trace.final_regs[2] == 7


def test_initial_memory_not_mutated():
    a = Asm()
    a.movi("r1", 0x100)
    a.movi("r2", 5)
    a.store("r1", "r2", 0)
    a.halt()
    image = {0x100 >> 3: 1}
    execute(a.build(), memory=image)
    assert image == {0x100 >> 3: 1}


def test_store_then_load_overwrite_order():
    a = Asm()
    a.movi("r1", 0x100)
    a.movi("r2", 5)
    a.movi("r3", 9)
    a.store("r1", "r2", 0)
    a.store("r1", "r3", 0)
    a.load("r4", "r1", 0)
    a.halt()
    trace = execute(a.build())
    load = trace[5]
    assert trace.final_regs[4] == 9
    assert load.mem_src == 4  # the second store


class _ScanCountingColumn(array):
    """Spy: counts full iterations over the ``pc`` column."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_instances_of_builds_pc_index_once(tiny_loop_program):
    """Repeated instances_of/dynamic_count calls must not rescan the trace:
    both share one lazy per-PC index. The index is built from the ``pc``
    column, so the spy counts passes over it."""
    trace = execute(tiny_loop_program)
    spy = _ScanCountingColumn("q", trace.pc)
    trace.pc = spy
    trace._pc_index = None  # force a fresh build through the spy

    first = trace.instances_of(2)
    after_one = spy.scans
    assert after_one <= 1
    second = trace.instances_of(2)
    trace.instances_of(4)
    count = len(trace.pc_index().get(2, ()))
    assert spy.scans == after_one  # no further scans: index is reused
    # Instances are built on demand, so compare what they hold.
    assert [(d.seq, d.pc) for d in first] == [(d.seq, d.pc) for d in second]
    assert len(first) == 20
    assert count == 20


def test_pc_index_matches_dynamic_counts(tiny_loop_program):
    trace = execute(tiny_loop_program)
    for pc in range(len(tiny_loop_program)):
        assert len(trace.instances_of(pc)) == trace.dynamic_count(pc)
    for pos in trace.pc_index().get(2, ()):
        assert trace.insts[pos].pc == 2


def test_pc_after_returns_next_dynamic_pc(tiny_loop_program):
    trace = execute(tiny_loop_program)
    for seq in range(len(trace.insts) - 1):
        assert trace.pc_after(seq) == trace.insts[seq + 1].pc
