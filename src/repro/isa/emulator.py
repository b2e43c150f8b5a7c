"""Functional emulator: executes a program and records a dynamic trace.

The emulator is the reproduction's stand-in for running the real binary.
Its output, an :class:`ExecutionTrace`, plays two roles:

1. It is the *dynamic instruction stream* the cycle-level timing model
   (:mod:`repro.uarch.pipeline`) replays, including effective addresses and
   branch outcomes.
2. It is the *instruction trace with memory dependencies* that CRISP's
   software slice extraction consumes (the paper uses DynamoRIO memtrace, or
   Intel PT with PTWrite for memory dependencies -- Section 3.3).

Dependencies are recorded exactly: for every dynamic instruction we store
the sequence numbers of the dynamic producers of each register source, and
for loads additionally the producing store (``mem_src``), which is how
dependencies flow *through memory* -- e.g. a value spilled to the stack and
reloaded, the case that defeats register-only hardware IBDA (Figure 3,
line 31 in the paper).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter

from .instruction import DynInst
from .opcodes import (
    ALU_FUNCTIONS,
    BRANCH_CONDITIONS,
    IMMEDIATE_ALU_OPS,
    Opcode,
)
from .program import Program
from .registers import NUM_REGS


class EmulationError(Exception):
    """Raised on illegal execution (bad PC, stack underflow)."""


class EmulationLimitError(EmulationError):
    """Raised when the dynamic instruction limit is exceeded."""


@dataclass
class ExecutionTrace:
    """The result of functionally executing a program.

    ``insts`` is the full dynamic instruction stream in program order.
    """

    program: Program
    insts: list[DynInst]
    final_regs: list[int]
    halted: bool
    exec_counts: dict[int, int] = field(default_factory=dict)
    # Lazy per-PC index: pc -> positions in ``insts``. Built on the first
    # per-PC query (one scan) and shared by ``instances_of``,
    # ``dynamic_count`` and the slicer, so repeated per-PC queries never
    # rescan the dynamic stream.
    _pc_index: dict[int, list[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.insts)

    def __iter__(self):
        return iter(self.insts)

    def __getitem__(self, seq: int) -> DynInst:
        return self.insts[seq]

    def pc_index(self) -> dict[int, list[int]]:
        """The per-PC position index, built lazily on first use.

        Positions are read from each instruction's ``seq``, which equals its
        position in every trace :func:`execute` and
        :func:`~repro.sampling.intervals.slice_trace` produce; the index
        then shares the trace's own int objects instead of allocating one
        per entry.
        """
        if self._pc_index is None:
            index: dict[int, list[int]] = {}
            for d in self.insts:
                index.setdefault(d.pc, []).append(d.seq)
            self._pc_index = index
        return self._pc_index

    def dynamic_count(self, pc: int) -> int:
        """Number of times static instruction ``pc`` executed."""
        if self.exec_counts:
            return self.exec_counts.get(pc, 0)
        # Hand-built traces (tests) may omit exec_counts; fall back to the
        # same lazy index instances_of uses.
        return len(self.pc_index().get(pc, ()))

    def instances_of(self, pc: int) -> list[DynInst]:
        """All dynamic instances of static instruction ``pc`` (in order)."""
        insts = self.insts
        return [insts[pos] for pos in self.pc_index().get(pc, ())]

    def pc_after(self, seq: int) -> int:
        """Static PC of the instruction that follows position ``seq``.

        Sampled simulation replays sub-ranges of a trace; a
        :class:`~repro.sampling.intervals.TraceSlice` overrides this to
        answer for its boundary instruction from the parent trace.
        """
        return self.insts[seq + 1].pc


#: Dispatch codes of the per-PC table :func:`execute` builds, one per
#: opcode class. ``_OFF_END`` marks the slot one past the last PC, the
#: only out-of-range PC a validated program can reach (a fall-through
#: or a return past its last instruction).
(_ALU_IMM, _LOAD, _BRANCH, _ALU, _STORE, _MOVI, _MOV, _LOAD_IDX, _STORE_IDX,
 _PREFETCH, _JMP, _CALL, _RET, _NOP, _HALT, _OFF_END) = range(16)

_CODES = {
    **{op: _ALU_IMM if op in IMMEDIATE_ALU_OPS else _ALU for op in ALU_FUNCTIONS},
    **{op: _BRANCH for op in BRANCH_CONDITIONS},
    Opcode.MOVI: _MOVI,
    Opcode.MOV: _MOV,
    Opcode.LOAD: _LOAD,
    Opcode.LOAD_IDX: _LOAD_IDX,
    Opcode.STORE: _STORE,
    Opcode.STORE_IDX: _STORE_IDX,
    Opcode.PREFETCH: _PREFETCH,
    Opcode.JMP: _JMP,
    Opcode.CALL: _CALL,
    Opcode.RET: _RET,
    Opcode.NOP: _NOP,
    Opcode.HALT: _HALT,
}

#: A ``DynInst``'s static PC, read at C speed to count executions.
_static_pc = attrgetter("sinst.idx")


def _dispatch_table(program: Program) -> list[tuple]:
    """Per-PC ``(code, dst, src1, src2, imm, target, fn, sinst)`` rows.

    ``fn`` is the opcode's ALU or branch-condition function, else
    ``None``. One extra ``_OFF_END`` row follows the last PC.
    """
    table = [
        (_CODES[s.opcode], s.dst, s.src1, s.src2, s.imm, s.target,
         ALU_FUNCTIONS.get(s.opcode) or BRANCH_CONDITIONS.get(s.opcode), s)
        for s in program.insts
    ]
    table.append((_OFF_END, None, None, None, 0, None, None, None))
    return table


def execute(
    program: Program,
    *,
    regs: dict[int, int] | None = None,
    memory: Mapping[int, int] | None = None,
    max_insts: int = 5_000_000,
) -> ExecutionTrace:
    """Functionally execute ``program`` and return its dynamic trace.

    The static program is first lowered, once per call, into a per-PC
    table of a small-int dispatch code, the operands and the ALU or
    branch function; each dynamic instruction then unpacks its PC's row
    and branches on the code. ``tests/isa/test_trace_identity.py`` pins
    every trace this produces, errors included.

    Parameters
    ----------
    regs:
        Initial architectural register values, ``{reg_index: value}``.
    memory:
        Initial memory image keyed by *word* address (byte address >> 3):
        a dict or a :class:`~repro.isa.image.MemoryImage`. It is only
        read, never copied or mutated: stores go to a private overlay that
        loads consult first.
    max_insts:
        Safety bound on the number of dynamic instructions.
    """
    reg_file = [0] * NUM_REGS
    for idx, value in (regs or {}).items():
        reg_file[idx] = value
    image_get = ({} if memory is None else memory).get
    # Store overlay: word -> (value, seq of the producing store).
    stores: dict[int, tuple[int, int]] = {}
    stores_get = stores.get

    # Producer tracking for register dependence links.
    reg_writer = [-1] * NUM_REGS

    trace: list[DynInst] = []
    append = trace.append
    call_stack: list[int] = []
    table = _dispatch_table(program)
    pc = 0
    seq = 0

    while True:
        code, dst, src1, src2, imm, target, fn, sinst = table[pc]
        if seq >= max_insts and code != _OFF_END:
            raise EmulationLimitError(
                f"dynamic instruction limit ({max_insts}) exceeded at pc={pc}"
            )
        if code == _ALU_IMM:
            reg_file[dst] = fn(reg_file[src1], imm)
            append(DynInst(seq, sinst, -1, None, (reg_writer[src1],)))
            reg_writer[dst] = seq
            pc += 1
        elif code == _LOAD:
            addr = reg_file[src1] + imm
            stored = stores_get(addr >> 3)
            if stored is None:
                reg_file[dst] = image_get(addr >> 3, 0)
                append(DynInst(seq, sinst, addr, None, (reg_writer[src1],)))
            else:
                reg_file[dst] = stored[0]
                append(DynInst(seq, sinst, addr, None, (reg_writer[src1],),
                               stored[1]))
            reg_writer[dst] = seq
            pc += 1
        elif code == _BRANCH:
            taken = fn(reg_file[src1], reg_file[src2])
            append(DynInst(seq, sinst, -1, taken,
                           (reg_writer[src1], reg_writer[src2])))
            pc = target if taken else pc + 1
        elif code == _ALU:
            reg_file[dst] = fn(reg_file[src1], reg_file[src2])
            append(DynInst(seq, sinst, -1, None,
                           (reg_writer[src1], reg_writer[src2])))
            reg_writer[dst] = seq
            pc += 1
        elif code == _STORE:
            addr = reg_file[src1] + imm
            stores[addr >> 3] = (reg_file[dst], seq)
            append(DynInst(seq, sinst, addr, None,
                           (reg_writer[src1], reg_writer[dst])))
            pc += 1
        elif code == _MOVI:
            reg_file[dst] = imm
            append(DynInst(seq, sinst))
            reg_writer[dst] = seq
            pc += 1
        elif code == _MOV:
            reg_file[dst] = reg_file[src1]
            append(DynInst(seq, sinst, -1, None, (reg_writer[src1],)))
            reg_writer[dst] = seq
            pc += 1
        elif code == _LOAD_IDX:
            addr = reg_file[src1] + imm
            addr += reg_file[src2]
            reg_srcs = (reg_writer[src1], reg_writer[src2])
            stored = stores_get(addr >> 3)
            if stored is None:
                reg_file[dst] = image_get(addr >> 3, 0)
                append(DynInst(seq, sinst, addr, None, reg_srcs))
            else:
                reg_file[dst] = stored[0]
                append(DynInst(seq, sinst, addr, None, reg_srcs, stored[1]))
            reg_writer[dst] = seq
            pc += 1
        elif code == _STORE_IDX:
            addr = reg_file[src1] + imm
            addr += reg_file[src2]
            stores[addr >> 3] = (reg_file[dst], seq)
            append(DynInst(seq, sinst, addr, None, (
                reg_writer[src1], reg_writer[src2], reg_writer[dst])))
            pc += 1
        elif code == _PREFETCH:
            append(DynInst(seq, sinst, reg_file[src1] + imm, None,
                           (reg_writer[src1],)))
            pc += 1
        elif code == _JMP:
            append(DynInst(seq, sinst, -1, True))
            pc = target
        elif code == _CALL:
            append(DynInst(seq, sinst, -1, True))
            call_stack.append(pc + 1)
            pc = target
        elif code == _RET:
            if not call_stack:
                raise EmulationError(f"RET with empty call stack at pc={pc}")
            append(DynInst(seq, sinst, -1, True))
            pc = call_stack.pop()
        elif code == _NOP:
            append(DynInst(seq, sinst))
            pc += 1
        elif code == _HALT:
            append(DynInst(seq, sinst))
            break
        else:
            raise EmulationError(f"PC out of range: {pc}")
        seq += 1

    # Counter keys come in first-execution order.
    exec_counts = dict(Counter(map(_static_pc, trace)))
    return ExecutionTrace(
        program=program,
        insts=trace,
        final_regs=reg_file,
        halted=True,
        exec_counts=exec_counts,
    )
