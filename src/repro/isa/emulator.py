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
a link to the dynamic producer of each register source, and for loads
additionally to the producing store, which is how dependencies flow
*through memory* -- e.g. a value spilled to the stack and reloaded, the
case that defeats register-only hardware IBDA (Figure 3, line 31 in the
paper). The trace is held as columns that :func:`execute` appends to, one
entry per dynamic instruction (see :class:`ExecutionTrace`).
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field

from .instruction import DynInst
from .opcodes import (
    ALU_FUNCTIONS,
    BRANCH_CONDITIONS,
    IMMEDIATE_ALU_OPS,
    Opcode,
)
from .program import Program
from .registers import NUM_REGS

#: Fills a producer-link slot past an instruction's arity. A link is the
#: distance back to its producer, and ``seq - NO_LINK`` is negative at
#: every position a trace can reach, as for a value that predates it.
NO_LINK = 1 << 62

#: ``DynInst.taken`` for each byte of the ``taken`` column.
TAKEN = (None, False, True)


class EmulationError(Exception):
    """Raised on illegal execution (bad PC, stack underflow)."""


class EmulationLimitError(EmulationError):
    """Raised when the dynamic instruction limit is exceeded."""


@dataclass
class ExecutionTrace:
    """The result of functionally executing a program, one column per field.

    Entry ``seq`` of each column belongs to dynamic instruction ``seq``, in
    program order:

    * ``pc`` -- its static index (``array('q')``);
    * ``addr`` -- the effective byte address of a memory op, else -1;
    * ``taken`` -- 0 for a non-branch, 1 not taken, 2 taken (:data:`TAKEN`);
    * ``src_dist`` -- three link columns, one per register source in
      ``reg_srcs`` order; the opcode sets how many an instruction uses,
      and :data:`NO_LINK` fills the rest;
    * ``mem_dist`` -- a load's link to the store that produced its value.

    A link is the distance back to its producer, which sits at ``seq -
    distance``. A negative position means the value predates the trace:
    the initial registers and memory image, or, in a
    :class:`~repro.sampling.intervals.TraceSlice`, anything before the
    slice. So a slice is the same columns cut by array slices.

    ``trace[seq]`` and iteration build a :class:`DynInst` on demand, for
    tests, diagnostics and the object engine; ``insts`` is the trace
    itself, for callers of the list of them it once held.
    """

    program: Program
    pc: array
    addr: array
    taken: bytearray
    src_dist: tuple[array, array, array]
    mem_dist: array
    final_regs: list[int]
    halted: bool
    exec_counts: dict[int, int] = field(default_factory=dict)
    # Lazy per-PC index: pc -> positions in the trace. Built on the first
    # per-PC query (one pass over ``pc``) and shared by ``instances_of``,
    # ``dynamic_count`` and the slicer, so repeated per-PC queries never
    # rescan the trace.
    _pc_index: dict[int, list[int]] | None = field(
        default=None, repr=False, compare=False
    )
    # Lazy per-PC register-source count (see src_arity).
    _arity: bytes | None = field(default=None, repr=False, compare=False)

    @property
    def insts(self) -> "ExecutionTrace":
        """The trace itself: a sequence of :class:`DynInst`."""
        return self

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.pc)))

    def __getitem__(self, seq: int) -> DynInst:
        """Dynamic instruction ``seq``, built from the columns."""
        n = len(self.pc)
        if seq < 0:
            seq += n
        if not 0 <= seq < n:
            raise IndexError(f"trace position {seq} out of range")
        pc = self.pc[seq]
        reg_srcs = tuple(
            p if (p := seq - col[seq]) >= 0 else -1
            for col in self.src_dist[:self.src_arity()[pc]]
        )
        mem_src = seq - self.mem_dist[seq]
        return DynInst(seq, self.program.insts[pc], self.addr[seq],
                       TAKEN[self.taken[seq]], reg_srcs,
                       mem_src if mem_src >= 0 else -1)

    def src_arity(self) -> bytes:
        """Per static PC, how many register links its instructions fill
        (the length of their ``reg_srcs``), taken from the opcode."""
        if self._arity is None:
            self._arity = bytes(
                _ARITY[_CODES[s.opcode]] for s in self.program.insts)
        return self._arity

    def pc_links(self) -> list[tuple[array, ...]]:
        """Per static PC, the link columns its instructions fill: one per
        register source, then ``mem_dist`` for a load."""
        arity = self.src_arity()
        return [
            self.src_dist[:arity[pc]] + ((self.mem_dist,) if s.is_load else ())
            for pc, s in enumerate(self.program.insts)
        ]

    def producers(self, seq: int) -> tuple[int, ...]:
        """In-trace producer positions of ``seq``, registers then memory
        (``trace[seq].producers()`` without building the instruction)."""
        return tuple(p for col in (*self.src_dist, self.mem_dist)
                     if (p := seq - col[seq]) >= 0)

    def register_producers(self, seq: int) -> tuple[int, ...]:
        """In-trace register producer positions of ``seq`` (what IBDA sees)."""
        return tuple(p for col in self.src_dist if (p := seq - col[seq]) >= 0)

    def pc_index(self) -> dict[int, list[int]]:
        """The per-PC position index, built lazily on first use.

        Keys come in first-execution order, and each PC's positions in
        trace order.
        """
        if self._pc_index is None:
            index: defaultdict[int, list[int]] = defaultdict(list)
            for seq, pc in enumerate(self.pc):
                index[pc].append(seq)
            self._pc_index = dict(index)
        return self._pc_index

    def dynamic_count(self, pc: int) -> int:
        """Number of times static instruction ``pc`` executed."""
        if self.exec_counts:
            return self.exec_counts.get(pc, 0)
        # Slices carry no exec_counts; fall back to the same lazy index
        # instances_of uses.
        return len(self.pc_index().get(pc, ()))

    def instances_of(self, pc: int) -> list[DynInst]:
        """All dynamic instances of static instruction ``pc`` (in order)."""
        return [self[pos] for pos in self.pc_index().get(pc, ())]

    def pc_after(self, seq: int) -> int:
        """Static PC of the instruction that follows position ``seq``.

        Sampled simulation replays sub-ranges of a trace; a
        :class:`~repro.sampling.intervals.TraceSlice` overrides this to
        answer for its boundary instruction from the parent trace.
        """
        return self.pc[seq + 1]


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

#: Register sources each dispatch code reads, the length of ``reg_srcs``.
_ARITY = {
    _ALU_IMM: 1, _LOAD: 1, _BRANCH: 2, _ALU: 2, _STORE: 2, _MOVI: 0,
    _MOV: 1, _LOAD_IDX: 2, _STORE_IDX: 3, _PREFETCH: 1, _JMP: 0, _CALL: 0,
    _RET: 0, _NOP: 0, _HALT: 0,
}


def _dispatch_table(program: Program) -> list[tuple]:
    """Per-PC ``(code, dst, src1, src2, imm, target, fn)`` rows.

    ``fn`` is the opcode's ALU or branch-condition function, else
    ``None``. One extra ``_OFF_END`` row follows the last PC.
    """
    table = [
        (_CODES[s.opcode], s.dst, s.src1, s.src2, s.imm, s.target,
         ALU_FUNCTIONS.get(s.opcode) or BRANCH_CONDITIONS.get(s.opcode))
        for s in program.insts
    ]
    table.append((_OFF_END, None, None, None, 0, None, None))
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
    branch function; each dynamic instruction then unpacks its PC's row,
    branches on the code and appends one entry to every column.
    ``tests/isa/test_trace_identity.py`` pins every trace this produces,
    errors included.

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

    # Producer tracking for register dependence links. A register no
    # instruction has written links NO_LINK or further back.
    reg_writer = [-NO_LINK] * NUM_REGS

    # The columns, and their appends bound once for the loop.
    pcs, addrs, mems = array("q"), array("q"), array("q")
    src0, src1s, src2s = array("q"), array("q"), array("q")
    takens = bytearray()
    put_pc, put_addr, put_taken = pcs.append, addrs.append, takens.append
    put_s0, put_s1, put_s2 = src0.append, src1s.append, src2s.append
    put_mem = mems.append
    call_stack: list[int] = []
    table = _dispatch_table(program)
    pc = 0
    seq = 0

    while True:
        code, dst, src1, src2, imm, target, fn = table[pc]
        if seq >= max_insts and code != _OFF_END:
            raise EmulationLimitError(
                f"dynamic instruction limit ({max_insts}) exceeded at pc={pc}"
            )
        put_pc(pc)
        # Each branch below sets the fields its opcode has.
        addr = -1
        outcome = 0
        l0 = l1 = l2 = mem = NO_LINK
        if code == _ALU_IMM:
            reg_file[dst] = fn(reg_file[src1], imm)
            l0 = seq - reg_writer[src1]
            reg_writer[dst] = seq
            pc += 1
        elif code == _LOAD:
            addr = reg_file[src1] + imm
            l0 = seq - reg_writer[src1]
            stored = stores_get(addr >> 3)
            if stored is None:
                reg_file[dst] = image_get(addr >> 3, 0)
            else:
                reg_file[dst] = stored[0]
                mem = seq - stored[1]
            reg_writer[dst] = seq
            pc += 1
        elif code == _BRANCH:
            taken = fn(reg_file[src1], reg_file[src2])
            outcome = 2 if taken else 1
            l0 = seq - reg_writer[src1]
            l1 = seq - reg_writer[src2]
            pc = target if taken else pc + 1
        elif code == _ALU:
            reg_file[dst] = fn(reg_file[src1], reg_file[src2])
            l0 = seq - reg_writer[src1]
            l1 = seq - reg_writer[src2]
            reg_writer[dst] = seq
            pc += 1
        elif code == _STORE:
            addr = reg_file[src1] + imm
            stores[addr >> 3] = (reg_file[dst], seq)
            l0 = seq - reg_writer[src1]
            l1 = seq - reg_writer[dst]
            pc += 1
        elif code == _MOVI:
            reg_file[dst] = imm
            reg_writer[dst] = seq
            pc += 1
        elif code == _MOV:
            reg_file[dst] = reg_file[src1]
            l0 = seq - reg_writer[src1]
            reg_writer[dst] = seq
            pc += 1
        elif code == _LOAD_IDX:
            addr = reg_file[src1] + imm
            addr += reg_file[src2]
            l0 = seq - reg_writer[src1]
            l1 = seq - reg_writer[src2]
            stored = stores_get(addr >> 3)
            if stored is None:
                reg_file[dst] = image_get(addr >> 3, 0)
            else:
                reg_file[dst] = stored[0]
                mem = seq - stored[1]
            reg_writer[dst] = seq
            pc += 1
        elif code == _STORE_IDX:
            addr = reg_file[src1] + imm
            addr += reg_file[src2]
            stores[addr >> 3] = (reg_file[dst], seq)
            l0 = seq - reg_writer[src1]
            l1 = seq - reg_writer[src2]
            l2 = seq - reg_writer[dst]
            pc += 1
        elif code == _PREFETCH:
            addr = reg_file[src1] + imm
            l0 = seq - reg_writer[src1]
            pc += 1
        elif code == _JMP:
            outcome = 2
            pc = target
        elif code == _CALL:
            outcome = 2
            call_stack.append(pc + 1)
            pc = target
        elif code == _RET:
            if not call_stack:
                raise EmulationError(f"RET with empty call stack at pc={pc}")
            outcome = 2
            pc = call_stack.pop()
        elif code == _NOP:
            pc += 1
        elif code != _HALT:
            raise EmulationError(f"PC out of range: {pc}")
        put_addr(addr)
        put_taken(outcome)
        put_s0(l0)
        put_s1(l1)
        put_s2(l2)
        put_mem(mem)
        if code == _HALT:
            break
        seq += 1

    # Counter keys come in first-execution order.
    exec_counts = dict(Counter(pcs))
    return ExecutionTrace(
        program=program,
        pc=pcs,
        addr=addrs,
        taken=takens,
        src_dist=(src0, src1s, src2s),
        mem_dist=mems,
        final_regs=reg_file,
        halted=True,
        exec_counts=exec_counts,
    )
