"""Static and dynamic instruction representations.

A :class:`StaticInst` is one instruction of a program (one per program
counter). A :class:`DynInst` is one executed instance of a static
instruction, produced by the functional emulator, and carries the *data
dependence* links (through registers and through memory) that both the
timing model and the CRISP slicer consume. The memory links are the
capability the paper highlights over hardware IBDA, which can only observe
register dependencies (Section 3.5).
"""

from __future__ import annotations

from .opcodes import FuClass, Opcode, OpInfo, info
from .registers import reg_name


class StaticInst:
    """One static instruction (one PC) of a program.

    Operand conventions:

    * ``dst``  -- destination register, or for stores the *value* register.
    * ``src1`` -- first source register (base register for memory ops).
    * ``src2`` -- second source register (index register for ``*_IDX`` ops),
      or ``None``.
    * ``imm``  -- immediate / displacement.
    * ``target`` -- static index of the branch target (branches only).
    """

    __slots__ = ("idx", "opcode", "dst", "src1", "src2", "imm", "target", "_info")

    def __init__(
        self,
        idx: int,
        opcode: Opcode,
        dst: int | None = None,
        src1: int | None = None,
        src2: int | None = None,
        imm: int = 0,
        target: int | None = None,
    ):
        self.idx = idx
        self.opcode = opcode
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.imm = imm
        self.target = target
        self._info: OpInfo = info(opcode)

    # -- metadata passthrough ------------------------------------------------

    @property
    def fu(self) -> FuClass:
        return self._info.fu

    @property
    def latency(self) -> int:
        return self._info.latency

    @property
    def size(self) -> int:
        return self._info.size

    @property
    def is_load(self) -> bool:
        return self._info.reads_mem

    @property
    def is_store(self) -> bool:
        return self._info.writes_mem

    @property
    def is_branch(self) -> bool:
        return self._info.is_branch

    @property
    def is_cond_branch(self) -> bool:
        return self._info.is_cond

    @property
    def is_call(self) -> bool:
        return self.opcode is Opcode.CALL

    @property
    def is_ret(self) -> bool:
        return self.opcode is Opcode.RET

    @property
    def is_prefetch(self) -> bool:
        return self.opcode is Opcode.PREFETCH

    @property
    def writes_reg(self) -> bool:
        return self._info.writes_reg

    def src_regs(self) -> tuple[int, ...]:
        """Architectural registers this instruction reads."""
        srcs = []
        if self.src1 is not None:
            srcs.append(self.src1)
        if self.src2 is not None:
            srcs.append(self.src2)
        if self.is_store and self.dst is not None:
            # Stores read their value operand (held in ``dst``).
            srcs.append(self.dst)
        return tuple(srcs)

    def dst_reg(self) -> int | None:
        """Architectural register this instruction writes, or ``None``."""
        return self.dst if self._info.writes_reg else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.opcode.value]
        if self.dst is not None:
            parts.append(reg_name(self.dst))
        if self.src1 is not None:
            parts.append(reg_name(self.src1))
        if self.src2 is not None:
            parts.append(reg_name(self.src2))
        if self.imm:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"->{self.target}")
        return f"<{self.idx}: {' '.join(parts)}>"


class DynInst:
    """One dynamic (executed) instance of a static instruction.

    ``reg_srcs`` holds the sequence numbers of the dynamic instructions that
    produced each register source operand (``-1`` when the value predates the
    trace). ``mem_src`` is the sequence number of the store that produced the
    loaded value, or ``-1`` when the location was part of the initial memory
    image. ``addr`` is the effective byte address for memory ops.
    """

    __slots__ = ("seq", "sinst", "addr", "taken", "reg_srcs", "mem_src")

    def __init__(
        self,
        seq: int,
        sinst: StaticInst,
        addr: int = -1,
        taken: bool | None = None,
        reg_srcs: tuple[int, ...] = (),
        mem_src: int = -1,
    ):
        self.seq = seq
        self.sinst = sinst
        self.addr = addr
        self.taken = taken
        self.reg_srcs = reg_srcs
        self.mem_src = mem_src

    @property
    def pc(self) -> int:
        """Static index (the PC identity used for profiling and slicing)."""
        return self.sinst.idx

    def producers(self) -> tuple[int, ...]:
        """Sequence numbers of all producers, registers then memory."""
        if self.mem_src >= 0:
            return tuple(s for s in self.reg_srcs if s >= 0) + (self.mem_src,)
        return tuple(s for s in self.reg_srcs if s >= 0)

    def register_producers(self) -> tuple[int, ...]:
        """Sequence numbers of register producers only (what IBDA can see)."""
        return tuple(s for s in self.reg_srcs if s >= 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<dyn {self.seq} pc={self.pc} {self.sinst.opcode.value}>"
