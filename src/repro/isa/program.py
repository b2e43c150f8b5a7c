"""Program container and byte-level code layout.

A :class:`Program` is an immutable sequence of :class:`StaticInst` plus a
label table. Code layout (byte addresses) is computed separately by
:meth:`Program.layout` so that the CRISP rewriter can model the one-byte
critical prefix (Section 5.7): laying the same program out with a set of
prefixed PCs shifts every later instruction, changing i-cache line
occupancy, which is exactly the static/dynamic footprint overhead Figure 12
measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instruction import StaticInst
from .opcodes import Opcode

#: Byte address at which program code is laid out (matches typical ELF text).
CODE_BASE = 0x400000

#: Extra bytes added to an instruction encoding by the CRISP critical prefix.
CRITICAL_PREFIX_BYTES = 1


class ProgramError(Exception):
    """Raised for malformed programs (bad targets, missing HALT, ...)."""


@dataclass(frozen=True)
class CodeLayout:
    """Byte-level layout of a program, possibly with critical prefixes.

    ``addresses[i]`` and ``sizes[i]`` give the encoded location of static
    instruction ``i``. ``total_bytes`` is the static code footprint.
    """

    addresses: tuple[int, ...]
    sizes: tuple[int, ...]
    total_bytes: int

    def lines_touched(self, idx: int, line_bytes: int = 64) -> tuple[int, ...]:
        """Cache line addresses covered by instruction ``idx``'s encoding."""
        start = self.addresses[idx]
        end = start + self.sizes[idx] - 1
        first = start // line_bytes
        last = end // line_bytes
        return tuple(line * line_bytes for line in range(first, last + 1))

    def line_probes(self, line_bytes: int) -> list:
        """Per-PC i-cache probes, in the order fetch makes them.

        Entry ``i`` is the line address of instruction ``i``'s first byte,
        or a ``(first, last)`` pair of line addresses when its encoding
        straddles two lines. The array engine's fetch and the functional
        warmer both probe from this table.
        """
        line_mask = ~(line_bytes - 1)
        probes: list = []
        for start, size in zip(self.addresses, self.sizes):
            first = start & line_mask
            last = (start + size - 1) & line_mask
            probes.append(first if first == last else (first, last))
        return probes


class Program:
    """A validated, immutable program in the mini-ISA."""

    def __init__(self, insts: list[StaticInst], labels: dict[str, int] | None = None):
        self._insts = tuple(insts)
        self.labels = dict(labels or {})
        self._validate()

    def _validate(self) -> None:
        n = len(self._insts)
        if n == 0:
            raise ProgramError("empty program")
        for i, inst in enumerate(self._insts):
            if inst.idx != i:
                raise ProgramError(f"instruction {i} has inconsistent idx {inst.idx}")
            if inst.is_branch and not inst.is_ret:
                if inst.target is None:
                    raise ProgramError(f"branch at {i} has no target")
                if not 0 <= inst.target < n:
                    raise ProgramError(f"branch at {i} targets out-of-range {inst.target}")
        if not any(inst.opcode is Opcode.HALT for inst in self._insts):
            raise ProgramError("program has no HALT")

    def __len__(self) -> int:
        return len(self._insts)

    def __getitem__(self, idx: int) -> StaticInst:
        return self._insts[idx]

    def __iter__(self):
        return iter(self._insts)

    @property
    def insts(self) -> tuple[StaticInst, ...]:
        return self._insts

    def pc_kinds(self) -> tuple[bytearray, bytearray]:
        """Per-PC data-access and branch kinds, one byte each.

        ``access[pc]``: 0 no data access, 1 load, 2 store, 3 software
        prefetch. ``branch[pc]``: 0 not a branch, 1 conditional, 2 return,
        3 call, 4 other unconditional -- the dispatch switch of
        ``Pipeline._predict_branch``. The array engine's decode and the
        functional warmer both classify through this one pass.
        """
        access = bytearray(len(self._insts))
        branch = bytearray(len(self._insts))
        for pc, inst in enumerate(self._insts):
            if inst.is_load:
                access[pc] = 1
            elif inst.is_prefetch:
                access[pc] = 3
            elif inst.is_store:
                access[pc] = 2
            if inst.is_branch:
                if inst.is_cond_branch:
                    branch[pc] = 1
                elif inst.is_ret:
                    branch[pc] = 2
                elif inst.is_call:
                    branch[pc] = 3
                else:
                    branch[pc] = 4
        return access, branch

    def layout(self, critical_pcs: frozenset[int] | set[int] = frozenset()) -> CodeLayout:
        """Compute byte addresses, adding the CRISP prefix to ``critical_pcs``.

        Returns a :class:`CodeLayout`. The baseline layout is obtained with an
        empty ``critical_pcs``.
        """
        addresses = []
        sizes = []
        addr = CODE_BASE
        for inst in self._insts:
            size = inst.size + (CRITICAL_PREFIX_BYTES if inst.idx in critical_pcs else 0)
            addresses.append(addr)
            sizes.append(size)
            addr += size
        return CodeLayout(tuple(addresses), tuple(sizes), addr - CODE_BASE)

    def static_bytes(self, critical_pcs: frozenset[int] | set[int] = frozenset()) -> int:
        """Static code footprint in bytes under the given annotation."""
        return self.layout(critical_pcs).total_bytes

    def disassemble(self) -> str:
        """Human-readable listing (labels + instructions)."""
        by_target = {idx: name for name, idx in self.labels.items()}
        lines = []
        for inst in self._insts:
            if inst.idx in by_target:
                lines.append(f"{by_target[inst.idx]}:")
            lines.append(f"  {inst!r}")
        return "\n".join(lines)
