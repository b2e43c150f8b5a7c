"""Mini-ISA substrate: opcodes, programs, assembler, functional emulator."""

from .assembler import Asm
from .emulator import EmulationError, EmulationLimitError, ExecutionTrace, execute
from .image import MemoryImage
from .instruction import DynInst, StaticInst
from .opcodes import FuClass, Opcode, OpInfo, info
from .program import CODE_BASE, CRITICAL_PREFIX_BYTES, CodeLayout, Program, ProgramError
from .registers import FP, NUM_REGS, SP, parse_reg, reg_name

__all__ = [
    "Asm",
    "CODE_BASE",
    "CRITICAL_PREFIX_BYTES",
    "CodeLayout",
    "DynInst",
    "EmulationError",
    "EmulationLimitError",
    "ExecutionTrace",
    "FP",
    "FuClass",
    "MemoryImage",
    "NUM_REGS",
    "Opcode",
    "OpInfo",
    "Program",
    "ProgramError",
    "SP",
    "StaticInst",
    "execute",
    "info",
    "parse_reg",
    "reg_name",
]
