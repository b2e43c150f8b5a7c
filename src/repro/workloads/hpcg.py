"""xhpcg analogue: sparse CG building blocks (SpMV gathers + SymGS sweep).

HPCG's time is dominated by CSR sparse matrix-vector products whose
``x[col[j]]`` gathers miss the cache (x exceeds the LLC), plus a symmetric
Gauss-Seidel smoother whose forward sweep updates ``x`` *in place*: each
row's pivot gather depends on the previous row's computed value *through
memory* (store -> reload across rows). That memory-carried slice is what
register-only IBDA cannot track (Section 5.2: "in namd and Xhpcg, IBDA
misses important load slices").

Per row the analogue issues one *dependent* pivot gather (the critical,
serial access, carried through memory), a volley of independent SpMV
gathers (the row's honest memory-level parallelism), and a load burst
gated on the pivot. xhpcg is the suite's bandwidth-leaning case: the
volley competes with the prioritised pivot for DRAM banks and the bus, so
CRISP's measured gain here is small -- scheduling priority cannot create
bus bandwidth. (The paper's Scarab setup reports larger xhpcg gains; see
EXPERIMENTS.md for the deviation discussion.)
"""

from __future__ import annotations

from ..isa.assembler import Asm
from ..isa.image import MemoryImage
from .base import HEAP, HEAP2, HEAP3, REGISTRY, STACK, TABLE, Workload, is_ref, scaled, variant_rng
from .kernels import build_array, build_index_array, emit_reload_burst, random_words


def build_xhpcg(
    variant: str = "ref", scale: float = 1.0, *, gathers_per_row: int = 6
) -> Workload:
    rng = variant_rng(variant, salt=13)
    memory = MemoryImage()
    rows = scaled(380 if is_ref(variant) else 310, scale)
    x_entries = 1 << 18  # 2 MiB vector: gathers miss
    build_array(memory, base=TABLE, values=random_words(rng, x_entries, 0, x_entries))
    build_index_array(
        memory, rng, base=HEAP, num_entries=rows * gathers_per_row, target_entries=x_entries
    )
    build_array(memory, base=HEAP2, values=random_words(rng, rows * gathers_per_row, 1, 1 << 8))
    out = 0x6000_0000
    build_array(memory, base=out, values=range(1, 17))

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r10", HEAP)  # col[] stream
    a.movi("r11", HEAP2)  # a_val[] stream
    a.movi("r12", TABLE)  # x[]
    a.movi("r13", rows)
    a.movi("r14", 0)
    a.movi("r15", out)
    a.movi("r8", 0)
    # Seed the cross-row pivot carried through the stack.
    a.movi("r1", 1)
    a.store("sp", "r1", 0)
    a.movi("r1", 1)  # pivot value register (re-seeded through memory below)
    a.label("row")
    a.movi("r7", 0)  # per-row accumulator (keeps the reduction row-local:
    # rows hand off only through the pivot, as in a forward SymGS sweep)
    # Row accumulation burst: re-reads the previous pivot per term.
    for r in range(10):
        a.load(f"r{16 + (r % 6)}", "sp", 8)
    # SpMV gather volley: col indices stream in, each x-gather mixes in the
    # current pivot value (they become ready as the pivot miss returns and
    # overlap each other -- the honest MLP of a sparse row).
    for j in range(gathers_per_row):
        a.load(f"r{22 + (j % 4)}", "r10", 8 * j)  # col[j] (stream)
        a.store("sp", f"r{22 + (j % 4)}", 16 + (j % 8))
    for j in range(gathers_per_row):
        a.load("r4", "sp", 16 + (j % 8))
        a.add("r4", "r4", "r1")
        a.andi("r4", "r4", x_entries - 1)
        a.shli("r4", "r4", 3)
        a.add("r4", "r4", "r12")
        a.load("r5", "r4", 0)  # x[col[j]] (high-MLP gather)
        a.load("r6", "r11", 8 * j)  # a_val[j] (stream)
        a.fmul("r5", "r5", "r6")
        a.fadd("r7", "r7", "r5")  # row-local reduction
    # SymGS pivot: the forward sweep updates x in place, so the next row's
    # pivot index comes from this row's value *through memory*. x holds
    # pre-masked indices, so the address slice stays short -- the
    # prioritised pivot must reach the memory bus ahead of the volley.
    a.load("r2", "sp", 0)  # previous pivot value (through memory)
    a.shli("r2", "r2", 3)
    a.add("r2", "r2", "r12")
    a.load("r1", "r2", 0)  # x[pivot] (DELINQUENT, serial)
    a.store("sp", "r1", 0)
    a.store("sp", "r1", 8)
    a.add("r8", "r8", "r7")  # fold the row sum into the checksum (int, 1cy)
    a.addi("r10", "r10", 8 * gathers_per_row)
    a.addi("r11", "r11", 8 * gathers_per_row)
    a.addi("r14", "r14", 1)
    a.blt("r14", "r13", "row")
    a.halt()
    return Workload(
        name="xhpcg",
        program=a.build(),
        memory=memory,
        description="HPCG analogue: SymGS pivot chain + SpMV gathers",
        character="serial pivot gather through memory + RS-sized burst (Figure 9 scaling)",
    )


REGISTRY.register("xhpcg", "hpcg", build_xhpcg, "sparse CG: SymGS pivot chain + SpMV gathers")
