"""Division-chain microbenchmark for the Section 6.1 extension.

A serial integer-division recurrence (the paper's example of a non-load
high-latency instruction) whose operand passes through the stack, amid a
burst of multiply work gated on each division's result. The baseline
scheduler drains the older multiplies through the 4 ALU ports before the
next division's slice; prioritising the division slice starts the next
24-cycle DIV immediately -- CRISP's mechanism with DRAM swapped for the
divider.
"""

from __future__ import annotations

from ..isa.assembler import Asm
from ..isa.image import MemoryImage
from .base import HEAP, REGISTRY, STACK, Workload, is_ref, scaled, variant_rng
from .kernels import build_array


def build_div_chain(
    variant: str = "ref", scale: float = 1.0, *, burst: int = 36
) -> Workload:
    rng = variant_rng(variant, salt=30)
    memory = MemoryImage()
    iters = scaled(900 if is_ref(variant) else 740, scale)
    build_array(memory, base=HEAP, values=range(2, 18))

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r1", 0x7A3F19C4B2D)  # dividend state
    a.movi("r2", 3)  # divisor
    a.movi("r10", HEAP)
    a.movi("r12", iters)
    a.movi("r13", 0)
    a.movi("r8", 0)
    a.label("step")
    # Multiply burst gated on the previous division's (spilled) result:
    # ALU-port pressure that becomes ready exactly when the DIV completes.
    for b in range(burst):
        a.load(f"r{16 + (b % 8)}", "sp", 0)
        a.muli(f"r{16 + (b % 8)}", f"r{16 + (b % 8)}", 2 * b + 3)
    # The critical division chain: operand re-read through the stack
    # (slice through memory), then the 24-cycle DIV.
    a.load("r3", "sp", 0)
    a.addi("r3", "r3", 0x5DEECE66)  # keep the dividend large
    a.div("r1", "r3", "r2")  # CRITICAL long-latency instruction
    a.store("sp", "r1", 0)
    a.add("r8", "r8", "r1")
    a.addi("r13", "r13", 1)
    a.blt("r13", "r12", "step")
    a.halt()
    return Workload(
        name="div_chain",
        program=a.build(),
        memory=memory,
        description="serial division recurrence + multiply burst (Section 6.1)",
        character="non-load high-latency instruction as the critical chain",
    )


REGISTRY.register(
    "div_chain", "micro", build_div_chain, "Section 6.1 division-criticality microbenchmark"
)
