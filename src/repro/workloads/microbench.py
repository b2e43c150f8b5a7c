"""The Figure 1/2 microbenchmark: linked-list traversal x vector multiply.

Faithful to the paper's kernel (Figure 2) at the µop level of its compiled
x86 (Figure 3):

* an outer loop chases a randomly-placed singly linked list
  (``current = current->next`` -- the delinquent load),
* the node's value is *spilled to the stack* and the inner vector loop
  re-reads it from memory every element (the ``imul -0x8(%rbp),%rdx``
  memory-operand idiom) -- a dependence through memory that register-only
  IBDA cannot see (Section 3.5) and that floods the load ports with work
  the moment the miss returns,
* the inner loop multiplies a VEC_SIZE vector by the value.

``manual_prefetch=True`` reproduces the Section 3.1 experiment: the
commented-out ``__builtin_prefetch(current->next)`` is enabled, i.e. the
next pointer is loaded at the top of the loop body and its target line
prefetched, hiding the miss under the vector work (IPC 1.89 -> 2.71 on the
authors' Xeon; the same jump in shape here).
"""

from __future__ import annotations

from ..isa.assembler import Asm
from ..isa.image import MemoryImage
from .base import HEAP, HEAP2, REGISTRY, STACK, Workload, is_ref, scaled, variant_rng
from .kernels import build_array, build_linked_list


def build_pointer_chase(
    variant: str = "ref",
    scale: float = 1.0,
    *,
    vec_size: int = 32,
    num_nodes: int | None = None,
    manual_prefetch: bool = False,
) -> Workload:
    """Build the microbenchmark; see module docstring."""
    rng = variant_rng(variant, salt=0xF16)
    memory = MemoryImage()
    if num_nodes is None:
        num_nodes = scaled(500 if is_ref(variant) else 400, scale)
    node_addrs = build_linked_list(
        memory, rng, base=HEAP, num_nodes=num_nodes, node_stride=256, value_words=1
    )
    build_array(memory, base=HEAP2, values=range(1, vec_size + 1))

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r1", node_addrs[0])  # current
    a.load("r5", "r1", 8)  # current->val
    a.store("sp", "r5", 0)  # spill val (Figure 3 line 31)
    a.movi("r10", HEAP2)  # vector base
    a.movi("r9", HEAP2 + vec_size * 8)  # vector end

    a.label("outer")
    if manual_prefetch:
        # __builtin_prefetch(current->next): load the next pointer early and
        # prefetch the next node's line under the vector work.
        a.load("r11", "r1", 0)
        a.prefetch("r11", 0)
    a.mov("r7", "r10")
    a.label("inner")
    a.load("r8", "r7", 0)  # vec[e]
    a.load("r4", "sp", 0)  # re-read val through the stack
    a.mul("r8", "r8", "r4")  # vec[e] *= val
    a.store("r7", "r8", 0)
    a.addi("r7", "r7", 8)
    a.blt("r7", "r9", "inner")
    a.load("r2", "r1", 0)  # current = current->next   (address-gen)
    a.load("r5", "r2", 8)  # val = current->val        (DELINQUENT)
    a.store("sp", "r5", 0)  # spill val
    a.mov("r1", "r2")
    a.bne("r1", "r0", "outer")
    a.halt()

    flavor = " + manual software prefetch" if manual_prefetch else ""
    return Workload(
        name="pointer_chase",
        program=a.build(),
        memory=memory,
        description=f"Figure 2 linked-list x vector-multiply kernel{flavor}",
        character=(
            "Serial pointer chase with value spilled through the stack; the "
            "inner loop's per-element stack reload creates the load-port "
            "burst the CRISP scheduler must beat (Figures 1-3)."
        ),
    )


def _builder(variant: str = "ref", scale: float = 1.0) -> Workload:
    return build_pointer_chase(variant=variant, scale=scale)


REGISTRY.register(
    "pointer_chase",
    "micro",
    _builder,
    "Figure 1/2 microbenchmark: linked-list traversal interleaved with vector multiply",
)
