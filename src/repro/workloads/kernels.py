"""Reusable data-structure builders and assembly idioms for workloads.

These helpers construct the *memory images* (linked lists, hash tables,
index arrays, grids) whose layout determines cache behaviour, plus a few
assembly emission idioms shared across workloads (stack spill/reload,
vector sweeps). Node placement is randomised so that no hardware prefetcher
(BOP, stream, stride, GHB) can predict successor addresses -- the defining
property of the "hard-to-prefetch" loads CRISP targets.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable

from ..isa.assembler import Asm
from ..isa.image import MemoryImage


def random_words(rng: random.Random, count: int, lo: int, hi: int) -> array:
    """``count`` draws of ``rng.randrange(lo, hi)``, made in bulk.

    Returns exactly ``[rng.randrange(lo, hi) for _ in range(count)]`` as an
    ``array('q')`` and leaves ``rng`` in the same state as that loop. It
    replays CPython's ``_randbelow``: with ``n = hi - lo`` and
    ``k = n.bit_length()``, each draw takes one 32-bit Mersenne Twister
    word, keeps ``word >> (32 - k)`` if it is below ``n`` and otherwise
    draws again. Each round asks ``getrandbits`` for as many words as
    values are still missing and applies the shift-and-reject test to all
    of them at once; a word yields at most one value, so the rounds consume
    exactly the words the loop would. Ranges wider than 32 bits
    (``getrandbits`` then spends several words per draw) take the loop.
    The range must be non-empty and hold only signed 64-bit values.
    """
    if not -(1 << 63) <= lo < hi <= 1 << 63:
        raise ValueError(f"random_words needs a non-empty int64 range, not [{lo}, {hi})")
    n = hi - lo
    k = n.bit_length()
    if k > 32:
        return array("q", [rng.randrange(lo, hi) for _ in range(count)])
    import numpy as np  # deferred: keeps numpy off the CLI startup path

    out = np.empty(count, dtype=np.int64)
    got = 0
    while got < count:
        need = count - got
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        drawn = np.frombuffer(raw, dtype="<u4") >> (32 - k)
        kept = drawn[drawn < n]
        out[got : got + len(kept)] = kept
        got += len(kept)
    out += lo
    return array("q", out.tobytes())


def build_linked_list(
    memory: MemoryImage,
    rng: random.Random,
    *,
    base: int,
    num_nodes: int,
    node_stride: int = 256,
    value_words: int = 1,
) -> list[int]:
    """Materialise a randomly-placed singly linked list; returns node addresses.

    Node layout: word 0 = next pointer (0 terminates), words 1.. = payload.
    ``node_stride`` spaces node slots so consecutive list elements land on
    unrelated cache lines/pages; slots are shuffled so traversal order is
    uncorrelated with address order.
    """
    slots = list(range(num_nodes))
    rng.shuffle(slots)
    addrs = [base + slot * node_stride for slot in slots]
    for i, addr in enumerate(addrs):
        memory[addr >> 3] = addrs[i + 1] if i + 1 < num_nodes else 0
        for w in range(value_words):
            memory[(addr + 8 * (w + 1)) >> 3] = rng.randrange(1, 1 << 16)
    return addrs


def build_offset_cycle(
    memory: MemoryImage,
    rng: random.Random,
    *,
    base: int,
    num_slots: int,
    stride: int = 320,
    value_words: int = 1,
) -> list[int]:
    """Materialise an index-linked traversal cycle; returns the visit order.

    Slot ``v`` lives at ``base + v*stride``; word 0 holds the *index* of the
    successor slot (not a pointer), words 1.. hold payload. The successor
    address must therefore be computed (``base + next*stride``) -- a short,
    genuine address-generation slice, like mcf's arc indices -- and the
    indices form one full-length random cycle, so traversal order is
    unpredictable to any hardware prefetcher.

    The returned list is the traversal order (``order[0]`` is the start
    index); callers use it to attach traversal-correlated payloads (e.g.
    clustered node kinds that a branch predictor can learn).
    """
    order = list(range(num_slots))
    rng.shuffle(order)
    for i, v in enumerate(order):
        addr = base + v * stride
        memory[addr >> 3] = order[(i + 1) % num_slots]
        for w in range(value_words):
            memory[(addr + 8 * (w + 1)) >> 3] = rng.randrange(1, 1 << 16)
    return order


def build_array(memory: MemoryImage, *, base: int, values: Iterable[int]) -> None:
    """Lay ``values`` out as a dense array of 8-byte words at ``base``."""
    memory.fill(base >> 3, values)


def build_index_array(
    memory: MemoryImage,
    rng: random.Random,
    *,
    base: int,
    num_entries: int,
    target_entries: int,
) -> None:
    """Random permutation-ish index array for A[B[i]] gather patterns."""
    build_array(memory, base=base, values=random_words(rng, num_entries, 0, target_entries))


def emit_spill(asm: Asm, value_reg: str, slot: int) -> None:
    """Spill ``value_reg`` to stack slot ``slot`` (dependence through memory).

    This is the Figure 3 pattern (``mov %rax,-0x8(%rbp)``): values that flow
    through the stack are invisible to register-only IBDA but visible to
    CRISP's trace-based slicer.
    """
    asm.store("sp", value_reg, 8 * slot)


def emit_reload(asm: Asm, dest_reg: str, slot: int) -> None:
    """Reload a spilled value from stack slot ``slot``."""
    asm.load(dest_reg, "sp", 8 * slot)


def emit_lcg(asm: Asm, reg: str, *, mult: int = 6364136223846793005, inc: int = 1442695040888963407, mask_bits: int = 30) -> None:
    """Emit a linear-congruential step: ``reg = (reg * a + c) & mask``.

    Three dependent ALU ops; used by hash-probe workloads to synthesise
    keys whose derivation forms a genuine address-generating slice.
    """
    asm.muli(reg, reg, mult & 0xFFFF)  # keep immediates small; period is ample
    asm.addi(reg, reg, inc & 0xFFFF)
    asm.andi(reg, reg, (1 << mask_bits) - 1)


def emit_dispatch_tree(
    asm: Asm,
    value_reg: str,
    handlers: list[str],
    *,
    tmp_reg: str = "r27",
    lo: int = 0,
    hi: int | None = None,
    _prefix: str | None = None,
) -> None:
    """Emit a balanced compare-branch tree dispatching on ``value_reg``.

    ``handlers[i]`` is jumped to when the register holds ``i`` (values must
    span ``0 .. len(handlers)-1``). This is the interpreter-dispatch idiom
    (perlbench/gcc analogues): a chain of data-dependent conditional
    branches whose outcomes track the opcode stream, i.e. hard to predict
    when the stream is irregular.
    """
    if hi is None:
        hi = lo + len(handlers) - 1
    if _prefix is None:
        _prefix = f"disp{id(handlers) & 0xFFFF}_{lo}_{hi}"
    if lo == hi:
        asm.jmp(handlers[lo])
        return
    span = hi - lo
    mid = lo + span // 2 + 1
    right_label = f"{_prefix}_r{lo}_{hi}"
    asm.movi(tmp_reg, mid)
    asm.bge(value_reg, tmp_reg, right_label)
    emit_dispatch_tree(
        asm, value_reg, handlers, tmp_reg=tmp_reg, lo=lo, hi=mid - 1, _prefix=_prefix
    )
    asm.label(right_label)
    emit_dispatch_tree(
        asm, value_reg, handlers, tmp_reg=tmp_reg, lo=mid, hi=hi, _prefix=_prefix
    )


def emit_reload_burst(
    asm: Asm,
    *,
    slot: int,
    reloads: int,
    consumers: int = 0,
    out_base: str = "r10",
    tmp_base: int = 16,
    tmp_count: int = 8,
) -> None:
    """Emit a load-heavy consumer burst gated on stack slot ``slot``.

    ``reloads`` loads re-read the spilled value (dependence through memory,
    store-to-load forwarded), followed by ``consumers`` multiply+store
    pairs. Everything here becomes ready in the cycles right after the
    producing miss returns, competing with the *next* critical load for the
    two load ports -- the contention window the CRISP scheduler wins
    (Figures 1/3; Section 3.1). The burst is unrolled straight-line code:
    real compilers unroll exactly these hot inner loops.
    """
    for b in range(reloads):
        asm.load(f"r{tmp_base + (b % tmp_count)}", "sp", 8 * slot)
    for b in range(consumers):
        reg = f"r{tmp_base + (b % tmp_count)}"
        asm.mul(reg, reg, reg)
        asm.store(out_base, reg, (b % 16) * 8)


def emit_vector_mac(
    asm: Asm,
    *,
    label: str,
    ptr_reg: str,
    end_reg: str,
    scalar_reg: str,
    tmp_reg: str = "r20",
    reload_slot: int | None = None,
    reload_reg: str = "r21",
) -> None:
    """Emit ``for each elem: elem *= scalar`` over [ptr, end).

    When ``reload_slot`` is given, the scalar is re-read from the stack each
    element (the x86 memory-operand idiom of Figure 3's ``imul``), producing
    load-port work that only becomes ready once the scalar's producer
    completes -- the contention CRISP's scheduler resolves in favour of the
    critical load.
    """
    asm.label(label)
    asm.load(tmp_reg, ptr_reg, 0)
    if reload_slot is not None:
        emit_reload(asm, reload_reg, reload_slot)
        asm.mul(tmp_reg, tmp_reg, reload_reg)
    else:
        asm.mul(tmp_reg, tmp_reg, scalar_reg)
    asm.store(ptr_reg, tmp_reg, 0)
    asm.addi(ptr_reg, ptr_reg, 8)
    asm.blt(ptr_reg, end_reg, label)
