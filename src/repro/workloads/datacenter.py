"""TailBench datacenter analogues: moses, memcached, img-dnn (Section 5.1).

* **moses** (phrase-based machine translation): the paper's standout --
  very long load slices spanning many static instructions ("in moses, load
  slices are too long and too large to be captured by the IST") and the
  largest CRISP gains. The analogue advances four index-linked phrase
  lattices per scoring block (MLP 4); every hop's address derives from a
  long mixing slice that crosses the stack twice, and each block carries a
  load-heavy scoring burst. Blocks are replicated into many distinct static
  copies, so the union of slices spans thousands of PCs -- far beyond a
  1024-entry IST (Figure 11).
* **memcached**: GET-request loop -- key hashing, bucket-array probe
  (misses a >LLC table), a dependent chain hop, a value-copy burst, and a
  hard chain-length branch; load and branch slices synergise (Figure 8).
* **img-dnn**: dense dot-product tiles (prefetchable, compute-bound) with a
  few overlapping embedding gathers; little CRISP headroom by design.
"""

from __future__ import annotations

from array import array

from ..isa.assembler import Asm
from ..isa.image import MemoryImage
from .base import (
    HEAP,
    HEAP2,
    HEAP3,
    REGISTRY,
    STACK,
    TABLE,
    Workload,
    is_ref,
    scaled,
    variant_rng,
)
from .kernels import (
    build_array,
    build_index_array,
    build_offset_cycle,
    emit_reload_burst,
    random_words,
)


# ---------------------------------------------------------------------------
# moses
# ---------------------------------------------------------------------------

def build_moses(
    variant: str = "ref",
    scale: float = 1.0,
    *,
    blocks: int = 24,
    gathers_per_block: int = 10,
    reloads_per_block: int = 10,
) -> Workload:
    """Phrase-lattice walk: serial lattice chase + phrase-table gather volleys.

    Each of the ``blocks`` distinct scoring blocks advances the lattice
    cursor one hop (the critical, serial access) and scores a volley of
    phrase-table gathers whose indices mix in the hop's value -- a burst of
    near-simultaneous cache misses that competes with the *next* hop for
    load ports and MSHRs. The baseline's oldest-first scheduler serves the
    older volley first; CRISP issues the tagged hop immediately. The hop's
    address slice crosses the stack, and every block is distinct static
    code, so the union of slices spans thousands of PCs (Figure 11) and
    defeats both of IBDA's structural limits at once (Section 5.2:
    "in moses, load slices are too long and too large to be captured by
    the IST").
    """
    rng = variant_rng(variant, salt=20)
    memory = MemoryImage()
    rounds = scaled(11 if is_ref(variant) else 9, scale)
    slots = rounds * blocks + 8
    stride = 320
    start = build_offset_cycle(
        memory, rng, base=HEAP, num_slots=slots, stride=stride, value_words=2
    )[0]
    # 2 MiB phrase table: the volley misses to DRAM, loading the memory bus
    # exactly when the serial hop needs it -- the contention CRISP resolves.
    # The hop is one shared PC (hop_fn), so its share of total misses stays
    # well above Figure 10's T=1% despite the volley's volume.
    table_entries = 1 << 18
    # Entry i scores i & 0xFFFF: 0..0xFFFF, repeated.
    scores = array("q", range(1 << 16)) * (table_entries >> 16)
    build_array(memory, base=TABLE, values=scores)
    build_index_array(
        memory, rng, base=HEAP3, num_entries=slots * gathers_per_block,
        target_entries=table_entries,
    )

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r1", start)  # lattice cursor
    a.movi("r11", HEAP3)  # gather index stream
    a.movi("r12", TABLE)
    a.movi("r13", 0)
    a.movi("r14", rounds)
    a.movi("r8", 0)
    a.jmp("round")
    # Shared hop routine: ONE delinquent load PC whose merged backward
    # slice spans the distinct mixing code of every calling block -- the
    # union is far larger than an IST, and its upstream crosses the stack.
    a.label("hop_fn")
    a.load("r2", "sp", 8)  # mixed index (through memory, from the caller)
    a.muli("r2", "r2", stride)
    a.addi("r2", "r2", HEAP)
    a.load("r1", "r2", 0)  # next lattice index (DELINQUENT, serial)
    a.store("sp", "r1", 0)
    a.ret()
    a.label("round")
    for b in range(blocks):
        a.label(f"blk{b}")
        # Score reload burst from the previous hop's spilled value.
        for r in range(reloads_per_block):
            a.load(f"r{16 + (r % 8)}", "sp", 0)
        # Phrase-table gather volley: indices stream in early, each gather
        # mixes in the current hop value (ready right at miss return).
        for g in range(gathers_per_block):
            a.load(f"r{24 + (g % 4)}", "r11", 8 * g)
            a.store("sp", f"r{24 + (g % 4)}", 16 + (g % 12))
        for g in range(gathers_per_block):
            a.load("r3", "sp", 16 + (g % 12))
            a.add("r3", "r3", "r1")
            a.andi("r3", "r3", table_entries - 1)
            a.shli("r3", "r3", 3)
            a.add("r3", "r3", "r12")
            a.load("r4", "r3", 0)  # phrase score gather (high MLP)
            a.add("r8", "r8", "r4")
        # Hand the cursor to the shared hop through the stack. The spill
        # store is distinct static code per block and on the critical path;
        # it must stay *short* -- any extra mixing here would let the volley
        # reach the DRAM bus first even when the hop is prioritised.
        a.store("sp", "r1", 8)
        a.call("hop_fn")
        a.addi("r11", "r11", 8 * gathers_per_block)
    a.addi("r13", "r13", 1)
    a.blt("r13", "r14", "round")
    a.halt()
    return Workload(
        name="moses",
        program=a.build(),
        memory=memory,
        description="machine-translation analogue: lattice chase + gather volleys",
        character="serial hop vs. high-MLP volley; long slices through memory; many blocks",
    )


REGISTRY.register("moses", "datacenter", build_moses, "phrase-lattice walk, long load slices")


# ---------------------------------------------------------------------------
# memcached
# ---------------------------------------------------------------------------

def build_memcached(variant: str = "ref", scale: float = 1.0) -> Workload:
    """GET-request loop: hash -> bucket probe -> chain hop -> value burst."""
    rng = variant_rng(variant, salt=21)
    requests = scaled(640 if is_ref(variant) else 520, scale)
    num_buckets = 1 << 18  # 2 MiB bucket array of node indices
    node_slots = 1 << 15
    node_stride = 192
    # Node words, drawn node by node: next node index (< 2^15), stored key
    # (< 2^14), value words 0 and 1 (< 2^12 each). Every bound is a power
    # of two, and randrange(2^m) takes the first 32-bit word whose top bit
    # is clear and returns the m bits below it -- so one stream of such
    # words (random_words below 2^31) serves all four fields in turn. Each
    # field is one region strided by the node size.
    draws = random_words(rng, 4 * node_slots, 0, 1 << 31)
    memory = MemoryImage()
    for field, bits in enumerate((15, 14, 12, 12)):
        memory.fill(
            (HEAP >> 3) + field,
            (d >> (31 - bits) for d in draws[field::4]),
            stride=node_stride >> 3,
        )
    build_array(memory, base=TABLE, values=random_words(rng, num_buckets, 0, node_slots))
    out_base = 0x6000_0000
    build_array(memory, base=out_base, values=range(1, 17))

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r1", 0xC0FE)
    a.movi("r11", TABLE)
    a.movi("r12", requests)
    a.movi("r13", 0)
    a.movi("r15", out_base)
    a.movi("r8", 0)
    a.label("request")
    # Key hash (dependent slice).
    a.muli("r1", "r1", 0x5BD1)
    a.xori("r1", "r1", 0x2E35)
    a.shri("r16", "r1", 5)
    a.xor("r16", "r16", "r1")
    a.andi("r16", "r16", num_buckets - 1)
    a.shli("r16", "r16", 3)
    a.add("r16", "r16", "r11")
    a.load("r3", "r16", 0)  # bucket: first node index (DELINQUENT)
    # First chain node (address computed from the loaded index).
    a.muli("r4", "r3", node_stride)
    a.addi("r4", "r4", HEAP)
    a.load("r5", "r4", 8)  # stored key (DELINQUENT, dependent hop)
    a.load("r6", "r4", 0)  # next node index (same line)
    a.store("sp", "r5", 0)
    # Value burst: response assembly re-reads the spilled key per word.
    emit_reload_burst(a, slot=0, reloads=14, consumers=5, out_base="r15")
    # Chain-length branch: half the buckets hold two-node chains. The test
    # uses the hash (ready early), so it resolves before the probe returns;
    # it is still data-dependent and mispredicts often (Figure 8's
    # memcached branch-slice component).
    a.shri("r17", "r16", 3)
    a.andi("r17", "r17", 1)
    a.beq("r17", "r0", "done_req")
    a.muli("r7", "r6", node_stride)
    a.addi("r7", "r7", HEAP)
    a.load("r7", "r7", 16)  # second hop value (dependent DELINQUENT)
    a.add("r8", "r8", "r7")
    a.label("done_req")
    # Closed-loop client: the next request's key depends on this response
    # (read back through the stack), serialising the request stream the way
    # a dependent GET sequence does.
    a.load("r18", "sp", 0)
    a.xor("r1", "r1", "r18")
    a.addi("r13", "r13", 1)
    a.blt("r13", "r12", "request")
    a.halt()
    return Workload(
        name="memcached",
        program=a.build(),
        memory=memory,
        description="key-value GET loop: hash, bucket probe, chain hop",
        character="hash slice + dependent hops + hard chain-length branch (Fig. 8)",
    )


REGISTRY.register("memcached", "datacenter", build_memcached, "hash-table GET request loop")


# ---------------------------------------------------------------------------
# img-dnn
# ---------------------------------------------------------------------------

def build_img_dnn(variant: str = "ref", scale: float = 1.0, *, tile: int = 12) -> Workload:
    """Handwriting-recognition analogue: dense dot products + few gathers."""
    rng = variant_rng(variant, salt=22)
    memory = MemoryImage()
    rows = scaled(520 if is_ref(variant) else 420, scale)
    build_array(memory, base=HEAP, values=random_words(rng, rows * tile + tile, 1, 255))
    build_array(memory, base=HEAP2, values=random_words(rng, tile, 1, 255))
    # 256 KiB embedding table: LLC-resident after warm-up, so the gathers'
    # miss rate stays below the 20% delinquency bar -- img-dnn is
    # compute-bound and CRISP correctly leaves it alone.
    emb_entries = 1 << 15
    build_array(memory, base=TABLE, values=random_words(rng, emb_entries, 1, 1 << 10))
    build_index_array(memory, rng, base=HEAP3, num_entries=rows * 2, target_entries=emb_entries)

    a = Asm()
    a.movi("r10", HEAP)
    a.movi("r11", HEAP2)
    a.movi("r12", TABLE)
    a.movi("r14", HEAP3)
    a.movi("r13", rows)
    a.movi("r15", 0)
    a.movi("r8", 0)
    a.label("row")
    a.movi("r6", 0)
    for j in range(tile):
        a.load("r3", "r10", 8 * j)
        a.load("r4", "r11", 8 * j)
        a.fmul("r3", "r3", "r4")
        a.fadd("r6", "r6", "r3")
    for g in range(2):
        a.load("r16", "r14", 8 * g)
        a.shli("r16", "r16", 3)
        a.add("r16", "r16", "r12")
        a.load("r17", "r16", 0)
        a.fadd("r6", "r6", "r17")
    a.add("r8", "r8", "r6")
    a.addi("r10", "r10", 8 * tile)
    a.addi("r14", "r14", 16)
    a.addi("r15", "r15", 1)
    a.blt("r15", "r13", "row")
    a.halt()
    return Workload(
        name="img_dnn",
        program=a.build(),
        memory=memory,
        description="DNN inference analogue: dense tiles + embedding gathers",
        character="compute-bound streams; little CRISP headroom by design",
    )


REGISTRY.register("img_dnn", "datacenter", build_img_dnn, "dense dot products + embedding gathers")
