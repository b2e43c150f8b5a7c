"""SPEC CPU2017 memory-intensive analogues (Section 5.1 suite).

Each builder synthesises the memory-access and branch character the paper
attributes to that benchmark (Sections 5.2/5.3 discuss most by name):

==============  ==============================================================
Workload        Encoded character (paper's per-app finding)
==============  ==============================================================
mcf             two interleaved index-linked arc chases + reload-heavy
                cost reduction; classic CRISP winner
omnetpp         event-queue: streamed handles -> two dependent random hops
lbm             streaming stencil (prefetched); hard collision branch fed by
                an FP chain -> branch slices are what helps (Section 5.3)
deepsjeng       transposition-table probes; alpha-beta cutoffs branch on the
                missing load -> branch-slice gains on their own
perlbench       interpreter dispatch over a hard opcode stream; many
                distinct handler blocks (Figure 11's >10k critical PCs);
                over-tagging traps IBDA
gcc             IR walk with per-kind transform blocks; large static code
bwaves          batched independent gathers (MLP ~8) that are NOT critical;
                IBDA's DLT tags them anyway ("wrong delinquent loads")
cactus          stencil + value-dependent coefficient gather; the boundary
                branch shares the gather's slice (Figure 8 synergy)
fotonik         chained A[B[i]] gathers linked through a stack spill; IBDA
                captures only the first level
nab             neighbour gathers + cutoff branch on a computed distance
namd            like nab, but the slice crosses the stack -> IBDA blind
xz              hash-chain match finder: dependent hashing, probe, hard
                match branches
==============  ==============================================================

The common timing shape (established by calibration against the Figure 1
mechanism): a delinquent load whose address needs a few dependent ALU ops
after the previous load's value arrives, followed by a load-port-heavy
burst of consumers gated on the same value. When the miss returns, the
burst floods the two load ports exactly as the next critical load becomes
ready; the baseline oldest-first scheduler drains the older burst first
(tens of cycles), while CRISP's critical-first policy issues the next miss
immediately.
"""

from __future__ import annotations

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
    emit_dispatch_tree,
    emit_reload_burst,
    random_words,
)


def _out_array(memory: MemoryImage, base: int = 0x6000_0000, words: int = 16) -> int:
    build_array(memory, base=base, values=range(1, words + 1))
    return base


# ---------------------------------------------------------------------------
# mcf
# ---------------------------------------------------------------------------

def build_mcf(variant: str = "ref", scale: float = 1.0) -> Workload:
    """Network-simplex analogue: two interleaved index-linked arc chases.

    mcf's arcs are array indices, so each hop's address is computed from the
    loaded index (a 3-op slice); a cost-reduction burst re-reads the spilled
    cost per term. Two chains overlap their misses (MLP 2).
    """
    rng = variant_rng(variant, salt=1)
    memory = MemoryImage()
    iters = scaled(330 if is_ref(variant) else 270, scale)
    stride = 320
    starts = []
    for c in range(2):
        order = build_offset_cycle(
            memory, rng, base=HEAP + c * 0x0400_0000, num_slots=iters + 4, stride=stride
        )
        starts.append(order[0])
    out = _out_array(memory)

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r1", starts[0])
    a.movi("r2", starts[1])
    a.movi("r10", out)
    a.movi("r12", iters)
    a.movi("r13", 0)
    a.label("outer")
    for c, cur in enumerate(("r1", "r2")):
        base = HEAP + c * 0x0400_0000
        # Address slice crosses the stack: the arc index is spilled and
        # re-read before use (compilers spill exactly such cursors; this is
        # the Figure 3 idiom). In the baseline the slice's reload queues
        # behind the older cost-reduction burst on the two load ports.
        a.store("sp", cur, 16 + c)
        a.load("r5", "sp", 16 + c)
        a.muli("r5", "r5", stride)
        a.addi("r5", "r5", base)
        a.load(cur, "r5", 0)  # next arc index (DELINQUENT line)
        # Spill the index immediately (it completes first; the cost load
        # below merges into the same line and finishes a few cycles later),
        # so the burst is ready before the next iteration's slice.
        a.store("sp", cur, c)
        a.load("r6", "r5", 8)  # arc cost (same line)
        emit_reload_burst(a, slot=c, reloads=24, consumers=4)
    a.addi("r13", "r13", 1)
    a.blt("r13", "r12", "outer")
    a.halt()
    return Workload(
        name="mcf",
        program=a.build(),
        memory=memory,
        description="min-cost-flow analogue: dual index-linked arc chases",
        character="3-op address slices, MLP 2, load-port burst at miss return",
    )


REGISTRY.register("mcf", "spec", build_mcf, "dual index-linked arc chase + cost reduction")


# ---------------------------------------------------------------------------
# omnetpp
# ---------------------------------------------------------------------------

def build_omnetpp(variant: str = "ref", scale: float = 1.0) -> Workload:
    """Discrete-event simulation analogue: streamed handles, two random hops."""
    rng = variant_rng(variant, salt=2)
    memory = MemoryImage()
    events = scaled(620 if is_ref(variant) else 500, scale)
    stride = 256
    # Event records at base + index*stride; word 0 schedules the successor
    # event (one long permutation cycle), words 1-2 hold type and data.
    order = build_offset_cycle(
        memory, rng, base=HEAP, num_slots=events + 4, stride=stride, value_words=2
    )
    start = order[0]
    # Event types run in bursts of 16 along the *event chain* (a simulator
    # processes runs of similar events), so the type-dispatch branches are
    # learnable and the front end can run ahead of the misses.
    for i, v in enumerate(order):
        addr = HEAP + v * stride
        memory[(addr + 8) >> 3] = (i // 16) % 4
    out = _out_array(memory)

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r11", out)
    a.movi("r8", 0)
    # r1 carries the event cursor: each event schedules its successor
    # (the data-dependent event chain of a discrete-event simulator).
    a.movi("r1", start)
    a.movi("r13", events)
    a.movi("r14", 0)
    a.label("outer")
    # Address slice crosses the stack (cursor spill/reload).
    a.store("sp", "r1", 4)
    a.load("r4", "sp", 4)
    a.muli("r4", "r4", stride)
    a.addi("r4", "r4", HEAP)
    a.load("r1", "r4", 0)  # successor event index (DELINQUENT)
    a.store("sp", "r1", 0)  # spill immediately: gates the handler burst
    a.load("r5", "r4", 8)  # event type (same line, merges)
    a.load("r6", "r4", 16)  # event data (same line)
    handlers = [f"ev{t}" for t in range(4)]
    emit_dispatch_tree(a, "r5", handlers)
    for t in range(4):
        a.label(f"ev{t}")
        emit_reload_burst(a, slot=0, reloads=14 + 2 * t, consumers=4, out_base="r11")
        a.jmp("join")
    a.label("join")
    a.add("r8", "r8", "r6")
    a.addi("r14", "r14", 1)
    a.blt("r14", "r13", "outer")
    a.halt()
    return Workload(
        name="omnetpp",
        program=a.build(),
        memory=memory,
        description="discrete-event analogue: data-dependent event chain",
        character="serial event chain with slice through the stack + handler bursts",
    )


REGISTRY.register("omnetpp", "spec", build_omnetpp, "event-queue two-hop analogue")


# ---------------------------------------------------------------------------
# lbm
# ---------------------------------------------------------------------------

def build_lbm(variant: str = "ref", scale: float = 1.0) -> Workload:
    """Lattice-Boltzmann analogue: streaming stencil + hard collision branch.

    Grid loads stream (prefetched), so load slicing alone buys little; each
    cell's collision test branches on the end of a dependent FP chain while
    the ALU ports are saturated by the surrounding cells' FP work, so the
    branch resolves late in the baseline. Branch slices pull the chain
    forward (Section 5.3).
    """
    rng = variant_rng(variant, salt=3)
    memory = MemoryImage()
    cells = scaled(1500 if is_ref(variant) else 1250, scale)
    build_array(memory, base=HEAP, values=random_words(rng, cells * 3 + 8, 1, 255))

    a = Asm()
    a.movi("r10", HEAP)
    a.movi("r9", HEAP + cells * 24)
    a.movi("r8", 0)
    a.movi("r14", 2)
    a.label("sweep")
    a.load("r3", "r10", 0)
    a.load("r4", "r10", 8)
    a.load("r5", "r10", 16)
    # Independent FP work (ILP-rich; saturates the 4 ALU ports).
    for i in range(4):
        a.fmul(f"r{20 + i}", "r3", "r4")
        a.fadd(f"r{20 + i}", f"r{20 + i}", "r5")
        a.fmul(f"r{20 + i}", f"r{20 + i}", "r4")
    # Collision chain feeding the branch (dependent; the branch slice).
    a.fmul("r16", "r3", "r4")
    a.fadd("r16", "r16", "r5")
    a.fmul("r16", "r16", "r3")
    a.shri("r17", "r16", 3)
    a.andi("r17", "r17", 7)
    a.blt("r17", "r14", "obstacle")  # hard, data-dependent (~25% taken)
    a.fadd("r19", "r20", "r21")
    a.fadd("r19", "r19", "r22")
    a.fadd("r19", "r19", "r23")
    a.store("r10", "r19", 0)
    a.jmp("next_cell")
    a.label("obstacle")
    a.xor("r19", "r4", "r5")
    a.add("r8", "r8", "r19")
    a.store("r10", "r19", 8)
    a.label("next_cell")
    a.addi("r10", "r10", 24)
    a.blt("r10", "r9", "sweep")
    a.halt()
    return Workload(
        name="lbm",
        program=a.build(),
        memory=memory,
        description="lattice-Boltzmann analogue: stream stencil + collision branch",
        character="prefetchable streams; gains come from branch slices (Section 5.3)",
    )


REGISTRY.register("lbm", "spec", build_lbm, "streaming stencil with hard collision branch")


# ---------------------------------------------------------------------------
# deepsjeng
# ---------------------------------------------------------------------------

def build_deepsjeng(variant: str = "ref", scale: float = 1.0) -> Workload:
    """Chess-search analogue: TT probes + alpha-beta cutoffs.

    The cutoff branch tests the *missing* probe result against the running
    alpha; in the baseline it additionally queues behind the evaluation
    burst. Branch slices alone give >3% here (Figure 8).
    """
    rng = variant_rng(variant, salt=4)
    memory = MemoryImage()
    tt_entries = 1 << 18  # 2 MiB transposition table
    build_array(memory, base=TABLE, values=random_words(rng, tt_entries, 0, 1 << 14))
    nodes = scaled(640 if is_ref(variant) else 520, scale)
    out = _out_array(memory)

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r1", 0x3F2A1)
    a.movi("r2", 8192)  # alpha
    a.movi("r11", TABLE)
    a.movi("r12", nodes)
    a.movi("r13", 0)
    a.movi("r10", out)
    a.movi("r8", 0)
    a.label("search")
    # Zobrist-ish key evolution (the probe's address slice).
    a.muli("r1", "r1", 0x9E37)
    a.xori("r1", "r1", 0x5B5)
    a.shri("r16", "r1", 7)
    a.xor("r1", "r1", "r16")
    a.andi("r16", "r1", tt_entries - 1)
    a.shli("r16", "r16", 3)
    a.add("r16", "r16", "r11")
    a.load("r3", "r16", 0)  # tt[hash] (DELINQUENT probe)
    a.store("sp", "r3", 0)
    # Evaluation burst gated on the probe (loads + ALU).
    emit_reload_burst(a, slot=0, reloads=20, consumers=6)
    # Alpha-beta cutoff on the missing load (hard, data-dependent).
    a.bgt("r3", "r2", "cutoff")
    a.addi("r8", "r8", 2)
    a.jmp("cont")
    a.label("cutoff")
    a.addi("r8", "r8", 1)
    a.label("cont")
    # The search position depends on the probe outcome: the next key mixes
    # in the fetched entry (re-read through the stack), serialising probes
    # the way alpha-beta serialises on its cutoffs.
    a.load("r18", "sp", 0)
    a.xor("r1", "r1", "r18")
    a.addi("r13", "r13", 1)
    a.blt("r13", "r12", "search")
    a.halt()
    return Workload(
        name="deepsjeng",
        program=a.build(),
        memory=memory,
        description="chess-search analogue: TT probes + alpha-beta branches",
        character="branch fed by the delinquent probe; branch slices pay on their own",
    )


REGISTRY.register("deepsjeng", "spec", build_deepsjeng, "TT probe + cutoff branch")


# ---------------------------------------------------------------------------
# perlbench
# ---------------------------------------------------------------------------

def build_perlbench(
    variant: str = "ref", scale: float = 1.0, *, num_ops: int = 16, replicas: int = 4
) -> Workload:
    """Interpreter analogue: hard bytecode dispatch + symbol-table probes."""
    rng = variant_rng(variant, salt=5)
    memory = MemoryImage()
    prog_len = scaled(1500 if is_ref(variant) else 1250, scale)
    build_index_array(memory, rng, base=HEAP, num_entries=prog_len, target_entries=num_ops)
    ht_entries = 1 << 18
    build_array(memory, base=TABLE, values=random_words(rng, ht_entries, 0, 1 << 12))
    out = _out_array(memory)

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r10", HEAP)
    a.movi("r9", HEAP + prog_len * 8)
    a.movi("r11", TABLE)
    a.movi("r1", 0x1234)
    a.movi("r15", out)
    a.movi("r8", 0)
    a.label("dispatch")
    a.load("r4", "r10", 0)  # opcode (stream)
    a.addi("r10", "r10", 8)
    a.shri("r16", "r10", 3)
    a.andi("r16", "r16", replicas - 1)
    a.muli("r16", "r16", num_ops)
    a.add("r4", "r4", "r16")
    handlers = [f"op{h}" for h in range(num_ops * replicas)]
    emit_dispatch_tree(a, "r4", handlers)
    for h in range(num_ops * replicas):
        a.label(f"op{h}")
        # Distinct per-handler state evolution + symbol-table probe.
        a.muli("r1", "r1", 0x41C6 + h)
        a.xori("r1", "r1", 0x3039 + h)
        a.andi("r17", "r1", ht_entries - 1)
        a.shli("r17", "r17", 3)
        a.add("r17", "r17", "r11")
        a.load("r5", "r17", 0)  # symbol probe (DELINQUENT)
        a.store("sp", "r5", 0)
        emit_reload_burst(a, slot=0, reloads=10, consumers=3, out_base="r15")
        # Interpreter state depends on the fetched symbol (through the
        # stack): probes serialise across handlers, as real interpreter
        # data flow does.
        a.load("r18", "sp", 0)
        a.xor("r1", "r1", "r18")
        a.xori("r1", "r1", h + 1)
        a.jmp("dispatch_end")
    a.label("dispatch_end")
    a.blt("r10", "r9", "dispatch")
    a.halt()
    return Workload(
        name="perlbench",
        program=a.build(),
        memory=memory,
        description="interpreter analogue: hard dispatch + symbol-table probes",
        character="hard dispatch branches; many distinct handlers (Figure 11)",
    )


REGISTRY.register("perlbench", "spec", build_perlbench, "bytecode interpreter dispatch analogue")


# ---------------------------------------------------------------------------
# gcc
# ---------------------------------------------------------------------------

def build_gcc(
    variant: str = "ref", scale: float = 1.0, *, num_kinds: int = 12, replicas: int = 4
) -> Workload:
    """Compiler-IR analogue: index-linked IR walk + per-kind transforms."""
    rng = variant_rng(variant, salt=6)
    memory = MemoryImage()
    nodes = scaled(560 if is_ref(variant) else 460, scale)
    stride = 320
    order = build_offset_cycle(
        memory, rng, base=HEAP, num_slots=nodes + 4, stride=stride, value_words=3
    )
    start = order[0]
    # Node kinds cluster in runs of 8 along the walk (basic blocks of one
    # kind dominate real IR), keeping the dispatch mostly predictable so
    # the front end runs ahead of the node misses.
    for i, v in enumerate(order):
        addr = HEAP + v * stride
        memory[(addr + 16) >> 3] = (i // 8) % num_kinds
    out = _out_array(memory)

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r1", start)
    a.movi("r12", nodes)
    a.movi("r13", 0)
    a.movi("r15", out)
    a.movi("r8", 0)
    a.label("walk")
    # Cursor spilled and re-read before use (slice through memory).
    a.store("sp", "r1", 4)
    a.load("r5", "sp", 4)
    a.muli("r5", "r5", stride)
    a.addi("r5", "r5", HEAP)
    a.load("r1", "r5", 0)  # next IR index (DELINQUENT line)
    a.store("sp", "r1", 0)  # gates the transform burst
    a.load("r3", "r5", 16)  # kind (same line)
    a.load("r6", "r5", 24)  # operand value (same line)
    # Replica rotation follows the pass counter (periodic, so the dispatch
    # branches on it stay predictable and the front end runs ahead).
    a.andi("r16", "r13", replicas - 1)
    a.muli("r16", "r16", num_kinds)
    a.add("r3", "r3", "r16")
    handlers = [f"kind{k}" for k in range(num_kinds * replicas)]
    emit_dispatch_tree(a, "r3", handlers)
    for k in range(num_kinds * replicas):
        a.label(f"kind{k}")
        emit_reload_burst(a, slot=0, reloads=10, consumers=4, out_base="r15")
        a.addi("r8", "r8", k + 1)
        a.jmp("advance")
    a.label("advance")
    a.addi("r13", "r13", 1)
    a.blt("r13", "r12", "walk")
    a.halt()
    return Workload(
        name="gcc",
        program=a.build(),
        memory=memory,
        description="compiler analogue: IR walk with per-kind transforms",
        character="index-linked chase + dispatch + per-kind handler bursts",
    )


REGISTRY.register("gcc", "spec", build_gcc, "IR-list walk with transform blocks")


# ---------------------------------------------------------------------------
# bwaves
# ---------------------------------------------------------------------------

def build_bwaves(variant: str = "ref", scale: float = 1.0) -> Workload:
    """Blast-wave analogue: streaming stencil + batched high-MLP gathers.

    The gathers miss often (high MPKI) but are independent and overlap
    (MLP ~8): not performance-critical. CRISP's MLP filter excludes them
    (Section 3.2); IBDA's DLT tags them anyway -- the "wrong delinquent
    loads" failure of Section 5.2.
    """
    rng = variant_rng(variant, salt=7)
    memory = MemoryImage()
    grid = scaled(1800 if is_ref(variant) else 1500, scale)
    build_array(memory, base=HEAP, values=random_words(rng, grid + 16, 1, 1 << 10))
    gather_entries = 1 << 18
    build_array(memory, base=TABLE, values=random_words(rng, gather_entries, 0, 1 << 10))
    build_index_array(memory, rng, base=HEAP2, num_entries=grid, target_entries=gather_entries)

    a = Asm()
    a.movi("r10", HEAP)
    a.movi("r9", HEAP + grid * 8)
    a.movi("r11", HEAP2)
    a.movi("r12", TABLE)
    a.movi("r8", 0)
    a.label("block")
    a.load("r3", "r10", 0)
    a.load("r4", "r10", 8)
    a.load("r5", "r10", 16)
    a.load("r6", "r10", 24)
    a.load("r7", "r10", 32)
    a.fadd("r16", "r3", "r4")
    a.fadd("r16", "r16", "r5")
    a.fmul("r16", "r16", "r6")
    a.fadd("r16", "r16", "r7")
    a.store("r10", "r16", 0)
    for g in range(8):
        a.load(f"r{17 + g}", "r11", 8 * g)
    for g in range(8):
        a.shli(f"r{17 + g}", f"r{17 + g}", 3)
        a.add(f"r{17 + g}", f"r{17 + g}", "r12")
        a.load(f"r{17 + g}", f"r{17 + g}", 0)  # high-MLP miss
    for g in range(8):
        a.add("r8", "r8", f"r{17 + g}")
    a.addi("r11", "r11", 64)
    a.addi("r10", "r10", 64)
    a.blt("r10", "r9", "block")
    a.halt()
    return Workload(
        name="bwaves",
        program=a.build(),
        memory=memory,
        description="blast-wave analogue: stencil streams + high-MLP gathers",
        character="overlapping misses (MLP~8) are not critical; traps IBDA's DLT",
    )


REGISTRY.register("bwaves", "spec", build_bwaves, "stencil + high-MLP batched gathers")


# ---------------------------------------------------------------------------
# cactus
# ---------------------------------------------------------------------------

def build_cactus(variant: str = "ref", scale: float = 1.0) -> Workload:
    """CactuBSSN analogue: stencil + value-dependent coefficient gather.

    The gather's index derives from loaded cell data and the boundary
    branch tests the same value: load and branch slices overlap, so their
    combination exceeds either alone (Figure 8 synergy set).
    """
    rng = variant_rng(variant, salt=8)
    memory = MemoryImage()
    cells = scaled(900 if is_ref(variant) else 740, scale)
    build_array(memory, base=HEAP, values=random_words(rng, cells + 8, 0, 1 << 16))
    coeff_entries = 1 << 18
    build_array(memory, base=TABLE, values=random_words(rng, coeff_entries, 1, 1 << 10))
    out = _out_array(memory)

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r10", HEAP)
    a.movi("r9", HEAP + cells * 8)
    a.movi("r12", TABLE)
    a.movi("r15", out)
    a.movi("r8", 0)
    a.movi("r14", 6)
    a.movi("r2", 0)  # curvature state carried between cells
    a.label("cell")
    a.load("r3", "r10", 0)  # cell (stream)
    # Coefficient gather: index depends on the loaded cell value and on the
    # previous cell's gathered coefficient (serial, latency-critical).
    a.add("r3", "r3", "r2")
    a.andi("r16", "r3", coeff_entries - 1)
    a.shli("r16", "r16", 3)
    a.add("r16", "r16", "r12")
    a.load("r5", "r16", 0)  # coeff[f(cell)] (DELINQUENT gather)
    a.store("sp", "r5", 0)
    emit_reload_burst(a, slot=0, reloads=16, consumers=6, out_base="r15")
    # Boundary branch on the gathered coefficient (shares the slice).
    a.andi("r17", "r5", 15)
    a.blt("r17", "r14", "boundary")
    a.fmul("r19", "r3", "r5")
    a.fadd("r19", "r19", "r3")
    a.store("r10", "r19", 0)
    a.jmp("cnext")
    a.label("boundary")
    a.add("r8", "r8", "r3")
    a.label("cnext")
    a.load("r2", "sp", 0)  # next cell's curvature input (through memory)
    a.addi("r10", "r10", 8)
    a.blt("r10", "r9", "cell")
    a.halt()
    return Workload(
        name="cactus",
        program=a.build(),
        memory=memory,
        description="CactuBSSN analogue: stencil + data-dependent coeff gather",
        character="gather and branch share one slice -> load+branch synergy",
    )


REGISTRY.register("cactus", "spec", build_cactus, "stencil + value-dependent gather")


# ---------------------------------------------------------------------------
# fotonik
# ---------------------------------------------------------------------------

def build_fotonik(variant: str = "ref", scale: float = 1.0) -> Workload:
    """FDTD analogue: chained A[B[i]] gathers linked through a stack spill."""
    rng = variant_rng(variant, salt=9)
    memory = MemoryImage()
    n = scaled(800 if is_ref(variant) else 660, scale)
    field_entries = 1 << 18
    build_array(memory, base=TABLE, values=random_words(rng, field_entries, 0, field_entries))
    build_array(memory, base=HEAP3, values=random_words(rng, field_entries, 0, 1 << 10))
    build_index_array(memory, rng, base=HEAP, num_entries=n, target_entries=field_entries)
    out = _out_array(memory)

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r10", HEAP)
    a.movi("r9", HEAP + n * 8)
    a.movi("r11", TABLE)
    a.movi("r12", HEAP3)
    a.movi("r15", out)
    a.movi("r8", 0)
    a.movi("r2", 0)  # field state carried between elements
    a.label("elem")
    a.load("r3", "r10", 0)  # B[i] (stream)
    # The E-field index folds in the previous element's H value (the FDTD
    # leapfrog dependence), serialising the element chain.
    a.add("r3", "r3", "r2")
    a.andi("r3", "r3", field_entries - 1)
    a.shli("r16", "r3", 3)
    a.add("r16", "r16", "r11")
    a.load("r4", "r16", 0)  # E = A[B[i]] (DELINQUENT; value is an index)
    a.store("sp", "r4", 0)  # slice continues through memory
    a.load("r17", "sp", 0)
    a.andi("r17", "r17", field_entries - 1)
    a.shli("r17", "r17", 3)
    a.add("r17", "r17", "r12")
    a.load("r5", "r17", 0)  # H[E] (second-level DELINQUENT)
    a.store("sp", "r5", 8)
    emit_reload_burst(a, slot=1, reloads=14, consumers=5, out_base="r15")
    a.load("r2", "sp", 8)  # next element's field state (through memory)
    a.addi("r10", "r10", 8)
    a.blt("r10", "r9", "elem")
    a.halt()
    return Workload(
        name="fotonik",
        program=a.build(),
        memory=memory,
        description="FDTD analogue: two-level gathers linked through a spill",
        character="slice crosses memory between gather levels; IBDA sees level 1 only",
    )


REGISTRY.register("fotonik", "spec", build_fotonik, "chained gathers through a spill")


# ---------------------------------------------------------------------------
# nab / namd
# ---------------------------------------------------------------------------

def _build_md(name: str, salt: int, variant: str, scale: float, *, through_memory: bool) -> Workload:
    rng = variant_rng(variant, salt=salt)
    memory = MemoryImage()
    pairs = scaled(800 if is_ref(variant) else 660, scale)
    pos_entries = 1 << 18
    build_array(memory, base=TABLE, values=random_words(rng, pos_entries, 1, 1 << 10))
    build_index_array(memory, rng, base=HEAP, num_entries=pairs, target_entries=pos_entries)
    out = _out_array(memory)

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r10", HEAP)
    a.movi("r9", HEAP + pairs * 8)
    a.movi("r11", TABLE)
    a.movi("r15", out)
    a.movi("r8", 0)
    a.movi("r14", 300)
    a.movi("r2", 0)  # running cell offset (depends on gathered positions)
    a.label("pair")
    a.load("r3", "r10", 0)  # neighbour index (stream)
    # The cell-list cursor depends on previously gathered positions, so
    # gathers are serial (latency-critical), as in cell-list MD traversal.
    if through_memory:
        # namd: the cursor passes through the stack (Figure 3's spill
        # idiom); register-only IBDA loses the slice here.
        a.store("sp", "r2", 8)
        a.load("r2", "sp", 8)
    a.add("r3", "r3", "r2")
    a.andi("r3", "r3", (1 << 18) - 1)
    a.shli("r16", "r3", 3)
    a.add("r16", "r16", "r11")
    a.load("r4", "r16", 0)  # position gather (DELINQUENT)
    a.store("sp", "r4", 0)
    emit_reload_burst(a, slot=0, reloads=18, consumers=4, out_base="r15")
    if through_memory:
        a.load("r2", "sp", 0)  # next cursor input (through memory; namd)
    else:
        a.mov("r2", "r4")  # register-carried cursor (nab; IBDA can follow)
    # Distance chain feeding the cutoff branch.
    a.fmul("r17", "r4", "r4")
    a.shri("r17", "r17", 6)
    a.andi("r17", "r17", 1023)
    a.blt("r17", "r14", "interact")  # hard, data-dependent cutoff
    a.addi("r8", "r8", 1)
    a.jmp("pnext")
    a.label("interact")
    a.fmul("r18", "r4", "r17")
    a.fadd("r18", "r18", "r4")
    a.fmul("r19", "r18", "r17")
    a.fdiv("r20", "r19", "r18")
    a.add("r8", "r8", "r20")
    a.label("pnext")
    a.addi("r10", "r10", 8)
    a.blt("r10", "r9", "pair")
    a.halt()
    flavour = "slice passes through the stack" if through_memory else "register-only slice"
    return Workload(
        name=name,
        program=a.build(),
        memory=memory,
        description=f"molecular-dynamics analogue ({flavour})",
        character="neighbour gathers + cutoff branch on a computed distance",
    )


def build_nab(variant: str = "ref", scale: float = 1.0) -> Workload:
    return _build_md("nab", 10, variant, scale, through_memory=False)


def build_namd(variant: str = "ref", scale: float = 1.0) -> Workload:
    return _build_md("namd", 11, variant, scale, through_memory=True)


REGISTRY.register("nab", "spec", build_nab, "MD neighbour gathers + cutoff branch")
REGISTRY.register("namd", "spec", build_namd, "MD gathers with slices through the stack")


# ---------------------------------------------------------------------------
# xz
# ---------------------------------------------------------------------------

def build_xz(variant: str = "ref", scale: float = 1.0) -> Workload:
    """LZMA match-finder analogue: hash-chain probes over a history window."""
    rng = variant_rng(variant, salt=12)
    memory = MemoryImage()
    steps = scaled(700 if is_ref(variant) else 580, scale)
    window = 1 << 14
    build_array(memory, base=HEAP, values=random_words(rng, window, 0, 256))
    hash_entries = 1 << 18
    build_array(memory, base=TABLE, values=random_words(rng, hash_entries, 0, window))
    out = _out_array(memory)

    a = Asm()
    a.movi("sp", STACK)
    a.movi("r10", HEAP)
    a.movi("r9", HEAP + steps * 8)
    a.movi("r11", TABLE)
    a.movi("r12", HEAP)
    a.movi("r15", out)
    a.movi("r8", 0)
    a.movi("r2", 0)  # parse state: depends on previous match results
    a.label("step")
    a.load("r3", "r10", 0)
    a.load("r4", "r10", 8)
    a.load("r5", "r10", 16)
    a.shli("r16", "r3", 8)
    a.or_("r16", "r16", "r4")
    a.shli("r16", "r16", 8)
    a.or_("r16", "r16", "r5")
    # The parse position state (carried through the stack from the previous
    # match) folds into the hash: match finding is serial, as in real LZ.
    a.xor("r16", "r16", "r2")
    a.muli("r16", "r16", 0x9E37)
    a.andi("r16", "r16", hash_entries - 1)
    a.shli("r17", "r16", 3)
    a.add("r17", "r17", "r11")
    a.load("r6", "r17", 0)  # chain head: candidate position (DELINQUENT)
    a.store("sp", "r6", 0)
    emit_reload_burst(a, slot=0, reloads=22, consumers=4, out_base="r15")
    a.shli("r18", "r6", 3)
    a.andi("r18", "r18", (window * 8) - 1)
    a.add("r18", "r18", "r12")
    a.load("r7", "r18", 0)  # window[candidate] (dependent)
    a.bne("r7", "r3", "no_match")  # hard match test
    a.addi("r8", "r8", 4)
    a.jmp("update")
    a.label("no_match")
    a.addi("r8", "r8", 1)
    a.label("update")
    a.shri("r19", "r10", 3)
    a.store("r17", "r19", 0)
    a.load("r2", "sp", 0)  # parse state for the next step (through memory)
    a.addi("r10", "r10", 8)
    a.blt("r10", "r9", "step")
    a.halt()
    return Workload(
        name="xz",
        program=a.build(),
        memory=memory,
        description="LZMA match-finder analogue: hash-chain probes",
        character="dependent hash slice -> probe -> hard match branch",
    )


REGISTRY.register("xz", "spec", build_xz, "hash-chain match finder analogue")
