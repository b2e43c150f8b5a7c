"""Backward slice extraction (Section 3.3): termination rules, memory deps."""

from repro.core import dynamic_cone_size, extract_slice
from repro.isa import Asm, execute


def test_simple_address_slice():
    a = Asm()
    a.movi("r1", 0x1000)  # pc 0
    a.addi("r2", "r1", 8)  # pc 1
    a.load("r3", "r2", 0)  # pc 2 (root)
    a.movi("r9", 5)  # pc 3: unrelated
    a.halt()
    t = execute(a.build())
    s = extract_slice(t, 2)
    assert s.pcs == {0, 1, 2}
    assert 3 not in s.pcs


def test_slice_follows_memory_dependence():
    """The Figure 3 case: value spilled to the stack and reloaded."""
    a = Asm()
    a.movi("sp", 0x7FFF0000)  # 0
    a.movi("r1", 0x2000)  # 1
    a.store("sp", "r1", 0)  # 2: spill
    a.load("r2", "sp", 0)  # 3: reload (through memory)
    a.load("r3", "r2", 0)  # 4: root
    a.halt()
    t = execute(a.build())
    s = extract_slice(t, 4)
    assert 2 in s.pcs, "spill store must be in the slice"
    assert 3 in s.pcs
    assert 1 in s.pcs


def test_loop_carried_recursion_terminates():
    """Rule 1: an ancestor whose PC is already in the slice stops the walk."""
    a = Asm()
    a.movi("r1", 0x1000)
    a.movi("r2", 0)
    a.movi("r3", 50)
    a.label("loop")
    a.load("r1", "r1", 0)  # root: self-dependent across iterations
    a.addi("r2", "r2", 1)
    a.blt("r2", "r3", "loop")
    a.halt()
    memory = {(0x1000 + 0) >> 3: 0x1000}  # self-pointing
    t = execute(a.build(), memory=memory)
    s = extract_slice(t, 3)
    # Slice is tiny despite 50 dynamic iterations: each sampled instance's
    # producer is a previous instance of the root itself (rule 1); the
    # initial movi appears only if the very first instance was sampled.
    assert s.pcs <= {0, 3}
    assert s.static_size <= 2


def test_constants_terminate_walk():
    a = Asm()
    a.movi("r1", 0x1000)
    a.load("r2", "r1", 0)
    a.halt()
    t = execute(a.build())
    s = extract_slice(t, 1)
    assert s.pcs == {0, 1}
    # The movi has no producers: the frontier empties.
    assert all(dag.root_seq is not None for dag in s.dags)


def test_dynamic_cone_exceeds_static_slice():
    """Dynamic cone (Figure 4) counts instances; static slice dedups PCs."""
    a = Asm()
    a.movi("r1", 1)
    a.movi("r2", 0)
    a.movi("r3", 100)
    a.label("loop")
    a.add("r1", "r1", "r1")  # self chain: 100 dynamic, 1 static
    a.addi("r2", "r2", 1)
    a.blt("r2", "r3", "loop")
    a.halt()
    a.load("r4", "r1", 0)
    # Unreachable load; instead slice the final add.
    t = execute(a.build())
    root_pc = 3
    last = t.pc_index()[root_pc][-1]
    cone = dynamic_cone_size(t, last)
    s = extract_slice(t, root_pc)
    assert cone > 50
    assert s.static_size <= 4


def test_cone_size_capped():
    a = Asm()
    a.movi("r1", 1)
    a.movi("r2", 0)
    a.movi("r3", 200)
    a.label("loop")
    a.add("r1", "r1", "r1")
    a.addi("r2", "r2", 1)
    a.blt("r2", "r3", "loop")
    a.halt()
    t = execute(a.build())
    last = t.pc_index()[3][-1]
    assert dynamic_cone_size(t, last, max_nodes=64) == 64


def test_merged_slice_covers_multiple_paths():
    """Instances reached from different sites merge (Section 4.1)."""
    a = Asm()
    a.movi("sp", 0x7FFF0000)
    a.movi("r9", 0x3000)
    a.movi("r1", 0)
    a.movi("r2", 40)
    a.jmp("loop")
    a.label("fn")
    a.load("r4", "sp", 0)  # shared root's address input (through memory)
    a.load("r5", "r4", 0)  # ROOT
    a.ret()
    a.label("loop")
    # Site A
    a.addi("r6", "r9", 0)  # distinct producer A
    a.store("sp", "r6", 0)
    a.call("fn")
    # Site B
    a.addi("r7", "r9", 8)  # distinct producer B
    a.store("sp", "r7", 0)
    a.call("fn")
    a.addi("r1", "r1", 1)
    a.blt("r1", "r2", "loop")
    a.halt()
    t = execute(a.build(), memory={0x3000 >> 3: 1, 0x3008 >> 3: 2})
    root_pc = 6  # load r5, r4
    s = extract_slice(t, root_pc, max_instances=30)
    site_a_producer = 8  # addi r6, r9, 0
    site_b_producer = 11  # addi r7, r9, 8
    assert site_a_producer in s.pcs
    assert site_b_producer in s.pcs


def test_extract_slices_kinds():
    a = Asm()
    a.movi("r1", 0x1000)
    a.load("r2", "r1", 0)
    a.beq("r2", "r0", "end")
    a.label("end")
    a.halt()
    t = execute(a.build())
    load_slice = extract_slice(t, 1, kind="load")
    branch_slice = extract_slice(t, 2, kind="branch")
    assert (load_slice.kind, branch_slice.kind) == ("load", "branch")
    assert 1 in branch_slice.pcs  # the branch depends on the load


def test_lazy_dynamic_sizes_match_eager_cones():
    a = Asm()
    a.movi("r1", 1)
    a.movi("r2", 0)
    a.movi("r3", 200)
    a.label("loop")
    a.add("r1", "r1", "r1")
    a.addi("r2", "r2", 1)
    a.blt("r2", "r3", "loop")
    a.halt()
    t = execute(a.build())
    for max_nodes in (64, 4096):  # capped and uncapped cones
        s = extract_slice(t, 3, max_instances=8, max_nodes_per_instance=max_nodes)
        assert len(s.dags) == 8
        eager = [dynamic_cone_size(t, d.root_seq, max_nodes) for d in s.dags]
        assert s.dynamic_sizes == eager
        assert s.avg_dynamic_size == sum(eager) / len(eager)
