"""Critical-path filtering, cross-checked against networkx longest paths."""

import networkx as nx
import pytest

from repro.core import (
    CriticalPathConfig,
    analyze_dag,
    extract_slice,
    filter_slice,
    node_latency,
)
from repro.isa import Asm, execute


def build_two_arm_slice():
    """Root load fed by a long arm (serial MULs) and a short arm (one ADDI).

    Both arms merge into the address; only the long arm is critical.
    """
    a = Asm()
    a.movi("r1", 16)  # 0: long arm start
    a.mul("r1", "r1", "r1")  # 1
    a.mul("r1", "r1", "r1")  # 2
    a.mul("r1", "r1", "r1")  # 3
    a.andi("r1", "r1", 0xFF8)  # 4
    a.movi("r2", 8)  # 5: short arm
    a.add("r3", "r1", "r2")  # 6: merge
    a.addi("r3", "r3", 0x10000)  # 7
    a.load("r4", "r3", 0)  # 8: ROOT
    a.halt()
    return a.build()


def test_long_arm_kept_short_arm_dropped():
    t = execute(build_two_arm_slice())
    s = extract_slice(t, 8)
    kept = filter_slice(t, s, profile=None, config=CriticalPathConfig(keep_fraction=0.9))
    assert {1, 2, 3, 6, 7, 8} <= kept
    assert 5 not in kept, "the cheap short arm is not on the critical path"


def test_keep_fraction_one_keeps_only_strict_critical_path():
    t = execute(build_two_arm_slice())
    s = extract_slice(t, 8)
    strict = filter_slice(t, s, config=CriticalPathConfig(keep_fraction=1.0))
    loose = filter_slice(t, s, config=CriticalPathConfig(keep_fraction=0.1))
    assert strict <= loose
    assert 5 in loose


def test_root_always_survives():
    t = execute(build_two_arm_slice())
    s = extract_slice(t, 8)
    kept = filter_slice(t, s, config=CriticalPathConfig(keep_fraction=1.0))
    assert 8 in kept


def test_through_path_matches_networkx():
    """analyze_dag's critical length == networkx dag_longest_path_length."""
    t = execute(build_two_arm_slice())
    s = extract_slice(t, 8)
    dag = s.dags[0]
    through, critical = analyze_dag(t, dag, profile=None)

    g = nx.DiGraph()
    for seq in dag.nodes:
        g.add_node(seq, weight=node_latency(t, seq, None))
    for p, c in dag.edges:
        if p in dag.nodes and c in dag.nodes:
            g.add_edge(p, c)
    # Longest path by node weights.
    best = 0.0
    for path in nx.all_simple_paths(
        g, source=min(dag.nodes), target=dag.root_seq
    ):
        best = max(best, sum(g.nodes[n]["weight"] for n in path))
    # networkx enumerates from one source; take max over all sources.
    for source in [n for n in g.nodes if g.in_degree(n) == 0]:
        for path in nx.all_simple_paths(g, source=source, target=dag.root_seq):
            best = max(best, sum(g.nodes[n]["weight"] for n in path))
    assert critical == pytest.approx(best)
    assert max(through.values()) == pytest.approx(best)


def test_load_latency_uses_amat_from_profile():
    from repro.core.profiler import ProfileReport
    from repro.uarch.stats import PcLoadStats

    a = Asm()
    a.movi("r1", 0x1000)
    a.load("r2", "r1", 0)  # pc 1
    a.load("r3", "r2", 0)  # pc 2: ROOT, depends on a load
    a.halt()
    t = execute(a.build(), memory={0x1000 >> 3: 0x2000})
    profile = ProfileReport(
        workload_name="x",
        variant="train",
        total_insts=4,
        total_cycles=100,
        total_loads=2,
        total_llc_load_misses=1,
        ipc=1.0,
        load_fraction=0.5,
        loads={1: PcLoadStats(execs=1, llc_misses=1, latency_sum=180)},
    )
    inner_load_seq = t.pc_index()[1][0]
    assert node_latency(t, inner_load_seq, profile) == 180.0
    assert node_latency(t, inner_load_seq, None) == t[inner_load_seq].sinst.latency
