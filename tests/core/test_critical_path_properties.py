"""Property-based critical-path filter invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import CriticalPathConfig, analyze_dag, extract_slice, filter_slice
from repro.isa import Asm, execute


def random_dag_program(seed: int):
    """Random fan-in tree of ALU ops feeding a root load."""
    rng = random.Random(seed)
    a = Asm()
    live = []
    for i in range(rng.randrange(3, 12)):
        dst = f"r{1 + i}"
        if live and rng.random() < 0.6:
            src1 = rng.choice(live)
            src2 = rng.choice(live)
            if rng.random() < 0.5:
                a.add(dst, src1, src2)
            else:
                a.mul(dst, src1, src2)
        else:
            a.movi(dst, rng.randrange(1, 1 << 12))
        live.append(dst)
    a.andi("r20", rng.choice(live), 0xFF8)
    a.addi("r20", "r20", 0x10000)
    a.load("r21", "r20", 0)  # ROOT
    a.halt()
    return a.build(), a.here() - 2


@given(seed=st.integers(0, 50_000))
@settings(max_examples=60, deadline=None)
def test_kept_set_shrinks_with_keep_fraction(seed):
    program, root_pc = random_dag_program(seed)
    t = execute(program)
    s = extract_slice(t, root_pc)
    previous = None
    for fraction in (0.1, 0.5, 0.9, 1.0):
        kept = filter_slice(t, s, config=CriticalPathConfig(keep_fraction=fraction))
        assert root_pc in kept
        assert kept <= (s.pcs | {root_pc})
        if previous is not None:
            assert kept <= previous, "higher keep_fraction must not add PCs"
        previous = kept


@given(seed=st.integers(0, 50_000))
@settings(max_examples=60, deadline=None)
def test_through_paths_bounded_by_critical(seed):
    program, root_pc = random_dag_program(seed)
    t = execute(program)
    s = extract_slice(t, root_pc)
    for dag in s.dags:
        through, critical = analyze_dag(t, dag, profile=None)
        assert all(0 < v <= critical + 1e-9 for v in through.values())
        # The root terminates every path, so its through-path IS critical.
        assert abs(through[dag.root_seq] - critical) < 1e-9
