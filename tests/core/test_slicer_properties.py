"""Property-based slice invariants on randomly generated programs."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import extract_slice
from repro.isa import Asm, execute


def random_program(rng, n_ops=30):
    """Random straight-line mix of ALU, spills and loads ending in a root load."""
    a = Asm()
    a.movi("sp", 0x7FFF0000)
    a.movi("r1", 0x10000)
    live = ["r1"]
    for i in range(n_ops):
        choice = rng.random()
        dst = f"r{2 + (i % 10)}"
        src = rng.choice(live)
        if choice < 0.4:
            a.addi(dst, src, rng.randrange(64) * 8)
        elif choice < 0.6:
            a.store("sp", src, 8 * rng.randrange(4))
        elif choice < 0.8:
            a.load(dst, "sp", 8 * rng.randrange(4))
        else:
            a.andi(dst, src, 0xFFF8)
        if not choice < 0.6:
            live.append(dst)
    a.andi("r20", rng.choice(live), 0x1FF8)
    a.addi("r20", "r20", 0x10000)
    a.load("r21", "r20", 0)  # ROOT
    a.halt()
    return a.build(), a.here() - 2  # pc of the root load


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_slice_closure_over_producers(seed):
    """Every dynamic producer of a slice member instance is in the slice,
    unless excluded by termination rule 1 (PC already present)."""
    rng = random.Random(seed)
    program, root_pc = random_program(rng)
    t = execute(program)
    s = extract_slice(t, root_pc)
    assert root_pc in s.pcs
    for dag in s.dags:
        for seq in dag.nodes:
            for producer in t[seq].producers():
                # Closure: the producer's PC is in the static slice.
                assert t[producer].pc in s.pcs or producer in dag.nodes


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_dag_edges_respect_program_order(seed):
    rng = random.Random(seed)
    program, root_pc = random_program(rng)
    t = execute(program)
    s = extract_slice(t, root_pc)
    for dag in s.dags:
        for producer, consumer in dag.edges:
            assert producer < consumer, "dataflow edges must go forward in time"
        assert dag.root_seq in dag.nodes


@given(seed=st.integers(0, 10_000), instances=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_more_instances_never_shrink_slice(seed, instances):
    rng = random.Random(seed)
    program, root_pc = random_program(rng)
    t = execute(program)
    small = extract_slice(t, root_pc, max_instances=1)
    large = extract_slice(t, root_pc, max_instances=instances)
    assert small.pcs <= large.pcs
