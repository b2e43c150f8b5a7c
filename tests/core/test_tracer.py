"""Trace queries the slicer runs: the per-PC index and instance sampling.

The emulator's :class:`~repro.isa.emulator.ExecutionTrace` is the
memtrace stand-in; :meth:`~repro.isa.emulator.ExecutionTrace.pc_index`
lists a PC's dynamic instances and :func:`repro.core.slicer.sample_instances`
picks the ones a slice merges.
"""

from repro.core.slicer import sample_instances
from repro.isa import Asm, execute


def _looped_trace(n=50):
    a = Asm()
    a.movi("r1", 0)
    a.movi("r2", n)
    a.label("loop")
    a.addi("r1", "r1", 1)
    a.blt("r1", "r2", "loop")
    a.halt()
    return execute(a.build())


def test_instances_in_order():
    t = _looped_trace(10)
    instances = t.pc_index()[2]  # the addi
    assert len(instances) == 10
    assert instances == sorted(instances)
    assert all(t[seq].pc == 2 for seq in instances)


def test_exec_count_matches():
    t = _looped_trace(17)
    assert len(t.pc_index()[2]) == t.dynamic_count(2) == 17
    assert 999 not in t.pc_index()
    assert t.dynamic_count(999) == 0


def test_index_entries_are_positions():
    """The index is built from each instruction's ``seq``; that must be its
    position in executed traces and in re-sequenced trace slices alike."""
    from repro.sampling import slice_trace

    t = _looped_trace(30)
    for trace in (t, slice_trace(t, 17, 41)):
        for pc, positions in trace.pc_index().items():
            assert all(trace.insts[pos].pc == pc for pos in positions)
        assert sum(map(len, trace.pc_index().values())) == len(trace)


def test_sampling_returns_all_when_few():
    t = _looped_trace(5)
    assert sample_instances(t, 2, 10) == t.pc_index()[2]


def test_sampling_is_deterministic_and_bounded():
    t = _looped_trace(100)
    s1 = sample_instances(t, 2, 10)
    s2 = sample_instances(t, 2, 10)
    assert s1 == s2
    assert len(s1) == 10
    assert set(s1) <= set(t.pc_index()[2])


def test_sampling_avoids_stride_aliasing():
    """A root called from N rotating sites must have all sites sampled.

    This regression-tests the moses failure mode: 24 call sites, an
    instance count divisible by a shared factor, and strided sampling
    covering only N/gcd sites.
    """
    sites = 8
    a = Asm()
    a.movi("r1", 0)
    a.movi("r2", 9 * sites)  # 72 iterations -> stride 72/24 aliases with 8
    a.jmp("loop")
    a.label("shared")
    a.addi("r3", "r3", 1)  # the shared "root"
    a.ret()
    a.label("loop")
    for s in range(sites):
        a.call("shared")
        a.addi("r1", "r1", 1)
    a.movi("r4", 9 * sites)
    a.blt("r1", "r4", "loop")
    a.halt()
    t = execute(a.build())
    root_pc = 3  # the addi inside 'shared'
    assert t.dynamic_count(root_pc) == 9 * sites
    samples = sample_instances(t, root_pc, 24)
    # Identify the call site of each sampled instance via the preceding call.
    def site_of(seq):
        d = t[seq - 1]  # the CALL executes right before the root
        return d.pc

    covered = {site_of(s) for s in samples}
    assert len(covered) >= 6  # random sampling covers most of the 8 sites
