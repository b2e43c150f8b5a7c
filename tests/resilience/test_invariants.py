"""Invariant checker: clean runs audit green; corrupted state is caught."""

from __future__ import annotations

import pytest

from repro.frontend.ftq import FetchTargetQueue
from repro.resilience import (
    INVARIANT_CLASSES,
    InvariantChecker,
    InvariantViolation,
    audit_age_matrix,
    check_age_matrix,
)
from repro.sim.simulator import simulate
from repro.uarch.age_matrix import AgeMatrix
from repro.uarch.pipeline import Pipeline
from repro.workloads import get_workload


def test_from_mode():
    assert InvariantChecker.from_mode("off") is None
    assert InvariantChecker.from_mode(None) is None
    periodic = InvariantChecker.from_mode("periodic")
    full = InvariantChecker.from_mode("full")
    assert full.interval == 1
    assert periodic.interval > full.interval
    with pytest.raises(ValueError, match="invariants mode"):
        InvariantChecker.from_mode("sometimes")


@pytest.mark.parametrize("mode", ["ooo", "crisp", "ibda-1k"])
def test_clean_run_passes_full_audit(mode):
    """Every cycle audited, including the final drain check."""
    wl = get_workload("mcf", scale=0.05)
    kwargs = {"critical_pcs": frozenset({5, 6})} if mode == "crisp" else {}
    result = simulate(wl, mode, invariants="full", **kwargs)
    assert result.stats.retired > 0


def test_audits_do_not_change_timing(mcf_trace):
    baseline = Pipeline(mcf_trace).run()
    audited = Pipeline(mcf_trace, invariants="full").run()
    assert audited.cycles == baseline.cycles
    assert audited.retired == baseline.retired


def test_every_invariant_class_has_a_description():
    assert len(INVARIANT_CLASSES) >= 8
    for name, description in INVARIANT_CLASSES.items():
        assert name.replace("_", "").isalnum()
        assert len(description) > 20, name


# -- mid-run structural corruption ------------------------------------------


def _corrupt_on_nth_alloc(pipe, n, corrupt):
    """Run ``corrupt(pipe)`` after the n-th ROB allocation."""
    real_allocate = pipe.rob.allocate
    calls = {"n": 0}

    def allocate(seq):
        real_allocate(seq)
        calls["n"] += 1
        if calls["n"] == n:
            corrupt(pipe)

    pipe.rob.allocate = allocate


def _expect_violation(mcf_trace, invariant, corrupt, interval=64):
    pipe = Pipeline(mcf_trace, invariants=InvariantChecker(interval=interval))
    _corrupt_on_nth_alloc(pipe, 40, corrupt)
    with pytest.raises(InvariantViolation) as exc_info:
        pipe.run()
    assert exc_info.value.invariant == invariant, str(exc_info.value)
    return exc_info.value


def test_rob_order_violation_caught(mcf_trace):
    """A non-contiguous entry in the window breaks program order."""
    violation = _expect_violation(
        mcf_trace, "rob_order", lambda p: p.rob._queue.append(10**9)
    )
    assert "where" in violation.detail


def test_rob_capacity_violation_caught(mcf_trace):
    def corrupt(pipe):
        pipe.rob.entries = 4  # occupancy is already far past this

    _expect_violation(mcf_trace, "rob_capacity", corrupt)


def test_scheduler_ready_violation_caught(mcf_trace):
    def corrupt(pipe):
        heap = next(iter(pipe.scheduler._heaps.values()))
        heap.append((1, 10**9, 0))  # a phantom entry the size tracker missed

    # Full cadence: the phantom must be caught the same cycle, before the
    # issue stage can pop it and walk off the end of the trace.
    _expect_violation(mcf_trace, "scheduler_ready", corrupt, interval=1)


def test_lsq_consistency_violation_caught(mcf_trace):
    """An entry that never releases drifts out of the ROB window."""
    violation = _expect_violation(
        mcf_trace, "lsq_consistency", lambda p: p.lsq._loads.add(10**9)
    )
    assert "outside the ROB window" in violation.detail


# -- age-matrix audits (unit level) ------------------------------------------


def _occupied_matrix(slots=8, fill=4):
    am = AgeMatrix(slots)
    for _ in range(fill):
        am.insert()
    return am


def test_age_matrix_clean():
    assert check_age_matrix(_occupied_matrix()) == []
    audit_age_matrix(_occupied_matrix())  # no raise


def test_age_matrix_self_age_bit_caught():
    am = _occupied_matrix()
    slot = next(s for s in range(am.num_slots) if (am._occupied >> s) & 1)
    am._age_mask[slot] |= 1 << slot
    problems = check_age_matrix(am)
    assert any("self-age bit" in p for p in problems)
    with pytest.raises(InvariantViolation) as exc_info:
        audit_age_matrix(am, cycle=123)
    assert exc_info.value.invariant == "age_matrix_order"
    assert exc_info.value.cycle == 123


def test_age_matrix_symmetric_inversion_caught():
    am = _occupied_matrix()
    occupied = [s for s in range(am.num_slots) if (am._occupied >> s) & 1]
    a, b = occupied[0], occupied[1]
    am._age_mask[a] |= 1 << b
    am._age_mask[b] |= 1 << a
    assert any("each claim the other" in p for p in check_age_matrix(am))


def test_age_matrix_bits_on_empty_slots_caught():
    am = _occupied_matrix()
    empty = next(s for s in range(am.num_slots) if not (am._occupied >> s) & 1)
    am._ready |= 1 << empty
    assert check_age_matrix(am) != []


# -- FTQ conservation counters (unit level) ----------------------------------


def test_ftq_conservation_counters():
    ftq = FetchTargetQueue(entries=4)
    assert ftq.push(0x40)
    assert ftq.push(0x40)  # coalesced: not a new entry
    assert ftq.push(0x80)
    assert ftq.pushed == 2
    assert ftq.pop() == 0x40
    ftq.flush()
    assert len(ftq) == ftq.pushed - ftq.popped - ftq.flushed == 0
    assert (ftq.pushed, ftq.popped, ftq.flushed) == (2, 1, 1)
