"""Acceptance: sampled vs full detailed simulation (speed and error).

ISSUE criterion: on a scale >= 4 tier-1 workload, ``--sample=smarts:...``
achieves at least a 5x reduction in detailed-simulated cycles while the
absolute IPC error against the full detailed run stays within 2%.
"""

from __future__ import annotations

import pytest

from repro.sampling import parse_sample, simulate_sampled
from repro.sim import simulate
from repro.workloads import get_workload

SPEC = "smarts:1000/10000"


@pytest.fixture(scope="module")
def mcf4():
    workload = get_workload("mcf", scale=4)
    full = simulate(workload, "ooo").stats
    return workload, full


def test_smarts_hits_speedup_and_error_budget(mcf4):
    workload, full = mcf4
    est = simulate_sampled(workload, "ooo", plan=parse_sample(SPEC))

    reduction = full.cycles / est.detailed_cycles
    assert reduction >= 5.0, f"only {reduction:.1f}x detailed-cycle reduction"

    error = abs(est.ipc - full.ipc) / full.ipc
    assert error <= 0.02, f"IPC error {error:.1%} exceeds 2%"


def test_confidence_interval_brackets_the_truth(mcf4):
    workload, full = mcf4
    est = simulate_sampled(workload, "ooo", plan=parse_sample(SPEC))
    lo, hi = est.ipc_ci
    assert lo < est.ipc < hi
    # The 95% CI is calibrated against sampling noise, not a guarantee,
    # but on this deterministic workload/plan pair it contains the truth.
    assert lo <= full.ipc <= hi


def test_extrapolated_stats_have_run_magnitude(mcf4):
    workload, full = mcf4
    est = simulate_sampled(workload, "ooo", plan=parse_sample(SPEC))
    assert est.extrapolated.retired == full.retired
    assert est.extrapolated.cycles == est.est_cycles
    # Extrapolated load counts land near the full run's (same error class
    # as IPC; generous 10% bound to stay robust).
    assert est.extrapolated.loads == pytest.approx(full.loads, rel=0.10)
