"""Simulated PMU/PEBS profiling."""

import pytest

from repro.core import apply_sampling, profile_workload
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def mcf_profile():
    w = get_workload("mcf", "train", scale=0.3)
    report, stats = profile_workload(w)
    return report, stats


def test_profile_totals_consistent(mcf_profile):
    report, stats = mcf_profile
    assert report.total_insts == stats.retired
    assert report.total_loads == sum(s.execs for s in report.loads.values())
    assert report.total_llc_load_misses == sum(
        s.llc_misses for s in report.loads.values()
    )
    assert 0 < report.load_fraction < 1
    assert report.ipc == pytest.approx(stats.ipc)


def test_miss_contribution_sums_to_one(mcf_profile):
    report, _ = mcf_profile
    total = sum(report.miss_contribution(pc) for pc in report.loads)
    assert total == pytest.approx(1.0)


def test_exec_ratio_and_amat(mcf_profile):
    report, _ = mcf_profile
    for pc, s in report.loads.items():
        assert report.exec_ratio(pc) == pytest.approx(s.execs / report.total_loads)
        if s.execs:
            assert report.amat(pc) > 0


def test_top_missing_loads_sorted(mcf_profile):
    report, _ = mcf_profile
    top = report.top_missing_loads(5)
    misses = [m for _, m in top]
    assert misses == sorted(misses, reverse=True)


def test_profiling_uses_baseline_scheduler():
    """Profiles must come from the unmodified core even if given a CRISP config."""
    from repro.uarch import CoreConfig

    w = get_workload("mcf", "train", scale=0.2)
    report, _ = profile_workload(w, CoreConfig.skylake().with_scheduler("crisp"))
    assert report == profile_workload(w)[0]  # forced to oldest_first


def test_profile_is_the_train_inputs_ooo_cell():
    """Step 1 is the ``ooo`` run of the train input: its stats are the
    ``ooo`` cell's, so a cached cell could stand in for the profile."""
    from repro.parallel import run_cells
    from repro.parallel.cellkey import CellSpec

    (cell,) = run_cells([CellSpec("mcf", "ooo", scale=0.2, variant="train")])
    _, stats = profile_workload(get_workload("mcf", "train", scale=0.2))
    assert stats.to_dict() == cell.require_stats().to_dict()


def test_shared_trace_avoids_refunctional_run(monkeypatch):
    """The profile replays the workload's memoized trace, the one the flow
    slices, instead of emulating the input again."""
    import repro.workloads.base as base

    w = get_workload("mcf", "train", scale=0.2)
    trace = w.trace()

    def second_emulation(*args, **kwargs):
        raise AssertionError("the profile emulated the input again")

    monkeypatch.setattr(base, "execute", second_emulation)
    report, _ = profile_workload(w)
    assert report.total_insts == len(trace)


def test_pebs_sampling_preserves_rankings(mcf_profile):
    report, _ = mcf_profile
    sampled = apply_sampling(report, period=4, seed=11)
    # Unbiased thinning: totals shrink but the heavy hitters remain on top.
    assert sampled.total_loads <= report.total_loads * 1.5
    top_exact = {pc for pc, _ in report.top_missing_loads(3)}
    top_sampled = {pc for pc, _ in sampled.top_missing_loads(6)}
    assert top_exact & top_sampled


def test_sampling_period_one_is_identity(mcf_profile):
    report, _ = mcf_profile
    assert apply_sampling(report, period=1) is report
