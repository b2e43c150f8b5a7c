"""Bench: regenerate Figure 12 (code footprint overhead of the prefix)."""

from conftest import BENCH_SCALE

from repro.orchestrate import get_experiment


def _pct(cell: str) -> float:
    return float(cell.rstrip("%"))


def test_fig12_footprint(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("fig12")(scale=BENCH_SCALE).run_inline(**bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    mean = result.row_for("mean")
    static_mean = _pct(mean[1])
    dynamic_mean = _pct(mean[2])
    # Section 5.7 shapes: overheads are small; the dynamic footprint grows
    # more than the static one (critical instructions live in hot loops).
    assert 0.0 <= static_mean < 8.0
    assert dynamic_mean >= static_mean - 0.5
    assert dynamic_mean < 15.0
    # I-cache MPKI impact stays small for every workload (paper: <=2.6%
    # relative). At these MPKI levels (<1) percentage deltas are noise, so
    # the bound is absolute: well under one extra miss per kilo-instruction.
    for row in result.rows[:-1]:
        base_mpki, crisp_mpki = row[3], row[4]
        assert crisp_mpki - base_mpki < 0.25, row[0]
