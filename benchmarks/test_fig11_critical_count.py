"""Bench: regenerate Figure 11 (total critical instructions)."""

from conftest import BENCH_SCALE

from repro.orchestrate import get_experiment


def test_fig11_critical_count(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("fig11")(scale=BENCH_SCALE).run_inline(**bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    by_name = {row[0]: row for row in result.rows}
    # Shape: the interpreter/compiler-style apps tag the most instructions
    # (the paper's >10k apps were perlbench/gcc/moses).
    counts = {name: row[1] for name, row in by_name.items()}
    top3 = sorted(counts, key=counts.get, reverse=True)[:3]
    assert "perlbench" in top3
    # Every workload with gains tags something; ratios stay in guardrail.
    for name, row in by_name.items():
        assert row[4] <= 0.45, name
