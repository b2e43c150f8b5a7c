"""Bench: regenerate Figure 4 (average load slice size)."""

from conftest import BENCH_SCALE

from repro.orchestrate import get_experiment


def test_fig4_slice_size(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("fig4")(scale=BENCH_SCALE).run_inline(**bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    by_name = {row[0]: row for row in result.rows}
    # Shape: pointer-chasing apps' dynamic slices dwarf the ROB (224);
    # moses is among the largest (its slices defeat hardware buffering).
    assert by_name["moses"][2] > 224
    assert by_name["mcf"][2] > 224
    # Compute-bound img_dnn stays comparatively small.
    assert by_name["img_dnn"][2] <= by_name["moses"][2]
