"""Self-time arithmetic and per-layer derivations on hand-made spans."""

import pytest

from bench.analyze import layer_metrics, paired_overhead, self_times, union_length


def span(span_id, name, t0, t1, parent=None, **attrs):
    record = {"id": span_id, "parent": parent, "name": name, "t0": t0, "t1": t1}
    if attrs:
        record["attrs"] = attrs
    return record


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_nested_children():
    spans = [
        span("1:1", "orchestrate.run", 0.0, 10.0),
        span("1:2", "orchestrate.plan", 1.0, 3.0, parent="1:1"),
        span("1:3", "parallel.run_cells", 5.0, 6.0, parent="1:1"),
        span("1:4", "parallel.cellkey", 5.2, 5.7, parent="1:3"),
    ]
    own = self_times(spans)
    assert own["1:1"] == pytest.approx(7.0)
    assert own["1:3"] == pytest.approx(0.5)
    assert own["1:4"] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Two workers' cells overlap in time under one parent run_cells; one
    # ends after its parent does and is clipped to the parent's interval.
    spans = [
        span("1:1", "parallel.run_cells", 0.0, 10.0, jobs=2),
        span("2:1", "parallel.cell", 1.0, 5.0, parent="1:1"),
        span("3:1", "parallel.cell", 3.0, 8.0, parent="1:1"),
        span("3:2", "parallel.cell", 9.0, 12.0, parent="1:1"),
    ]
    assert self_times(spans)["1:1"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_pool_and_root_metrics():
    spans = [
        span("1:1", "bench.run", 0.0, 10.0),
        span("1:2", "parallel.run_cells", 0.0, 10.0, parent="1:1", jobs=2),
        span("2:1", "parallel.cell", 0.0, 10.0, parent="1:2", label="a/ooo/ref"),
        span("2:2", "uarch.run", 1.0, 9.0, parent="2:1", cycles=800, retired=400),
        span("3:1", "parallel.cell", 0.0, 4.0, parent="1:2", label="b/ooo/ref"),
    ]
    metrics = layer_metrics(spans)
    assert metrics["parallel.pool.busy_frac"] == (pytest.approx(14.0 / 20.0), "ratio")
    assert metrics["parallel.pool.tail_idle_s"][0] == pytest.approx(6.0)
    assert metrics["uarch.cycles_per_s"][0] == pytest.approx(100.0)
    assert metrics["trace.unattributed_frac"][0] == pytest.approx(0.0)
    # Worker roots: 2 s of 10 unclaimed in one cell, all 4 s in the other.
    assert metrics["trace.worker_unattributed_frac"][0] == pytest.approx(6.0 / 14.0)


def test_overhead_is_the_median_ratio_of_paired_operations():
    untraced = {0: 1.0, 1: 2.0, 2: 4.0, 3: 5.0}
    # Operation 3 has no traced twin; the slow drift between pairs cancels.
    traced = {0: 1.1, 1: 2.0, 2: 4.8}
    assert paired_overhead(untraced, traced) == pytest.approx(0.1)
    assert paired_overhead(untraced, {}) == 0.0


def test_redundancy_counts_distinct_inputs_per_operation():
    spans = [
        span("1:1", "orchestrate.run", 0.0, 10.0),
        span("1:2", "orchestrate.run", 10.0, 20.0),
        span("2:1", "isa.execute", 1.0, 2.0, parent="1:1", key=["mcf", "ref", 1.0]),
        span("2:2", "isa.execute", 2.0, 3.0, parent="1:1", key=["mcf", "ref", 1.0]),
        span("2:3", "isa.execute", 11.0, 12.0, parent="1:2", key=["mcf", "ref", 1.0]),
    ]
    assert layer_metrics(spans)["isa.execute.redundancy"][0] == pytest.approx(1.5)
