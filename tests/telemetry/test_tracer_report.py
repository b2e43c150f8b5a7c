"""Event tracing + run reports: schema validity, golden trace, exports."""

import io
import json
import pathlib

import pytest

from repro.isa import Asm, execute
from repro.sim import simulate
from repro.telemetry import (
    EVENT_TYPES,
    EventTracer,
    build_report,
    validate_event,
)
from repro.uarch import CoreConfig, Pipeline
from repro.workloads import get_workload

GOLDEN = pathlib.Path(__file__).parent / "golden_trace.jsonl"


def golden_pipeline(tracer):
    """Tiny deterministic program behind the golden trace file."""
    a = Asm()
    a.movi("r1", 1)
    a.addi("r2", "r1", 2)
    a.load("r3", "r1", 0x2000)
    a.halt()
    return Pipeline(execute(a.build(), memory={}), CoreConfig.skylake(), tracer=tracer)


def test_golden_trace_is_stable():
    """The JSONL for a fixed microprogram is byte-identical to the golden
    file. Regenerate after an intentional pipeline-timing change with:
    PYTHONPATH=src python -c "import tests.telemetry.test_tracer_report as t; \
        tr = t.EventTracer(sample_interval=4); t.golden_pipeline(tr).run(); \
        t.GOLDEN.write_text(tr.to_jsonl())"
    """
    tracer = EventTracer(sample_interval=4)
    golden_pipeline(tracer).run()
    assert tracer.to_jsonl() == GOLDEN.read_text()


def test_jsonl_schema_valid_on_microbench():
    workload = get_workload("pointer_chase", "ref", scale=0.2)
    tracer = EventTracer(sample_interval=32)
    result = simulate(workload, "ooo", tracer=tracer)
    lines = tracer.to_jsonl().splitlines()
    assert len(lines) > 100
    seen = set()
    for line in lines:
        obj = json.loads(line)
        validate_event(obj)  # raises on schema violation
        seen.add(obj["event"])
    # A real run exercises the instruction lifecycle and the sampler.
    for required in ("fetch", "dispatch", "issue", "complete", "retire", "sample"):
        assert required in seen
    assert seen <= set(EVENT_TYPES)
    # Cycle-sorted output (events merged with samples).
    cycles = [json.loads(line)["cycle"] for line in lines]
    assert cycles == sorted(cycles)
    assert result.stats.retired > 0


def test_validate_event_rejects_bad_rows():
    validate_event({"cycle": 3, "event": "issue", "seq": 1, "pc": 2,
                    "critical": False})
    with pytest.raises(ValueError):
        validate_event({"event": "issue"})  # missing cycle
    with pytest.raises(ValueError):
        validate_event({"cycle": 1, "event": "warp"})  # unknown type
    with pytest.raises(ValueError):
        validate_event({"cycle": 1, "event": "issue", "bogus": 1})
    with pytest.raises(ValueError):
        validate_event({"cycle": -1, "event": "issue"})


def test_chrome_trace_structure(tmp_path):
    workload = get_workload("pointer_chase", "ref", scale=0.2)
    tracer = EventTracer(sample_interval=32)
    simulate(workload, "ooo", tracer=tracer)
    path = tmp_path / "trace.chrome.json"
    count = tracer.write_chrome_trace(str(path))
    trace = json.loads(path.read_text())
    events = trace["traceEvents"]
    assert len(events) == count > 100
    phases = {ev["ph"] for ev in events}
    assert {"X", "C", "M"} <= phases  # slices, counters, metadata
    for ev in events:
        assert "pid" in ev and "name" in ev
        if ev["ph"] == "X":
            assert ev["dur"] >= 1 and ev["ts"] >= 0
        if ev["ph"] == "C":
            assert "occupancy" == ev["name"] and isinstance(ev["args"], dict)


def test_chrome_trace_is_one_c_encoded_dump(tmp_path):
    """Path and file targets both get ``json.dumps`` of the trace, which
    is byte for byte what ``json.dump`` streamed into the handle."""
    tracer = EventTracer(sample_interval=4)
    golden_pipeline(tracer).run()
    expected = json.dumps(tracer.to_chrome_trace())
    streamed = io.StringIO()
    json.dump(tracer.to_chrome_trace(), streamed)
    assert streamed.getvalue() == expected
    path = tmp_path / "trace.chrome.json"
    tracer.write_chrome_trace(str(path))
    assert path.read_text() == expected
    handle = io.StringIO()
    tracer.write_chrome_trace(handle)
    assert handle.getvalue() == expected


def test_tracer_event_cap_counts_drops():
    workload = get_workload("pointer_chase", "ref", scale=0.2)
    tracer = EventTracer(sample_interval=64, max_events=50)
    simulate(workload, "ooo", tracer=tracer)
    assert len(tracer.events) == 50
    assert tracer.dropped > 0
    assert len(tracer.samples) > 0  # samples keep flowing past the cap


def test_traced_run_populates_gauges_and_histograms():
    workload = get_workload("pointer_chase", "ref", scale=0.2)
    tracer = EventTracer(sample_interval=16)
    result = simulate(workload, "ooo", tracer=tracer)
    reg = result.registry
    assert reg.get("uarch.rob.occupancy").count > 0
    assert reg.get("memory.demand.load_latency").count == result.stats.loads
    assert reg.get("uarch.sched.ready_to_issue_delay").count > 0


def test_untraced_run_registry_matches_stats():
    workload = get_workload("pointer_chase", "ref", scale=0.2)
    result = simulate(workload, "ooo")
    reg = result.registry
    s = result.stats
    assert reg.value("core.cycles") == s.cycles
    assert reg.value("core.retired") == s.retired
    assert reg.value("core.stall.rob_head_cycles") == s.rob_head_stall_cycles
    assert reg.value("memory.llc.misses") == s.llc_misses
    assert reg.value("memory.dram.requests") == s.dram_requests
    # Gauges/histograms stay empty without a tracer (zero hot-loop cost).
    assert reg.get("uarch.rob.occupancy").count == 0
    assert reg.get("memory.demand.load_latency").count == 0


def test_run_report_markdown_and_json():
    workload = get_workload("pointer_chase", "ref", scale=0.2)
    result = simulate(workload, "ooo")
    report = build_report(result)
    md = report.to_markdown()
    assert "# Run report — pointer_chase (ooo)" in md
    assert "rob_head_stall" in md and "Stall attribution" in md
    assert "Top head-of-ROB stall PCs" in md
    payload = json.loads(report.to_json())
    assert payload["cycles"] == result.stats.cycles
    assert payload["metrics"]["core.retired"]["value"] == result.stats.retired
    assert payload["stall_attribution"][0]["source"] == "rob_head_stall"


def test_simresult_report_shortcut_matches_build_report():
    workload = get_workload("pointer_chase", "ref", scale=0.2)
    result = simulate(workload, "ooo")
    assert result.report().to_markdown() == build_report(result).to_markdown()
