"""Per-layer metrics from a list of spans (see bench/spans.py).

A span's self time is its duration minus the part of that interval its
child spans cover. Children may overlap each other: the two pool workers'
``parallel.cell`` spans both hang under one parent ``parallel.run_cells``,
whose self time is then the time no worker was busy. Every metric named
here is always emitted; one a workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from .spans import SPAN_NAMES

#: Spans that also report their inclusive time (``.total_s``).
TOTAL_SPANS = ("bench.run", "parallel.cell", "serve.request", "core.fdo")


def union_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(spans: list[dict]) -> dict[str, float]:
    """span id -> duration minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = {}
    for span in spans:
        t0, t1 = span["t0"], span["t1"]
        clipped = [(max(c["t0"], t0), min(c["t1"], t1)) for c in children[span["id"]]]
        result[span["id"]] = (t1 - t0) - union_length(
            (a, b) for a, b in clipped if b > a)
    return result


def _pid(span_id: str) -> str:
    return span_id.split(":", 1)[0]


def is_process_root(span: dict, ids: set[str]) -> bool:
    """No parent in the trace, or a parent in another process."""
    parent = span["parent"]
    return parent is None or parent not in ids or _pid(parent) != _pid(span["id"])


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0 if empty."""
    values = sorted(values)
    if not values:
        return 0.0
    position = (len(values) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def paired_overhead(untraced: dict, traced: dict) -> float:
    """Median over operations of traced ÷ untraced time, minus 1.

    Both map an operation key to its time; an operation is paired with the
    one that did the same work under the other setting. 0 with no pair.
    """
    ratios = [traced[key] / untraced[key] for key in untraced
              if key in traced and untraced[key] > 0]
    return percentile(ratios, 50) - 1.0 if ratios else 0.0


def _op_of(span: dict, by_id: dict[str, dict]):
    """The id of the ``orchestrate.run`` enclosing a span, across processes."""
    parent = span["parent"]
    while parent is not None and parent in by_id:
        node = by_id[parent]
        if node["name"] == "orchestrate.run":
            return node["id"]
        parent = node["parent"]
    return None


def _redundancy(spans: list[dict], by_id: dict[str, dict]) -> float:
    """Calls per distinct input key, counting keys separately per operation."""
    if not spans:
        return 0.0
    distinct = set()
    for span in spans:
        key = span.get("attrs", {}).get("key")
        key = tuple(key) if key is not None else ("call", span["id"])
        distinct.add((_op_of(span, by_id), key))
    return len(spans) / len(distinct)


def _pool_metrics(spans: list[dict], by_name: dict[str, list[dict]]):
    """(busy fraction, tail idle worker-seconds) over pooled run_cells calls."""
    cells_by_parent = defaultdict(list)
    for cell in by_name["parallel.cell"]:
        if cell["parent"] is not None:
            cells_by_parent[cell["parent"]].append(cell)
    busy = capacity = tail = 0.0
    for call in by_name["parallel.run_cells"]:
        cells = [c for c in cells_by_parent[call["id"]]
                 if _pid(c["id"]) != _pid(call["id"])]
        if not cells:
            continue
        jobs = call.get("attrs", {}).get("jobs", 1)
        busy += sum(c["t1"] - c["t0"] for c in cells)
        capacity += jobs * (call["t1"] - call["t0"])
        last_by_worker = defaultdict(float)
        for cell in cells:
            last_by_worker[_pid(cell["id"])] = max(
                last_by_worker[_pid(cell["id"])], cell["t1"])
        end = max(last_by_worker.values())
        tail += sum(end - last for last in last_by_worker.values())
    return _ratio(busy, capacity), tail


def layer_metrics(spans: list[dict], *, ops: int = 1,
                  submits: dict[str, float] | None = None) -> dict[str, tuple[float, str]]:
    """Every span-derived per-layer metric as ``name -> (value, unit)``.

    Counts and times are per operation of the traced phase (``ops`` of
    them), so runs that fit a different number of operations into their
    time compare directly. ``submits`` maps a serve job's cell label to the
    client's send time, from which queue wait is measured up to the worker
    starting the cell.
    """
    ids = {span["id"] for span in spans}
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {name: [] for name in SPAN_NAMES}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    metrics: dict[str, tuple[float, str]] = {}

    def per_op(metric: str, total: float, unit: str) -> None:
        metrics[metric] = (total / ops, f"{unit}/op")

    for name in SPAN_NAMES:
        group = by_name[name]
        per_op(f"{name}.calls", len(group), "count")
        per_op(f"{name}.self_s", sum(own[s["id"]] for s in group), "s")
        if name in TOTAL_SPANS:
            per_op(f"{name}.total_s", sum(s["t1"] - s["t0"] for s in group), "s")

    def attr_sum(name: str, attr: str) -> float:
        return sum(s.get("attrs", {}).get(attr, 0) for s in by_name[name])

    per_op("isa.execute.insts", attr_sum("isa.execute", "insts"), "count")
    metrics["isa.execute.redundancy"] = (
        _redundancy(by_name["isa.execute"], by_id), "ratio")
    metrics["core.fdo.redundancy"] = (_redundancy(by_name["core.fdo"], by_id), "ratio")

    cycles = attr_sum("uarch.run", "cycles")
    per_op("uarch.cycles", cycles, "count")
    metrics["uarch.cycles_per_s"] = (
        _ratio(cycles, metrics["uarch.run.self_s"][0] * ops), "1/s")

    warmed = attr_sum("sampling.warm", "insts")
    detailed = attr_sum("sampling.interval", "insts")
    per_op("sampling.insts_warmed", warmed, "count")
    per_op("sampling.insts_detailed", detailed, "count")
    metrics["sampling.warm_per_detail"] = (_ratio(warmed, detailed), "ratio")

    hits = attr_sum("parallel.cache.get", "hit")
    lookups = len(by_name["parallel.cache.get"])
    per_op("parallel.cache.hits", hits, "count")
    per_op("parallel.cache.misses", lookups - hits, "count")
    metrics["parallel.cache.hit_ratio"] = (_ratio(hits, lookups), "ratio")

    busy_frac, tail_idle = _pool_metrics(spans, by_name)
    metrics["parallel.pool.busy_frac"] = (busy_frac, "ratio")
    per_op("parallel.pool.tail_idle_s", tail_idle, "s")
    cell_times = [s["t1"] - s["t0"] for s in by_name["parallel.cell"]]
    metrics["parallel.cell.p50_s"] = (percentile(cell_times, 50), "s")
    metrics["parallel.cell.p90_s"] = (percentile(cell_times, 90), "s")

    waits, services = [], []
    for cell in by_name["parallel.cell"]:
        sent = (submits or {}).get(cell.get("attrs", {}).get("label"))
        if sent is not None:
            waits.append(cell["t0"] - sent)
            services.append(cell["t1"] - cell["t0"])
    metrics["serve.queue_wait_p50_s"] = (percentile(waits, 50), "s")
    metrics["serve.queue_wait_p90_s"] = (percentile(waits, 90), "s")
    metrics["serve.service_p50_s"] = (percentile(services, 50), "s")

    # Root residuals: time inside a root span that no layer span claims.
    for metric, roots in (
        ("trace.unattributed_frac", by_name["bench.run"]),
        ("trace.worker_unattributed_frac",
         [s for s in by_name["parallel.cell"] if is_process_root(s, ids)]),
    ):
        metrics[metric] = (_ratio(sum(own[s["id"]] for s in roots),
                                  sum(s["t1"] - s["t0"] for s in roots)), "ratio")
    return metrics
