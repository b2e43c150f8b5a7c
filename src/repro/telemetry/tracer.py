"""Cycle-sampled pipeline event tracer.

The tracer records per-instruction pipeline events (fetch, dispatch, issue,
complete, retire) plus point events (LLC misses, mispredict flushes) and
periodic occupancy samples, and exports them in two formats:

* **JSONL** -- one JSON object per line, schema in :data:`JSONL_SCHEMA`;
  trivially consumed by ``pandas.read_json(..., lines=True)`` / ``jq``.
* **Chrome trace** -- the ``chrome://tracing`` / Perfetto JSON format:
  instruction lifetimes become duration slices on a small number of lanes,
  occupancy samples become counter tracks, and flushes become instant
  events. Open the file at ``chrome://tracing`` or https://ui.perfetto.dev.

Tracing a full evaluation run is large, so the tracer is bounded: it stops
recording instruction events after ``max_events`` (occupancy samples keep
flowing -- they are one row per ``sample_interval`` cycles, not per
instruction). Attach a tracer via ``simulate(..., tracer=...)`` or
``Pipeline(..., tracer=...)``; see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
from typing import IO

#: Event types emitted per dynamic instruction (in pipeline order) plus
#: point events. Kept in one place so schema validation and docs agree.
EVENT_TYPES = (
    "fetch",
    "dispatch",
    "issue",
    "complete",
    "retire",
    "llc_miss",
    "flush",
    "sample",
)

#: JSON-schema (draft-07 subset) for one JSONL line.
JSONL_SCHEMA = {
    "type": "object",
    "required": ["cycle", "event"],
    "properties": {
        "cycle": {"type": "integer", "minimum": 0},
        "event": {"enum": list(EVENT_TYPES)},
        "seq": {"type": "integer", "minimum": 0},
        "pc": {"type": "integer", "minimum": 0},
        "critical": {"type": "boolean"},
        "addr": {"type": "integer"},
        "occupancy": {"type": "object"},
    },
    "additionalProperties": False,
}


def validate_event(obj: dict) -> None:
    """Raise ``ValueError`` unless ``obj`` matches :data:`JSONL_SCHEMA`."""
    if not isinstance(obj, dict):
        raise ValueError(f"event must be an object, got {type(obj).__name__}")
    for key in JSONL_SCHEMA["required"]:
        if key not in obj:
            raise ValueError(f"event missing required key {key!r}: {obj}")
    props = JSONL_SCHEMA["properties"]
    for key, value in obj.items():
        if key not in props:
            raise ValueError(f"unknown event key {key!r}: {obj}")
    if obj["event"] not in EVENT_TYPES:
        raise ValueError(f"unknown event type {obj['event']!r}")
    if not isinstance(obj["cycle"], int) or obj["cycle"] < 0:
        raise ValueError(f"bad cycle {obj['cycle']!r}")
    for key in ("seq", "pc", "addr"):
        if key in obj and not isinstance(obj[key], int):
            raise ValueError(f"bad {key} {obj[key]!r}")
    if "critical" in obj and not isinstance(obj["critical"], bool):
        raise ValueError(f"bad critical {obj['critical']!r}")


class EventTracer:
    """Bounded in-memory event recorder with JSONL/Chrome-trace export.

    Parameters
    ----------
    sample_interval:
        Cycles between occupancy samples (ROB/RS/LSQ/MSHR/FTQ levels). The
        pipeline reads this to pace its gauge sampling.
    max_events:
        Cap on recorded *instruction* events; recording stops silently at
        the cap (``dropped`` counts what was lost) so tracing a long run
        cannot exhaust memory.
    """

    def __init__(self, *, sample_interval: int = 64, max_events: int = 200_000):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.sample_interval = sample_interval
        self.max_events = max_events
        self.events: list[dict] = []
        self.samples: list[dict] = []
        self.dropped = 0

    # -- recording (called from the pipeline hot loop) ------------------------

    def _emit(self, obj: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(obj)

    def fetch(self, cycle: int, seq: int, pc: int) -> None:
        self._emit({"cycle": cycle, "event": "fetch", "seq": seq, "pc": pc})

    def dispatch(self, cycle: int, seq: int, pc: int, critical: bool) -> None:
        self._emit(
            {"cycle": cycle, "event": "dispatch", "seq": seq, "pc": pc,
             "critical": critical}
        )

    def issue(self, cycle: int, seq: int, pc: int, critical: bool) -> None:
        self._emit(
            {"cycle": cycle, "event": "issue", "seq": seq, "pc": pc,
             "critical": critical}
        )

    def complete(self, cycle: int, seq: int) -> None:
        self._emit({"cycle": cycle, "event": "complete", "seq": seq})

    def retire(self, cycle: int, seq: int, pc: int) -> None:
        self._emit({"cycle": cycle, "event": "retire", "seq": seq, "pc": pc})

    def llc_miss(self, cycle: int, seq: int, pc: int, addr: int) -> None:
        self._emit(
            {"cycle": cycle, "event": "llc_miss", "seq": seq, "pc": pc,
             "addr": addr}
        )

    def flush(self, cycle: int, seq: int, pc: int) -> None:
        """A branch mispredict blocked fetch (front-end flush point)."""
        self._emit({"cycle": cycle, "event": "flush", "seq": seq, "pc": pc})

    def sample(self, cycle: int, occupancy: dict[str, int]) -> None:
        """Periodic occupancy snapshot (not subject to ``max_events``)."""
        self.samples.append(
            {"cycle": cycle, "event": "sample", "occupancy": dict(occupancy)}
        )

    # -- export ---------------------------------------------------------------

    def _all_rows(self) -> list[dict]:
        rows = self.events + self.samples
        rows.sort(key=lambda r: r["cycle"])
        return rows

    def to_jsonl(self) -> str:
        """All rows (events + samples), one JSON object per line."""
        return "".join(json.dumps(row) + "\n" for row in self._all_rows())

    def write_jsonl(self, path_or_file: str | IO[str]) -> int:
        """Write JSONL to ``path_or_file``; returns the row count."""
        text = self.to_jsonl()
        if hasattr(path_or_file, "write"):
            path_or_file.write(text)
        else:
            with open(path_or_file, "w") as handle:
                handle.write(text)
        return len(self.events) + len(self.samples)

    def to_chrome_trace(self, *, lanes: int = 8) -> dict:
        """Render as a Chrome trace-event JSON object.

        Instructions become ``ph="X"`` duration slices (dispatch -> retire,
        falling back to the widest observed span) spread over ``lanes``
        threads; occupancy samples become ``ph="C"`` counter tracks; flushes
        become global instant events. One cycle is mapped to one
        microsecond of trace time.
        """
        per_seq: dict[int, dict] = {}
        instants = []
        for ev in self.events:
            kind = ev["event"]
            if kind == "flush":
                instants.append(
                    {
                        "name": f"flush pc={ev['pc']}",
                        "ph": "i",
                        "s": "g",
                        "ts": ev["cycle"],
                        "pid": 0,
                        "tid": 0,
                        "cat": "flush",
                    }
                )
                continue
            if kind == "llc_miss":
                instants.append(
                    {
                        "name": f"llc_miss pc={ev['pc']}",
                        "ph": "i",
                        "s": "t",
                        "ts": ev["cycle"],
                        "pid": 0,
                        "tid": ev["seq"] % lanes + 1,
                        "cat": "memory",
                    }
                )
                continue
            info = per_seq.setdefault(ev["seq"], {})
            info[kind] = ev["cycle"]
            if "pc" in ev:
                info["pc"] = ev["pc"]
            if "critical" in ev:
                info["critical"] = ev["critical"]

        slices = []
        for seq, info in per_seq.items():
            cycles = [info[k] for k in ("fetch", "dispatch", "issue", "complete", "retire") if k in info]
            if not cycles:
                continue
            start = info.get("dispatch", min(cycles))
            end = info.get("retire", max(cycles))
            name = f"seq={seq} pc={info.get('pc', '?')}"
            if info.get("critical"):
                name += " [critical]"
            slices.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start,
                    "dur": max(end - start, 1),
                    "pid": 0,
                    "tid": seq % lanes + 1,
                    "cat": "inst",
                    "args": {k: v for k, v in info.items()},
                }
            )

        counters = [
            {
                "name": "occupancy",
                "ph": "C",
                "ts": row["cycle"],
                "pid": 0,
                "args": dict(row["occupancy"]),
            }
            for row in self.samples
        ]
        meta = [
            {"name": "process_name", "ph": "M", "pid": 0,
             "args": {"name": "repro pipeline"}},
        ] + [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": lane + 1,
             "args": {"name": f"inst lane {lane}"}}
            for lane in range(lanes)
        ]
        return {
            "traceEvents": meta + slices + counters + instants,
            "displayTimeUnit": "ms",
            "metadata": {"unit": "1 trace us = 1 core cycle",
                         "dropped_events": self.dropped},
        }

    def write_chrome_trace(self, path_or_file: str | IO[str], *, lanes: int = 8) -> int:
        """Write the Chrome trace JSON; returns the traceEvents count."""
        trace = self.to_chrome_trace(lanes=lanes)
        text = json.dumps(trace)  # the C encoder; json.dump never uses it
        if hasattr(path_or_file, "write"):
            path_or_file.write(text)
        else:
            with open(path_or_file, "w") as handle:
                handle.write(text)
        return len(trace["traceEvents"])
