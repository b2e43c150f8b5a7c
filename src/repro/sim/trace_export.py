"""Per-instruction pipeline timing export.

A cycle-accurate simulator is only as useful as its visibility; Scarab
ships pipeline debug traces, and this module is the equivalent here: run a
workload with timing recording and export one row per dynamic instruction
-- dispatch, operands-ready, and issue cycles plus identity -- as CSV (for
spreadsheets/pandas) or as dictionaries (for in-process analysis).

The scheduling-delay plots behind DESIGN.md's mechanism notes were made
from exactly this export.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from ..uarch.config import CoreConfig
from ..workloads.base import Workload
from .simulator import pipeline_class

FIELDS = ("seq", "pc", "opcode", "critical", "dispatch", "ready", "issue", "delay")


@dataclass
class TimingRow:
    seq: int
    pc: int
    opcode: str
    critical: bool
    dispatch: int
    ready: int
    issue: int

    @property
    def delay(self) -> int:
        """Cycles the instruction sat ready before the scheduler picked it."""
        return self.issue - self.ready


def collect_timing(
    workload: Workload,
    *,
    config: CoreConfig | None = None,
    scheduler: str = "oldest_first",
    critical_pcs: frozenset[int] = frozenset(),
    start: int = 0,
    limit: int | None = None,
) -> list[TimingRow]:
    """Run ``workload`` with timing recording; return per-instruction rows.

    ``start``/``limit`` window the export by sequence number (full traces
    of large runs are big; most analyses want a steady-state window).
    """
    config = (config or CoreConfig.skylake()).with_scheduler(scheduler)
    trace = workload.trace()
    pipeline = pipeline_class()(
        trace, config, critical_pcs=critical_pcs, record_timing=True)
    pipeline.run()
    end = len(trace) if limit is None else min(len(trace), start + limit)
    rows = []
    for seq in range(start, end):
        issue = pipeline.issue_times.get(seq)
        ready = pipeline.ready_times.get(seq)
        dispatch = pipeline.dispatch_times.get(seq)
        if issue is None or ready is None or dispatch is None:
            continue  # HALT and other non-issuing instructions
        d = trace[seq]
        rows.append(
            TimingRow(
                seq=seq,
                pc=d.pc,
                opcode=d.sinst.opcode.value,
                critical=d.pc in critical_pcs,
                dispatch=dispatch,
                ready=ready,
                issue=issue,
            )
        )
    return rows


def to_csv(rows: list[TimingRow]) -> str:
    """Render timing rows as CSV text (header included)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIELDS)
    for row in rows:
        writer.writerow(
            [row.seq, row.pc, row.opcode, int(row.critical),
             row.dispatch, row.ready, row.issue, row.delay]
        )
    return out.getvalue()


def export_csv(
    workload: Workload,
    path: str,
    **kwargs,
) -> int:
    """Collect timing and write CSV to ``path``; returns the row count."""
    rows = collect_timing(workload, **kwargs)
    with open(path, "w") as handle:
        handle.write(to_csv(rows))
    return len(rows)
