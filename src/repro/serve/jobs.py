"""Job bookkeeping for the simulation server.

A :class:`Job` is one client request (``submit``, ``sweep`` or
``experiment``) fanned out into simulation cells. Cells resolve
independently — possibly shared with other jobs through the server's
duplicate-request coalescing — and the job reaches a terminal state
exactly once, when its last cell resolves (``done``/``failed``) or the
server drains it (``drained``).

State machine::

    queued -> running -> done      (every cell ok)
                      \\-> failed   (>= 1 cell failed; all terminal)
    queued|running -> drained      (graceful drain wrote its run dir)

``asyncio.Event`` is the only concurrency primitive: everything here runs
on the server's event loop, so plain attribute updates are race-free.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..parallel.cellkey import CellSpec
from ..parallel.executor import CellResult

if TYPE_CHECKING:  # the orchestrate registry is imported lazily
    from ..orchestrate.experiment import Experiment

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_DRAINED = "drained"

TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_DRAINED})

_ids = itertools.count(1)


@dataclass
class Job:
    """One admitted client request and its per-cell progress."""

    id: str
    priority: str
    specs: list[CellSpec]
    keys: list[str]
    #: The experiment a ``sweep`` or ``experiment`` job lowered; a drain
    #: writes it as a run dir.
    experiment: Experiment | None = None
    #: Requested engine (None = server default); recorded in the drained
    #: run dir's manifest so a resume cannot silently mix instances.
    engine: str | None = None
    created: float = field(default_factory=time.monotonic)
    state: str = JOB_QUEUED
    results: list = field(default_factory=list)
    #: The drained run dir, when the job was drained mid-flight.
    checkpoint: str | None = None
    event: asyncio.Event = field(default_factory=asyncio.Event)

    def __post_init__(self):
        self.results = [None] * len(self.specs)

    @classmethod
    def create(cls, priority: str, specs: list[CellSpec], keys: list[str],
               **kw) -> "Job":
        return cls(id=f"job-{next(_ids)}", priority=priority,
                   specs=list(specs), keys=list(keys), **kw)

    # -- progress -------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def remaining(self) -> int:
        return sum(1 for r in self.results if r is None)

    def cell_done(self, index: int, result: CellResult) -> bool:
        """Record one resolved cell; True when the job *became* terminal."""
        if self.terminal:
            return False  # drained while the cell was still in flight
        assert self.results[index] is None, "cell resolved twice"
        self.results[index] = result
        if self.state == JOB_QUEUED:
            self.state = JOB_RUNNING
        if self.remaining:
            return False
        failed = any(not r.ok for r in self.results)
        self.state = JOB_FAILED if failed else JOB_DONE
        self.event.set()
        return True

    def mark_drained(self, checkpoint: str | None) -> None:
        """Terminal ``drained`` state; waiters unblock with partial rows."""
        if self.terminal:
            return
        self.state = JOB_DRAINED
        self.checkpoint = checkpoint
        self.event.set()

    # -- wire views -----------------------------------------------------------

    def row(self) -> dict:
        """The compact status row (``status`` op)."""
        row = {
            "job": self.id,
            "state": self.state,
            "priority": self.priority,
            "cells": len(self.specs),
            "remaining": self.remaining,
        }
        if self.experiment is not None:
            row["experiment"] = self.experiment.name
        if self.checkpoint:
            row["checkpoint"] = self.checkpoint
        return row

    def result_rows(self) -> list[dict]:
        """Per-cell rows (``wait`` op); unresolved cells are ``pending``."""
        rows = []
        for spec, key, result in zip(self.specs, self.keys, self.results):
            if result is None:
                rows.append({
                    "workload": spec.workload, "mode": spec.mode,
                    "key": key, "status": "pending",
                })
                continue
            row = result.wait_row()
            row.update(workload=spec.workload, mode=spec.mode)
            rows.append(row)
        return rows
