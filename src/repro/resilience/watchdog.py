"""Deadlock/livelock watchdog for the cycle loop.

Replaces the blunt ``max_cycles`` abort: instead of failing 600·n cycles
into a wedged run with no diagnosis, the watchdog tracks retirement
progress and declares livelock after ``livelock_cycles`` without a single
retire — orders of magnitude earlier, since even a fully DRAM-bound run
retires something every few hundred cycles. On any failure (livelock or
the absolute cycle ceiling) it assembles a crash bundle and, when a crash
directory is configured, writes it to disk before raising.

The in-loop cost is two integer comparisons per iteration; the watchdog
object itself is only consulted on failure, so default-mode results are
unchanged (see ``tests/resilience``'s byte-identical check).
"""

from __future__ import annotations

from .crash_bundle import write_crash_bundle
from .errors import CellTimeout, DeadlockError, SimulationError

#: Default no-retire window before declaring livelock. Worst-case genuine
#: stalls (a full MSHR file of queued DRAM misses) resolve in thousands of
#: cycles; 200k is ~50x past that while still far below 600·n for any
#: evaluation-scale trace.
DEFAULT_LIVELOCK_CYCLES = 200_000


class Watchdog:
    """Progress monitor + crash-bundle writer for one simulation run.

    Parameters
    ----------
    livelock_cycles:
        Cycles without a retirement before the run is declared dead.
    max_cycles:
        Absolute ceiling; None keeps the caller's default (the legacy
        ``600 * n + 100_000`` for :class:`~repro.uarch.pipeline.Pipeline`).
    crash_dir:
        Directory for crash bundles; None attaches the bundle to the
        exception without writing a file.
    context:
        Run identity (workload, mode, variant, seed, ...) recorded in the
        bundle so a sweep's crash artifacts are self-describing.
    """

    def __init__(
        self,
        *,
        livelock_cycles: int = DEFAULT_LIVELOCK_CYCLES,
        max_cycles: int | None = None,
        crash_dir: str | None = None,
        context: dict | None = None,
    ):
        if livelock_cycles < 1:
            raise ValueError("livelock_cycles must be >= 1")
        self.livelock_cycles = livelock_cycles
        self.max_cycles = max_cycles
        self.crash_dir = crash_dir
        self.context = dict(context or {})

    # -- failure constructors (called off the hot path) -----------------------

    def cycle_limit_exceeded(self, bundle_source, *, now: int, max_cycles: int,
                             retired: int, total: int) -> SimulationError:
        message = f"cycle limit {max_cycles} exceeded (retired {retired}/{total})"
        return self._fail(
            SimulationError, "cycle_limit", message, bundle_source,
            now=now, retired=retired, total=total,
        )

    def livelock_detected(self, bundle_source, *, now: int, last_progress: int,
                          retired: int, total: int) -> DeadlockError:
        message = (
            f"no retirement for {now - last_progress} cycles "
            f"(watchdog window {self.livelock_cycles}); "
            f"livelock at cycle {now} (retired {retired}/{total})"
        )
        return self._fail(
            DeadlockError, "livelock", message, bundle_source,
            now=now, retired=retired, total=total,
        )

    def attach_bundle(self, exc: SimulationError, bundle_source, *, now: int,
                      retired: int, total: int) -> SimulationError:
        """Attach (and maybe write) a bundle to an existing failure, e.g.
        an :class:`~repro.resilience.errors.InvariantViolation` raised by an
        audit inside the run loop."""
        reason = getattr(exc, "invariant", None) or type(exc).__name__.lower()
        bundle = self._build(bundle_source, reason=f"invariant_{reason}"
                             if hasattr(exc, "invariant") else reason,
                             message=str(exc), now=now, retired=retired,
                             total=total)
        exc.bundle = bundle
        if self.crash_dir is not None:
            exc.bundle_path = write_crash_bundle(self.crash_dir, bundle)
        return exc

    # -- internals ------------------------------------------------------------

    def _fail(self, exc_type, reason, message, bundle_source, *, now, retired,
              total):
        bundle = self._build(bundle_source, reason=reason, message=message,
                             now=now, retired=retired, total=total)
        path = None
        if self.crash_dir is not None:
            path = write_crash_bundle(self.crash_dir, bundle)
            message = f"{message} [crash bundle: {path}]"
        return exc_type(message, bundle=bundle, bundle_path=path)

    def _build(self, bundle_source, *, reason, message, now, retired, total):
        bundle = bundle_source(reason=reason, message=message, cycle=now,
                               retired=retired, total=total)
        bundle.setdefault("context", {}).update(self.context)
        return bundle


class CycleBudgetWatchdog(Watchdog):
    """Watchdog whose cycle ceiling is a per-cell *budget*, not a wedge.

    Sweep cells used to get wall-clock timeouts via ``SIGALRM``, which is a
    no-op off the POSIX main thread and inside pool workers. A budget on
    *simulated* cycles replaces it: deterministic (the same cell always
    times out at the same point), portable, and thread/process-agnostic.
    Hitting the budget raises
    :class:`~repro.resilience.errors.CellTimeout` — the transient-failure
    class the shared retry policy already understands — instead of the hard
    :class:`~repro.resilience.errors.SimulationError` a genuine cycle-limit
    wedge produces. Livelock detection stays inherited: a truly stuck run
    is still a hard failure, budget or not.
    """

    def __init__(self, budget: int, **kwargs):
        if budget < 1:
            raise ValueError("cycle budget must be >= 1")
        super().__init__(max_cycles=budget, **kwargs)

    def cycle_limit_exceeded(self, bundle_source, *, now: int, max_cycles: int,
                             retired: int, total: int) -> CellTimeout:
        # No crash bundle: running out of budget is expected control flow
        # for oversized cells, not a pipeline post-mortem.
        return CellTimeout(
            f"cell exceeded cycle budget {max_cycles} "
            f"(retired {retired}/{total} at cycle {now})"
        )


def cell_watchdog(cycle_budget: int | None, crash_dir: str | None,
                  context: dict) -> Watchdog | None:
    """The watchdog a cell runs under: a :class:`CycleBudgetWatchdog` when
    it has a cycle budget, else a crash-bundle :class:`Watchdog` when it
    has a crash directory, else none (the engine's own default)."""
    if cycle_budget is not None:
        return CycleBudgetWatchdog(cycle_budget, crash_dir=crash_dir,
                                   context=context)
    if crash_dir is not None:
        return Watchdog(crash_dir=crash_dir, context=context)
    return None
