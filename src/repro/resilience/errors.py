"""Structured failure types for the resilience layer.

These live in their own leaf module (no intra-repo imports) so that both
``repro.uarch.pipeline`` and the resilience machinery can raise and catch
them without import cycles. ``SimulationError`` is re-exported from
``repro.uarch`` for backwards compatibility — existing callers that catch
it also catch the new, more specific subclasses.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Raised when the pipeline wedges (cycle-limit exceeded).

    Carries an optional crash bundle: ``bundle`` is the post-mortem dict
    (see :mod:`repro.resilience.crash_bundle`) and ``bundle_path`` the file
    it was written to when a crash directory was configured.
    """

    def __init__(self, message: str, *, bundle: dict | None = None,
                 bundle_path: str | None = None):
        super().__init__(message)
        self.bundle = bundle
        self.bundle_path = bundle_path


class CellTimeout(TimeoutError):
    """A simulation cell exceeded its per-cell budget.

    Historically raised by a ``SIGALRM`` wall-clock alarm, which silently
    never fired off the POSIX main thread (and therefore in pool workers).
    It is now raised by
    :class:`~repro.resilience.watchdog.CycleBudgetWatchdog` when the
    simulated-cycle budget runs out — deterministic, and it works on any
    thread, in any worker process, on any platform. The retry policy still
    treats it as a *transient* failure (retried, then recorded).

    Deliberately a plain :class:`TimeoutError`, not a
    :class:`SimulationError`: handlers that record hard simulation failures
    must not swallow budget expirations.
    """


class DeadlockError(SimulationError):
    """The watchdog saw no retirement progress for its livelock window."""


class InvariantViolation(SimulationError):
    """A structural pipeline invariant failed during an audit.

    Attributes
    ----------
    invariant:
        The violated invariant-class name (a key of
        :data:`repro.resilience.invariants.INVARIANT_CLASSES`).
    cycle:
        The simulated cycle of the failing audit.
    detail:
        Human-readable description of the inconsistent state.
    snapshot:
        The run's stats-registry snapshot at failure time (None when the
        audited structure has no attached registry, e.g. a bare
        :class:`~repro.uarch.age_matrix.AgeMatrix`).
    """

    def __init__(self, invariant: str, detail: str, *, cycle: int = 0,
                 snapshot: dict | None = None, bundle: dict | None = None,
                 bundle_path: str | None = None):
        super().__init__(
            f"invariant {invariant!r} violated at cycle {cycle}: {detail}",
            bundle=bundle, bundle_path=bundle_path,
        )
        self.invariant = invariant
        self.cycle = cycle
        self.detail = detail
        self.snapshot = snapshot
