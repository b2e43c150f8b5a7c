"""Shared retry policy: failure classification, backoff, jitter, deadline.

Before this module, every execution layer carried its own copy of the
transient/hard failure split — the process-pool executor and the job
server among them. One policy object is the single source of truth for
all of them:

* **Classification** — which exceptions are *hard* (never retried),
  *transient* (retried within budget), or *configuration* errors
  (propagate immediately). The catalog mirrors docs/RESILIENCE.md.
* **Retry budget** — ``retries`` extra attempts after the first, counted
  exactly: a cell makes at most ``retries + 1`` attempts, on every path.
* **Backoff** — exponential (``backoff_base * backoff_factor**(n-1)``),
  capped at ``backoff_max``, with *deterministic seeded jitter*: the
  jitter fraction is a hash of ``(seed, key, attempt)``, so two runs of
  the same run wait the same amount and a failing schedule replays
  exactly. Monotonicity is guaranteed by construction (the jitter
  multiplier never exceeds ``backoff_factor``; validated at init).
* **Deadline** — an optional per-job wall-clock bound: once a cell has
  been failing for ``deadline`` seconds it is recorded as failed even if
  the attempt budget is not exhausted (a hung-and-retried cell must
  still reach a terminal state in bounded time).

The default policy (``RetryPolicy.immediate(retries)``) has zero backoff
and reproduces the historical behaviour bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import CellTimeout, SimulationError

#: Failure classes (shared vocabulary with docs/RESILIENCE.md).
HARD = "hard"
TRANSIENT = "transient"
CONFIG = "config"

#: Exceptions that are never retried: the simulator deterministically
#: wedged or violated an invariant, so a retry would fail identically.
HARD_EXCEPTIONS: tuple[type[BaseException], ...] = (SimulationError,)

#: Exceptions worth retrying: cycle-budget expiry (CellTimeout, listed for
#: documentation value — as a TimeoutError it is already an OSError
#: subclass) and environmental I/O failures.
TRANSIENT_EXCEPTIONS: tuple[type[BaseException], ...] = (CellTimeout, OSError)

#: ``error_type`` strings (worker outcome dicts cross the pickle boundary
#: as tagged dicts, not exceptions) that classify as transient. WorkerCrash
#: is synthesized by the pool supervisor when a worker process dies.
TRANSIENT_ERROR_TYPES = frozenset(
    {"CellTimeout", "OSError", "TimeoutError", "WorkerCrash",
     "BrokenProcessPool"}
)


def classify(exc: BaseException) -> str:
    """Failure class of ``exc``: HARD, TRANSIENT, or CONFIG.

    ``ValueError`` (and anything else unrecognised) is a configuration
    error: every cell would fail identically, so callers should let it
    propagate rather than retry or record it.
    """
    if isinstance(exc, HARD_EXCEPTIONS):
        return HARD
    if isinstance(exc, TRANSIENT_EXCEPTIONS):
        return TRANSIENT
    return CONFIG


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) to retry a failed simulation cell.

    Parameters
    ----------
    retries:
        Extra attempts after the first; total attempts = ``retries + 1``.
    backoff_base:
        Delay before the first retry, in seconds. ``0`` retries
        immediately (the historical default).
    backoff_factor:
        Multiplier per further retry. Must be ``>= 1 + jitter`` so the
        jittered delay sequence stays monotone non-decreasing.
    backoff_max:
        Upper bound on any single delay, in seconds.
    jitter:
        Jitter amplitude as a fraction of the delay: the actual delay is
        ``delay * (1 + jitter * u)`` with ``u`` in ``[0, 1)`` drawn
        deterministically from ``(seed, key, attempt)``.
    seed:
        Jitter seed. Same seed + same cell key => same delays, always.
    deadline:
        Optional wall-clock budget in seconds for one cell's attempts
        (measured from its first attempt). ``None`` = no deadline.
    """

    retries: int = 1
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 60.0
    jitter: float = 0.1
    seed: int = 0
    deadline: float | None = None

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if self.backoff_factor < 1 + self.jitter:
            raise ValueError(
                "backoff_factor must be >= 1 + jitter, or the jittered "
                "delay sequence could decrease between attempts"
            )
        if self.backoff_max <= 0:
            raise ValueError("backoff_max must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    # -- construction ---------------------------------------------------------

    @classmethod
    def immediate(cls, retries: int = 1) -> "RetryPolicy":
        """The historical policy: retry up to ``retries`` times, no wait."""
        return cls(retries=retries, backoff_base=0.0)

    # -- classification -------------------------------------------------------

    #: Re-exported for callers that hold an exception object.
    classify = staticmethod(classify)

    @staticmethod
    def is_transient_type(error_type: str | None) -> bool:
        """Whether a tagged outcome's ``error_type`` string is retryable."""
        return error_type in TRANSIENT_ERROR_TYPES

    # -- budget ---------------------------------------------------------------

    def should_retry(self, attempts: int, *, elapsed: float = 0.0) -> bool:
        """Whether to retry after ``attempts`` completed (failed) attempts.

        ``elapsed`` is the wall-clock time since the cell's first attempt
        started; with a ``deadline`` set, retries stop once it is spent
        even if the attempt budget is not.
        """
        if attempts > self.retries:
            return False
        if self.deadline is not None and elapsed >= self.deadline:
            return False
        return True

    def exceeded_deadline(self, elapsed: float) -> bool:
        return self.deadline is not None and elapsed >= self.deadline

    # -- backoff --------------------------------------------------------------

    def jitter_fraction(self, attempt: int, key: str = "") -> float:
        """Deterministic ``u`` in ``[0, 1)`` for (seed, key, attempt)."""
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        Monotone non-decreasing in ``attempt`` for a fixed key: the raw
        exponential grows by ``backoff_factor`` while the jitter
        multiplier stays within ``[1, 1 + jitter]``, and the
        ``backoff_max`` cap preserves monotone order.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        if self.backoff_base == 0:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        jittered = raw * (1.0 + self.jitter * self.jitter_fraction(attempt, key))
        return min(self.backoff_max, jittered)

    def delays(self, key: str = "") -> list[float]:
        """The full deterministic delay schedule (one entry per retry)."""
        return [self.delay(n, key) for n in range(1, self.retries + 1)]
