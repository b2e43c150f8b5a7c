"""Simulation-as-a-service: the fault-tolerant job server (docs/SERVE.md).

``python -m repro.serve`` runs the server; ``python -m repro.serve.client``
(or :class:`ServeClient`) talks to it over a line-oriented JSON protocol.
The server multiplexes jobs onto the ``repro.parallel`` process pool and
result cache with supervision (crash/hang recovery), bounded admission
queues with backpressure, duplicate-request coalescing, shared
retry/backoff policy, and graceful SIGTERM drain into resumable
orchestrate run dirs.
"""

from .jobs import (
    JOB_DONE,
    JOB_DRAINED,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    TERMINAL_STATES,
    Job,
)
from .protocol import PRIORITIES, PROTOCOL_VERSION, ProtocolError
from .server import SimServer
from .telemetry import ServeStats


def __getattr__(name):
    # The client loads on first use, not with the package: ``python -m
    # repro.serve.client`` imports this package first, and runpy warns if
    # the module it is about to run is already in sys.modules.
    if name in ("ServeClient", "ServeError"):
        from . import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "JOB_DONE",
    "JOB_DRAINED",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "Job",
    "PRIORITIES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServeStats",
    "SimServer",
    "TERMINAL_STATES",
]
