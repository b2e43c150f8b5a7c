"""CLI front door: ``python -m repro.serve``.

Starts a :class:`~repro.serve.server.SimServer` on a UNIX socket
(``--socket``) or TCP port (``--port``) and serves until SIGTERM/SIGINT,
which triggers a graceful drain: admission stops, in-flight cells finish
(up to ``--drain-timeout``), each incomplete ``sweep`` or ``experiment``
job is written as an orchestrate run dir ``--drain-dir/<job-id>/``, and
only then does the process exit. ``python -m repro.orchestrate run
--resume --run-dir <drain-dir>/<job-id>`` finishes such a job offline.
See docs/SERVE.md.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..parallel.cache import ResultCache
from ..resilience.policy import RetryPolicy
from .server import DEFAULT_QUEUE_LIMITS, SimServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Fault-tolerant simulation job server (docs/SERVE.md).",
    )
    transport = parser.add_mutually_exclusive_group(required=True)
    transport.add_argument("--socket", metavar="PATH",
                           help="serve on a UNIX socket at PATH")
    transport.add_argument("--port", type=int,
                           help="serve on TCP 127.0.0.1:PORT (0 = pick free)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind address (default 127.0.0.1)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed result cache directory")
    parser.add_argument("--retries", type=int, default=2,
                        help="extra attempts per transient cell failure")
    parser.add_argument("--retry-backoff", type=float, default=0.05,
                        metavar="SECONDS",
                        help="base backoff delay between attempts")
    parser.add_argument("--deadline", type=float, default=600.0,
                        metavar="SECONDS",
                        help="per-cell wall-clock retry deadline")
    parser.add_argument("--cell-deadline", type=float, default=300.0,
                        metavar="SECONDS",
                        help="hung-worker detection threshold "
                             "(0 disables hang supervision)")
    parser.add_argument("--queue-interactive", type=int,
                        default=DEFAULT_QUEUE_LIMITS["interactive"],
                        metavar="CELLS", help="interactive admission bound")
    parser.add_argument("--queue-bulk", type=int,
                        default=DEFAULT_QUEUE_LIMITS["bulk"],
                        metavar="CELLS", help="bulk admission bound")
    parser.add_argument("--drain-dir", default="serve_drain", metavar="DIR",
                        help="where a drain writes each unfinished sweep or "
                             "experiment job as a run dir DIR/<job-id>/, "
                             "for orchestrate run --resume")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="how long a drain waits for in-flight cells")
    return parser


def build_server(args) -> SimServer:
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    policy = RetryPolicy(
        retries=args.retries,
        backoff_base=args.retry_backoff,
        backoff_max=5.0,
        deadline=args.deadline,
    )
    return SimServer(
        jobs=args.jobs,
        cache=cache,
        policy=policy,
        queue_limits={"interactive": args.queue_interactive,
                      "bulk": args.queue_bulk},
        cell_deadline=args.cell_deadline or None,
        drain_dir=args.drain_dir,
        drain_timeout=args.drain_timeout,
    )


async def serve(args) -> None:
    server = build_server(args)
    if args.socket is not None:
        await server.start(socket_path=args.socket)
        where = args.socket
    else:
        await server.start(host=args.host, port=args.port)
        where = "{}:{}".format(*server.address)
    server.install_signal_handlers()
    print(f"repro.serve: listening on {where} "
          f"({args.jobs} workers)", flush=True)
    await server.run_until_stopped()
    print("repro.serve: drained, exiting", flush=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
