"""The fault-tolerant simulation job server.

:class:`SimServer` is an asyncio front door over the ``repro.parallel``
process pool and content-addressed result cache, engineered so that the
interesting question — *how does it fail?* — has boring answers:

* **Supervision** — a worker process dying (``BrokenProcessPool``) or
  hanging (no completion past the wall-clock ``cell_deadline``) costs
  exactly the in-flight cells: the pool is respawned once per incident
  and only the lost cells are re-enqueued, as transient failures under
  the shared :class:`~repro.resilience.policy.RetryPolicy`.
* **Backpressure** — two bounded admission queues (``interactive`` ahead
  of ``bulk``); a full queue rejects the job with a ``retry_after`` hint
  instead of queueing unboundedly or blocking the socket.
* **Coalescing** — cells are identified by their content hash
  (:func:`~repro.parallel.cellkey.cell_key`): N clients asking for the
  same cell share one execution and one cache store.
* **Graceful drain** — SIGTERM (or the ``drain`` op) stops admission,
  lets in-flight cells finish, writes each incomplete ``sweep`` or
  ``experiment`` job as an orchestrate run dir (``python -m
  repro.orchestrate run --resume --run-dir <dir>`` completes it), and
  only then stops.
* **Determinism** — cells are pure functions of their spec
  (docs/PARALLEL.md), so no matter how many crashes, hangs, retries, or
  corrupt cache entries a run suffers, a job that reaches ``done``
  carries results bit-identical to an unfaulted run
  (``tests/serve/test_chaos.py``).

Everything except the pool workers runs on one event loop; plain
attribute updates are therefore race-free and the only locks are around
pool replacement.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..parallel.cache import ResultCache
from ..parallel.cellkey import CellSpec, cell_key
from ..parallel import executor as _executor
from ..parallel.executor import CellResult, PoolStats, _crash_outcome
from ..resilience.policy import RetryPolicy
from . import protocol
from .jobs import Job
from .protocol import ProtocolError
from .telemetry import ServeStats

#: Default bounded-queue capacities, in *cells* (not jobs): interactive
#: stays shallow so its latency promise means something; bulk absorbs
#: sweep matrices.
DEFAULT_QUEUE_LIMITS = {"interactive": 64, "bulk": 1024}


@dataclass
class _Execution:
    """One in-flight-or-queued cell, shared by every coalesced subscriber."""

    key: str
    spec: CellSpec
    priority: str
    subscribers: list = field(default_factory=list)  # (job, cell_index)
    attempts: int = 0
    created: float = field(default_factory=time.monotonic)
    #: Wall-clock start of the *current* attempt; None while not running.
    started: float | None = None
    resolved: bool = False


class SimServer:
    """Supervised, backpressured job server over the pool + cache.

    Parameters
    ----------
    jobs:
        Worker processes (and the max number of concurrently running
        cells).
    cache:
        Optional :class:`~repro.parallel.cache.ResultCache`; cache hits
        skip the pool entirely, and corrupt entries degrade to misses
        (re-simulate and overwrite).
    policy:
        Shared :class:`~repro.resilience.policy.RetryPolicy` for
        transient cell failures (crashes, hangs, cycle-budget timeouts).
    queue_limits:
        Per-priority admission bounds, in cells.
    cell_deadline:
        Wall-clock seconds one attempt may run before the supervisor
        declares the worker hung and kills the pool. ``None`` disables
        hang detection (crashes are still supervised).
    drain_dir:
        Where a drain writes the run dirs of incomplete ``sweep`` and
        ``experiment`` jobs (``<drain_dir>/<job-id>/``).
    """

    def __init__(
        self,
        *,
        jobs: int = 2,
        cache: ResultCache | None = None,
        policy: RetryPolicy | None = None,
        queue_limits: dict | None = None,
        cell_deadline: float | None = 300.0,
        drain_dir: str = "serve_drain",
        drain_timeout: float = 30.0,
        tick: float = 0.05,
        stats: ServeStats | None = None,
        pool_stats: PoolStats | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.policy = policy if policy is not None else RetryPolicy(
            retries=2, backoff_base=0.05, backoff_max=5.0, deadline=600.0)
        self.queue_limits = dict(DEFAULT_QUEUE_LIMITS)
        if queue_limits:
            self.queue_limits.update(queue_limits)
        self.cell_deadline = cell_deadline
        self.drain_dir = drain_dir
        self.drain_timeout = drain_timeout
        self.tick = tick
        self.stats = stats if stats is not None else ServeStats()
        self.pool_stats = pool_stats if pool_stats is not None else PoolStats()

        self._jobs: dict[str, Job] = {}
        self._queues: dict[str, deque] = {
            name: deque() for name in protocol.PRIORITIES}
        #: Unresolved executions by cell key — the coalescing index.
        self._index: dict[str, _Execution] = {}
        #: Executions whose attempt is currently on the pool.
        self._running: dict[str, _Execution] = {}
        self._active = 0
        self._pool: ProcessPoolExecutor | None = None
        self._pool_gen = 0
        self._pool_lock = asyncio.Lock()
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._draining = False
        self._drained_summary: dict | None = None
        self._started_at = time.monotonic()
        #: EWMA of completed cell wall-clock, for retry_after hints.
        self._avg_cell_s = 1.0
        self._tasks: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ------------------------------------------------------------

    def _spawn_pool(self) -> None:
        self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        self._pool_gen += 1

    async def start(self, *, socket_path: str | None = None,
                    host: str = "127.0.0.1", port: int = 0) -> None:
        """Start the transport and the dispatcher/watchdog tasks.

        ``socket_path`` selects a UNIX socket; otherwise TCP on
        ``host:port`` (port 0 picks a free port; see :attr:`address`).
        """
        self._spawn_pool()
        if socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=socket_path,
                limit=protocol.MAX_LINE_BYTES)
            self.address = socket_path
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=host, port=port,
                limit=protocol.MAX_LINE_BYTES)
            self.address = self._server.sockets[0].getsockname()[:2]
        self._background(self._dispatch_loop())
        self._background(self._watchdog_loop())

    def _background(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def stop(self) -> None:
        """Tear everything down (does not drain; see :meth:`drain`)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._pool is not None:
            # Kill outright rather than shutdown-and-wait: any cell still
            # running here belongs to a job drain() already marked
            # drained (or the caller chose a hard stop), and a hung
            # worker must not be able to block process exit.
            self._kill_workers()
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._stopped.set()

    async def run_until_stopped(self) -> None:
        """Serve until a drain (or :meth:`stop`) completes."""
        await self._stopped.wait()
        # Give in-flight connection handlers one tick to flush responses.
        await asyncio.sleep(self.tick)
        await self.stop()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (docs/SERVE.md)."""
        import signal

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: loop.create_task(self.drain()))

    # -- admission ------------------------------------------------------------

    def _queued_cells(self, priority: str) -> int:
        return len(self._queues[priority])

    def _retry_after(self, priority: str) -> float:
        backlog = self._queued_cells(priority) + self._active
        return round(max(0.1, backlog * self._avg_cell_s / self.jobs), 3)

    def admit(self, specs: list[CellSpec], priority: str,
              **job_meta) -> tuple[Job | None, dict | None]:
        """Admit one job, or return (None, rejection-response).

        Counts only genuinely new cells against the queue bound:
        duplicates of in-flight cells coalesce without queue entries.
        """
        if self._draining:
            self.stats.jobs_rejected += 1
            return None, protocol.error_response(
                protocol.E_DRAINING, "server is draining; not admitting jobs")
        keys = [cell_key(spec) for spec in specs]
        fresh = [k for k in keys if k not in self._index]
        # Duplicate keys within one job coalesce onto one execution too.
        fresh_unique = len(set(fresh))
        if self._queued_cells(priority) + fresh_unique > self.queue_limits[priority]:
            self.stats.jobs_rejected += 1
            return None, protocol.error_response(
                protocol.E_BUSY,
                f"{priority} queue is full "
                f"({self.queue_limits[priority]} cells)",
                retry_after=self._retry_after(priority),
            )
        job = Job.create(priority, specs, keys, **job_meta)
        self._jobs[job.id] = job
        self.stats.jobs_submitted += 1
        self.stats.cells_total += len(specs)
        for index, (spec, key) in enumerate(zip(specs, keys)):
            execution = self._index.get(key)
            if execution is not None and not execution.resolved:
                execution.subscribers.append((job, index))
                self.stats.cells_coalesced += 1
                continue
            execution = _Execution(key=key, spec=spec, priority=priority,
                                   subscribers=[(job, index)])
            self._index[key] = execution
            self._queues[priority].append(execution)
        self._wake.set()
        return job, None

    # -- dispatch -------------------------------------------------------------

    def _pop_next(self) -> _Execution | None:
        for priority in protocol.PRIORITIES:  # interactive first
            if self._queues[priority]:
                return self._queues[priority].popleft()
        return None

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._draining:
                continue
            while self._active < self.jobs:
                execution = self._pop_next()
                if execution is None:
                    break
                self._active += 1
                self._background(self._run_execution(execution))

    async def _run_execution(self, execution: _Execution) -> None:
        try:
            await self._execute(execution)
        finally:
            self._active -= 1
            self._wake.set()

    async def _execute(self, execution: _Execution) -> None:
        spec, key = execution.spec, execution.key
        if self.cache is not None:
            record = self.cache.get(key)  # corrupt entries degrade to miss
            if record is not None:
                self.pool_stats.cells_cached += 1
                self._resolve(execution, CellResult.done(
                    spec, key, record, attempts=0, from_cache=True))
                return
        loop = asyncio.get_running_loop()
        while True:
            execution.attempts += 1
            self.pool_stats.cells_executed += 1
            execution.started = time.monotonic()
            self._running[key] = execution
            generation = self._pool_gen
            try:
                # Looked up through the module (not imported by name) so
                # the worker entry point stays patchable — the chaos and
                # drain tests rely on swapping it before workers fork.
                outcome = await loop.run_in_executor(
                    self._pool, _executor._pool_run_cell, spec)
            except BrokenProcessPool:
                # The worker died (crash, OOM kill, or our own hang
                # killer). Respawn the pool once per incident; this cell
                # goes through the normal transient-retry path.
                self.pool_stats.worker_crashes += 1
                await self._rebuild_pool(generation)
                outcome = _crash_outcome()
            except Exception as exc:  # noqa: BLE001 — a server must not hang
                # run_cells lets configuration errors (ValueError)
                # propagate and abort the whole batch; a server instead
                # pins the failure on the one bad cell — anything else
                # escaping the worker wrapper resolves as a hard failure
                # rather than leaving subscribers waiting forever.
                outcome = {
                    "ok": False, "transient": False,
                    "error": str(exc), "error_type": type(exc).__name__,
                }
            finally:
                self._running.pop(key, None)
                execution.started = None
            if outcome["ok"]:
                self._note_duration(time.monotonic() - execution.created)
                if self.cache is not None:
                    self.cache.put(key, outcome["record"])
                self._resolve(execution, CellResult.done(
                    spec, key, outcome["record"],
                    attempts=execution.attempts, from_cache=False))
                return
            if outcome.get("error_type") == "CellTimeout":
                self.pool_stats.timeouts += 1
            elapsed = time.monotonic() - execution.created
            if outcome.get("transient") and self.policy.should_retry(
                    execution.attempts, elapsed=elapsed):
                self.stats.cells_retried += 1
                self.pool_stats.retries += 1
                delay = self.policy.delay(execution.attempts, key)
                if delay:
                    await asyncio.sleep(delay)
                continue
            if outcome.get("transient") and self.policy.exceeded_deadline(elapsed):
                outcome = dict(outcome)
                outcome["error_type"] = "DeadlineExceeded"
                outcome["error"] = (
                    f"cell spent {elapsed:.1f}s failing transiently "
                    f"(deadline {self.policy.deadline}s): {outcome['error']}")
            self.pool_stats.hard_failures += 1
            self._resolve(execution, CellResult.failed(
                spec, key, outcome, attempts=execution.attempts))
            return

    def _note_duration(self, seconds: float) -> None:
        self._avg_cell_s += 0.2 * (seconds - self._avg_cell_s)

    def _resolve(self, execution: _Execution, result) -> None:
        """Fan one resolved cell out to every subscriber, exactly once."""
        if execution.resolved:
            return
        execution.resolved = True
        self._index.pop(execution.key, None)
        for job, index in execution.subscribers:
            if job.cell_done(index, result):
                if job.state == "failed":
                    self.stats.jobs_failed += 1
                else:
                    self.stats.jobs_done += 1

    # -- supervision ----------------------------------------------------------

    async def _rebuild_pool(self, generation: int) -> None:
        """Replace the broken pool, once per incident.

        Every in-flight future of a broken pool raises; only the first
        arrival (matching generation) respawns, the rest just retry onto
        the already-fresh pool.
        """
        async with self._pool_lock:
            if generation != self._pool_gen:
                return
            self.stats.pool_rebuilds += 1
            self.pool_stats.pool_rebuilds += 1
            broken = self._pool
            self._spawn_pool()
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)

    def _kill_workers(self) -> int:
        """SIGKILL every pool worker; the hang surfaces as a crash."""
        processes = getattr(self._pool, "_processes", None) or {}
        killed = 0
        for process in list(processes.values()):
            try:
                process.kill()
                killed += 1
            except (OSError, ValueError):
                pass  # already gone
        return killed

    async def _watchdog_loop(self) -> None:
        """Detect hung workers: no completion past the cell deadline."""
        while True:
            await asyncio.sleep(self.tick)
            if self.cell_deadline is None or not self._running:
                continue
            now = time.monotonic()
            hung = [
                execution for execution in self._running.values()
                if execution.started is not None
                and now - execution.started > self.cell_deadline
            ]
            if not hung:
                continue
            self.stats.hung_cells += len(hung)
            # Killing the workers breaks every in-flight future; the
            # executions then take the BrokenProcessPool path above
            # (respawn + retry), which is exactly what we want.
            self._kill_workers()

    # -- drain ----------------------------------------------------------------

    async def drain(self) -> dict:
        """Graceful shutdown: stop admitting, finish or write run dirs, stop.

        Idempotent; returns a summary dict (also the ``drain`` response).
        """
        if self._drained_summary is not None:
            return self._drained_summary
        self._draining = True
        deadline = time.monotonic() + self.drain_timeout
        while self._active and time.monotonic() < deadline:
            await asyncio.sleep(self.tick)
        drained = []
        for job in self._jobs.values():
            if job.terminal:
                continue
            job.mark_drained(self._write_run_dir(job))
            self.stats.jobs_drained += 1
            drained.append(job.row())
        self._drained_summary = {
            "drained_jobs": drained,
            "finished_inflight": self._active == 0,
        }
        self._stopped.set()
        return self._drained_summary

    def _write_run_dir(self, job: Job) -> str | None:
        """Write a drained job's finished cells as an orchestrate run dir.

        Only jobs that lowered an experiment (``sweep``, ``experiment``)
        have one; ``python -m repro.orchestrate run --resume --run-dir
        <dir>`` rebuilds the experiment from the manifest, checks its
        identity, and simulates only the cells that are not ``done``.
        """
        if job.experiment is None:
            return None
        from ..orchestrate.rundir import (
            atomic_write_json, build_manifest, cell_file, manifest_path, store_cell)

        path = Path(self.drain_dir) / job.id
        manifest = build_manifest(
            job.experiment, job.experiment.plan(), engine=job.engine)
        manifest["status"] = "partial"
        manifest["cells_done"] = sum(
            1 for result in job.results if result is not None and result.ok)
        atomic_write_json(manifest_path(path), manifest)
        for key, result in zip(job.keys, job.results):
            if result is not None:
                store_cell(path, key, cell_file(result))
        return str(path)

    # -- transport ------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(protocol.encode(protocol.error_response(
                        protocol.E_PROTOCOL, "request line too long")))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self.handle_request(line)
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown while parked in readline() — a normal way for
            # a connection to end during server shutdown, not an error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def handle_request(self, line: bytes | dict) -> dict:
        """One request in (wire line or already-decoded dict), one dict out."""
        try:
            request = line if isinstance(line, dict) else protocol.decode(line)
            return await self._dispatch_request(request)
        except ProtocolError as exc:
            return protocol.error_response(exc.code, str(exc))

    async def _dispatch_request(self, request: dict) -> dict:
        op = request.get("op")
        if op == "submit":
            specs, priority = protocol.parse_submit(request)
            job, rejection = self.admit(specs, priority)
            return rejection or protocol.ok_response(**job.row())
        if op in ("sweep", "experiment"):
            # Both ops lower an orchestrate experiment; a sweep is the
            # registered ``suite`` matrix over its workloads x modes.
            from ..orchestrate import get_experiment

            if op == "sweep":
                workloads, modes, scale, extras, priority = (
                    protocol.parse_sweep(request))
                name = "suite"
                kwargs = {"scale": scale, "workloads": workloads,
                          "modes": modes}
            else:
                name, kwargs, engine, priority = (
                    protocol.parse_experiment(request))
                extras = {"engine": engine} if engine is not None else {}
            try:
                experiment = get_experiment(name)(**kwargs)
                # Planning may run FDO flows and build inputs: off the loop,
                # so requests and the hang watchdog keep being served. The
                # experiment memoizes what it derived, which a drain's
                # re-plan of the same object reuses.
                plan = await asyncio.to_thread(experiment.plan)
            except ValueError as exc:
                raise ProtocolError(
                    str(exc), code=protocol.E_BAD_REQUEST) from exc
            if not plan:
                raise ProtocolError(
                    f"experiment {name!r} plans no cells to schedule; run "
                    "it with python -m repro.orchestrate run",
                    code=protocol.E_BAD_REQUEST)
            specs = [cell.spec for cell in plan]
            if extras:
                # Execution-only fields: no cell key moves.
                specs = [replace(spec, **extras) for spec in specs]
            job, rejection = self.admit(
                specs, priority, experiment=experiment,
                engine=extras.get("engine"))
            return rejection or protocol.ok_response(**job.row())
        if op in ("status", "wait"):
            job = self._jobs.get(request.get("job"))
            if job is None:
                return protocol.error_response(
                    protocol.E_UNKNOWN_JOB,
                    f"unknown job {request.get('job')!r}")
            if op == "wait":
                timeout = request.get("timeout")
                try:
                    await asyncio.wait_for(job.event.wait(), timeout)
                except asyncio.TimeoutError:
                    return protocol.error_response(
                        protocol.E_TIMEOUT,
                        f"job {job.id} not terminal after {timeout}s",
                        **job.row())
                return protocol.ok_response(
                    results=job.result_rows(), **job.row())
            return protocol.ok_response(**job.row())
        if op == "health":
            return protocol.ok_response(**self.health())
        if op == "stats":
            return protocol.ok_response(**self.stats_snapshot())
        if op == "drain":
            return protocol.ok_response(**(await self.drain()))
        raise ProtocolError(
            f"unknown op {op!r}; known: {protocol.OPS}",
            code=protocol.E_BAD_REQUEST)

    # -- introspection --------------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "draining" if self._draining else "serving",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers": self.jobs,
            "active_cells": self._active,
            "queued": {name: len(q) for name, q in self._queues.items()},
            "queue_limits": dict(self.queue_limits),
            "jobs": {
                "total": len(self._jobs),
                "terminal": sum(1 for j in self._jobs.values() if j.terminal),
            },
            "protocol": protocol.PROTOCOL_VERSION,
        }

    def stats_snapshot(self) -> dict:
        snapshot = {
            "serve": self.stats.snapshot(),
            "pool": {
                "cells_executed": self.pool_stats.cells_executed,
                "cells_cached": self.pool_stats.cells_cached,
                "retries": self.pool_stats.retries,
                "timeouts": self.pool_stats.timeouts,
                "hard_failures": self.pool_stats.hard_failures,
                "worker_crashes": self.pool_stats.worker_crashes,
                "pool_rebuilds": self.pool_stats.pool_rebuilds,
            },
        }
        if self.cache is not None:
            cache_stats = self.cache.stats
            snapshot["cache"] = {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "stores": cache_stats.stores,
                "corrupt": cache_stats.corrupt,
            }
        return snapshot
