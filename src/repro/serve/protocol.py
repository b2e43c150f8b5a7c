"""Line-oriented JSON protocol for the simulation job server.

One request per line, one response per line, both UTF-8 JSON objects —
trivially scriptable (``nc``, ``socat``, six lines of Python) and
debuggable by eye. The wire format is deliberately narrow: a request
names workloads/modes/scales, never code or config objects, so a client
can only ask for cells the server could also compute from a CLI.

Requests carry ``op`` plus op-specific fields; every response carries
``ok`` (bool). Failure responses carry ``error`` (human-readable),
``code`` (stable machine token), and — for backpressure rejections —
``retry_after`` (seconds the client should wait before resubmitting).

| op         | request fields                                          |
|------------|---------------------------------------------------------|
| submit     | ``cells`` (list of cell dicts), ``priority``?           |
| sweep      | ``workloads``, ``modes``, ``scale``?, ``priority``?     |
| experiment | ``experiment``, ``scale``?, ``workloads``?, ``seeds``?, ``engine``?, ``priority``? |
| status     | ``job``                                                 |
| wait       | ``job``, ``timeout``?                                   |
| health     | —                                                       |
| stats      | —                                                       |
| drain      | —                                                       |

An ``experiment`` request names a registered *matrix* experiment
(``python -m repro.orchestrate list``; docs/ORCHESTRATION.md) — the
server lowers its Target × Instance plan to cells and admits them as one
job, exactly as if the same cells had been submitted individually.

A *cell dict* is ``{"workload": ..., "mode": ..., "scale"?, "variant"?,
"cycle_budget"?, "engine"?, "critical_pcs"?}`` — exactly the picklable
subset of :class:`~repro.parallel.cellkey.CellSpec` that travels by
value. Alternatively ``{"corun": "mcf@crisp+lbm", "scale"?,
"cycle_budget"?, "engine"?, "llc_xcore"?}`` submits one N-core co-run
cell (docs/MULTICORE.md); the mix string replaces ``workload``/``mode``
and every member workload/mode is validated the same way. See
docs/SERVE.md for the full contract and failure matrix.
"""

from __future__ import annotations

import json

from ..parallel.cellkey import CellSpec

PROTOCOL_VERSION = 1

#: Hard bound on one request line; longer lines are a protocol error
#: (and the asyncio stream reader enforces it before parsing).
MAX_LINE_BYTES = 1 << 20

#: Priority classes, highest first. Interactive single-cell jobs overtake
#: queued bulk sweeps at dispatch time.
PRIORITIES = ("interactive", "bulk")

OPS = ("submit", "sweep", "experiment", "status", "wait", "health", "stats",
       "drain")

#: Stable machine-readable error codes.
E_PROTOCOL = "protocol"       # unparsable/oversized line, bad field types
E_BAD_REQUEST = "bad-request"  # well-formed but invalid (unknown op, ...)
E_BUSY = "busy"               # admission queue full; see retry_after
E_DRAINING = "draining"       # server is draining; not admitting
E_UNKNOWN_JOB = "unknown-job"
E_TIMEOUT = "timeout"         # wait timed out (job still running)


class ProtocolError(ValueError):
    """A request that violates the wire contract."""

    def __init__(self, message: str, *, code: str = E_PROTOCOL):
        super().__init__(message)
        self.code = code


def encode(message: dict) -> bytes:
    """One wire line (compact JSON + newline) for ``message``."""
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


def decode(line: bytes | str) -> dict:
    """Parse one wire line into a request/response dict."""
    if isinstance(line, str):
        line = line.encode("utf-8")
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparsable request line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("a request must be a JSON object")
    return message


def ok_response(**fields) -> dict:
    return {"ok": True, **fields}


def error_response(code: str, error: str, **fields) -> dict:
    return {"ok": False, "code": code, "error": error, **fields}


# -- request validation --------------------------------------------------------


def _require(req: dict, field: str, types, *, code: str = E_BAD_REQUEST):
    value = req.get(field)
    if not isinstance(value, types) or (isinstance(value, str) and not value):
        raise ProtocolError(
            f"field {field!r} is required and must be {types}", code=code
        )
    return value


def parse_priority(req: dict, default: str) -> str:
    priority = req.get("priority", default)
    if priority not in PRIORITIES:
        raise ProtocolError(
            f"priority must be one of {PRIORITIES}, not {priority!r}",
            code=E_BAD_REQUEST,
        )
    return priority


def _validate_workload(workload: str) -> None:
    """Raise unless ``workload`` names a registered or generated workload."""
    from ..workloads import REGISTRY  # local import: registration is heavy

    if workload.startswith("gen:"):
        # Generated workloads (docs/WORKGEN.md) are addressed by canonical
        # spec name, not the registry; validate the spelling here so a bad
        # name is a protocol error, not a worker crash.
        from ..workgen.spec import WorkloadSpecError, parse_name

        try:
            parse_name(workload)
        except WorkloadSpecError as exc:
            raise ProtocolError(str(exc), code=E_BAD_REQUEST) from None
    elif workload not in REGISTRY.names():
        raise ProtocolError(
            f"unknown workload {workload!r}; known: {REGISTRY.names()}",
            code=E_BAD_REQUEST,
        )


def _validate_mode(mode: str) -> None:
    from ..sim.simulator import MODES

    if mode not in MODES:
        raise ProtocolError(
            f"unknown mode {mode!r}; known: {MODES}", code=E_BAD_REQUEST)


def _execution_fields(fields: dict) -> dict:
    """The validated, set ``engine``/``cycle_budget`` of a cell or sweep."""
    engine = fields.get("engine")
    if engine not in (None, "obj", "array"):
        raise ProtocolError("cell engine must be 'obj' or 'array'")
    cycle_budget = fields.get("cycle_budget")
    if cycle_budget is not None and (
        not isinstance(cycle_budget, int) or cycle_budget < 1
    ):
        raise ProtocolError("cell cycle_budget must be a positive integer")
    return {name: value for name, value in
            (("cycle_budget", cycle_budget), ("engine", engine))
            if value is not None}


def _parse_corun_cell(cell: dict) -> CellSpec:
    """A validated co-run :class:`CellSpec` from a ``corun`` mix dict."""
    unknown = set(cell) - {"corun", "scale", "cycle_budget", "engine",
                           "llc_xcore"}
    if unknown:
        raise ProtocolError(f"unknown corun cell fields: {sorted(unknown)}")
    from ..multicore import corun_cell, parse_mix

    mix = _require(cell, "corun", str)
    llc_xcore = cell.get("llc_xcore", False)
    if not isinstance(llc_xcore, bool):
        raise ProtocolError("cell llc_xcore must be a boolean")
    try:
        spec = parse_mix(mix, llc_xcore=llc_xcore)
    except ValueError as exc:
        raise ProtocolError(str(exc), code=E_BAD_REQUEST) from None
    for task in spec.cores:
        _validate_workload(task.workload)
        _validate_mode(task.mode)
    scale = cell.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or scale <= 0:
        raise ProtocolError("cell scale must be a positive number")
    return corun_cell(spec, scale=float(scale), **_execution_fields(cell))


def parse_cell(cell: dict) -> CellSpec:
    """A validated :class:`CellSpec` from one wire cell dict."""
    if not isinstance(cell, dict):
        raise ProtocolError("each cell must be a JSON object")
    if "corun" in cell:
        return _parse_corun_cell(cell)
    unknown = set(cell) - {
        "workload", "mode", "scale", "variant", "cycle_budget", "engine",
        "critical_pcs",
    }
    if unknown:
        raise ProtocolError(f"unknown cell fields: {sorted(unknown)}")
    workload = _require(cell, "workload", str)
    _validate_workload(workload)
    mode = _require(cell, "mode", str)
    _validate_mode(mode)
    scale = cell.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or scale <= 0:
        raise ProtocolError("cell scale must be a positive number")
    extras = _execution_fields(cell)
    critical_pcs = cell.get("critical_pcs")
    if critical_pcs is not None:
        if not isinstance(critical_pcs, list) or not all(
            isinstance(pc, int) for pc in critical_pcs
        ):
            raise ProtocolError("cell critical_pcs must be a list of ints")
        critical_pcs = tuple(critical_pcs)
    return CellSpec(
        workload=workload,
        mode=mode,
        scale=float(scale),
        variant=cell.get("variant", "ref"),
        critical_pcs=critical_pcs,
        **extras,
    )


def parse_submit(req: dict) -> tuple[list[CellSpec], str]:
    """Validated ``(specs, priority)`` of a ``submit`` request."""
    cells = _require(req, "cells", list)
    if not cells:
        raise ProtocolError("a submit request needs at least one cell")
    specs = [parse_cell(cell) for cell in cells]
    default = "interactive" if len(specs) == 1 else "bulk"
    return specs, parse_priority(req, default)


def parse_sweep(req: dict) -> tuple[list[str], list[str], float, dict, str]:
    """Validated ``(workloads, modes, scale, extras, priority)`` of a sweep.

    ``extras`` holds the execution-only cell fields the request set
    (``cycle_budget``, ``engine``); the server lowers the rest to the
    ``suite`` experiment.
    """
    workloads = _require(req, "workloads", list)
    modes = _require(req, "modes", list)
    if not workloads or not all(isinstance(w, str) and w for w in workloads):
        raise ProtocolError("workloads must be a non-empty list of names")
    if not modes or not all(isinstance(m, str) and m for m in modes):
        raise ProtocolError("modes must be a non-empty list of names")
    scale = req.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or scale <= 0:
        raise ProtocolError("scale must be a positive number")
    for workload in workloads:
        _validate_workload(workload)
    for mode in modes:
        _validate_mode(mode)
    extras = _execution_fields(req)
    return workloads, modes, float(scale), extras, parse_priority(req, "bulk")


def parse_experiment(req: dict) -> tuple[str, dict, str | None, str]:
    """Validated ``(name, kwargs, engine, priority)`` of an experiment job.

    ``kwargs`` are the experiment's constructor arguments (scale,
    workloads, seeds) — the same JSON shape a run manifest records as
    ``args``. The experiment name is checked against the orchestration
    registry; the server rejects an experiment that plans no cells.
    """
    name = _require(req, "experiment", str)
    from ..orchestrate import registry  # local import: registration is heavy

    reg = registry()
    if name not in reg:
        raise ProtocolError(
            f"unknown experiment {name!r}; known: {sorted(reg)}",
            code=E_BAD_REQUEST,
        )
    kwargs: dict = {}
    scale = req.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or scale <= 0:
        raise ProtocolError("scale must be a positive number")
    kwargs["scale"] = float(scale)
    workloads = req.get("workloads")
    if workloads is not None:
        if not isinstance(workloads, list) or not all(
            isinstance(w, str) and w for w in workloads
        ):
            raise ProtocolError("workloads must be a list of names")
        kwargs["workloads"] = workloads
    seeds = req.get("seeds", 1)
    if not isinstance(seeds, int) or seeds < 1:
        raise ProtocolError("seeds must be a positive integer")
    kwargs["seeds"] = seeds
    engine = req.get("engine")
    if engine not in (None, "obj", "array"):
        raise ProtocolError("engine must be 'obj' or 'array'")
    return name, kwargs, engine, parse_priority(req, "bulk")
