"""Canonical cell identity: a stable content hash for one simulation run.

A *cell* is the unit of the evaluation matrix: one workload variant at one
scale, run in one mode on one core configuration, with one annotation. Two
cells with equal keys produce identical :class:`~repro.uarch.stats.SimStats`
(the simulator is deterministic), so the key doubles as the address of the
cached result.

The key hashes every input that can change the outcome — and nothing else:

* the cache schema version (bump :data:`CACHE_SCHEMA_VERSION` whenever the
  simulator's observable behaviour or the stored payload format changes),
* every :class:`~repro.uarch.config.CoreConfig` field, including the nested
  hierarchy and DRAM configs,
* workload name, variant (including any ``#<n>`` seed-replica suffix), its
  resolved RNG seed, and scale,
* the mode,
* the annotation: the sorted ``critical_pcs`` when given explicitly, or the
  full FDO-flow recipe (:class:`~repro.core.fdo.CrispConfig` fields) when
  the worker derives them itself, and
* for a sampled cell only, its sampling plan token.

Execution-only knobs (cycle budget, invariant cadence, crash directory, and
the cycle-model engine — see docs/ENGINE.md's equivalence contract)
deliberately stay out of the key: they do not change a successful cell's
statistics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from ..core.fdo import CrispConfig
from ..uarch.config import CoreConfig
from ..workloads.base import variant_seed

#: Bump when simulator behaviour or the cached payload format changes; old
#: cache entries then miss (different key) instead of poisoning results.
#: v2: interval cells (repro.sampling) — the key gained a sampling recipe.
#: Those cells are gone; a sampled parent cell's key instead carries a
#: ``sample`` entry no v2 key has, so nothing collides and every other v2
#: key, cache entry and run dir stays valid without a bump.
CACHE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CellSpec:
    """A picklable description of one simulation cell.

    Workloads are referenced *by name* and rebuilt inside the worker
    process; the spec never carries a trace or program object, so it stays
    small on the pickle wire and the worker's reconstruction exercises the
    same deterministic builder path as an in-process run.
    """

    workload: str
    mode: str
    scale: float = 1.0
    variant: str = "ref"
    #: Explicit annotation. ``None`` in ``"crisp"`` mode means "run the FDO
    #: flow on the train input inside the worker" (the common case).
    critical_pcs: tuple[int, ...] | None = None
    #: FDO-flow knobs used when deriving ``critical_pcs`` in the worker.
    crisp_config: CrispConfig | None = None
    #: Core configuration; ``None`` means the Table 1 Skylake preset.
    config: CoreConfig | None = None
    #: Sampled simulation (repro.sampling): the plan token
    #: (``SamplingPlan.token()``) of a sampled parent, whose cell answers
    #: the whole run with a :class:`~repro.sampling.estimate.SampledEstimate`.
    #: ``"off"`` simulates the full trace in detail; part of the key only
    #: when not ``"off"``.
    sample: str = "off"
    #: N-core co-run cell (:mod:`repro.multicore`): the full
    #: :class:`~repro.multicore.spec.CoRunSpec`. When set, ``workload`` is
    #: the mix label and ``mode`` is ``"corun"`` (display only — the
    #: executor dispatches on this field before mode resolution). The
    #: spec's canonical payload joins the key, so mix membership, core
    #: order, and per-core mode each address distinct cells.
    corun: object = None
    #: Two-thread SMT cell (:mod:`repro.multicore.smt`): the
    #: :class:`~repro.multicore.smt.SmtCellSpec`; same dispatch contract.
    smt: object = None
    # Execution-only knobs (not part of the cell key).
    invariants: str | None = None
    cycle_budget: int | None = None
    crash_dir: str | None = None
    #: Cycle-model implementation ("obj" | "array" | None = default chain).
    #: Deliberately NOT part of the key: both engines produce identical
    #: SimStats digests (docs/ENGINE.md), so an array run may answer a cell
    #: cached by an object run and vice versa.
    engine: str | None = None

    def core_config(self) -> CoreConfig:
        return self.config if self.config is not None else CoreConfig.skylake()

    def label(self) -> str:
        return f"{self.workload}/{self.mode}"

    def inputs(self) -> tuple[tuple[str, str], ...]:
        """The ``(workload, variant)`` inputs the cell reads at its scale:
        its own, or one per co-run core or SMT thread."""
        if self.corun is not None:
            return tuple((core.workload, core.variant) for core in self.corun.cores)
        if self.smt is not None:
            return tuple(zip(self.smt.workloads, self.smt.variants))
        return ((self.workload, self.variant),)


def _annotation_entry(spec: CellSpec):
    """The key's annotation component (explicit PCs or the derivation recipe)."""
    if spec.critical_pcs is not None:
        return {"explicit": sorted(spec.critical_pcs)}
    if spec.mode != "crisp":
        return {"none": True}
    crisp = spec.crisp_config if spec.crisp_config is not None else CrispConfig()
    return {"derive": "fdo-train", "crisp_config": dataclasses.asdict(crisp)}


def cell_payload(spec: CellSpec) -> dict:
    """The canonical (JSON-serializable) dict the key is hashed over."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "workload": spec.workload,
        "variant": spec.variant,
        "seed": variant_seed(spec.variant),
        "scale": spec.scale,
        "mode": spec.mode,
        "annotation": _annotation_entry(spec),
        "config": dataclasses.asdict(spec.core_config()),
    }
    if spec.sample != "off":
        payload["sample"] = spec.sample
    generated = spec.workload.startswith("gen:")
    if spec.corun is not None:
        # Co-run cells: the CoRunSpec's canonical payload is the identity
        # of the whole mix. A new JSON key changes the hash, so solo cells'
        # historical keys stay valid without a schema bump.
        payload["corun"] = spec.corun.to_payload()
        generated = generated or spec.corun.has_generated()
    if spec.smt is not None:
        payload["smt"] = spec.smt.to_payload()
    if generated:
        # Generated workloads: the name already pins the spec + seed, but
        # the program it compiles to depends on the generator's code
        # revision — hash that in so a generator change can never serve
        # stale cached results (docs/WORKGEN.md). Non-generated cells are
        # untouched (their historical keys stay valid).
        from ..workgen.spec import GENERATOR_VERSION

        payload["generator"] = {"version": GENERATOR_VERSION}
    return payload


def cell_key(spec: CellSpec) -> str:
    """Stable content hash (hex sha256) of the cell's canonical payload."""
    canon = json.dumps(cell_payload(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
