"""Declarative workload specs: property knobs, canonical names, tolerances.

A :class:`WorkloadSpec` names the *properties* a generated program must
exhibit — pointer-chase depth, memory-level parallelism, branch entropy,
working-set size, address-slice length, load fraction — rather than any
particular code shape. The generator (:mod:`repro.workgen.generator`)
compiles a spec into a repro-ISA program, and the verifier
(:mod:`repro.workgen.verify`) measures the achieved properties from the
emulator trace and checks each against the tolerances defined here.

Specs travel through the whole stack *by name*: ``encode_name`` renders a
spec + generator seed as a canonical ``gen:...#<seed>`` workload name that
``WorkloadRegistry.build`` dispatches on, so generated workloads are
first-class cells/targets everywhere a workload name is (pool workers,
cache keys, orchestrate manifests, the job server). ``parse_name`` rejects
non-canonical spellings so one spec can never hide behind two names (and
therefore two cache keys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

#: Bump whenever the generator's program shape or data layout changes in a
#: way that alters simulation results for an unchanged (spec, seed). The
#: version is hashed into every gen: cell key and recorded in orchestrate
#: run manifests, so stale cached results and cross-version resumes are
#: structurally impossible (docs/WORKGEN.md, provenance section).
GENERATOR_VERSION = 1

NAME_PREFIX = "gen:"


class WorkloadSpecError(ValueError):
    """An invalid spec, an unsatisfiable knob combination, or a bad name."""


#: Knob metadata, in canonical (name-encoding and docs-table) order:
#: field -> (short code, render kind, one-line meaning).
KNOBS = {
    "pointer_chase_depth": (
        "pcd", "int",
        "dependent pointer-chase loads per loop iteration and stream",
    ),
    "mlp": (
        "mlp", "int",
        "independent chase streams (memory-level parallelism)",
    ),
    "branch_entropy": (
        "ent", "float",
        "Shannon entropy of the data-dependent hammock branch outcome",
    ),
    "working_set_kib": (
        "ws", "int",
        "unique cache-line footprint touched by one full traversal (KiB)",
    ),
    "slice_length": (
        "sl", "int",
        "ALU ops on the address-generation slice between dependent loads",
    ),
    "load_fraction": (
        "lf", "float",
        "fraction of dynamic instructions that are loads",
    ),
}

#: Acceptance tolerance per knob: requested vs measured must satisfy
#: |measured - requested| <= abs + rel * requested.
TOLERANCES = {
    "pointer_chase_depth": {"abs": 1.0, "rel": 0.0},
    "mlp": {"abs": 1.0, "rel": 0.0},
    "branch_entropy": {"abs": 0.12, "rel": 0.0},
    "working_set_kib": {"abs": 4.0, "rel": 0.15},
    "slice_length": {"abs": 1.0, "rel": 0.0},
    "load_fraction": {"abs": 0.05, "rel": 0.0},
}


@dataclass(frozen=True)
class WorkloadSpec:
    """The six property knobs of one generated workload."""

    pointer_chase_depth: int = 4
    mlp: int = 2
    branch_entropy: float = 0.5
    working_set_kib: int = 256
    slice_length: int = 3
    load_fraction: float = 0.3

    def __post_init__(self):
        def bad(msg: str):
            raise WorkloadSpecError(f"invalid WorkloadSpec: {msg}")

        if not 1 <= self.pointer_chase_depth <= 64:
            bad(f"pointer_chase_depth must be in [1, 64], not {self.pointer_chase_depth}")
        if not 1 <= self.mlp <= 8:
            bad(f"mlp must be in [1, 8], not {self.mlp}")
        if not 0.0 <= self.branch_entropy <= 1.0:
            bad(f"branch_entropy must be in [0, 1], not {self.branch_entropy}")
        if not 32 <= self.working_set_kib <= 8192:
            bad(f"working_set_kib must be in [32, 8192], not {self.working_set_kib}")
        if self.working_set_kib < 24 * self.mlp:
            bad(
                f"working_set_kib={self.working_set_kib} too small for "
                f"mlp={self.mlp}: each stream's traversal cycle must exceed "
                f"the verifier's {24}x-mlp line-recency window "
                f"(need >= {24 * self.mlp} KiB)"
            )
        if not 2 <= self.slice_length <= 16:
            bad(f"slice_length must be in [2, 16], not {self.slice_length}")
        if not 0.05 <= self.load_fraction <= 0.8:
            bad(f"load_fraction must be in [0.05, 0.8], not {self.load_fraction}")

    def knob_values(self) -> dict:
        """Knob values in canonical order."""
        return {name: getattr(self, name) for name in KNOBS}


def _render(kind: str, value) -> str:
    if kind == "int":
        return str(int(value))
    return f"{float(value):.2f}"


def encode_name(spec: WorkloadSpec, seed: int = 0) -> str:
    """The canonical ``gen:`` workload name of (spec, seed)."""
    if not isinstance(seed, int) or seed < 0:
        raise WorkloadSpecError(f"generator seed must be a non-negative int, not {seed!r}")
    parts = [
        f"{code}{_render(kind, getattr(spec, name))}"
        for name, (code, kind, _) in KNOBS.items()
    ]
    return f"{NAME_PREFIX}{','.join(parts)}#{seed}"


def is_generated(name: str) -> bool:
    """Whether a workload name addresses the generator."""
    return name.startswith(NAME_PREFIX)


def parse_name(name: str) -> tuple[WorkloadSpec, int]:
    """Parse a canonical ``gen:`` name back into (spec, seed).

    Raises :class:`WorkloadSpecError` for malformed, unknown-knob, or
    non-canonical spellings — every spec has exactly one valid name, so
    the name can serve as cache-key material.
    """
    if not is_generated(name):
        raise WorkloadSpecError(f"not a generated-workload name: {name!r}")
    body = name[len(NAME_PREFIX):]
    body, sep, seed_text = body.partition("#")
    if not sep or not seed_text.isdigit():
        raise WorkloadSpecError(
            f"generated name {name!r} must end in '#<seed>' (a non-negative int)"
        )
    seed = int(seed_text)
    by_code = {code: (field_name, kind) for field_name, (code, kind, _) in KNOBS.items()}
    values: dict = {}
    for token in body.split(","):
        match = next(
            (code for code in by_code if token.startswith(code) and token != code),
            None,
        )
        if match is None:
            raise WorkloadSpecError(
                f"unknown knob token {token!r} in {name!r}; knobs: "
                f"{sorted(by_code)}"
            )
        field_name, kind = by_code[match]
        if field_name in values:
            raise WorkloadSpecError(f"duplicate knob {field_name!r} in {name!r}")
        raw = token[len(match):]
        try:
            values[field_name] = int(raw) if kind == "int" else float(raw)
        except ValueError:
            raise WorkloadSpecError(
                f"malformed value {raw!r} for knob {field_name!r} in {name!r}"
            ) from None
    missing = [field_name for field_name in KNOBS if field_name not in values]
    if missing:
        raise WorkloadSpecError(f"name {name!r} is missing knobs {missing}")
    spec = WorkloadSpec(**values)
    canonical = encode_name(spec, seed)
    if canonical != name:
        raise WorkloadSpecError(
            f"non-canonical generated name {name!r}; canonical spelling is "
            f"{canonical!r}"
        )
    return spec, seed


def tolerance_text(knob: str) -> str:
    """Human form of one knob's tolerance (docs table, lint-enforced)."""
    tol = TOLERANCES[knob]
    parts = []
    if tol["abs"]:
        parts.append(f"±{_trim(tol['abs'])}")
    if tol["rel"]:
        parts.append(f"±{tol['rel']:.0%}")
    return " + ".join(parts)


def _trim(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


def within_tolerance(knob: str, requested: float, measured: float) -> bool:
    tol = TOLERANCES[knob]
    return abs(measured - requested) <= tol["abs"] + tol["rel"] * abs(requested)


def entropy_to_prob(entropy: float) -> float:
    """The taken-probability p in [0, 0.5] with binary entropy ``entropy``.

    Inverse of H(p) = -p·log2(p) - (1-p)·log2(1-p), solved by bisection
    (H is monotone on [0, 0.5]).
    """
    if not 0.0 <= entropy <= 1.0:
        raise WorkloadSpecError(f"entropy must be in [0, 1], not {entropy}")
    if entropy == 0.0:
        return 0.0
    if entropy == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2
        if binary_entropy(mid) < entropy:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def binary_entropy(p: float) -> float:
    """Shannon entropy (bits) of a Bernoulli(p) outcome."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def spec_fields() -> list[str]:
    """Dataclass field names, in declaration order (lint cross-check)."""
    return [f.name for f in fields(WorkloadSpec)]
