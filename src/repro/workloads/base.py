"""Workload infrastructure: the Workload container, registry, and variants.

Each workload is a synthetic analogue of one application evaluated in the
paper (SPEC2017 memory-intensive subset, xhpcg, and the TailBench trio).
An analogue reproduces the *memory-access and branch character* the paper
attributes to that application -- pointer chasing, indirect gathers,
streaming stencils, interpreter dispatch, spills through the stack -- not
its semantics. DESIGN.md documents this substitution.

Every workload builder accepts:

* ``variant`` -- ``"train"`` or ``"ref"``. The paper profiles on SPEC's
  *train* inputs and evaluates on *ref* (Section 5.1); here the variants
  differ in RNG seed and size so the same distinction holds: criticality is
  extracted from one input and must generalise to the other. A variant may
  carry a *seed replica* suffix (``"ref#2"``): same sizing as its base
  variant, different deterministic RNG seed — the seed axis experiment
  reports aggregate over (median/stdev, docs/ORCHESTRATION.md).
* ``scale`` -- multiplies iteration counts (data footprints stay fixed so
  cache behaviour is preserved); used to trade run time for precision.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..isa.emulator import ExecutionTrace, execute
from ..isa.program import Program

# Memory-map conventions shared by all workloads (byte addresses).
HEAP = 0x1000_0000
HEAP2 = 0x2000_0000
HEAP3 = 0x3000_0000
TABLE = 0x4000_0000
STACK = 0x7FFF_0000

#: Seeds that make "train" and "ref" genuinely different executions.
VARIANT_SEEDS = {"train": 0xA11CE, "ref": 0xB0B}


def split_variant(variant: str) -> tuple[str, int]:
    """``"ref#2"`` -> ``("ref", 2)``; a plain variant -> ``(variant, 0)``.

    Raises ``ValueError`` for an unknown base variant or a malformed
    replica suffix, so every caller validates identically.
    """
    base, sep, replica = variant.partition("#")
    if base not in VARIANT_SEEDS:
        raise ValueError(f"variant must be one of {sorted(VARIANT_SEEDS)}")
    if not sep:
        return base, 0
    try:
        number = int(replica)
    except ValueError:
        number = -1
    if number < 1:
        raise ValueError(
            f"variant replica suffix must be a positive integer, not {variant!r}"
        )
    return base, number


def variant_seed(variant: str) -> int:
    """The RNG seed of a variant; replicas derive distinct seeds.

    Plain variants keep their historical :data:`VARIANT_SEEDS` value
    (cache keys predating seed replicas stay valid); ``"<base>#<n>"``
    mixes ``n`` in deterministically.
    """
    base, replica = split_variant(variant)
    seed = VARIANT_SEEDS[base]
    if replica:
        seed = (seed * 0x9E3779B1 + replica) & 0x7FFF_FFFF
    return seed


def is_ref(variant: str) -> bool:
    """Whether a variant is ref-sized (``"ref"`` or any ``"ref#<n>"``)."""
    return split_variant(variant)[0] == "ref"


@dataclass
class Workload:
    """A ready-to-run program plus its initial machine state."""

    name: str
    program: Program
    #: Initial memory by word address: a :class:`~repro.isa.MemoryImage`
    #: from the named builders, a plain dict from workgen and tests.
    memory: Mapping[int, int]
    regs: dict[int, int] = field(default_factory=dict)
    category: str = "spec"
    description: str = ""
    variant: str = "ref"
    #: The paper-narrative this workload encodes (used in docs/tests).
    character: str = ""
    _trace: ExecutionTrace | None = field(default=None, repr=False)

    def trace(self, max_insts: int = 5_000_000) -> ExecutionTrace:
        """Functionally execute (cached) and return the dynamic trace."""
        if self._trace is None:
            self._trace = execute(
                self.program, regs=self.regs, memory=self.memory, max_insts=max_insts
            )
        return self._trace


class WorkloadRegistry:
    """Name -> builder registry for the evaluated suite."""

    def __init__(self):
        self._builders: dict[str, tuple] = {}

    def register(self, name: str, category: str, builder, description: str = ""):
        if name in self._builders:
            raise ValueError(f"duplicate workload {name!r}")
        self._builders[name] = (category, builder, description)

    def names(self, category: str | None = None) -> list[str]:
        return sorted(
            name
            for name, (cat, _, _) in self._builders.items()
            if category is None or cat == category
        )

    def build(self, name: str, variant: str = "ref", scale: float = 1.0) -> Workload:
        if name.startswith("gen:"):
            # Generated workloads (docs/WORKGEN.md): the name is a canonical
            # WorkloadSpec + generator seed, so pool workers rebuild them
            # exactly like named analogues. Imported lazily — workgen layers
            # on top of this module.
            from ..workgen.generator import build_generated

            split_variant(variant)
            return build_generated(name, variant=variant, scale=scale)
        try:
            category, builder, _ = self._builders[name]
        except KeyError:
            raise ValueError(
                f"unknown workload {name!r}; known: {self.names()}"
            ) from None
        split_variant(variant)  # validates base variant and replica suffix
        workload = builder(variant=variant, scale=scale)
        workload.category = category
        workload.variant = variant
        return workload

    def describe(self, name: str) -> str:
        return self._builders[name][2]


#: The process-global registry all workload modules register into.
REGISTRY = WorkloadRegistry()


def variant_rng(variant: str, salt: int = 0) -> random.Random:
    """Deterministic RNG that differs between train and ref inputs.

    Seed replicas (``"ref#2"``) get their own stream; plain variants are
    bit-compatible with the pre-replica behaviour.
    """
    return random.Random(variant_seed(variant) * 1_000_003 + salt)


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an iteration count, clamped below."""
    return max(minimum, int(round(value * scale)))
