"""Post-link-time binary rewriting: critical-prefix injection (Section 4.1).

The rewriter plays the role of the BOLT/Propeller-style post-link pass that
prepends the new one-byte ``critical`` instruction prefix to every tagged
instruction. In this reproduction "rewriting" produces an
:class:`Annotation`: the set of critical PCs plus the *re-laid-out* code
(every prefixed instruction grows by one byte, shifting everything after
it), from which the static and dynamic footprint overheads of Figure 12
fall out directly.

The rewriter also enforces the critical-ratio guardrail of Section 3.2:
prioritisation works best when 5%-40% of *dynamic* instructions are
critical -- beyond that the scheduler has nothing left to deprioritise --
so whole slices are dropped, least-important first, until the ratio bound
holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.program import CodeLayout, Program


@dataclass
class Annotation:
    """Result of rewriting one program with a set of critical instructions."""

    critical_pcs: frozenset[int]
    layout: CodeLayout
    baseline_layout: CodeLayout
    #: dynamic instruction counts used for ratio/footprint accounting
    exec_counts: dict[int, int] = field(default_factory=dict)
    dropped_roots: list[int] = field(default_factory=list)

    @property
    def static_bytes(self) -> int:
        return self.layout.total_bytes

    @property
    def baseline_static_bytes(self) -> int:
        return self.baseline_layout.total_bytes

    @property
    def static_overhead(self) -> float:
        """Static code-footprint growth (Figure 12, 'static')."""
        base = self.baseline_static_bytes
        return (self.static_bytes - base) / base if base else 0.0

    def dynamic_bytes(self, annotated: bool = True) -> int:
        sizes = self.layout.sizes if annotated else self.baseline_layout.sizes
        return sum(sizes[pc] * count for pc, count in self.exec_counts.items())

    @property
    def dynamic_overhead(self) -> float:
        """Dynamic code-footprint growth (Figure 12, 'dynamic')."""
        base = self.dynamic_bytes(annotated=False)
        return (self.dynamic_bytes(True) - base) / base if base else 0.0

    @property
    def critical_ratio(self) -> float:
        """Fraction of dynamic instructions that are tagged critical."""
        total = sum(self.exec_counts.values())
        if not total:
            return 0.0
        tagged = sum(
            count for pc, count in self.exec_counts.items() if pc in self.critical_pcs
        )
        return tagged / total


class Rewriter:
    """Builds :class:`Annotation` objects with the ratio guardrail."""

    def __init__(
        self,
        program: Program,
        exec_counts: dict[int, int],
        *,
        max_critical_ratio: float = 0.40,
    ):
        self.program = program
        self.exec_counts = dict(exec_counts)
        self.max_critical_ratio = max_critical_ratio
        self._total_dyn = sum(self.exec_counts.values())

    def _ratio(self, pcs: set[int]) -> float:
        if not self._total_dyn:
            return 0.0
        return sum(self.exec_counts.get(pc, 0) for pc in pcs) / self._total_dyn

    def annotate(
        self,
        slice_pcs: dict[int, set[int]],
        importance: dict[int, float] | None = None,
    ) -> Annotation:
        """Merge per-root slices into one annotation, enforcing the guardrail.

        ``slice_pcs`` maps each root PC to its (already critical-path
        filtered) slice PC set. ``importance`` ranks roots (e.g. by miss
        contribution); when the combined dynamic critical ratio exceeds the
        maximum, the least important roots' slices are dropped first.
        """
        importance = importance or {}
        roots = sorted(slice_pcs, key=lambda pc: importance.get(pc, 0.0))
        kept = dict(slice_pcs)
        dropped: list[int] = []

        def union(mapping: dict[int, set[int]]) -> set[int]:
            out: set[int] = set()
            for pcs in mapping.values():
                out |= pcs
            return out

        combined = union(kept)
        while len(kept) > 1 and self._ratio(combined) > self.max_critical_ratio:
            victim = roots.pop(0)
            if victim not in kept:
                continue
            del kept[victim]
            dropped.append(victim)
            combined = union(kept)

        critical = frozenset(combined)
        return Annotation(
            critical_pcs=critical,
            layout=self.program.layout(critical),
            baseline_layout=self.program.layout(),
            exec_counts=self.exec_counts,
            dropped_roots=dropped,
        )
