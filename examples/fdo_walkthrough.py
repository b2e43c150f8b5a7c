"""Walk through CRISP's Figure 5 software flow, one step at a time, on mcf.

Shows the intermediate artefacts the library exposes: the simulated-PMU
profile, the delinquency classification with per-load rejection reasons,
an extracted load slice (including its path through memory), the
critical-path filter's decision, and the final annotation.

Run:  python examples/fdo_walkthrough.py
"""

from repro.core import (
    CriticalPathConfig,
    DelinquencyConfig,
    Rewriter,
    classify,
    extract_slice,
    filter_slice,
    profile_workload,
)
from repro.workloads import get_workload


def main() -> None:
    train = get_workload("mcf", "train")

    # -- Step 1: profile on the unmodified baseline core ---------------------
    trace = train.trace()
    profile, stats = profile_workload(train)
    print(f"profiled {profile.total_insts} instructions at IPC {profile.ipc:.3f}")
    print("top LLC-missing loads (pc, misses):", profile.top_missing_loads(4))

    # -- Step 2: classify delinquent loads ------------------------------------
    classification = classify(profile, DelinquencyConfig())
    print(f"\ndelinquent loads: {classification.delinquent_loads}")
    for pc, reason in list(classification.rejected.items())[:4]:
        print(f"  rejected pc {pc}: {reason}")

    # -- Step 3: extract one slice (through registers AND memory) -------------
    root = classification.delinquent_loads[0]
    slice_ = extract_slice(trace, root, kind="load")
    print(f"\nslice of pc {root}: {slice_.static_size} static instructions, "
          f"avg dynamic cone {slice_.avg_dynamic_size:.0f}")
    program = train.program
    for pc in sorted(slice_.pcs):
        print(f"  {program[pc]!r}")

    # -- Step 4: critical-path filter -----------------------------------------
    kept = filter_slice(trace, slice_, profile, CriticalPathConfig())
    dropped = slice_.pcs - kept
    print(f"\ncritical-path filter kept {len(kept)} of {slice_.static_size} "
          f"(dropped: {sorted(dropped)})")

    # -- Step 5: rewrite with the prefix and the ratio guardrail --------------
    rewriter = Rewriter(program, dict(trace.exec_counts))
    annotation = rewriter.annotate({root: kept}, {root: 1.0})
    print(f"\nannotation: {len(annotation.critical_pcs)} critical PCs, "
          f"{annotation.critical_ratio:.1%} of dynamic instructions")
    print(f"binary grows {annotation.static_overhead:+.2%} static / "
          f"{annotation.dynamic_overhead:+.2%} dynamic")


if __name__ == "__main__":
    main()
