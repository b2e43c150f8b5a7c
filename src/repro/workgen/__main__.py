"""CLI: ``python -m repro.workgen {emit,measure,grid}``.

The standalone front door of the workload generator (docs/WORKGEN.md):

* ``emit`` compiles one canonical ``gen:`` name and prints its identity —
  static instruction count, program digest, full workload digest — or the
  disassembly with ``--disasm``. Two invocations with the same name,
  variant, and scale print byte-identical output (the determinism
  contract), so ``emit`` doubles as a provenance probe.
* ``measure`` runs the generated program through the emulator, measures
  the achieved properties with the verifier, and prints the requested vs
  measured table; exits 1 if any knob lands outside its tolerance.
* ``grid`` runs the registered ``property_grid`` experiment inline — one
  knob swept over a value list, against the chosen modes and hardware
  prefetcher sets — through the usual execution flags
  (``--jobs/--cache-dir/--sample/--engine``, docs/PARALLEL.md).
"""

from __future__ import annotations

import argparse
import json
import sys

from .generator import build_generated, program_digest, workload_digest
from .grid import PREFETCHER_SETS, PropertyGrid
from .spec import (
    KNOBS,
    WorkloadSpecError,
    parse_name,
    tolerance_text,
    within_tolerance,
)
from .verify import measure_trace


def cmd_emit(args) -> int:
    workload = build_generated(args.name, variant=args.variant, scale=args.scale)
    if args.disasm:
        print(workload.program.disassemble())
        return 0
    info = {
        "name": args.name,
        "variant": args.variant,
        "scale": args.scale,
        "static_insts": len(workload.program.insts),
        "memory_words": len(workload.memory),
        "program_digest": program_digest(workload.program),
        "workload_digest": workload_digest(workload),
    }
    if args.json:
        print(json.dumps(info, indent=1))
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return 0


def cmd_measure(args) -> int:
    spec, _ = parse_name(args.name)
    workload = build_generated(args.name, variant=args.variant, scale=args.scale)
    measured = measure_trace(workload.trace(max_insts=args.max_insts))
    requested = spec.knob_values()
    achieved = measured.knob_values()
    rows = []
    failures = 0
    for knob, (_, kind, _) in KNOBS.items():
        ok = within_tolerance(knob, requested[knob], achieved[knob])
        failures += not ok
        fmt = "{:.0f}" if kind == "int" else "{:.3f}"
        rows.append(
            (knob, str(requested[knob]), fmt.format(achieved[knob]),
             tolerance_text(knob), "ok" if ok else "VIOLATION")
        )
    if args.json:
        print(json.dumps({
            "name": args.name,
            "requested": requested,
            "measured": achieved,
            "dynamic_insts": measured.dynamic_insts,
            "segments": measured.segments,
            "ok": failures == 0,
        }, indent=1))
    else:
        widths = [max(len(row[i]) if isinstance(row[i], str) else len(row[i])
                      for row in rows + [HEADER]) for i in range(5)]
        for row in [HEADER] + rows:
            print("  ".join(f"{col:<{w}}" for col, w in zip(row, widths)))
        print(f"dynamic insts: {measured.dynamic_insts}  "
              f"segments: {measured.segments}")
    if failures:
        print(f"{failures} knob(s) outside tolerance", file=sys.stderr)
        return 1
    return 0


HEADER = ("knob", "requested", "measured", "tolerance", "status")


def cmd_grid(args) -> int:
    experiment = PropertyGrid(
        scale=args.scale,
        seeds=args.seeds,
        knob=args.knob,
        values=tuple(_parse_values(args.knob, args.values)),
        modes=tuple(args.modes.split(",")),
        prefetchers=tuple(args.prefetchers.split(",")) if args.prefetchers else None,
        gen_seed=args.gen_seed,
    )
    cache = None
    if not args.no_cache:
        from ..parallel.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    result = experiment.run_inline(jobs=args.jobs, cache=cache,
                                   sample=args.sample, engine=args.engine)
    print(result.to_markdown() if args.markdown else result.to_text())
    return 0


def _parse_values(knob: str, text: str) -> list:
    kind = KNOBS[knob][1]
    cast = int if kind == "int" else float
    try:
        return [cast(token) for token in text.split(",") if token]
    except ValueError:
        raise WorkloadSpecError(
            f"--values for {knob} must be comma-separated {kind}s, not {text!r}"
        ) from None


def _add_build_args(parser) -> None:
    parser.add_argument("name", help="canonical gen: workload name")
    parser.add_argument("--variant", default="ref",
                        help="data variant (train | ref[#n]; default: ref)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="iteration scale factor (default: 1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workgen",
        description="Parameterised, seeded workload generator (docs/WORKGEN.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    emit_p = sub.add_parser("emit", help="compile a gen: name; print identity")
    _add_build_args(emit_p)
    emit_p.add_argument("--disasm", action="store_true",
                        help="print the program disassembly instead")
    emit_p.add_argument("--json", action="store_true")
    emit_p.set_defaults(func=cmd_emit)

    measure_p = sub.add_parser(
        "measure", help="measure achieved properties; exit 1 on violation"
    )
    _add_build_args(measure_p)
    measure_p.add_argument("--max-insts", type=int, default=5_000_000)
    measure_p.add_argument("--json", action="store_true")
    measure_p.set_defaults(func=cmd_measure)

    grid_p = sub.add_parser(
        "grid", help="run the property_grid experiment inline"
    )
    grid_p.add_argument("--knob", default="pointer_chase_depth",
                        choices=sorted(KNOBS), help="spec field to sweep")
    grid_p.add_argument("--values", default="2,4,8",
                        help="comma-separated knob values (default: 2,4,8)")
    grid_p.add_argument("--modes", default="ooo,crisp",
                        help="comma-separated simulation modes")
    grid_p.add_argument(
        "--prefetchers", default="",
        help="comma-separated hardware-prefetcher sets to cross with modes "
        f"(known: {','.join(sorted(PREFETCHER_SETS))}; default: core preset)",
    )
    grid_p.add_argument("--scale", type=float, default=1.0)
    grid_p.add_argument("--seeds", type=int, default=1,
                        help="seed replicas per cell (median reported)")
    grid_p.add_argument("--gen-seed", type=int, default=0,
                        help="generator data seed baked into the gen: names")
    grid_p.add_argument("--jobs", type=int, default=1)
    grid_p.add_argument("--cache-dir", default=".repro_cache")
    grid_p.add_argument("--no-cache", action="store_true")
    grid_p.add_argument("--sample", default="off")
    grid_p.add_argument("--engine", choices=("obj", "array"), default=None)
    grid_p.add_argument("--markdown", action="store_true")
    grid_p.set_defaults(func=cmd_grid)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorkloadSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
