"""Co-run cells on the parallel layer: keys, pool, cache, sampling."""

from __future__ import annotations

from repro.multicore import CoreTask, CoRunSpec, corun_cell, corun_extra
from repro.parallel import ResultCache, run_cells
from repro.parallel.cellkey import cell_key

SCALE = 0.1


def pair(**kw):
    return CoRunSpec(
        cores=(CoreTask("pointer_chase"), CoreTask("img_dnn")), **kw
    )


def key_of(corun, **kw):
    return cell_key(corun_cell(corun, scale=SCALE, **kw))


def test_cell_key_covers_the_corun_identity():
    base = key_of(pair())
    assert key_of(pair()) == base  # stable
    # Membership, order, per-core mode, and shared knobs all distinguish.
    assert key_of(CoRunSpec(cores=(CoreTask("pointer_chase"),))) != base
    assert key_of(
        CoRunSpec(cores=(CoreTask("img_dnn"), CoreTask("pointer_chase")))
    ) != base
    assert key_of(
        CoRunSpec(cores=(CoreTask("pointer_chase", "crisp"),
                         CoreTask("img_dnn")))
    ) != base
    assert key_of(pair(llc_xcore=True)) != base
    assert key_of(pair(llc_mshrs_per_core=4)) != base


def test_corun_cell_key_differs_from_plain_cell():
    solo = CoRunSpec(cores=(CoreTask("mcf"),))
    from repro.parallel import CellSpec

    plain = CellSpec(workload="mcf", mode="ooo", scale=SCALE)
    assert cell_key(corun_cell(solo, scale=SCALE)) != cell_key(plain)


def test_serial_and_pooled_corun_cells_agree():
    specs = [corun_cell(pair(), scale=SCALE),
             corun_cell(pair(llc_xcore=True), scale=SCALE)]
    serial = run_cells(specs, jobs=1)
    pooled = run_cells(specs, jobs=2)
    for s, p in zip(serial, pooled):
        assert s.ok and p.ok
        assert p.stats.digest() == s.stats.digest()
        assert p.extra == s.extra


def test_corun_cell_round_trips_through_the_cache(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    spec = corun_cell(pair(), scale=SCALE)
    cold = run_cells([spec], cache=cache)[0]
    warm = run_cells([spec], cache=cache)[0]
    assert not cold.from_cache and warm.from_cache
    assert warm.stats == cold.stats
    assert warm.extra == cold.extra
    extra = corun_extra(warm)
    assert extra["mix"] == "pointer_chase@ooo+img_dnn@ooo"
    assert len(extra["per_core"]) == 2
    assert extra["multicore"]["ncores"] == 2


def test_sampling_passes_composite_cells_through(tmp_path):
    """Co-run cells have no interval form; --sample must not expand them."""
    from repro.sampling import parse_sample
    from repro.sampling.cells import run_cells_sampled

    spec = corun_cell(pair(), scale=SCALE)
    [sampled] = run_cells_sampled([spec], parse_sample("smarts:200/2000"))
    [plain] = run_cells([spec])
    assert sampled.ok
    assert sampled.stats.digest() == plain.stats.digest()
    assert sampled.extra == plain.extra


def test_run_dir_persists_the_corun_extra(tmp_path):
    """Resume/report rehydrate composite cells with their per-core payload."""
    from repro.orchestrate.rundir import cell_file
    from repro.parallel.executor import CellResult

    spec = corun_cell(pair(), scale=SCALE)
    [result] = run_cells([spec])
    payload = cell_file(result)
    assert payload["extra"] == result.extra

    restored = CellResult.done(spec, payload["result_key"], payload,
                               attempts=payload["attempts"], from_cache=True)
    assert restored.extra == result.extra
    assert corun_extra(restored)["multicore"]["ncores"] == 2
