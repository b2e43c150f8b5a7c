"""Content-addressed result cache: round trips, atomicity, eviction."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.parallel import CACHE_SCHEMA_VERSION, CellSpec, ResultCache, run_cells
from repro.sampling import parse_sample, run_cells_sampled
from repro.telemetry import StatsRegistry

KEY_A = "a" * 64
KEY_B = "b" * 64


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def test_miss_then_hit_round_trip(cache):
    assert cache.get(KEY_A) is None
    cache.put(KEY_A, {"ipc": 1.25, "stats": {"cycles": 4}})
    payload = cache.get(KEY_A)
    assert payload["ipc"] == 1.25
    assert payload["stats"] == {"cycles": 4}
    assert payload["schema"] == CACHE_SCHEMA_VERSION
    assert payload["key"] == KEY_A
    assert (cache.stats.misses, cache.stats.hits, cache.stats.stores) == (1, 1, 1)


def test_entries_shard_by_key_prefix(cache):
    path = cache.put(KEY_A, {"ipc": 1.0})
    assert os.path.dirname(path).endswith(KEY_A[:2])
    assert path == cache.path_for(KEY_A)


def test_corrupt_entry_degrades_to_miss(cache):
    path = cache.put(KEY_A, {"ipc": 1.0})
    with open(path, "w") as handle:
        handle.write("{truncated")
    assert cache.get(KEY_A) is None


def test_schema_mismatch_degrades_to_miss(cache):
    path = cache.put(KEY_A, {"ipc": 1.0})
    with open(path) as handle:
        payload = json.load(handle)
    payload["schema"] = CACHE_SCHEMA_VERSION + 1
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert cache.get(KEY_A) is None


def test_key_mismatch_degrades_to_miss(cache):
    """An entry stored under the wrong address must never be returned."""
    cache.put(KEY_A, {"ipc": 1.0})
    os.rename(cache.path_for(KEY_A), os.path.dirname(cache.path_for(KEY_A))
              + f"/{KEY_A[:2]}{'c' * 62}.json")
    assert cache.get(KEY_A[:2] + "c" * 62) is None


def test_writes_leave_no_temp_files(cache, tmp_path):
    cache.put(KEY_A, {"ipc": 1.0})
    leftovers = [
        name
        for root, _, names in os.walk(tmp_path)
        for name in names
        if name.endswith(".tmp")
    ]
    assert leftovers == []


def test_overwrite_is_idempotent(cache):
    cache.put(KEY_A, {"ipc": 1.0})
    cache.put(KEY_A, {"ipc": 2.0})
    assert cache.get(KEY_A)["ipc"] == 2.0
    assert len(cache) == 1


def test_clear_removes_everything(cache):
    cache.put(KEY_A, {"ipc": 1.0})
    cache.put(KEY_B, {"ipc": 2.0})
    assert cache.clear() == 2
    assert len(cache) == 0


def test_counters_register_into_telemetry(cache):
    registry = StatsRegistry()
    cache.stats.register_into(registry)
    cache.get(KEY_A)
    cache.put(KEY_A, {"ipc": 1.0})
    cache.get(KEY_A)
    assert registry.value("parallel.cache.misses") == 1
    assert registry.value("parallel.cache.hits") == 1
    assert registry.value("parallel.cache.stores") == 1


# -- corruption accounting -----------------------------------------------------


def test_corrupt_counter_distinguishes_rot_from_absence(cache):
    """Absent entries are plain misses; mangled ones also count corrupt."""
    cache.get(KEY_A)  # never stored: miss, not corrupt
    assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)

    path = cache.put(KEY_A, {"ipc": 1.0})
    with open(path, "w") as handle:
        handle.write("{truncated")
    assert cache.get(KEY_A) is None
    assert (cache.stats.misses, cache.stats.corrupt) == (2, 1)


def test_binary_garbage_is_counted_corrupt(cache):
    path = cache.put(KEY_A, {"ipc": 1.0})
    with open(path, "wb") as handle:
        handle.write(b"\xff\xfe\x00garbage\xff")
    assert cache.get(KEY_A) is None
    assert cache.stats.corrupt == 1


def test_mismatched_entry_is_counted_corrupt(cache):
    path = cache.put(KEY_A, {"ipc": 1.0})
    with open(path) as handle:
        payload = json.load(handle)
    payload["key"] = KEY_B  # stored under the wrong address
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert cache.get(KEY_A) is None
    assert cache.stats.corrupt == 1


def test_corrupt_entry_is_overwritten_by_resimulation(cache):
    """The recovery path: corrupt -> miss -> re-store -> clean hit."""
    path = cache.put(KEY_A, {"ipc": 1.0})
    with open(path, "w") as handle:
        handle.write("not json at all")
    assert cache.get(KEY_A) is None
    cache.put(KEY_A, {"ipc": 1.5})
    assert cache.get(KEY_A)["ipc"] == 1.5
    assert cache.stats.corrupt == 1  # the clean hit adds nothing


def test_corrupt_counter_registers_into_telemetry(cache):
    registry = StatsRegistry()
    cache.stats.register_into(registry)
    path = cache.put(KEY_A, {"ipc": 1.0})
    with open(path, "w") as handle:
        handle.write("{")
    cache.get(KEY_A)
    assert registry.value("parallel.cache.corrupt") == 1


class RecordingCache(ResultCache):
    """A cache that keeps every ``(key, payload)`` handed to ``put``."""

    def __init__(self, root):
        super().__init__(root)
        self.puts = []

    def put(self, key, payload):
        self.puts.append((key, payload))
        return super().put(key, payload)


def test_entries_are_the_bytes_json_dump_wrote(tmp_path):
    """``put`` encodes with ``json.dumps``; the file must hold exactly
    what ``json.dump(entry, handle, sort_keys=True)`` wrote, so every
    entry stays byte-identical. Real payloads: a crisp cell's per-PC
    tables, critical PCs and floats, and a sampled parent's ``extra``."""
    cache = RecordingCache(str(tmp_path / "cache"))
    run_cells([CellSpec(workload="mcf", mode="crisp", scale=0.1)], cache=cache)
    run_cells_sampled([CellSpec(workload="mcf", mode="ooo", scale=0.2)],
                      parse_sample("smarts:400/2000"), cache=cache)
    assert len(cache.puts) == 2
    assert cache.puts[0][1]["critical_pcs"] and cache.puts[0][1]["stats"]["load_pcs"]
    assert "sampled" in cache.puts[1][1]["extra"]
    for key, payload in cache.puts:
        entry = dict(payload, schema=CACHE_SCHEMA_VERSION, key=key)
        reference = io.StringIO()
        json.dump(entry, reference, sort_keys=True)
        with open(cache.path_for(key)) as handle:
            assert handle.read() == reference.getvalue()
