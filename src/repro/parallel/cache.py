"""Content-addressed on-disk cache of simulation results.

Entries are keyed by :func:`repro.parallel.cellkey.cell_key`, so the cache
never needs invalidation logic: any change to the simulator's inputs (core
config, workload, scale, annotation, schema version) changes the key, and
the stale entry simply stops being addressed. Writes are atomic (temp file
+ ``os.replace``), so a crash mid-write leaves no torn entry; unreadable or
mismatched entries degrade to misses, never to wrong results.

Layout: ``<root>/<key[:2]>/<key>.json`` (fan-out over 256 subdirectories so
large sweeps do not pile thousands of files into one directory).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from .cellkey import CACHE_SCHEMA_VERSION


@dataclass
class CacheStats:
    """Hit/miss/store/corrupt counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def register_into(self, registry) -> None:
        """Register collector-backed counters (docs/METRICS.md contract)."""
        spec = (
            ("parallel.cache.hits", "hits",
             "cell lookups answered from the content-addressed result cache"),
            ("parallel.cache.misses", "misses",
             "cell lookups that required a fresh simulation"),
            ("parallel.cache.stores", "stores",
             "simulation results written into the cache"),
            ("parallel.cache.corrupt", "corrupt",
             "on-disk entries that existed but failed validation "
             "(truncated, unparsable, or mismatched) and degraded to a miss"),
        )
        for name, field_name, desc in spec:
            registry.counter(
                name,
                unit="events",
                desc=desc,
                owner="result cache",
                figure="",
                collect=lambda f=field_name: getattr(self, f),
            )


class ResultCache:
    """Content-addressed store of serialized cell results.

    Parameters
    ----------
    root:
        Cache directory (created lazily on the first store); unbounded.
    stats:
        Counter sink; a fresh :class:`CacheStats` when omitted.
    """

    def __init__(self, root: str, *, stats: CacheStats | None = None):
        self.root = str(root)
        self.stats = stats if stats is not None else CacheStats()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- lookup ---------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, or None (counted as hit/miss).

        A corrupt, unreadable, or schema-mismatched entry is a miss: the
        caller re-simulates and overwrites it with a good one. Such
        entries are additionally counted as ``corrupt`` (an absent file is
        a plain miss), so fault injection and operations can tell "never
        simulated" from "stored result rotted on disk".
        """
        try:
            with open(self.path_for(key)) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA_VERSION
            or payload.get("key") != key
        ):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    # -- store ----------------------------------------------------------------

    def put(self, key: str, payload: dict) -> str:
        """Atomically store ``payload`` under ``key``; returns the path."""
        payload = dict(payload)
        payload["schema"] = CACHE_SCHEMA_VERSION
        payload["key"] = key
        # json.dumps without indent runs CPython's C encoder (json.dump on
        # a handle never does); the bytes are the same either way.
        text = json.dumps(payload, sort_keys=True)
        path = self.path_for(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stats.stores += 1
        return path

    # -- maintenance ----------------------------------------------------------

    def _entries(self) -> list[str]:
        entries = []
        if not os.path.isdir(self.root):
            return entries
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name.endswith(".json"):
                    entries.append(os.path.join(shard_dir, name))
        return entries

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed
