"""Content-addressed result cache for the serving layer.

Keys are ``sha256(container bytes)`` + the effective config
fingerprint + the job kind, so a repeated binary under the same config
skips disassembly entirely while any config change (or asking for lint
instead of disassembly) is a guaranteed miss.  Values are the exact
response payload strings a worker produced, so a cache hit serves
byte-identical output to the original computation.

The cache lives in the server process and is only touched from the
event-loop thread, so it needs no locking; it is bounded LRU and counts
hits, misses and evictions into ``repro_serve_cache_total{outcome}``
of the server's metrics registry, surfaced on ``/metrics``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from ..obs.metrics import MetricsRegistry
from .metrics import cache_lookups
from .protocol import config_fingerprint


def result_key(blob: bytes, kind: str,
               config_overrides: dict | None,
               extra: str = "") -> str:
    """The full cache key of one (container, kind, config) request."""
    digest = hashlib.sha256(blob).hexdigest()
    key = f"{kind}:{digest}:{config_fingerprint(config_overrides)}"
    return f"{key}:{extra}" if extra else key


class ResultCache:
    """Bounded LRU mapping result keys to response payload strings.

    ``registry`` receives the lookup counter; by default the cache
    counts into a private one.
    """

    def __init__(self, max_entries: int = 256,
                 registry: MetricsRegistry | None = None) -> None:
        self.max_entries = max(0, int(max_entries))
        self._entries: OrderedDict[str, str] = OrderedDict()
        self._lookups = cache_lookups(
            registry if registry is not None else MetricsRegistry())

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> str | None:
        payload = self._entries.get(key)
        if payload is None:
            self._lookups.inc(outcome="misses")
            return None
        self._entries.move_to_end(key)
        self._lookups.inc(outcome="hits")
        return payload

    def put(self, key: str, payload: str) -> None:
        if self.max_entries == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = payload
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._lookups.inc(outcome="evictions")

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        counts = {outcome: int(self._lookups.value(outcome=outcome))
                  for outcome in ("hits", "misses", "evictions")}
        return {"entries": len(self._entries),
                "max_entries": self.max_entries, **counts}
