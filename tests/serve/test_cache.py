"""Tests for the serving result cache (`repro.serve.cache`)."""

from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import ResultCache, result_key


class TestResultKey:
    def test_same_request_same_key(self):
        assert result_key(b"blob", "disassemble", None) == \
            result_key(b"blob", "disassemble", None)

    def test_key_varies_with_every_component(self):
        base = result_key(b"blob", "disassemble", None)
        assert result_key(b"other", "disassemble", None) != base
        assert result_key(b"blob", "lint", None) != base
        assert result_key(b"blob", "disassemble",
                          {"use_lint_feedback": True}) != base
        assert result_key(b"blob", "disassemble", None,
                          extra="orphan-code") != base

    def test_empty_overrides_key_like_none(self):
        assert result_key(b"blob", "disassemble", {}) == \
            result_key(b"blob", "disassemble", None)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", "payload")
        assert cache.get("k") == "payload"
        assert cache.stats() == {"entries": 1, "max_entries": 4,
                                 "hits": 1, "misses": 1, "evictions": 0}

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", "1")
        cache.put("b", "2")
        assert cache.get("a") == "1"        # refresh "a"
        cache.put("c", "3")                 # evicts "b", not "a"
        assert cache.get("b") is None
        assert cache.get("a") == "1"
        assert cache.get("c") == "3"
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_overwrite_does_not_grow(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", "1")
        cache.put("a", "updated")
        assert len(cache) == 1
        assert cache.get("a") == "updated"
        assert cache.stats()["evictions"] == 0

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(max_entries=0)
        cache.put("a", "1")
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear(self):
        cache = ResultCache(max_entries=4)
        cache.put("a", "1")
        cache.clear()
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_counts_into_an_injected_registry(self):
        registry = MetricsRegistry()
        cache = ResultCache(max_entries=1, registry=registry)
        cache.get("a")
        cache.put("a", "1")
        cache.get("a")
        cache.put("b", "2")
        counter = registry.get("repro_serve_cache_total")
        assert counter.by_label("outcome") == {"misses": 1, "hits": 1,
                                               "evictions": 1}

    def test_default_caches_count_privately(self):
        ResultCache().get("a")
        assert ResultCache().stats()["misses"] == 0
