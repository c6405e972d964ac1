"""Memoizing result cache: semantics, owner invalidation, both modes."""

import pytest

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.config import EngineConfig
from repro.sysmodel.result_cache import ResultCache, normalize_args


class TestCacheUnit:
    def test_miss_then_hit_returns_copy(self):
        cache = ResultCache(enabled=True)
        assert cache.get("ns", "f", (1,)) is None
        cache.put("ns", "f", (1,), [(7,)], owner="stock")
        rows = cache.get("ns", "f", (1,))
        assert rows == [(7,)]
        rows.append((8,))  # caller mutation must not poison the cache
        assert cache.get("ns", "f", (1,)) == [(7,)]

    def test_numeric_args_normalized(self):
        cache = ResultCache(enabled=True)
        cache.put("ns", "f", (1,), [(7,)], owner="s")
        assert cache.get("ns", "f", (1.0,)) == [(7,)]

    def test_bool_not_conflated_with_int(self):
        assert normalize_args((True,)) != normalize_args((1,))

    def test_namespaces_are_disjoint(self):
        cache = ResultCache(enabled=True)
        cache.put("A:row", "f", (1,), [(7,)], owner="s")
        assert cache.get("A:batch", "f", (1,)) is None

    def test_lru_eviction_at_capacity(self):
        cache = ResultCache(capacity=2, enabled=True)
        cache.put("ns", "a", (), [(1,)], owner="s")
        cache.put("ns", "b", (), [(2,)], owner="s")
        cache.get("ns", "a", ())  # refresh a; b is now LRU
        cache.put("ns", "c", (), [(3,)], owner="s")
        assert cache.get("ns", "b", ()) is None
        assert cache.get("ns", "a", ()) == [(1,)]
        assert cache.stats()["evictions"] == 1

    def test_invalidate_owner_is_selective_across_namespaces(self):
        cache = ResultCache(enabled=True)
        cache.put("A:row", "stock.f", (1,), [(1,)], owner="stock")
        cache.put("A:batch", "stock.f", (1,), [(1,)], owner="stock")
        cache.put("A:row", "purchasing.g", (1,), [(2,)], owner="purchasing")
        dropped = cache.invalidate_owner("stock")
        assert dropped == 2
        assert cache.get("A:row", "stock.f", (1,)) is None
        assert cache.get("A:batch", "stock.f", (1,)) is None
        assert cache.get("A:row", "purchasing.g", (1,)) == [(2,)]

    def test_disabled_cache_is_inert(self):
        cache = ResultCache(enabled=False)
        cache.put("ns", "f", (), [(1,)], owner="s")
        assert cache.get("ns", "f", ()) is None
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0

    def test_unhashable_args_bypass(self):
        cache = ResultCache(enabled=True)
        cache.put("ns", "f", ([1],), [(1,)], owner="s")
        assert cache.get("ns", "f", ([1],)) is None

    def test_large_ints_not_collapsed_through_float(self):
        """Regression: args were normalized via float(), so 2**53 and
        2**53 + 1 (same float64 value) collided on one entry and the
        second lookup served the first argument's rows."""
        cache = ResultCache(enabled=True)
        cache.put("ns", "f", (2**53,), [("a",)], owner="s")
        cache.put("ns", "f", (2**53 + 1,), [("b",)], owner="s")
        assert cache.get("ns", "f", (2**53,)) == [("a",)]
        assert cache.get("ns", "f", (2**53 + 1,)) == [("b",)]

    def test_non_integral_float_distinct_from_nearby_int(self):
        cache = ResultCache(enabled=True)
        cache.put("ns", "f", (0.5,), [("half",)], owner="s")
        assert cache.get("ns", "f", (0,)) is None
        assert cache.get("ns", "f", (0.5,)) == [("half",)]
        # Integral floats still unify with their int (1 ≡ 1.0).
        cache.put("ns", "g", (1,), [("one",)], owner="s")
        assert cache.get("ns", "g", (1.0,)) == [("one",)]

    def test_nan_args_bypass_and_never_pile_up(self):
        """Regression: NaN keys never compare equal, so every put
        appended a fresh dead entry and no get ever hit."""
        cache = ResultCache(enabled=True)
        nan = float("nan")
        for _ in range(3):
            cache.put("ns", "f", (nan,), [(1,)], owner="s")
        assert len(cache) == 0
        assert cache.get("ns", "f", (nan,)) is None
        assert normalize_args((nan,)) is None

    def test_infinities_are_cacheable_and_distinct(self):
        cache = ResultCache(enabled=True)
        cache.put("ns", "f", (float("inf"),), [("+",)], owner="s")
        cache.put("ns", "f", (float("-inf"),), [("-",)], owner="s")
        assert cache.get("ns", "f", (float("inf"),)) == [("+",)]
        assert cache.get("ns", "f", (float("-inf"),)) == [("-",)]

    def test_function_names_keyed_exactly(self):
        """Regression: function names were upper-cased in the key, so
        distinct runtime keys like audtf:Foo and audtf:foo collided."""
        cache = ResultCache(enabled=True)
        cache.put("ns", "audtf:Foo", (1,), [("Foo",)], owner="s")
        cache.put("ns", "audtf:foo", (1,), [("foo",)], owner="s")
        assert cache.get("ns", "audtf:Foo", (1,)) == [("Foo",)]
        assert cache.get("ns", "audtf:foo", (1,)) == [("foo",)]
        assert len(cache) == 2

    def test_disable_counts_dropped_entries_as_invalidations(self):
        """Regression: configure(enabled=False) cleared the entries
        without counting them, so hits+misses+evictions+invalidations
        no longer accounted for every entry that ever left the cache."""
        cache = ResultCache(enabled=True)
        cache.put("ns", "a", (), [(1,)], owner="s")
        cache.put("ns", "b", (), [(2,)], owner="s")
        cache.configure(enabled=False)
        assert cache.stats()["invalidations"] == 2
        assert len(cache) == 0

    def test_put_is_exception_safe_mid_fill(self):
        """A rows iterable raising mid-stream must leave the previous
        entry intact and never store a partial result."""
        cache = ResultCache(enabled=True)
        cache.put("ns", "f", (1,), [("old",)], owner="s")

        def poisoned():
            yield ("new-1",)
            raise RuntimeError("backend died mid-fill")

        with pytest.raises(RuntimeError):
            cache.put("ns", "f", (1,), poisoned(), owner="s")
        assert cache.get("ns", "f", (1,)) == [("old",)]


@pytest.fixture(params=["row", "batch"])
def cached_server(request, data):
    """A UDTF-architecture server with the result cache on, per mode."""
    scenario = build_scenario(
        Architecture.ENHANCED_SQL_UDTF,
        data=data,
        config=EngineConfig(result_cache=True, execution_mode=request.param),
    )
    return scenario.server


class TestOwnerInvalidation:
    def test_dml_invalidates_only_owning_system(self, cached_server):
        """A write through stock's local function drops stock's cached
        entries only; purchasing's survive.  Runs in row and batch mode
        (the cache namespace includes the execution mode)."""
        server = cached_server
        cache = server.machine.result_cache

        server.stock.call("GetQuality", 1234)
        server.purchasing.call("GetReliability", 1234)
        stock_calls = server.stock.call_count
        purchasing_calls = server.purchasing.call_count

        # Both hot: served from cache, call counts unchanged.
        server.stock.call("GetQuality", 1234)
        server.purchasing.call("GetReliability", 1234)
        assert server.stock.call_count == stock_calls
        assert server.purchasing.call_count == purchasing_calls
        assert cache.stats()["hits"] == 2

        # DML through stock's SetQuality: stock entries invalidated.
        server.stock.call("SetQuality", 1234, 9)
        assert cache.stats()["invalidations"] >= 1

        server.stock.call("GetQuality", 1234)  # must re-execute
        server.purchasing.call("GetReliability", 1234)  # still cached
        assert server.stock.call_count == stock_calls + 2  # SetQuality + rerun
        assert server.purchasing.call_count == purchasing_calls
        assert cache.stats()["hits"] == 3

    def test_dml_refreshes_stale_value(self, cached_server):
        server = cached_server
        before = server.stock.call("GetQuality", 1234)
        server.stock.call("SetQuality", 1234, before[0][0] + 1)
        after = server.stock.call("GetQuality", 1234)
        assert after[0][0] == before[0][0] + 1

    def test_mutating_function_results_never_cached(self, cached_server):
        server = cached_server
        calls = server.purchasing.call_count
        server.purchasing.call("SetReliability", 1234, 3)
        server.purchasing.call("SetReliability", 1234, 3)
        assert server.purchasing.call_count == calls + 2


class TestFederatedPath:
    def test_federated_function_hits_cache_and_dml_clears_it(self, data):
        """The A-UDTF-level cache short-circuits the fenced invocation
        for a repeated federated call, and a DML write against an owning
        system forces re-execution with the fresh value."""
        scenario = build_scenario(
            Architecture.ENHANCED_SQL_UDTF, data=data,
            config=EngineConfig(pooling=True, result_cache=True),
        )
        server = scenario.server
        clock = server.machine.clock

        first = scenario.call("GetSuppQual", "ACME Industrial")
        start = clock.now
        second = scenario.call("GetSuppQual", "ACME Industrial")
        hot_cached = clock.now - start
        assert first == second
        assert server.machine.result_cache.stats()["hits"] > 0

        server.stock.call("SetQuality", 1234, first[0][0] + 1)
        start = clock.now
        refreshed = scenario.call("GetSuppQual", "ACME Industrial")
        refresh_elapsed = clock.now - start
        assert refreshed[0][0] == first[0][0] + 1
        # The refresh re-ran the invalidated leg of the pipeline, so it
        # is strictly slower than the all-cached repeat call.
        assert refresh_elapsed > hot_cached
