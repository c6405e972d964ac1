"""Batch execution mode: planner selection, EXPLAIN, and satellites.

Covers the execution-mode plumbing (validation, per-mode statement
cache namespacing), hash-join selection and fallback in EXPLAIN output,
StatementCache counters, and deterministic HashIndex lookups.
"""

import pytest

from repro.errors import ExecutionError, PlanError
from repro.fdbs.config import EngineConfig
from repro.fdbs.engine import Database
from repro.fdbs.session import StatementCache
from repro.fdbs.storage import Table
from repro.fdbs.catalog import ColumnDef
from repro.fdbs.types import INTEGER


def make_join_db(mode: str) -> Database:
    db = Database("x", execution_mode=mode)
    db.execute("CREATE TABLE l (a INT, s CHAR(4))")
    db.execute("CREATE TABLE r (b INT, t CHAR(4))")
    return db


class TestExecutionMode:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ExecutionError):
            Database("bad", execution_mode="vectorwise")
        db = Database("ok")
        with pytest.raises(ExecutionError):
            db.reconfigure(execution_mode="vector")
        assert db.config.execution_mode == "row"

    def test_columnar_mode_rejected_everywhere(self):
        from repro.serving import ConcurrentIntegrationServer, ShardedIntegrationServer

        with pytest.raises(ExecutionError, match="'row' or 'batch'"):
            Database("bad", execution_mode="columnar")
        db = Database("ok", execution_mode="batch")
        with pytest.raises(ExecutionError, match="'row' or 'batch'"):
            db.reconfigure(execution_mode="columnar")
        assert db.config.execution_mode == "batch"
        for server_class in (ConcurrentIntegrationServer, ShardedIntegrationServer):
            with pytest.raises(ExecutionError, match="'row' or 'batch'"):
                server_class(config=EngineConfig(execution_mode="columnar"))

    def test_set_execution_mode_switches(self):
        db = make_join_db("row")
        db.reconfigure(execution_mode="batch")
        assert db.config.execution_mode == "batch"
        assert "HashJoin" in db.explain("SELECT * FROM l JOIN r ON a = b")

    def test_statement_cache_is_shared_across_modes(self):
        db = make_join_db("row")
        db.execute("SELECT * FROM l")
        assert len(db.statement_cache) == 1  # DDL invalidated earlier entries
        hits = db.statement_cache.stats()["hits"]
        db.reconfigure(execution_mode="batch")
        db.execute("SELECT * FROM l")
        assert len(db.statement_cache) == 1  # the row entry is reused
        assert db.statement_cache.stats()["hits"] == hits + 1


    def test_row_compiled_sum_folds_in_row_order(self):
        # Row mode drains chunks too, but its SUM must still add one
        # value at a time: chunk-wise partial sums round differently.
        import random

        rng = random.Random(7)
        values = [rng.uniform(-1e6, 1e6) for _ in range(40)]
        expected = values[0]
        for value in values[1:]:
            expected += value
        db = Database("sum", chunk_size=4)
        db.execute("CREATE TABLE t (v DOUBLE)")
        for value in values:
            db.execute("INSERT INTO t VALUES (?)", params=[value])
        assert db.execute("SELECT SUM(t.v) FROM t").rows == [(expected,)]


class TestExplainOutput:
    def test_explain_shows_mode_header(self):
        row_db = make_join_db("row")
        batch_db = make_join_db("batch")
        sql = "SELECT * FROM l"
        # Line 0 is the MVCC Snapshot(epoch=...) header; the mode header
        # follows it.
        assert row_db.explain(sql).splitlines()[1] == "Execution(mode=row)"
        assert batch_db.explain(sql).splitlines()[1] == "Execution(mode=batch)"

    def test_explain_leads_with_snapshot_epoch(self):
        db = make_join_db("row")
        first = db.explain("SELECT * FROM l").splitlines()[0]
        assert first.startswith("Snapshot(epoch=")

    def test_explain_statement_carries_mode(self):
        db = make_join_db("batch")
        rows = db.execute("EXPLAIN SELECT * FROM l").rows
        assert rows[0][0].startswith("Snapshot(epoch=")
        assert rows[1] == ("Execution(mode=batch)",)

    def test_explain_analyze_labels_the_session_mode(self):
        # ANALYZE drains the plan the session runs, so its header names
        # the session mode, and the per-operator ``actual=`` counts of
        # one query agree across modes.
        sql = (
            "SELECT l.s, COUNT(*) FROM l, r WHERE l.a = r.b AND l.a > 0 "
            "GROUP BY l.s ORDER BY l.s"
        )
        trees = {}
        for mode in ("row", "batch"):
            db = make_join_db(mode)
            for index in range(6):
                db.execute(
                    "INSERT INTO l VALUES (?, ?)", params=[index, f"s{index % 2}"]
                )
                db.execute(
                    "INSERT INTO r VALUES (?, ?)", params=[index % 3, "t"]
                )
            rows = db.execute("EXPLAIN ANALYZE " + sql).rows
            assert rows[1] == (f"Execution(mode={mode})",)
            trees[mode] = [line for line, in rows[2:]]
            assert all("actual=" in line for line in trees[mode])
        assert trees["row"] == trees["batch"]

    def test_explain_analyze_early_limit_records_no_feedback(self):
        # A LIMIT closes the scan after its first chunk: the prefix the
        # scan delivered is no cardinality evidence, so neither mode may
        # record feedback or bump the stats epoch.
        for mode in ("row", "batch"):
            db = Database("limit", execution_mode=mode, optimizer="cost")
            db.execute("CREATE TABLE big (id INT, v INT)")
            for index in range(5000):
                db.execute(
                    "INSERT INTO big VALUES (?, ?)", params=[index, index % 13]
                )
            db.execute("RUNSTATS big")
            epoch = db.catalog.stats_epoch
            feedback = db.catalog.feedback()
            db.execute("EXPLAIN ANALYZE SELECT big.v FROM big LIMIT 2")
            assert db.catalog.stats_epoch == epoch, mode
            assert db.catalog.feedback() == feedback, mode

    def test_batch_equi_join_uses_hash_join(self):
        db = make_join_db("batch")
        text = db.explain("SELECT * FROM l JOIN r ON l.a = r.b")
        assert "HashJoin(INNER, on (l.a = r.b), join=hash)" in text
        assert "NestedLoopJoin" not in text

    def test_row_mode_keeps_nested_loop(self):
        db = make_join_db("row")
        text = db.explain("SELECT * FROM l JOIN r ON l.a = r.b")
        assert "NestedLoopJoin(INNER, join=nlj)" in text
        assert "HashJoin" not in text

    def test_non_equi_join_falls_back_to_nlj(self):
        db = make_join_db("batch")
        text = db.explain("SELECT * FROM l JOIN r ON l.a < r.b")
        assert "NestedLoopJoin(INNER, join=nlj)" in text

    def test_residual_conjunct_marked(self):
        db = make_join_db("batch")
        text = db.explain(
            "SELECT * FROM l JOIN r ON l.a = r.b AND l.a + r.b > 3"
        )
        assert "HashJoin(INNER, on (l.a = r.b), residual, join=hash)" in text

    def test_left_outer_equi_join_hashes(self):
        db = make_join_db("batch")
        text = db.explain("SELECT * FROM l LEFT JOIN r ON l.a = r.b")
        assert "HashJoin(LEFT OUTER" in text

    def test_bad_on_clause_errors_match_row_mode(self):
        for mode in ("row", "batch"):
            db = make_join_db(mode)
            with pytest.raises(PlanError):
                db.explain("SELECT * FROM l JOIN r ON l.nope = r.b")


class TestStatementCacheCounters:
    def test_eviction_counter_and_stats(self):
        cache = StatementCache(capacity=2)
        cache.put("SELECT 1", "a")
        cache.put("SELECT 2", "b")
        cache.put("SELECT 3", "c")  # evicts SELECT 1
        assert cache.evictions == 1
        assert cache.get("SELECT 1") is None
        assert cache.get("SELECT 3") == "c"
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "size": 2,
            "capacity": 2,
        }

    def test_namespaces_do_not_collide(self):
        cache = StatementCache()
        cache.put("SELECT 1", "row-plan", namespace="row")
        cache.put("SELECT 1", "batch-plan", namespace="batch")
        assert cache.get("SELECT 1", namespace="row") == "row-plan"
        assert cache.get("SELECT 1", namespace="batch") == "batch-plan"

    def test_lru_refresh_protects_hot_entries(self):
        cache = StatementCache(capacity=2)
        cache.put("SELECT 1", "a")
        cache.put("SELECT 2", "b")
        cache.get("SELECT 1")  # refresh: SELECT 2 is now LRU
        cache.put("SELECT 3", "c")
        assert cache.get("SELECT 1") == "a"
        assert cache.get("SELECT 2") is None


class TestHashIndexDeterminism:
    def test_lookup_returns_sorted_rids(self):
        table = Table("t", [ColumnDef("a", INTEGER), ColumnDef("b", INTEGER)])
        for index in range(50):
            table.insert((index % 3, index))
        index = table.create_index("a")
        rids = index.lookup(0)
        assert rids == sorted(rids)
        assert isinstance(rids, list)

    def test_index_scan_rows_in_insertion_order(self):
        table = Table("t", [ColumnDef("a", INTEGER), ColumnDef("b", INTEGER)])
        for index in range(50):
            table.insert((index % 3, index))
        values = [row[1] for row in table.index_lookup("a", 1)]
        assert values == sorted(values)
