"""One frozen EngineConfig, honoured by every layer that builds an FDBS.

* **Fail loudly** — a bad switch raises where the config is built, at
  every layer's construction, never later when a session first plans.
* **reconfigure** — a live database swaps the whole config and pushes
  the two stateful side effects (chunk size to storage, pooling and
  result cache to the machine).
* **One builder** — both serving modes build servers through
  ``build_server``; ``setup_sql`` runs under the configured engine.
* **Wire** — the config crosses the router/worker frame intact.
* **Statement cache** — planning never mutates the cached AST, so one
  entry serves every execution mode and optimizer.
"""

import dataclasses

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.core.server import IntegrationServer
from repro.errors import ExecutionError
from repro.fdbs.config import EngineConfig
from repro.fdbs.engine import Database
from repro.fdbs.federation import DatabaseEndpoint
from repro.fdbs.parser import parse_statement
from repro.serving import (
    ConcurrentIntegrationServer,
    ServerSpec,
    ShardedIntegrationServer,
    build_server,
)
from repro.serving.wire import Hello, decode_frame, encode_frame
from repro.sysmodel.machine import Machine

#: The non-default config the serving parity tests run under.
NON_DEFAULT = EngineConfig(
    execution_mode="batch", optimizer="cost", chunk_size=7, join_strategy="merge"
)

BAD_SETTINGS = {
    "columnar-mode": ({"execution_mode": "columnar"}, ExecutionError),
    "bogus-optimizer": ({"optimizer": "bogus"}, ExecutionError),
    "zero-chunk": ({"chunk_size": 0}, ExecutionError),
    "unknown-join-strategy": ({"join_strategy": "x"}, ExecutionError),
    "adaptive-factor-one": ({"adaptive_factor": 1.0}, ExecutionError),
    "unknown-field": ({"bogus_field": True}, TypeError),
}

#: How each layer is handed engine switches at construction.
LAYERS = {
    "Database": lambda **knobs: Database("strict", **knobs),
    "IntegrationServer": lambda **knobs: IntegrationServer(
        Architecture.WFMS, config=EngineConfig(**knobs)
    ),
    "build_scenario": lambda **knobs: build_scenario(
        Architecture.WFMS, config=EngineConfig(**knobs)
    ),
    "ConcurrentIntegrationServer": lambda **knobs: ConcurrentIntegrationServer(
        workers=1, config=EngineConfig(**knobs)
    ),
    "ShardedIntegrationServer": lambda **knobs: ShardedIntegrationServer(
        shards=1, config=EngineConfig(**knobs)
    ),
}


class TestFailLoudly:
    @pytest.mark.parametrize("layer", sorted(LAYERS))
    @pytest.mark.parametrize("setting", sorted(BAD_SETTINGS))
    def test_bad_setting_raises_at_construction(self, layer, setting):
        knobs, error = BAD_SETTINGS[setting]
        with pytest.raises(error):
            LAYERS[layer](**knobs)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ConcurrentIntegrationServer(workers=1, optimizer="bogus"),
            lambda: ShardedIntegrationServer(shards=1, execution_mode="batch"),
            lambda: build_scenario(Architecture.WFMS, pooling=True),
            lambda: IntegrationServer(Architecture.WFMS, chunk_size=8),
        ],
        ids=["thread-server", "sharded-server", "build_scenario", "integration-server"],
    )
    def test_upper_layers_take_no_loose_knobs(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda config: Database("strict", config=config),
            lambda config: build_scenario(Architecture.WFMS, config=config),
            lambda config: ConcurrentIntegrationServer(workers=1, config=config),
            lambda config: ShardedIntegrationServer(shards=1, config=config),
        ],
        ids=["Database", "build_scenario", "thread-server", "sharded-server"],
    )
    def test_config_must_be_an_engine_config(self, build):
        with pytest.raises(TypeError):
            build({"optimizer": "cost"})

    @pytest.mark.parametrize(
        "knobs",
        [
            {"adaptive_factor": True},
            {"adaptive_factor": "4"},
            {"chunk_size": True},
            {"chunk_size": 2**21},
            {"zone_maps": 1},
            {"pooling": "yes"},
        ],
    )
    def test_mistyped_values_rejected(self, knobs):
        with pytest.raises(ExecutionError):
            EngineConfig(**knobs)

    def test_config_is_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.optimizer = "cost"  # type: ignore[misc]


class TestReconfigure:
    def test_keyword_shorthand_equals_explicit_config(self):
        assert Database("a", optimizer="cost", chunk_size=16).config == EngineConfig(
            optimizer="cost", chunk_size=16
        )
        base = EngineConfig(execution_mode="batch")
        assert Database("b", config=base, optimizer="cost").config == (
            dataclasses.replace(base, optimizer="cost")
        )

    def test_invalid_change_keeps_the_old_config(self):
        db = Database("d", execution_mode="batch")
        before = db.config
        with pytest.raises(ExecutionError):
            db.reconfigure(execution_mode="row", optimizer="bogus")
        assert db.config is before

    def test_chunk_size_reaches_existing_and_new_tables(self):
        db = Database("d")
        db.execute("CREATE TABLE old (a INT)")
        assert db.reconfigure(chunk_size=16).chunk_size == 16
        db.execute("CREATE TABLE new (a INT)")
        for name in ("old", "new"):
            assert db.catalog.get_table(name).storage.chunk_size == 16

    def test_runtime_switches_reach_the_machine(self):
        db = Database("d", machine=Machine(), pooling=True)
        assert db.machine.runtime_pool.enabled
        assert not db.machine.result_cache.enabled
        db.reconfigure(result_cache=True)
        assert db.machine.runtime_pool.enabled
        assert db.machine.result_cache.enabled

    def test_result_cache_namespace_follows_the_mode(self):
        db = Database("d", machine=Machine())
        assert db.machine.result_cache_namespace().endswith(":row")
        db.reconfigure(execution_mode="batch")
        assert db.machine.result_cache_namespace().endswith(":batch")


class TestSharedBuilder:
    SETUP = (
        "CREATE TABLE l (a INT, s CHAR(4))",
        "CREATE TABLE r (b INT, t CHAR(4))",
        "INSERT INTO l VALUES (1, 'x')",
        "INSERT INTO r VALUES (1, 'y')",
        "SELECT * FROM l JOIN r ON a = b",
    )

    def test_setup_sql_runs_under_the_configured_engine(self, data):
        config = EngineConfig(execution_mode="batch", chunk_size=7)
        spec = ServerSpec(data=data, config=config, setup_sql=self.SETUP)
        server = build_server(spec, Architecture.WFMS)
        assert server.fdbs.config == config
        assert server.fdbs.catalog.get_table("l").storage.chunk_size == 7
        # The setup join already planned as a batch-mode hash join.
        assert server.fdbs.join_stats()["joins_hash"] == 1

    def test_thread_server_uses_the_shared_builder(self, data):
        with ConcurrentIntegrationServer(
            workers=1, mode="shared", data=data, config=NON_DEFAULT
        ) as server:
            assert server.spec.config == NON_DEFAULT
            assert server._shared_server(Architecture.WFMS).fdbs.config == NON_DEFAULT


class TestWire:
    def test_config_survives_a_frame_round_trip(self):
        hello = Hello(shard_id=1, pid=99, config=NON_DEFAULT)
        decoded = decode_frame(encode_frame(hello))
        assert decoded == hello
        assert decoded.config == NON_DEFAULT
        assert decoded.config is not NON_DEFAULT


def federated_db(config: EngineConfig) -> Database:
    """A local database with a base table and a remote nickname, stats on."""
    remote = Database("remote")
    remote.execute("CREATE TABLE orders (order_no INT PRIMARY KEY, comp_no INT, qty INT)")
    for index in range(40):
        remote.execute(
            "INSERT INTO orders VALUES (?, ?, ?)", params=[index, index % 5, index * 10]
        )
    local = Database("local", config=config)
    local.execute("CREATE WRAPPER w")
    local.execute("CREATE SERVER s WRAPPER w")
    local.attach_endpoint("s", DatabaseEndpoint(remote))
    local.execute("CREATE NICKNAME n FOR s.orders")
    local.execute("CREATE TABLE watch (pk INT PRIMARY KEY, comp_no INT)")
    for pk in range(12):
        local.execute("INSERT INTO watch VALUES (?, ?)", params=[pk, pk % 4])
    local.execute("RUNSTATS watch")
    local.execute("RUNSTATS n")
    return local


#: Statements exercising pushdown, index selection, zone checks, join
#: reordering / bind joins, aggregation, ORDER BY hidden keys and views.
PLANNED_SQL = (
    "SELECT w.pk, o.order_no FROM watch AS w, n AS o "
    "WHERE w.comp_no = o.comp_no AND o.qty > 100 AND w.pk >= 2 "
    "ORDER BY w.pk, o.order_no",
    "SELECT comp_no, COUNT(*) FROM watch WHERE pk = 3 OR pk BETWEEN 5 AND 9 "
    "GROUP BY comp_no HAVING COUNT(*) > 0 ORDER BY comp_no",
    "SELECT o.order_no FROM n AS o WHERE o.comp_no = 2 AND o.qty < 300 "
    "ORDER BY o.qty DESC",
    "SELECT pk FROM watch WHERE comp_no IN (1, 2) ORDER BY comp_no, pk",
)


class TestStatementCacheSharing:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    @pytest.mark.parametrize("optimizer", ["syntactic", "cost"])
    def test_planning_leaves_the_cached_ast_untouched(self, mode, optimizer):
        db = federated_db(EngineConfig(execution_mode=mode, optimizer=optimizer))
        for sql in PLANNED_SQL:
            first = db.execute(sql).rows
            cached = db._parse_cached(sql)
            assert db.execute(sql).rows == first
            assert db._parse_cached(sql) is cached  # served from the cache
            assert cached == parse_statement(sql), sql

    def test_aggregate_order_by_does_not_leak_into_a_union(self):
        # The aggregate branch once rewrote the shared ORDER BY to its
        # internal $g columns, which the union's sort could not resolve.
        db = Database("d")
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES (1, 2)")
        db.execute("INSERT INTO t VALUES (2, 3)")
        sql = (
            "SELECT a, COUNT(*) AS c FROM t GROUP BY a "
            "UNION SELECT b, 1 FROM t ORDER BY a"
        )
        assert db.execute(sql).rows == [(1, 1), (2, 1), (3, 1)]
        assert db._parse_cached(sql) == parse_statement(sql)

    def test_one_entry_serves_every_mode_and_optimizer(self):
        db = federated_db(EngineConfig())
        sql = PLANNED_SQL[0]
        expected = db.execute(sql).rows
        size = len(db.statement_cache)
        for mode in ("row", "batch"):
            for optimizer in ("syntactic", "cost"):
                db.reconfigure(execution_mode=mode, optimizer=optimizer)
                assert db.execute(sql).rows == expected
        assert len(db.statement_cache) == size


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()
