"""Predicate pushdown to remote SQL sources (the future-work extension)."""

import pytest

from repro.fdbs import ast
from repro.fdbs.engine import Database
from repro.fdbs.federation import DatabaseEndpoint
from repro.fdbs.parser import parse_expression
from repro.fdbs.pushdown import (
    partition_predicates,
    push_predicates,
    recombine,
    referenced_qualifiers,
    split_conjuncts,
    strip_qualifiers,
)
from repro.sysmodel.machine import Machine


def make_pair(machine=None, n_rows=50):
    remote = Database("remote")
    remote.execute("CREATE TABLE orders (order_no INT PRIMARY KEY, comp_no INT, qty INT)")
    for index in range(n_rows):
        remote.execute(
            "INSERT INTO orders VALUES (?, ?, ?)",
            params=[index, index % 5, index * 10],
        )
    local = Database("local", machine=machine)
    local.execute("CREATE WRAPPER w")
    local.execute("CREATE SERVER s WRAPPER w")
    local.attach_endpoint("s", DatabaseEndpoint(remote))
    local.execute("CREATE NICKNAME n FOR s.orders")
    return local, remote


class TestHelpers:
    def test_split_conjuncts_flattens_ands(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        assert len(split_conjuncts(expr)) == 3

    def test_split_does_not_break_or(self):
        expr = parse_expression("a = 1 OR b = 2")
        assert len(split_conjuncts(expr)) == 1

    def test_recombine_round_trip(self):
        expr = parse_expression("a = 1 AND b = 2")
        conjuncts = split_conjuncts(expr)
        combined = recombine(conjuncts)
        assert sorted(c.render() for c in split_conjuncts(combined)) == sorted(
            c.render() for c in conjuncts
        )
        assert recombine([]) is None

    def test_referenced_qualifiers(self):
        assert referenced_qualifiers(parse_expression("n.x = 1")) == {"N"}
        assert referenced_qualifiers(parse_expression("n.x = m.y")) == {"N", "M"}
        assert referenced_qualifiers(parse_expression("1 = 1")) == set()

    def test_unpushable_constructs_return_none(self):
        assert referenced_qualifiers(parse_expression("x = 1")) is None  # unqualified
        assert referenced_qualifiers(parse_expression("n.x = ?")) is None
        assert referenced_qualifiers(parse_expression("UPPER(n.x) = 'A'")) is None
        assert referenced_qualifiers(parse_expression("n.x IN (SELECT 1)")) is None
        assert (
            referenced_qualifiers(parse_expression("CASE WHEN n.x = 1 THEN 1 END"))
            is None
        )

    def test_pushable_predicate_forms(self):
        for text in (
            "n.x BETWEEN 1 AND 3",
            "n.x IS NOT NULL",
            "n.x IN (1, 2, 3)",
            "n.name LIKE 'gear%'",
            "n.x + 1 > n.y * 2",
            "NOT (n.x = 1)",
        ):
            assert referenced_qualifiers(parse_expression(text)) == {"N"}

    def test_strip_qualifiers(self):
        expr = parse_expression("n.x = 1 AND n.y BETWEEN 2 AND n.z")
        assert "n." not in strip_qualifiers(expr).render()

    def test_or_across_aliases_merges_qualifiers(self):
        assert referenced_qualifiers(
            parse_expression("n.x = 1 OR m.y = 2")
        ) == {"N", "M"}

    def test_not_over_subquery_stays_local(self):
        assert (
            referenced_qualifiers(parse_expression("NOT (n.x IN (SELECT 1))"))
            is None
        )

    def test_ambiguous_column_inside_or_stays_local(self):
        # One unqualified leg poisons the whole conjunct.
        assert referenced_qualifiers(parse_expression("n.x = 1 OR y = 2")) is None

    def test_in_list_with_parameter_item_stays_local(self):
        assert referenced_qualifiers(parse_expression("n.x IN (1, ?)")) is None

    def test_strip_qualifiers_preserves_structure(self):
        for text, rendered in (
            ("NOT (n.x = 1)", "(NOT (x = 1))"),
            ("n.x IS NULL", "(x IS NULL)"),
            ("n.x IN (1, n.y)", "(x IN (1, y))"),
            ("n.a LIKE n.b", "(a LIKE b)"),
        ):
            assert strip_qualifiers(parse_expression(text)).render() == rendered


class TestPartitionPredicates:
    def test_split_is_deterministic_and_ordered(self):
        where = parse_expression(
            "n.x = 1 AND w.k = n.x AND n.y > 2 AND w.k = 9"
        )
        first = partition_predicates(where, {"N"})
        second = partition_predicates(where, {"N"})
        assert [(a, c.render()) for a, c in first[0]] == [
            (a, c.render()) for a, c in second[0]
        ]
        assert [c.render() for c in first[1]] == [c.render() for c in second[1]]
        assert [(a, c.render()) for a, c in first[0]] == [
            ("N", "(n.x = 1)"),
            ("N", "(n.y > 2)"),
        ]
        assert [c.render() for c in first[1]] == [
            "(w.k = n.x)",
            "(w.k = 9)",
        ]

    def test_none_where_yields_empty_partition(self):
        assert partition_predicates(None, {"N"}) == ([], [])

    def test_only_candidate_aliases_are_pushed(self):
        where = parse_expression("n.x = 1 AND m.y = 2")
        pushed, residual = partition_predicates(where, {"N"})
        assert [(a, c.render()) for a, c in pushed] == [("N", "(n.x = 1)")]
        assert [c.render() for c in residual] == ["(m.y = 2)"]

    def test_explain_shows_residual_conjuncts(self):
        local, _ = make_pair()
        local.execute("CREATE TABLE watch (comp_no INT)")
        local.execute("INSERT INTO watch VALUES (2)")
        text = local.explain(
            "SELECT o.order_no FROM watch AS w, n AS o "
            "WHERE o.comp_no = 2 AND w.comp_no = o.comp_no"
        )
        assert "pushed: (comp_no = 2)" in text
        assert "[residual: (w.comp_no = o.comp_no)]" in text


class TestEndToEnd:
    def test_results_identical_with_and_without_pushdown(self):
        local, _ = make_pair()
        sql = "SELECT order_no FROM n AS o WHERE o.comp_no = 2 AND o.qty > 100 ORDER BY order_no"
        with_pd = local.execute(sql).rows
        local.reconfigure(pushdown=False)
        without_pd = local.execute(sql).rows
        assert with_pd == without_pd
        assert with_pd  # non-empty

    def test_pushed_predicates_reach_remote_sql(self):
        local, _ = make_pair()
        plan = local._planner().plan_select(
            __import__("repro.fdbs.parser", fromlist=["parse_statement"]).parse_statement(
                "SELECT o.order_no FROM n AS o WHERE o.comp_no = 2"
            )
        )
        text = plan.explain()
        assert "pushed: (comp_no = 2)" in text

    def test_pushdown_counter_increments(self):
        local, _ = make_pair()
        before = local.federation.predicates_pushed
        local.execute("SELECT o.order_no FROM n AS o WHERE o.comp_no = 2")
        assert local.federation.predicates_pushed == before + 1

    def test_mixed_conjuncts_split_between_remote_and_local(self):
        local, _ = make_pair()
        local.execute("CREATE TABLE watch (comp_no INT)")
        local.execute("INSERT INTO watch VALUES (2)")
        result = local.execute(
            "SELECT o.order_no FROM watch AS w, n AS o "
            "WHERE o.comp_no = 2 AND w.comp_no = o.comp_no AND o.qty > 400 "
            "ORDER BY o.order_no"
        )
        assert result.rows == [(42,), (47,)]

    def test_pushdown_saves_transfer_cost(self):
        machine_on = Machine()
        on, _ = make_pair(machine_on, n_rows=200)
        machine_off = Machine()
        off, _ = make_pair(machine_off, n_rows=200)
        off.reconfigure(pushdown=False)
        sql = "SELECT o.order_no FROM n AS o WHERE o.comp_no = 0"

        def hot(db, machine):
            db.execute(sql)
            start = machine.clock.now
            db.execute(sql)
            return machine.clock.now - start

        fast = hot(on, machine_on)
        slow = hot(off, machine_off)
        # 40 rows shipped instead of 200.
        assert fast < slow
        saved = slow - fast
        assert saved == pytest.approx(
            160 * machine_on.costs.remote_row_transfer, rel=0.2
        )

    def test_no_pushdown_under_left_outer_join(self):
        local, _ = make_pair()
        local.execute("CREATE TABLE comps (comp_no INT, label VARCHAR(10))")
        local.execute("INSERT INTO comps VALUES (2, 'two'), (99, 'none')")
        # The nickname sits under an explicit join: conjunct stays local,
        # and LEFT JOIN semantics stay correct.
        result = local.execute(
            "SELECT c.label, o.order_no FROM comps AS c "
            "LEFT OUTER JOIN n AS o ON c.comp_no = o.comp_no "
            "WHERE c.label = 'none'"
        )
        assert result.rows == [("none", None)]
        assert local.federation.predicates_pushed == 0

    def test_or_predicates_are_pushed_whole(self):
        local, _ = make_pair()
        result = local.execute(
            "SELECT o.order_no FROM n AS o "
            "WHERE o.comp_no = 1 OR o.comp_no = 3 ORDER BY o.order_no"
        )
        assert all(row[0] % 5 in (1, 3) for row in result.rows)
        assert local.federation.predicates_pushed == 1
