"""Differential tests: planned execution ≡ naive interpreter.

The planner in :mod:`repro.graphdb.plan` promises row-multiset identity
with the naive interpreter (the oracle in ``tests/oracles/query.py``)
for every query it accepts (and exact row order whenever the naive
engine's output order is determined by ORDER BY).  These tests enforce that promise three ways:

* hand-written regression pins for the planner-specific behaviours —
  reversed anchors, predicate pushdown, bound-variable joins, top-k
  LIMIT handling, and the EXPLAIN/PROFILE surfaces;
* a query suite run against a real (corpus-derived) CPG;
* hypothesis-generated random graphs × random queries.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.plan import build_plan, split_conjuncts, expr_variables
from repro.graphdb.query import parse_query, run_query, _hashable

from tests.oracles.query import run_naive_query


def row_multiset(result):
    return Counter(
        tuple(_hashable(row[c]) for c in result.columns) for row in result.rows
    )


def assert_equivalent(graph, cypher):
    """Planned ≡ naive as row multisets (and profiled ≡ planned exactly)."""
    naive = run_naive_query(graph, cypher)
    planned = run_query(graph, cypher)
    profiled = run_query(graph, cypher, profile=True)
    assert planned.columns == naive.columns
    assert row_multiset(planned) == row_multiset(naive), cypher
    assert profiled.rows == planned.rows, cypher
    assert profiled.plan is not None and profiled.plan.profiled
    explained = run_query(graph, cypher, explain=True)
    assert explained.rows == [] and explained.plan is not None
    explained.plan.render()  # must not raise
    return naive, planned


def assert_identical(graph, cypher):
    """Planned ≡ naive as exact row lists (total ORDER BY or aggregates)."""
    naive, planned = assert_equivalent(graph, cypher)
    assert planned.rows == naive.rows, cypher
    return naive, planned


# ---------------------------------------------------------------------------
# A small deterministic call-graph fixture
# ---------------------------------------------------------------------------


@pytest.fixture()
def chain_graph():
    g = PropertyGraph()
    g.create_index("Method", "NAME")
    g.create_index("Method", "IS_SINK")
    ids = []
    for i in range(40):
        node = g.create_node(
            ["Method"],
            {"NAME": f"m{i}", "IS_SINK": i % 9 == 0, "WEIGHT": i % 5},
        )
        ids.append(node.id)
    for i in range(39):
        g.create_relationship("CALL", ids[i], ids[i + 1])
    for i in range(0, 40, 4):
        g.create_relationship("ALIAS", ids[i], ids[(i * 3 + 1) % 40])
    return g


# ---------------------------------------------------------------------------
# Regression pins: reversed anchor
# ---------------------------------------------------------------------------


class TestReversedAnchor:
    def test_sink_anchored_pattern_is_reversed(self, chain_graph):
        cypher = (
            "MATCH (a:Method)-[c:CALL]->(b:Method {IS_SINK: true}) "
            "RETURN a.NAME, b.NAME ORDER BY a.NAME, b.NAME"
        )
        plan = build_plan(chain_graph, parse_query(cypher))
        [pplan] = plan.patterns
        assert pplan.reversed
        assert pplan.anchor.strategy == "index"
        assert (pplan.anchor.label, pplan.anchor.key) == ("Method", "IS_SINK")
        assert pplan.anchor.value is True
        assert pplan.backward_estimate < pplan.forward_estimate
        assert_identical(chain_graph, cypher)

    def test_reversal_examines_far_fewer_anchor_candidates(self, chain_graph):
        cypher = (
            "MATCH (a:Method)-[:CALL]->(b:Method {IS_SINK: true}) "
            "RETURN a.NAME ORDER BY a.NAME"
        )
        profiled = run_query(chain_graph, cypher, profile=True)
        [pplan] = profiled.plan.patterns
        sinks = sum(
            1 for n in chain_graph.nodes("Method") if n.properties["IS_SINK"]
        )
        assert pplan.anchor_checked == sinks  # not the 40-node label scan

    def test_forward_anchor_kept_when_cheaper(self, chain_graph):
        cypher = (
            "MATCH (a:Method {NAME: 'm3'})-[:CALL]->(b:Method) "
            "RETURN b.NAME"
        )
        plan = build_plan(chain_graph, parse_query(cypher))
        [pplan] = plan.patterns
        assert not pplan.reversed
        assert pplan.anchor.strategy == "index"
        assert pplan.anchor.key == "NAME"
        assert_identical(chain_graph, cypher)

    def test_reversed_var_length_rel_binding_order(self, chain_graph):
        # the bound relationship list must follow the pattern as written,
        # even when the engine walked it backwards from the sink anchor
        cypher = (
            "MATCH (a:Method)-[r:CALL*1..2]->"
            "(b:Method {IS_SINK: true}) RETURN r, b.NAME"
        )
        plan = build_plan(chain_graph, parse_query(cypher))
        assert plan.patterns[0].reversed
        naive = run_naive_query(chain_graph, cypher)
        planned = run_query(chain_graph, cypher)
        assert row_multiset(planned) == row_multiset(naive)
        for row in planned.rows:
            rels = row["r"]
            # consecutive rels chain start→end in written direction
            for first, second in zip(rels, rels[1:]):
                assert first.end_id == second.start_id

    def test_undirected_pattern_reversal(self, chain_graph):
        cypher = (
            "MATCH (a:Method)-[c:CALL]-(b:Method {NAME: 'm5'}) "
            "RETURN a.NAME ORDER BY a.NAME"
        )
        plan = build_plan(chain_graph, parse_query(cypher))
        assert plan.patterns[0].reversed
        assert_identical(chain_graph, cypher)


# ---------------------------------------------------------------------------
# Regression pins: predicate pushdown
# ---------------------------------------------------------------------------


class TestPredicatePushdown:
    def test_single_var_conjuncts_pushed_to_their_position(self, chain_graph):
        cypher = (
            "MATCH (a:Method)-[c:CALL]->(b:Method) "
            "WHERE a.WEIGHT > 2 AND b.IS_SINK = true AND a.NAME <> b.NAME "
            "RETURN a.NAME, b.NAME ORDER BY a.NAME, b.NAME"
        )
        plan = build_plan(chain_graph, parse_query(cypher))
        [pplan] = plan.patterns
        assert pplan.reversed  # b.IS_SINK = true makes b the index anchor
        # oriented pattern is (b)<-(a): b filters at position 0, a at 1,
        # and the two-variable conjunct also lands at position 1
        assert len(pplan.position_filters[0]) == 1
        assert len(pplan.position_filters[1]) == 2
        assert plan.residual == []
        assert_identical(chain_graph, cypher)

    def test_where_equality_folds_into_index_anchor(self, chain_graph):
        cypher = "MATCH (a:Method) WHERE a.NAME = 'm11' RETURN a.WEIGHT"
        plan = build_plan(chain_graph, parse_query(cypher))
        anchor = plan.patterns[0].anchor
        assert anchor.strategy == "index"
        assert (anchor.key, anchor.value) == ("NAME", "m11")
        # the conjunct is still evaluated: fold is a narrowing, not a skip
        assert plan.patterns[0].position_filters[0]
        assert_identical(chain_graph, cypher)

    def test_null_equality_not_folded_into_index(self, chain_graph):
        # missing properties compare equal to null, but indexes only
        # cover present values — folding would drop rows
        cypher = "MATCH (a:Method) WHERE a.MISSING = null RETURN count(*)"
        plan = build_plan(chain_graph, parse_query(cypher))
        assert plan.patterns[0].anchor.key != "MISSING"
        assert_identical(chain_graph, cypher)

    def test_cross_pattern_conjunct_waits_for_second_pattern(self, chain_graph):
        cypher = (
            "MATCH (a:Method {IS_SINK: true}), (b:Method) "
            "WHERE b.WEIGHT = a.WEIGHT AND b.IS_SINK = false "
            "RETURN a.NAME, b.NAME ORDER BY a.NAME, b.NAME"
        )
        plan = build_plan(chain_graph, parse_query(cypher))
        first, second = plan.patterns
        assert not any(first.position_filters[0] is f for f in ())  # sanity
        # b-only conjunct and the join conjunct both live on pattern 2
        assert sum(len(fs) for fs in first.position_filters) == 0
        assert sum(len(fs) for fs in second.position_filters) == 2
        assert plan.residual == []
        assert_identical(chain_graph, cypher)

    def test_or_predicate_stays_whole(self, chain_graph):
        cypher = (
            "MATCH (a:Method) WHERE a.WEIGHT = 4 OR a.IS_SINK = true "
            "RETURN a.NAME ORDER BY a.NAME"
        )
        conjuncts = split_conjuncts(parse_query(cypher).where)
        assert len(conjuncts) == 1  # OR is not split
        assert expr_variables(conjuncts[0]) == {"a"}
        assert_identical(chain_graph, cypher)


# ---------------------------------------------------------------------------
# Pipeline behaviours
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_order_by_limit_topk_matches_sort_slice(self, chain_graph):
        assert_identical(
            chain_graph,
            "MATCH (a:Method) RETURN a.NAME, a.WEIGHT "
            "ORDER BY a.WEIGHT DESC, a.NAME SKIP 3 LIMIT 7",
        )

    def test_bare_limit_short_circuits_but_same_multiset_window(self, chain_graph):
        cypher = "MATCH (a:Method) RETURN a.NAME LIMIT 5"
        naive = run_naive_query(chain_graph, cypher)
        planned = run_query(chain_graph, cypher)
        # anchor candidates are id-ordered in both engines, so even the
        # unordered LIMIT window agrees here
        assert planned.rows == naive.rows
        profiled = run_query(chain_graph, cypher, profile=True)
        # short-circuit: the scan stopped after 5 anchor rows
        assert profiled.plan.patterns[0].anchor_checked == 5

    def test_aggregate_and_distinct(self, chain_graph):
        assert_identical(
            chain_graph,
            "MATCH (a:Method) RETURN a.WEIGHT, count(*) "
            "ORDER BY a.WEIGHT",
        )
        assert_equivalent(
            chain_graph, "MATCH (a:Method) RETURN DISTINCT a.IS_SINK"
        )

    def test_empty_match_count_star(self, chain_graph):
        assert_identical(chain_graph, "MATCH (x:NoSuchLabel) RETURN count(*)")

    def test_explain_does_not_execute(self, chain_graph):
        result = run_query(
            chain_graph,
            "MATCH (a:Method)-[:CALL]->(b:Method) RETURN a.NAME",
            explain=True,
        )
        assert result.rows == []
        assert result.plan.patterns[0].rows_out == 0
        text = result.plan.render()
        assert "anchor" in text and "expand" in text

    def test_profile_render_includes_counters(self, chain_graph):
        result = run_query(
            chain_graph,
            "MATCH (a:Method {IS_SINK: true}) RETURN a.NAME ORDER BY a.NAME",
            profile=True,
        )
        text = result.plan.render()
        assert "profiled" in text
        assert "rows=" in text and "time=" in text
        as_dict = result.plan.to_dict()
        assert as_dict["rows_returned"] == len(result.rows)

    def test_naive_engine_has_no_plan(self, chain_graph):
        result = run_naive_query(chain_graph, "MATCH (a:Method) RETURN a.NAME")
        assert result.plan is None


# ---------------------------------------------------------------------------
# Query suite over a corpus-derived CPG
# ---------------------------------------------------------------------------


CPG_QUERY_SUITE = [
    "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE ORDER BY m.SIGNATURE",
    "MATCH (a:Method)-[c:CALL]->(b:Method {IS_SINK: true}) "
    "RETURN a.SIGNATURE, b.NAME ORDER BY a.SIGNATURE, b.NAME",
    "MATCH (c:Class)-[:HAS]->(m:Method) WHERE m.IS_SINK = true "
    "RETURN c.NAME, count(m) AS sinks ORDER BY c.NAME",
    "MATCH (a:Method)-[:CALL|ALIAS*1..3]->(b:Method {IS_SINK: true}) "
    "RETURN DISTINCT a.SIGNATURE ORDER BY a.SIGNATURE",
    "MATCH (a:Method {IS_SOURCE: true})-[:CALL]->(b:Method) "
    "RETURN a.NAME, b.NAME ORDER BY a.NAME, b.NAME LIMIT 25",
    "MATCH (m:Method) WHERE m.NAME STARTS WITH 'read' "
    "RETURN m.SIGNATURE ORDER BY m.SIGNATURE",
    "MATCH (c:Class {NAME: 'java.util.HashMap'})-[:HAS]->(m:Method) "
    "RETURN m.NAME ORDER BY m.NAME",
]


@pytest.fixture(scope="module")
def corpus_cpg():
    from repro.core.cpg import CPGBuilder
    from repro.corpus import build_component, build_lang_base
    from repro.jvm.hierarchy import ClassHierarchy

    classes = list(build_lang_base())
    classes.extend(build_component("commons-collections(3.2.1)").classes)
    classes.extend(build_component("CommonsBeanutils1").classes)
    return CPGBuilder(ClassHierarchy(classes)).build().graph


class TestCorpusQuerySuite:
    @pytest.mark.parametrize("cypher", CPG_QUERY_SUITE)
    def test_planned_matches_naive_on_cpg(self, corpus_cpg, cypher):
        assert_equivalent(corpus_cpg, cypher)

    def test_sink_anchored_query_reverses_on_cpg(self, corpus_cpg):
        plan = build_plan(corpus_cpg, parse_query(CPG_QUERY_SUITE[1]))
        [pplan] = plan.patterns
        assert pplan.reversed
        assert pplan.anchor.strategy == "index"
        assert pplan.anchor.key == "IS_SINK"


# ---------------------------------------------------------------------------
# Hypothesis: random graphs × random queries
# ---------------------------------------------------------------------------


NODE_LABELS = ["Method", "Class", "Field"]
REL_TYPES = ["CALL", "ALIAS", "HAS"]
PROP_KEYS = ["NAME", "KIND", "WEIGHT"]


@st.composite
def graphs(draw):
    g = PropertyGraph()
    g.create_index("Method", "NAME")
    g.create_index("Method", "KIND")
    n = draw(st.integers(min_value=0, max_value=14))
    ids = []
    for i in range(n):
        labels = draw(
            st.lists(st.sampled_from(NODE_LABELS), min_size=1, max_size=2,
                     unique=True)
        )
        props = {}
        for key in PROP_KEYS:
            if draw(st.booleans()):
                props[key] = draw(
                    st.one_of(
                        st.integers(min_value=-3, max_value=3),
                        st.sampled_from(["x", "y", "readObject"]),
                        st.booleans(),
                        st.none(),
                    )
                )
        ids.append(g.create_node(labels, props).id)
    if ids:
        m = draw(st.integers(min_value=0, max_value=3 * len(ids)))
        for _ in range(m):
            g.create_relationship(
                draw(st.sampled_from(REL_TYPES)),
                draw(st.sampled_from(ids)),
                draw(st.sampled_from(ids)),
            )
    return g


@st.composite
def queries(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=3))
    node_vars = [f"n{i}" for i in range(n_nodes)]
    parts = []
    for i, var in enumerate(node_vars):
        label = draw(
            st.one_of(st.none(), st.sampled_from(NODE_LABELS))
        )
        inline = ""
        if draw(st.booleans()):
            key = draw(st.sampled_from(PROP_KEYS))
            value = draw(st.sampled_from(["'x'", "'readObject'", "1", "true"]))
            inline = f" {{{key}: {value}}}"
        node = f"({var}{':' + label if label else ''}{inline})"
        if i:
            rel_type = draw(st.one_of(st.none(), st.sampled_from(REL_TYPES)))
            var_len = draw(st.booleans()) and draw(st.booleans())
            body = f":{rel_type}" if rel_type else ""
            if var_len:
                body += "*1..2"
            arrow = draw(st.sampled_from(["-[{}]->", "<-[{}]-", "-[{}]-"]))
            parts.append(arrow.format(body) if body else
                         arrow.replace("[{}]", ""))
        parts.append(node)
    pattern = "".join(parts)

    conjuncts = []
    n_conj = draw(st.integers(min_value=0, max_value=2))
    for _ in range(n_conj):
        var = draw(st.sampled_from(node_vars))
        key = draw(st.sampled_from(PROP_KEYS))
        kind = draw(st.sampled_from(["=", ">", "exists", "join"]))
        if kind == "=":
            value = draw(st.sampled_from(["'x'", "1", "true", "null"]))
            conjuncts.append(f"{var}.{key} = {value}")
        elif kind == ">":
            conjuncts.append(f"{var}.{key} > 0")
        elif kind == "exists":
            conjuncts.append(f"exists({var}.{key})")
        else:
            other = draw(st.sampled_from(node_vars))
            conjuncts.append(f"{var}.{key} = {other}.{key}")
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""

    ret_var = draw(st.sampled_from(node_vars))
    ret_key = draw(st.sampled_from(PROP_KEYS))
    if draw(st.booleans()):
        items = f"{ret_var}.{ret_key} AS v, count(*) AS c"
        order = " ORDER BY v" if draw(st.booleans()) else ""
        tail = ""
    else:
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        items = f"{distinct}{ret_var}.{ret_key} AS v"
        order = " ORDER BY v" if draw(st.booleans()) else ""
        tail = ""
        if draw(st.booleans()):
            tail = f" SKIP {draw(st.integers(min_value=0, max_value=2))}"
        if draw(st.booleans()):
            tail += f" LIMIT {draw(st.integers(min_value=0, max_value=4))}"
    return f"MATCH {pattern}{where} RETURN {items}{order}{tail}"


class TestDifferentialFuzz:
    @settings(max_examples=120, deadline=None)
    @given(graph=graphs(), cypher=queries())
    def test_planned_matches_naive(self, graph, cypher):
        naive = run_naive_query(graph, cypher)
        planned = run_query(graph, cypher)
        has_window = " SKIP " in cypher or " LIMIT " in cypher
        if has_window:
            # a SKIP/LIMIT window over a non-total order is any slice of
            # the full multiset — compare against the unwindowed query
            base = cypher.split(" SKIP ")[0].split(" LIMIT ")[0]
            full = row_multiset(run_naive_query(graph, base))
            window = row_multiset(planned)
            assert all(window[k] <= full[k] for k in window), cypher
            assert len(planned.rows) == len(naive.rows), cypher
        else:
            assert row_multiset(planned) == row_multiset(naive), cypher
        profiled = run_query(graph, cypher, profile=True)
        assert profiled.rows == planned.rows, cypher

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs(), cypher=queries())
    def test_ordered_rows_identical(self, graph, cypher):
        base = cypher.split(" SKIP ")[0].split(" LIMIT ")[0]
        if " ORDER BY" not in base:
            base = base + " ORDER BY v"
        naive = run_naive_query(graph, base)
        planned = run_query(graph, base)
        keys = [tuple(_hashable(r["v"]) for r in naive.rows)]
        # exact order is only pinned when the sort key is total
        if len(set(keys[0])) == len(keys[0]):
            assert planned.rows == naive.rows, base
