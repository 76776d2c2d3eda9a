"""Endpoint contract tests against an in-process server on an
ephemeral port: job lifecycle, error paths (400/404/405/409/429), and
the JSON shape of progress payloads."""

import json

import pytest

from repro.core import SourceCatalog, Tabby
from repro.serve import create_server

from tests.serve.bundles import NATIVE, Client, gadget_bundle, gadget_classes


def direct_records(classes, **kwargs):
    """The chain records a plain library call produces for ``classes``."""
    chains = (
        Tabby(sources=SourceCatalog.native())
        .add_classes(classes)
        .find_gadget_chains(**kwargs)
    )
    return [
        {
            "steps": [s.qualified for s in chain.steps],
            "sink_category": chain.sink_category,
        }
        for chain in chains
    ]


class TestJobLifecycle:
    def test_submit_poll_fetch(self, client):
        code, doc, _ = client.submit(gadget_bundle("life"))
        assert code == 202
        assert doc["status"] == "new"
        assert doc["state"] in ("queued", "running", "done")
        final = client.poll_done(doc["id"])
        assert final["state"] == "done"
        assert final["chain_count"] == 1
        assert final["fingerprint"]

        code, chains, _ = client.request("GET", f"/jobs/{doc['id']}/chains")
        assert code == 200
        assert chains["chains"] == direct_records(gadget_classes("life"))

    def test_cached_resubmission_serves_same_result(self, client):
        bundle = gadget_bundle("cachehit")
        code, first, _ = client.submit(bundle)
        assert code == 202
        client.poll_done(first["id"])
        code, second, _ = client.submit(bundle)
        assert code == 200
        assert second["status"] == "cached"
        assert second["cached"] is True
        assert second["state"] == "done"
        assert second["id"] != first["id"]
        _, c1, _ = client.request("GET", f"/jobs/{first['id']}/chains")
        _, c2, _ = client.request("GET", f"/jobs/{second['id']}/chains")
        assert c1["chains"] == c2["chains"]
        assert c2["cached"] is True

    def test_lint_endpoint(self, client):
        code, doc, _ = client.submit(gadget_bundle("linty"))
        client.poll_done(doc["id"])
        code, lint, _ = client.request("GET", f"/jobs/{doc['id']}/lint")
        assert code == 200
        assert lint["issues"] == []  # the gadget program is lint-clean

    def test_query_endpoint(self, client):
        code, doc, _ = client.submit(gadget_bundle("queried"))
        client.poll_done(doc["id"])
        code, result, _ = client.query(
            doc["id"], "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME AS n"
        )
        assert code == 200
        assert result["columns"] == ["n"]
        assert result["rows"] == [{"n": "exec"}]

    def test_delete_done_job(self, client):
        code, doc, _ = client.submit(gadget_bundle("gone"))
        client.poll_done(doc["id"])
        code, deleted, _ = client.request("DELETE", f"/jobs/{doc['id']}")
        assert code == 200 and deleted["deleted"] == doc["id"]
        code, _, _ = client.request("GET", f"/jobs/{doc['id']}")
        assert code == 404

    def test_delete_with_purge_forces_recompute(self, server, client):
        bundle = gadget_bundle("purged")
        _, doc, _ = client.submit(bundle)
        client.poll_done(doc["id"])
        computed_before = server.manager.computed
        _, _, _ = client.request("DELETE", f"/jobs/{doc['id']}?purge=1")
        code, again, _ = client.submit(bundle)
        assert code == 202 and again["status"] == "new"  # not "cached"
        client.poll_done(again["id"])
        assert server.manager.computed == computed_before + 1

    def test_components_submission_matches_direct_run(self, client):
        code, doc, _ = client.submit(
            components=["CommonsBeanutils1"], options={"sources": "extended"}
        )
        assert code == 202
        final = client.poll_done(doc["id"], timeout=120)
        assert final["state"] == "done"
        from repro.corpus import build_component, build_lang_base

        classes = build_lang_base() + build_component("CommonsBeanutils1").classes
        expected = [
            {
                "steps": [s.qualified for s in chain.steps],
                "sink_category": chain.sink_category,
            }
            for chain in Tabby().add_classes(classes).find_gadget_chains()
        ]
        _, chains, _ = client.request("GET", f"/jobs/{doc['id']}/chains")
        assert chains["chains"] == expected

    def test_job_listing_contains_submitted_job(self, client):
        _, doc, _ = client.submit(gadget_bundle("listed"))
        client.poll_done(doc["id"])
        code, listing, _ = client.request("GET", "/jobs")
        assert code == 200
        assert doc["id"] in {j["id"] for j in listing["jobs"]}


#: the progress payload contract: key -> required type (None = nullable)
_JOB_DOC_SCHEMA = {
    "id": str,
    "key": str,
    "state": str,
    "phase": str,
    "cached": bool,
    "attached": int,
    "kind": str,
    "options": dict,
    "created": float,
    "progress": dict,
}

_CPG_ROW_SCHEMA = {
    "jar_count": int,
    "class_nodes": int,
    "method_nodes": int,
    "relationship_edges": int,
    "pruned_call_sites": int,
    "build_seconds": float,
    "phase_seconds": dict,
    "analyzed_methods": int,
    "cached_methods": int,
}

_SEARCH_ROW_SCHEMA = {
    "sinks_searched": int,
    "paths_visited": int,
    "call_edges_followed": int,
    "call_edges_rejected": int,
    "depth_pruned": int,
    "chains_found": int,
    "reachability_pruned": int,
    "negative_cache_hits": int,
    "phase_seconds": dict,
    "search_seconds": float,
}


def _assert_schema(doc, schema, where):
    for key, expected in schema.items():
        assert key in doc, f"{where}: missing {key!r} in {sorted(doc)}"
        value = doc[key]
        if expected is float:
            assert isinstance(value, (int, float)) and not isinstance(value, bool), \
                f"{where}.{key}: {value!r} is not numeric"
        else:
            assert isinstance(value, expected), \
                f"{where}.{key}: {value!r} is not {expected.__name__}"


class TestProgressPayloadShape:
    def test_done_job_document(self, client):
        _, doc, _ = client.submit(gadget_bundle("shaped"))
        final = client.poll_done(doc["id"])
        _assert_schema(final, _JOB_DOC_SCHEMA, "job")
        assert final["state"] == "done"
        assert final["kind"] == "classes"
        assert final["options"]["sources"] == "native"
        # the per-phase counters are the existing statistics rows
        _assert_schema(final["progress"]["cpg"], _CPG_ROW_SCHEMA, "progress.cpg")
        _assert_schema(
            final["progress"]["search"], _SEARCH_ROW_SCHEMA, "progress.search"
        )
        assert final["progress"]["search"]["chains_found"] == 1
        # the whole document round-trips as JSON (no stray objects)
        json.dumps(final)

    def test_phase_vocabulary(self, client):
        _, doc, _ = client.submit(gadget_bundle("phases"))
        seen = {doc["phase"]}
        final = client.poll_done(doc["id"])
        seen.add(final["phase"])
        allowed = {
            "queued", "parse", "build_cpg", "search", "lint", "fingerprint",
            "done", "failed", "cancelled",
        }
        assert seen <= allowed


class TestErrorPaths:
    def test_malformed_json_body_400(self, client):
        code, err, _ = client.request(
            "POST", "/jobs", raw_body=b"{not json at all"
        )
        assert code == 400
        assert "malformed JSON" in err["error"]

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({}, "exactly one of"),
            ({"classes": "x", "components": ["CommonsBeanutils1"]}, "exactly one of"),
            ({"bundle": "x"}, "unknown field"),
            ({"classes": ""}, "non-empty"),
            ({"classes": []}, "non-empty"),
            ({"classes": [42]}, "non-empty"),
            ({"components": []}, "non-empty"),
            ({"components": ["NoSuchComponent"]}, "unknown component"),
            ({"classes": "x", "options": 7}, "JSON object"),
            ({"classes": "x", "options": {"bogus": 1}}, "unknown option"),
            ({"classes": "x", "options": {"max_depth": 0}}, "max_depth"),
            ({"classes": "x", "options": {"max_depth": True}}, "max_depth"),
            ({"classes": "x", "options": {"sources": "all"}}, "sources"),
            ({"classes": "x", "options": {"source_filter": 3}}, "source_filter"),
            ({"classes": "x", "options": {"refine": ","}}, "options.refine"),
            ([1, 2], "JSON object"),
        ],
    )
    def test_invalid_submission_400(self, client, body, fragment):
        code, err, _ = client.request("POST", "/jobs", body)
        assert code == 400
        assert fragment in err["error"]

    def test_bad_jasm_fails_the_job_not_the_request(self, client):
        code, doc, _ = client.submit("class this is ! not jasm {{{")
        assert code == 202  # shape-valid; parsing happens in the worker
        final = client.poll_done(doc["id"])
        assert final["state"] == "failed"
        assert final["error"]
        code, err, _ = client.request("GET", f"/jobs/{doc['id']}/chains")
        assert code == 409
        assert err["state"] == "failed"

    def test_unknown_job_404(self, client):
        for path in ("/jobs/zzz", "/jobs/zzz/chains", "/jobs/zzz/lint"):
            code, err, _ = client.request("GET", path)
            assert code == 404, path
        code, _, _ = client.request("DELETE", "/jobs/zzz")
        assert code == 404

    def test_unknown_route_404(self, client):
        for method, path in (
            ("GET", "/"),
            ("GET", "/jobs/a/b/c"),
            ("GET", "/jobs/a/payload"),
            ("POST", "/chains"),
            ("DELETE", "/stats"),
        ):
            code, _, _ = client.request(method, path)
            assert code == 404, (method, path)

    def test_method_not_allowed_405(self, client):
        code, _, _ = client.request("PUT", "/jobs")
        assert code == 405

    def test_query_error_400(self, client):
        _, doc, _ = client.submit(gadget_bundle("queryerr"))
        client.poll_done(doc["id"])
        code, err, _ = client.request("GET", f"/jobs/{doc['id']}/query")
        assert code == 400 and "missing query parameter" in err["error"]
        code, err, _ = client.query(doc["id"], "MATCH (((")
        assert code == 400 and "query failed" in err["error"]

    def test_healthz_and_stats(self, client):
        code, health, _ = client.request("GET", "/healthz")
        assert code == 200 and health["ok"] is True
        code, stats, _ = client.request("GET", "/stats")
        assert code == 200
        assert {"jobs", "store", "ratelimit"} <= set(stats)
        assert stats["jobs"]["computed"] >= 1


class TestRateLimiting:
    def test_429_with_retry_after(self):
        srv = create_server(workers=1, rate=0.001, burst=1)
        srv.run_forever_in_thread()
        try:
            client = Client(srv.url, client_id="impatient")
            bundle = gadget_bundle("limited")
            code, doc, _ = client.submit(bundle)
            assert code == 202
            code, err, headers = client.submit(bundle)
            assert code == 429
            assert "rate limited" in err["error"]
            assert float(headers["Retry-After"]) > 0
            # a different client has its own bucket
            other = Client(srv.url, client_id="patient")
            code, _, _ = other.submit(bundle)
            assert code in (200, 202)
            # reads are never limited
            code, _, _ = client.request("GET", "/healthz")
            assert code == 200
        finally:
            srv.close()


class TestReleasedGraph:
    def test_query_after_eviction_is_410(self):
        srv = create_server(workers=1, store_capacity=1)
        srv.run_forever_in_thread()
        try:
            client = Client(srv.url)
            code, first, _ = client.submit(gadget_bundle("gone"))
            client.poll_done(first["id"])
            code, _, _ = client.query(first["id"], "MATCH (m:Method) RETURN m.NAME")
            assert code == 200
            code, second, _ = client.submit(gadget_bundle("kept"))
            client.poll_done(second["id"])
            # the second result pushed the first out of the store
            code, err, _ = client.query(first["id"], "MATCH (m:Method) RETURN m.NAME")
            assert code == 410
            assert err["reason"] == "graph-released" and err["resubmit"] is True
            # everything but the graph is still served
            code, chains, _ = client.request("GET", f"/jobs/{first['id']}/chains")
            assert code == 200 and chains["chains"]
            code, doc, _ = client.request("GET", f"/jobs/{first['id']}")
            assert code == 200 and doc["fingerprint"]
            code, _, _ = client.query(second["id"], "MATCH (m:Method) RETURN m.NAME")
            assert code == 200
            # resubmitting recomputes, and the new job is queryable
            code, again, _ = client.submit(gadget_bundle("gone"))
            client.poll_done(again["id"])
            code, _, _ = client.query(again["id"], "MATCH (m:Method) RETURN m.NAME")
            assert code == 200
        finally:
            srv.close()


class TestRefinementEndpoint:
    def test_refine_option_bad_mode_400(self, client):
        code, err, _ = client.request(
            "POST", "/jobs",
            {"classes": "x", "options": {"refine": "rta,cha"}},
        )
        assert code == 400
        assert "refine" in err["error"]

    def test_refine_option_wrong_type_400(self, client):
        code, err, _ = client.request(
            "POST", "/jobs",
            {"classes": "x", "options": {"refine": ["rta"]}},
        )
        assert code == 400
        assert "comma-separated" in err["error"]

    def test_verdicts_empty_without_refinement(self, client):
        _, doc, _ = client.submit(gadget_bundle("noverdicts"))
        client.poll_done(doc["id"])
        code, body, _ = client.request("GET", f"/jobs/{doc['id']}/verdicts")
        assert code == 200
        assert body["verdicts"] == []
        assert body["refinement"] == {}

    def test_verdicts_present_with_refinement(self, client):
        options = dict(NATIVE, refine="rta,taint")
        _, doc, _ = client.submit(gadget_bundle("verdicty"), options=options)
        final = client.poll_done(doc["id"])
        assert final["state"] == "done"
        code, body, _ = client.request("GET", f"/jobs/{doc['id']}/verdicts")
        assert code == 200
        assert body["refinement"]["modes"] == ["rta", "taint"]
        statuses = {v["status"] for v in body["verdicts"]}
        assert statuses <= {"kept", "refuted", "unknown"}
        # the Figure-1 gadget is a true chain: nothing may be refuted
        assert final["chain_count"] == 1
        assert "refuted" not in statuses

    def test_verdicts_409_before_result(self, client):
        _, doc, _ = client.submit("class nope {{{ not jasm")
        final = client.poll_done(doc["id"])
        assert final["state"] == "failed"
        code, err, _ = client.request("GET", f"/jobs/{doc['id']}/verdicts")
        assert code == 409

    def test_refine_mode_order_is_cache_canonical(self, client):
        bundle = gadget_bundle("canonical")
        first_opts = dict(NATIVE, refine="taint,rta")
        code, first, _ = client.submit(bundle, options=first_opts)
        assert code == 202
        client.poll_done(first["id"])
        second_opts = dict(NATIVE, refine="rta,taint")
        code, second, _ = client.submit(bundle, options=second_opts)
        assert code == 200
        assert second["cached"] is True
