"""The ``diff`` job kind end to end: submit two program versions, poll,
fetch the tabby-diff/v1 document, and compare against the direct
library call.  Also the error contract (400 malformed bodies, 409 on a
non-diff job) and content-hash caching of identical diff submissions."""

import json

from repro.core import SourceCatalog, Tabby
from repro.core.incremental import DIFF_SCHEMA_VERSION, diff_to_dict
from repro.corpus.patterns import plant_guard_decoy
from repro.jvm import jasm
from repro.jvm.builder import ProgramBuilder
from repro.jvm.model import SERIALIZABLE

from tests.serve.bundles import NATIVE, gadget_bundle, gadget_classes


def versioned_classes(tag, with_sink):
    """The Figure-1 gadget with the sink call toggled — the canonical
    one-method edit between two submitted versions."""
    pb = ProgramBuilder(jar=f"{tag}.jar")
    obj = pb.cls("java.lang.Object", extends=None)
    obj.abstract_method("toString", returns="java.lang.String")
    obj.finish()
    with pb.cls(f"{tag}.EvilObjectB", implements=[SERIALIZABLE]) as c:
        c.field("val2", "java.lang.Object")
        with c.method("toString", returns="java.lang.String") as m:
            v = m.get_field(m.this, "val2")
            cmd = m.invoke(
                v, "java.lang.Object", "toString", returns="java.lang.String"
            )
            if with_sink:
                rt = m.invoke_static(
                    "java.lang.Runtime", "getRuntime",
                    returns="java.lang.Runtime",
                )
                m.invoke(rt, "java.lang.Runtime", "exec", [cmd])
            m.ret(cmd)
    with pb.cls(f"{tag}.EvilObjectA", implements=[SERIALIZABLE]) as c:
        c.field("val1", "java.lang.Object")
        with c.method("readObject", params=["java.io.ObjectInputStream"]) as m:
            v = m.get_field(m.this, "val1")
            m.invoke(v, "java.lang.Object", "toString",
                     returns="java.lang.String")
            m.ret()
    return pb.build()


def submit_diff(client, old, new, options=NATIVE):
    return client.request(
        "POST", "/jobs", body={"diff": {"old": old, "new": new},
                               "options": options}
    )


def direct_diff(old_classes, new_classes, **kwargs):
    tabby = Tabby(sources=SourceCatalog.native())
    return diff_to_dict(tabby.diff_versions(old_classes, new_classes, **kwargs))


class TestDiffJob:
    def test_round_trip_matches_direct_call(self, client):
        old = jasm.dumps(versioned_classes("sd", with_sink=False))
        new = jasm.dumps(versioned_classes("sd", with_sink=True))
        code, doc, _ = submit_diff(client, old, new)
        assert code == 202
        final = client.poll_done(doc["id"])
        assert final["state"] == "done"

        code, payload, _ = client.request("GET", f"/jobs/{doc['id']}/diff")
        assert code == 200
        document = payload["diff"]
        assert document["schema"] == DIFF_SCHEMA_VERSION
        direct = direct_diff(
            versioned_classes("sd", with_sink=False),
            versioned_classes("sd", with_sink=True),
        )
        assert document["summary"] == direct["summary"]
        assert document["appeared"] == direct["appeared"]
        assert document["disappeared"] == direct["disappeared"]
        assert document["summary"]["appeared"] == 1
        assert document["summary"]["disappeared"] == 0

        # the chains endpoint serves the NEW version's chain set
        code, chains, _ = client.request("GET", f"/jobs/{doc['id']}/chains")
        assert code == 200
        assert chains["chains"] == document["survived"] + document["appeared"]

        # and the job's CPG is the new version's, queryable as usual
        code, rows, _ = client.request(
            "GET",
            f"/jobs/{doc['id']}/query?q="
            "MATCH%20(m:Method%20%7BIS_SINK:%20true%7D)%20RETURN%20m.NAME",
        )
        assert code == 200
        assert rows["rows"]

    def test_identical_resubmission_is_cached(self, client):
        old = jasm.dumps(versioned_classes("sc", with_sink=False))
        new = jasm.dumps(versioned_classes("sc", with_sink=True))
        code, first, _ = submit_diff(client, old, new)
        assert code == 202
        client.poll_done(first["id"])
        code, second, _ = submit_diff(client, old, new)
        assert code == 200
        assert second["status"] == "cached"
        _, d1, _ = client.request("GET", f"/jobs/{first['id']}/diff")
        _, d2, _ = client.request("GET", f"/jobs/{second['id']}/diff")
        assert d1["diff"] == d2["diff"]
        assert d2["cached"] is True

    def test_purged_resubmission_is_byte_identical(self, client):
        """A recomputed diff document equals the first one byte for
        byte: the document carries no wall-clock fields."""
        old = jasm.dumps(versioned_classes("sb", with_sink=False))
        new = jasm.dumps(versioned_classes("sb", with_sink=True))
        documents = []
        for _ in range(2):
            code, doc, _ = submit_diff(client, old, new)
            assert code == 202 and doc["status"] == "new", doc
            assert client.poll_done(doc["id"])["state"] == "done"
            code, payload, _ = client.request("GET", f"/jobs/{doc['id']}/diff")
            assert code == 200
            documents.append(json.dumps(payload["diff"]))
            code, _, _ = client.request("DELETE", f"/jobs/{doc['id']}?purge=1")
            assert code == 200
        assert documents[0] == documents[1]

    def test_swapped_sides_are_distinct_submissions(self, client):
        old = jasm.dumps(versioned_classes("ss", with_sink=False))
        new = jasm.dumps(versioned_classes("ss", with_sink=True))
        code, forward, _ = submit_diff(client, old, new)
        assert code == 202
        code, backward, _ = submit_diff(client, new, old)
        assert code == 202, "reversed diff must not hit the forward cache"
        f = client.poll_done(forward["id"])
        b = client.poll_done(backward["id"])
        assert f["state"] == b["state"] == "done"
        _, fd, _ = client.request("GET", f"/jobs/{forward['id']}/diff")
        _, bd, _ = client.request("GET", f"/jobs/{backward['id']}/diff")
        assert fd["diff"]["summary"]["appeared"] == 1
        assert bd["diff"]["summary"]["disappeared"] == 1

    def test_decoy_activation_with_refinement(self, client):
        def build(with_decoy):
            pb = ProgramBuilder(jar="sdecoy.jar")
            obj = pb.cls("java.lang.Object", extends=None)
            obj.abstract_method("toString", returns="java.lang.String")
            obj.finish()
            with pb.cls("sdecoy.Entry", implements=[SERIALIZABLE]) as c:
                c.field("delegate", "java.lang.Object")
                with c.method(
                    "readObject", params=["java.io.ObjectInputStream"]
                ) as m:
                    v = m.get_field(m.this, "delegate")
                    m.invoke(v, "java.lang.Object", "toString",
                             returns="java.lang.String")
                    m.ret()
            if with_decoy:
                plant_guard_decoy(pb, "sdecoy.Sleeper", "sdecoy.Config")
            return pb.build()

        options = dict(NATIVE, refine="guards")
        code, doc, _ = submit_diff(
            client,
            jasm.dumps(build(False)),
            jasm.dumps(build(True)),
            options=options,
        )
        assert code == 202
        client.poll_done(doc["id"])
        _, payload, _ = client.request("GET", f"/jobs/{doc['id']}/diff")
        appeared = payload["diff"]["appeared"]
        decoys = [
            r for r in appeared
            if any(step.startswith("sdecoy.Sleeper.") for step in r["steps"])
        ]
        assert decoys, "the planted decoy must surface as appeared"
        assert all(r["status"] == "refuted" for r in decoys)
        assert all(
            r["refutation"]["kind"] == "constant-guard" for r in decoys
        )


class TestDiffErrors:
    def test_missing_side_is_400(self, client):
        code, doc, _ = client.request(
            "POST", "/jobs", body={"diff": {"old": "x"}}
        )
        assert code == 400
        assert "diff" in doc["error"]

    def test_non_object_diff_is_400(self, client):
        code, doc, _ = client.request("POST", "/jobs", body={"diff": "x"})
        assert code == 400

    def test_empty_side_is_400(self, client):
        code, doc, _ = client.request(
            "POST", "/jobs", body={"diff": {"old": [], "new": "x"}}
        )
        assert code == 400
        assert "old" in doc["error"]

    def test_diff_plus_classes_is_400(self, client):
        code, doc, _ = client.request(
            "POST",
            "/jobs",
            body={"diff": {"old": "a", "new": "b"},
                  "classes": gadget_bundle("dx")},
        )
        assert code == 400

    def test_diff_endpoint_on_classes_job_is_409(self, client):
        code, doc, _ = client.submit(gadget_bundle("notdiff"))
        assert code in (200, 202)
        client.poll_done(doc["id"])
        code, payload, _ = client.request("GET", f"/jobs/{doc['id']}/diff")
        assert code == 409
        assert "not a diff job" in payload["error"]

    def test_unparseable_side_fails_job(self, client):
        code, doc, _ = submit_diff(client, "not jasm at all", "also not")
        assert code == 202
        final = client.poll_done(doc["id"])
        assert final["state"] == "failed"
        assert final["error"]
