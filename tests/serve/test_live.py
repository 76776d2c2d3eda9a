"""The ``--live`` shared-graph mode and the snapshot opened-graph
cache: live jobs pin immutable MVCC versions, refresh commits new
versions without disturbing pinned readers, cache keys are
version-aware, and snapshot jobs share (and LRU-retire) one opened
graph per file version.
"""

import os

import pytest

from repro.core import Tabby
from repro.serve.app import create_server
from repro.serve.jobs import JobManager, normalize_submission
from repro.serve.store import ResultStore

from tests.serve.bundles import Client, gadget_classes


@pytest.fixture(scope="module")
def cpg_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("live")
    path = str(tmp / "live.cpg")
    Tabby().add_classes(gadget_classes("live")).save_cpg(path)
    return path


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory, cpg_path):
    tmp = tmp_path_factory.mktemp("snaps")
    Tabby().add_classes(gadget_classes("snap")).save_cpg(
        str(tmp / "prog.cpg")
    )
    return str(tmp)


@pytest.fixture()
def server(cpg_path, snapshot_dir):
    srv = create_server(
        workers=2, snapshot_dir=snapshot_dir, live=cpg_path,
        store_capacity=4,
    )
    srv.run_forever_in_thread()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    return Client(server.url)


def submit_live(client, options=None):
    body = {"live": True}
    if options is not None:
        body["options"] = options
    return client.request("POST", "/jobs", body)


class TestLiveJobs:
    def test_live_job_finds_chains_over_shared_graph(self, client):
        code, doc, _ = submit_live(client)
        assert code == 202 and doc["status"] == "new", doc
        done = client.poll_done(doc["id"])
        assert done["state"] == "done", done
        code, chains, _ = client.request("GET", f"/jobs/{doc['id']}/chains")
        assert code == 200 and chains["chains"], chains
        # the pinned version is queryable through the job
        code, rows, _ = client.query(
            doc["id"], "MATCH (n:Class) RETURN count(n) AS c"
        )
        assert code == 200 and rows["rows"][0]["c"] > 0

    def test_identical_submission_same_version_is_cached(self, client):
        code, first, _ = submit_live(client)
        client.poll_done(first["id"])
        code, second, _ = submit_live(client)
        assert second["status"] in ("cached", "attached"), second
        assert second["key"] == first["key"]

    def test_refresh_noop_when_file_unchanged(self, client):
        code, outcome, _ = client.request("POST", "/live/refresh")
        assert code == 200
        assert outcome == {"refreshed": False, "version": 0}

    def test_refresh_commits_new_version_and_rekeys(
        self, client, server, cpg_path
    ):
        code, first, _ = submit_live(client)
        client.poll_done(first["id"])
        fp_before = server.manager.live.stats()["fingerprint"]
        os.utime(cpg_path)  # same bytes, new stat identity
        code, outcome, _ = client.request("POST", "/live/refresh")
        assert code == 200 and outcome["refreshed"] is True
        version = outcome["version"]
        assert version == server.manager.live.versioned.version
        # a new submission keys on the new version: recompute, same chains
        code, second, _ = submit_live(client)
        assert second["status"] == "new", second
        assert second["key"] != first["key"]
        client.poll_done(second["id"])
        code, a, _ = client.request("GET", f"/jobs/{first['id']}/chains")
        code, b, _ = client.request("GET", f"/jobs/{second['id']}/chains")
        assert a["chains"] == b["chains"]
        # identical content -> identical (memoised) fingerprint
        assert server.manager.live.stats()["fingerprint"] == fp_before

    def test_force_refresh(self, client):
        code, outcome, _ = client.request(
            "POST", "/live/refresh", {"force": True}
        )
        assert code == 200 and outcome["refreshed"] is True

    def test_stats_exposes_live_block(self, client, cpg_path):
        code, stats, _ = client.request("GET", "/stats")
        assert code == 200
        live = stats["live"]
        assert live["path"] == cpg_path
        assert live["version"] >= 0
        assert live["nodes"] > 0
        assert len(live["fingerprint"]) == 64

    def test_live_rejects_refinement_and_bad_shapes(self, client):
        code, err, _ = client.request(
            "POST", "/jobs", {"live": True, "options": {"refine": "rta"}}
        )
        assert code == 400 and "refine" in err["error"]
        code, err, _ = client.request("POST", "/jobs", {"live": "yes"})
        assert code == 400
        code, err, _ = client.request(
            "POST", "/jobs", {"live": True, "classes": "x"}
        )
        assert code == 400

    @pytest.mark.parametrize(
        "body", [{"live": True}, {"snapshot": "prog.cpg"}], ids=["live", "snapshot"]
    )
    def test_guards_refinement_is_rejected(self, client, body):
        """Graph-only kinds carry no class hierarchy, so the guard pass
        is refused like every other mode instead of keeping everything."""
        code, err, _ = client.request(
            "POST", "/jobs", dict(body, options={"refine": "guards"})
        )
        assert code == 400 and "cannot refine" in err["error"]

    def test_refresh_disabled_without_live(self, snapshot_dir):
        srv = create_server(workers=1, snapshot_dir=snapshot_dir)
        srv.run_forever_in_thread()
        try:
            client = Client(srv.url)
            code, err, _ = client.request("POST", "/live/refresh")
            assert code == 409 and "--live" in err["error"]
            code, err, _ = client.request("POST", "/jobs", {"live": True})
            assert code == 400 and "--live" in err["error"]
        finally:
            srv.close()


class TestPinnedVersionIsolation:
    def test_inflight_pin_survives_refresh(self, server, client, cpg_path):
        """A submission pins its version before a refresh commits; the
        job computes against the pinned version, bit-identically."""
        manager = server.manager
        sub = normalize_submission({"live": True}, live=manager.live)
        pinned = sub.pinned
        from repro.graphdb.snapshot import fingerprint_digest

        fp = fingerprint_digest(pinned)
        os.utime(cpg_path)
        manager.live.refresh()
        # the refresh committed a newer version...
        assert manager.live.versioned.begin_snapshot() is not pinned
        # ...but the pinned snapshot is untouched
        assert fingerprint_digest(pinned) == fp
        job, status = manager.submit(submission=sub)
        assert status == "new"
        job.wait(30)
        assert job.state == "done", job.error
        assert job.result.graph is pinned
        assert job.result.fingerprint == fp


class TestSnapshotGraphCache:
    def test_repeat_snapshot_jobs_share_one_opened_graph(self, client, server):
        code, a, _ = client.request("POST", "/jobs", {"snapshot": "prog.cpg"})
        client.poll_done(a["id"])
        code, b, _ = client.request(
            "POST", "/jobs",
            {"snapshot": "prog.cpg", "options": {"max_depth": 11}},
        )
        client.poll_done(b["id"])
        stats = server.manager.stats()["snapshot_graphs"]
        assert stats["opens"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        # both results hold the same physical graph object
        job_a = server.manager.get(a["id"])
        job_b = server.manager.get(b["id"])
        assert job_a.result.graph is job_b.result.graph

    def test_purge_of_last_result_retires_opened_graph(self, client, server):
        code, a, _ = client.request("POST", "/jobs", {"snapshot": "prog.cpg"})
        client.poll_done(a["id"])
        assert server.manager.stats()["snapshot_graphs"]["entries"] == 1
        code, _doc, _ = client.request(
            "DELETE", f"/jobs/{a['id']}?purge=1"
        )
        assert code == 200
        assert server.manager.stats()["snapshot_graphs"]["entries"] == 0

    def test_lru_eviction_retires_opened_graph(self, snapshot_dir):
        """When the result store's LRU drops the last snapshot result,
        the opened graph goes with it."""
        manager = JobManager(
            workers=1, inline=True, store=ResultStore(capacity=1),
            snapshot_dir=snapshot_dir,
        )
        try:
            job, status = manager.submit({"snapshot": "prog.cpg"})
            assert status == "new"
            assert job.state == "done", job.error
            assert manager.stats()["snapshot_graphs"]["entries"] == 1
            # an unrelated result pushes the snapshot result out of the
            # capacity-1 store -> the opened graph is retired too
            from tests.serve.bundles import gadget_bundle

            job2, status = manager.submit({"classes": gadget_bundle("ev")})
            assert status == "new" and job2.state == "done", job2.error
            assert manager.stats()["snapshot_graphs"]["entries"] == 0
        finally:
            manager.shutdown()

    def test_changed_file_is_a_cache_miss(self, client, server, snapshot_dir):
        code, a, _ = client.request("POST", "/jobs", {"snapshot": "prog.cpg"})
        client.poll_done(a["id"])
        opens_before = server.manager.stats()["snapshot_graphs"]["opens"]
        os.utime(os.path.join(snapshot_dir, "prog.cpg"))
        code, b, _ = client.request("POST", "/jobs", {"snapshot": "prog.cpg"})
        assert b["status"] == "new", b  # stat token changed the job key
        client.poll_done(b["id"])
        stats = server.manager.stats()["snapshot_graphs"]
        assert stats["opens"] == opens_before + 1


class TestRetiredSnapshotFormat:
    def test_v2_snapshot_job_fails_with_remedy(self, tmp_path):
        import struct

        from repro.graphdb.snapshot_v3 import SNAPSHOT_MAGIC

        (tmp_path / "old.cpg").write_bytes(
            struct.pack("<8sHHI", SNAPSHOT_MAGIC, 2, 0, 5) + bytes(64)
        )
        manager = JobManager(workers=1, inline=True, snapshot_dir=str(tmp_path))
        try:
            job, status = manager.submit({"snapshot": "old.cpg"})
            assert status == "new"
            assert job.state == "failed"
            assert "unsupported snapshot format version 2" in job.error
            assert "tabby analyze" in job.error
            assert manager.stats()["snapshot_graphs"]["entries"] == 0
        finally:
            manager.shutdown()
