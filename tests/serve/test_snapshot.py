"""The ``snapshot`` job kind end to end: names are confined to the
``--snapshot-dir`` (absolute, ``..`` and symlink escapes answer 400),
the kind is refused without a directory and for a missing file, a job's
chains equal a direct ``Tabby.load_cpg`` search, its fingerprint is the
SHA-256 of the file, and a file that changes between submission and
compute fails the job instead of filing the new file's chains under the
old file's key."""

import hashlib
import os

import pytest

from repro.core import Tabby
from repro.core.chains import chain_record
from repro.serve import jobs
from repro.serve.app import create_server
from repro.serve.jobs import JobManager, JobState

from tests.serve.bundles import Client, gadget_bundle, gadget_classes
from tests.serve.test_concurrency import GatedManager


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("snapshot-kind")
    snaps = base / "snaps"
    snaps.mkdir()
    Tabby().add_classes(gadget_classes("snapkind")).save_cpg(str(snaps / "prog.cpg"))
    # a readable snapshot outside the directory, reachable by name only
    # through a symlink inside it
    Tabby().add_classes(gadget_classes("outside")).save_cpg(str(base / "outside.cpg"))
    os.symlink(base / "outside.cpg", snaps / "escape.cpg")
    return str(snaps)


@pytest.fixture(scope="module")
def server(snapshot_dir):
    srv = create_server(workers=1, snapshot_dir=snapshot_dir)
    srv.run_forever_in_thread()
    yield srv
    srv.close()


@pytest.fixture(scope="module")
def client(server):
    return Client(server.url)


class TestSnapshotNames:
    @pytest.mark.parametrize(
        "name", ["absolute", "../outside.cpg", "nested/../../outside.cpg", "escape.cpg"]
    )
    def test_names_outside_the_directory_are_400(self, client, snapshot_dir, name):
        if name == "absolute":  # an existing file inside the directory
            name = os.path.join(snapshot_dir, "prog.cpg")
        code, err, _ = client.request("POST", "/jobs", {"snapshot": name})
        assert code == 400, err
        assert "inside the snapshot directory" in err["error"]

    def test_missing_file_is_400(self, client):
        code, err, _ = client.request("POST", "/jobs", {"snapshot": "nope.cpg"})
        assert code == 400
        assert err["error"] == "snapshot not found: nope.cpg"

    def test_disabled_without_snapshot_dir_is_400(self):
        srv = create_server(workers=1)
        srv.run_forever_in_thread()
        try:
            code, err, _ = Client(srv.url).request(
                "POST", "/jobs", {"snapshot": "prog.cpg"}
            )
            assert code == 400
            assert "--snapshot-dir" in err["error"]
        finally:
            srv.close()


class TestSnapshotResults:
    def test_chains_equal_a_direct_load(self, client, snapshot_dir):
        code, doc, _ = client.request("POST", "/jobs", {"snapshot": "prog.cpg"})
        assert code in (200, 202), doc
        assert client.poll_done(doc["id"])["state"] == "done"
        code, served, _ = client.request("GET", f"/jobs/{doc['id']}/chains")
        assert code == 200
        direct = Tabby.load_cpg(os.path.join(snapshot_dir, "prog.cpg"))
        expected = [chain_record(chain) for chain in direct.find_gadget_chains()]
        assert expected
        assert served["chains"] == expected

    def test_fingerprint_is_the_file_sha256(self, client, snapshot_dir):
        code, doc, _ = client.request("POST", "/jobs", {"snapshot": "prog.cpg"})
        final = client.poll_done(doc["id"])
        assert final["state"] == "done"
        assert final["fingerprint"] == file_sha256(os.path.join(snapshot_dir, "prog.cpg"))


class TestSnapshotChangedAfterSubmission:
    def test_changed_file_fails_the_job_with_a_resubmit_message(self, tmp_path):
        """The key names the file version stat'd at submission; a worker
        that finds another version fails the job rather than storing
        the new file's chains under the old file's key."""
        path = str(tmp_path / "prog.cpg")
        Tabby().add_classes(gadget_classes("before")).save_cpg(path)
        manager = GatedManager(workers=1, snapshot_dir=str(tmp_path))
        try:
            job, status = manager.submit({"snapshot": "prog.cpg"})
            assert status == "new"
            # the worker is held at the gate: replace the program, and
            # move the mtime on so the stat token surely changes
            old = os.stat(path)
            Tabby().add_classes(gadget_classes("after-the-change")).save_cpg(path)
            os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns + 10**9))
            manager.gate.set()
            assert job.wait(30)
            assert job.state == JobState.FAILED, job.as_dict()
            assert "changed after submission" in job.error
            assert "resubmit" in job.error
            assert manager.store.peek(job.key) is None
            # a resubmission names the new version and searches it
            again, status = manager.submit({"snapshot": "prog.cpg"})
            assert status == "new" and again.key != job.key
            assert again.wait(30)
            assert again.state == JobState.DONE, again.error
            assert again.result.fingerprint == file_sha256(path)
            assert any(
                step.startswith("after-the-change.")
                for record in again.result.chain_records
                for step in record["steps"]
            )
        finally:
            manager.gate.set()
            manager.shutdown()

    def test_file_removed_mid_job_fails_the_job_and_spares_the_worker(
        self, tmp_path, monkeypatch
    ):
        """A file removed after it was opened fails the job; the worker
        thread lives on to run the next one."""
        path = str(tmp_path / "prog.cpg")
        Tabby().add_classes(gadget_classes("removed")).save_cpg(path)
        opened = jobs.open_graph

        def open_then_remove(name):
            graph = opened(name)
            os.remove(name)
            return graph

        monkeypatch.setattr(jobs, "open_graph", open_then_remove)
        manager = JobManager(workers=1, snapshot_dir=str(tmp_path))
        try:
            job, status = manager.submit({"snapshot": "prog.cpg"})
            assert status == "new"
            assert job.wait(30), "the worker died with the job running"
            assert job.state == JobState.FAILED
            later, _ = manager.submit({"classes": gadget_bundle("afterremoval")})
            assert later.wait(30)
            assert later.state == JobState.DONE, later.error
        finally:
            manager.shutdown(timeout=5)
