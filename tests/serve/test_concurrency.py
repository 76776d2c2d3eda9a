"""Concurrency battery for the job queue: exactly one computation per
distinct content hash, bit-identical chain lists vs the direct library
call, no deadlock at pool saturation, and clean drain on shutdown.

Most tests drive :class:`JobManager` directly (deterministic, no
sockets); the HTTP-level dedup test goes through the live server.
A gated manager — workers blocked on an Event — makes the in-flight
windows deterministic instead of racing the (fast) pipeline.
"""

import threading

from repro.core import SourceCatalog, Tabby
from repro.serve import JobManager, create_server
from repro.serve.jobs import JobState

from tests.serve.bundles import Client, gadget_bundle, gadget_classes

NATIVE_BODY = {"options": {"sources": "native"}}


def body_for(tag):
    return {"classes": gadget_bundle(tag), "options": {"sources": "native"}}


def direct_records(tag):
    chains = (
        Tabby(sources=SourceCatalog.native())
        .add_classes(gadget_classes(tag))
        .find_gadget_chains()
    )
    return [
        {
            "steps": [s.qualified for s in chain.steps],
            "sink_category": chain.sink_category,
        }
        for chain in chains
    ]


class GatedManager(JobManager):
    """A manager whose workers block on ``gate`` before computing."""

    def __init__(self, **kwargs):
        self.gate = threading.Event()
        super().__init__(**kwargs)

    def _compute(self, job):
        assert self.gate.wait(timeout=60), "test gate never opened"
        return super()._compute(job)


class TestSingleComputationPerHash:
    def test_mixed_identical_and_distinct_submissions(self):
        """8 threads x 12 submissions over 4 distinct bundles: exactly
        4 computations, every job done, chains bit-identical to the
        direct API per bundle."""
        tags = ["alpha", "beta", "gamma", "delta"]
        bodies = {tag: body_for(tag) for tag in tags}
        manager = JobManager(workers=4)
        jobs = []
        jobs_lock = threading.Lock()

        def client(seed):
            for i in range(12):
                tag = tags[(seed + i) % len(tags)]
                job, status = manager.submit(bodies[tag])
                assert status in ("new", "attached", "cached")
                with jobs_lock:
                    jobs.append((tag, job))

        threads = [threading.Thread(target=client, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        try:
            expected = {tag: direct_records(tag) for tag in tags}
            assert len(jobs) == 96
            for tag, job in jobs:
                assert job.wait(timeout=60), f"job {job.id} never finished"
                assert job.state == JobState.DONE
                assert job.result.chain_records == expected[tag]
            # the hard invariant: one computation per distinct hash
            assert manager.computed == len(tags)
            assert manager.submitted == 96
            assert manager.attached_total + manager.cache_hits == 96 - len(tags)
        finally:
            manager.shutdown()

    def test_inflight_submissions_attach_to_same_job(self):
        manager = GatedManager(workers=1)
        try:
            first, status = manager.submit(body_for("attach"))
            assert status == "new"
            second, status = manager.submit(body_for("attach"))
            assert status == "attached"
            assert second is first
            assert first.attached == 1
            manager.gate.set()
            assert first.wait(timeout=60)
            assert first.state == JobState.DONE
            assert manager.computed == 1
        finally:
            manager.gate.set()
            manager.shutdown()

    def test_http_concurrent_identical_submissions_compute_once(self):
        server = create_server(workers=2)
        server.run_forever_in_thread()
        try:
            client = Client(server.url)
            bundle = gadget_bundle("httpdedup")
            results = []
            results_lock = threading.Lock()

            def submit():
                code, doc, _ = client.submit(bundle)
                assert code in (200, 202)
                final = client.poll_done(doc["id"])
                code, chains, _ = client.request(
                    "GET", f"/jobs/{doc['id']}/chains"
                )
                with results_lock:
                    results.append((final["state"], chains["chains"]))

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            expected = direct_records("httpdedup")
            assert len(results) == 8
            for state, chains in results:
                assert state == "done"
                assert chains == expected
            assert server.manager.computed == 1
        finally:
            server.close()


class TestPoolSaturation:
    def test_no_deadlock_with_more_jobs_than_workers(self):
        manager = JobManager(workers=2)
        try:
            jobs = [
                manager.submit(body_for(f"sat{i}"))[0] for i in range(20)
            ]
            for job in jobs:
                assert job.wait(timeout=120), f"job {job.id} stuck"
                assert job.state == JobState.DONE
            assert manager.computed == 20
            assert manager.stats()["queue_depth"] == 0
        finally:
            manager.shutdown()

    def test_bounded_queue_rejects_overflow(self):
        manager = GatedManager(workers=1, max_queue=2)
        try:
            accepted = [manager.submit(body_for(f"bq{i}")) for i in range(5)]
            statuses = [status for _, status in accepted]
            assert statuses.count("new") < 5
            assert "overloaded" in statuses
            manager.gate.set()
        finally:
            manager.gate.set()
            manager.shutdown()


class TestShutdown:
    def test_drain_completes_queued_jobs(self):
        manager = GatedManager(workers=1)
        jobs = [manager.submit(body_for(f"drain{i}"))[0] for i in range(5)]
        finisher = threading.Thread(target=manager.shutdown, kwargs={"drain": True})
        finisher.start()
        # with the gate closed nothing can finish: drain must still be waiting
        finisher.join(timeout=0.3)
        assert finisher.is_alive()
        manager.gate.set()
        finisher.join(timeout=120)
        assert not finisher.is_alive()
        for job in jobs:
            assert job.state == JobState.DONE, job.id
        assert manager.computed == 5

    def test_no_drain_cancels_queued_jobs(self):
        manager = GatedManager(workers=1)
        jobs = [manager.submit(body_for(f"nodrain{i}"))[0] for i in range(4)]
        # worker holds job 0 at the gate; 1..3 are queued — wait for the
        # pick-up, or a shutdown that wins the race cancels job 0 too
        for _ in range(500):
            if jobs[0].state == JobState.RUNNING:
                break
            threading.Event().wait(0.01)
        assert jobs[0].state == JobState.RUNNING
        canceller = threading.Thread(
            target=manager.shutdown, kwargs={"drain": False}
        )
        canceller.start()
        for job in jobs[1:]:
            assert job.wait(timeout=60)
            assert job.state == JobState.CANCELLED
        manager.gate.set()
        canceller.join(timeout=60)
        assert not canceller.is_alive()
        assert jobs[0].state == JobState.DONE  # running jobs always finish
        assert manager.cancelled == 3

    def test_submit_after_shutdown_is_refused(self):
        manager = JobManager(workers=1)
        manager.shutdown()
        job, status = manager.submit(body_for("late"))
        assert job is None and status == "closed"

    def test_shutdown_is_idempotent(self):
        manager = JobManager(workers=1)
        manager.shutdown()
        manager.shutdown(drain=False)  # second call is a no-op

    def test_close_returns_on_a_server_that_never_served(self):
        """A library caller may build a server and close it without
        ever starting its loop; close() must not wait for one."""
        server = create_server(port=0, workers=1)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() blocked on a loop that never ran"
        assert server.manager.closed


class TestDeleteSemantics:
    def test_delete_running_job_refused(self):
        manager = GatedManager(workers=1)
        try:
            job, _ = manager.submit(body_for("delrun"))
            # wait until the worker picks it up
            for _ in range(500):
                if job.state == JobState.RUNNING:
                    break
                threading.Event().wait(0.01)
            assert job.state == JobState.RUNNING
            assert manager.delete(job.id) == "running"
            manager.gate.set()
            assert job.wait(timeout=60)
            assert manager.delete(job.id) == "deleted"
        finally:
            manager.gate.set()
            manager.shutdown()

    def test_cancelled_queued_job_recomputes_on_resubmit(self):
        manager = GatedManager(workers=1)
        try:
            blocker, _ = manager.submit(body_for("delblock"))
            queued, status = manager.submit(body_for("delqueued"))
            assert status == "new" and queued.state == JobState.QUEUED
            assert manager.delete(queued.id) == "deleted"
            assert queued.state == JobState.CANCELLED
            # identical resubmission is a fresh job, not an attach
            again, status = manager.submit(body_for("delqueued"))
            assert status == "new" and again.id != queued.id
            manager.gate.set()
            assert again.wait(timeout=60)
            assert again.state == JobState.DONE
        finally:
            manager.gate.set()
            manager.shutdown()
