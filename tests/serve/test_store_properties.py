"""Hypothesis property tests for the content-hash result store.

Two contracts, pinned over random submit/poll/evict/delete
interleavings (run against an *inline* manager so every interleaving
is deterministic):

* a completed job never loses its result — store eviction (explicit or
  LRU) only ever forgets *cached* work, so polling any non-deleted
  done job keeps returning its chains and fingerprint; only the
  queryable graph is released once the store lets go of the result;
* every result a client can observe — fresh compute, warm-cache hit,
  or post-evict recompute — is fingerprint-identical to a direct
  recompute of the same bundle (``graph_fingerprint`` digest and chain
  records both).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graphdb import fingerprint_digest
from repro.serve import JobManager, ResultStore
from repro.serve.jobs import JobState, normalize_submission

from tests.serve.bundles import gadget_bundle

#: three distinct bundles against a capacity-2 store, so LRU eviction
#: genuinely happens inside the interleavings
TAGS = ("pa", "pb", "pc")
BODIES = {tag: {"classes": gadget_bundle(tag), "options": {"sources": "native"}}
          for tag in TAGS}
KEYS = {tag: normalize_submission(BODIES[tag]).key for tag in TAGS}

_canonical_cache = {}


def canonical(tag):
    """Digest + chain records from a dedicated single-use manager —
    the recompute baseline every observed result must match."""
    if tag not in _canonical_cache:
        manager = JobManager(workers=1, inline=True)
        job, status = manager.submit(BODIES[tag])
        assert status == "new" and job.state == JobState.DONE
        _canonical_cache[tag] = (
            job.result.fingerprint,
            job.result.chain_records,
            fingerprint_digest(job.result.graph),
        )
    return _canonical_cache[tag]


ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(TAGS)),
        st.tuples(st.just("evict"), st.sampled_from(TAGS)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("poll"), st.integers(min_value=0, max_value=9)),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=ops)
def test_interleavings_never_lose_completed_results(ops):
    manager = JobManager(workers=1, inline=True, store=ResultStore(capacity=2))
    live = []  # (tag, job) pairs not yet deleted
    new_computes = 0
    for op, arg in ops:
        if op == "submit":
            job, status = manager.submit(BODIES[arg])
            assert status in ("new", "cached", "attached")
            # inline execution: nothing is ever in flight to attach to
            assert status != "attached"
            if status == "new":
                new_computes += 1
            assert job.state == JobState.DONE
            live.append((arg, job))
        elif op == "evict":
            manager.store.evict(KEYS[arg])
        elif op == "delete":
            if live:
                tag, job = live.pop(arg % len(live))
                assert manager.delete(job.id) == "deleted"
                assert manager.get(job.id) is None
        else:  # poll
            if live:
                tag, job = live[arg % len(live)]
                polled = manager.get(job.id)
                assert polled is job

        # the invariants hold after *every* op, not just at the end
        assert manager.computed == new_computes
        assert len(manager.store) <= 2
        for tag, job in live:
            # completed results are never lost, whatever the store did
            assert job.state == JobState.DONE
            assert job.result is not None
            digest, records, graph_digest = canonical(tag)
            # cache hits and recomputes are fingerprint-identical
            assert job.result.fingerprint == digest
            assert job.result.chain_records == records
            # the graph is kept while the store holds the result (and
            # hashes to the same identity), and released after
            if manager.store.peek(job.key) is job.result:
                assert fingerprint_digest(job.result.graph) == graph_digest
            else:
                assert job.result.graph is None


def test_evicted_results_release_their_graphs():
    """N distinct submissions to a capacity-k store leave at most k
    graphs alive; every job keeps its chains and fingerprint, and no
    finished job keeps its bundle text."""
    import gc
    import weakref

    k, n = 2, 5
    manager = JobManager(workers=1, inline=True, store=ResultStore(capacity=k))
    jobs, graphs = [], []
    for i in range(n):
        body = {"classes": gadget_bundle(f"rel{i}"), "options": {"sources": "native"}}
        job, status = manager.submit(body)
        assert status == "new" and job.state == JobState.DONE
        graphs.append(weakref.ref(job.result.graph))
        jobs.append(job)
    gc.collect()
    assert sum(ref() is not None for ref in graphs) <= k
    for job in jobs:
        held = manager.store.peek(job.key) is job.result
        assert (job.result.graph is not None) == held
        assert job.result.chain_records and job.result.fingerprint
        assert job.submission.payload == ()


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.integers(0, 5)),
            st.tuples(st.just("get"), st.integers(0, 5)),
            st.tuples(st.just("evict"), st.integers(0, 5)),
        ),
        max_size=40,
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_store_is_a_faithful_lru_map(ops, capacity):
    """Model-based check of ResultStore against a dict + recency list."""
    from repro.serve.store import JobResult

    store = ResultStore(capacity=capacity)
    model = {}
    recency = []  # least-recent first
    for op, k in ops:
        key = f"k{k}"
        if op == "put":
            store.put(key, JobResult(key=key, fingerprint=f"f{k}"))
            model[key] = f"f{k}"
            if key in recency:
                recency.remove(key)
            recency.append(key)
            while len(model) > capacity:
                oldest = recency.pop(0)
                del model[oldest]
        elif op == "get":
            result = store.get(key)
            if key in model:
                assert result is not None and result.fingerprint == model[key]
                recency.remove(key)
                recency.append(key)
            else:
                assert result is None
        else:
            assert store.evict(key) == (key in model)
            model.pop(key, None)
            if key in recency:
                recency.remove(key)
        assert len(store) == len(model)
        assert set(store.keys()) == set(model)
