"""Build-scaling benchmark: the warm summary cache.

Measures the CPG build on an analysis-heavy synthetic corpus (many live
call sites composing a wide Action, so Algorithm 1 dominates the build)
in three modes:

* uncached — the baseline pipeline;
* cold cache — the first build, which analyses every class and fills
  the cache;
* warm cache — a rebuild over an unchanged classpath, which must skip
  Algorithm 1 entirely, run ≥5× faster than cold and beat the uncached
  build.
"""

import time

import pytest

from repro.core.cpg import CPGBuilder
from repro.jvm.builder import ProgramBuilder
from repro.jvm.hierarchy import ClassHierarchy

pytestmark = pytest.mark.slow

N_CLASSES = 30
N_METHODS = 5
N_CALLS = 40
HUB_FIELDS = 40
REPETITIONS = 3


def build_corpus():
    """One wide hub method + many methods that repeatedly compose it.

    Every invoke is one jasm line but costs a ``calc`` over a
    ``HUB_FIELDS``-entry Action, so analysis cost dwarfs the cache's
    dump/hash/decode overhead — the honest setting for measuring the
    warm-cache claim."""
    pb = ProgramBuilder(jar="scale.jar")
    with pb.cls("scale.Hub") as c:
        for fi in range(HUB_FIELDS):
            c.field(f"f{fi}", "java.lang.Object")
        with c.method("mix", params=["java.lang.Object"],
                      returns="java.lang.Object") as m:
            for fi in range(HUB_FIELDS):
                m.set_field(m.this, f"f{fi}", m.param(1))
            m.ret(m.param(1))
    for ci in range(N_CLASSES):
        with pb.cls(f"scale.p{ci % 8}.C{ci}") as c:
            for mi in range(N_METHODS):
                with c.method(f"m{mi}", params=["java.lang.Object"],
                              returns="java.lang.Object") as m:
                    v = m.param(1)
                    for _ in range(N_CALLS):
                        v = m.invoke(v, "scale.Hub", "mix", [v],
                                     returns="java.lang.Object")
                    m.ret(v)
    return pb.build()


def timed_build(classes, cache=None, repetitions=REPETITIONS):
    """Best-of-N wall clock for one build mode, plus the last CPG."""
    best = float("inf")
    cpg = None
    for _ in range(repetitions):
        hierarchy = ClassHierarchy(classes)
        builder = CPGBuilder(hierarchy, cache=cache)
        started = time.perf_counter()
        cpg = builder.build()
        best = min(best, time.perf_counter() - started)
    return best, cpg


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def test_warm_cache_rebuild_speedup(corpus, tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold_s, cold_cpg = timed_build(corpus, cache=cache_dir, repetitions=1)
    warm_s, warm_cpg = timed_build(corpus, cache=cache_dir)
    assert warm_cpg.statistics.cache_misses == 0
    assert warm_cpg.statistics.analyzed_method_count == 0
    assert (
        warm_cpg.statistics.relationship_edge_count
        == cold_cpg.statistics.relationship_edge_count
    )
    speedup = cold_s / warm_s
    print(f"\n  cold {cold_s:.3f}s -> warm {warm_s:.3f}s  ({speedup:.1f}x)")
    assert speedup >= 5.0, f"expected >=5x warm rebuild, got {speedup:.2f}x"


def test_warm_cache_beats_plain_serial(corpus, tmp_path):
    """The end-to-end claim: with a populated cache, rebuilding is
    faster than ever running Algorithm 1, not merely faster than the
    cache's own cold path."""
    cache_dir = str(tmp_path / "cache")
    timed_build(corpus, cache=cache_dir, repetitions=1)
    serial_s, _ = timed_build(corpus)
    warm_s, _ = timed_build(corpus, cache=cache_dir)
    print(f"\n  serial {serial_s:.3f}s vs warm {warm_s:.3f}s")
    assert warm_s < serial_s
