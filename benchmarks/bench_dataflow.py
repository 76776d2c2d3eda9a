"""Dataflow-engine benchmark: the four analyses over the full corpus.

Times one fixpoint of each shipped analysis (reaching definitions,
liveness, nullness, conditional constant propagation) across every
method body in the language base plus all 26 Table IX components —
the exact workload ``tabby lint`` and ``--refine guards`` put on the
engine.  Run with ``--benchmark-json`` for the same machine-readable
shape as the other pytest-benchmark suites.
"""

import pytest

from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.jvm import dataflow as df
from repro.jvm.cfg import build_cfg

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def corpus_cfgs():
    classes = list(build_lang_base())
    for name in COMPONENT_NAMES:
        classes.extend(build_component(name).classes)
    cfgs = [
        build_cfg(method)
        for cls in classes
        for method in cls.methods.values()
        if method.has_body
    ]
    oracle = df.constant_static_fields(classes)
    return cfgs, oracle


def _sweep(cfgs, make_analysis):
    reached = 0
    for cfg in cfgs:
        result = df.run_analysis(cfg, make_analysis())
        reached += len(result.reached)
    return reached


def test_reaching_definitions(corpus_cfgs, benchmark):
    cfgs, _ = corpus_cfgs
    reached = benchmark(lambda: _sweep(cfgs, df.ReachingDefinitions))
    assert reached > 0
    print(f"\n  {len(cfgs)} methods, {reached} block visits")


def test_liveness(corpus_cfgs, benchmark):
    cfgs, _ = corpus_cfgs
    assert benchmark(lambda: _sweep(cfgs, df.Liveness)) > 0


def test_nullness(corpus_cfgs, benchmark):
    cfgs, _ = corpus_cfgs
    assert benchmark(lambda: _sweep(cfgs, df.Nullness)) > 0


def test_constant_propagation(corpus_cfgs, benchmark):
    cfgs, oracle = corpus_cfgs
    reached = benchmark(
        lambda: _sweep(cfgs, lambda: df.ConstantPropagation(static_oracle=oracle))
    )
    # constant guards prune at least the planted decoy arms, so the
    # conditional sweep visits strictly fewer blocks than the
    # unconditional ones
    unconditional = _sweep(cfgs, df.ReachingDefinitions)
    assert reached < unconditional
