"""Differential harness: the compiled Algorithm 1 against its oracle.

:mod:`repro.core.controllability` replays lowered method plans and
compiled Actions; :mod:`tests.oracles.controllability` is the
interpretive walk it replaced.  Every case here runs both engines on the
same hierarchy, in the same root order and with the same seeding, and
asserts equal ``encode_summary`` records (Actions, PP arrays, pruning,
resolved callees, site order) plus equal ``recursive_methods`` and
``cycle_tainted``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controllability import ControllabilityAnalysis
from repro.core.summary_cache import encode_summary
from repro.corpus import (
    COMPONENT_NAMES,
    build_component,
    build_lang_base,
    generate_corpus,
)
from repro.jvm.builder import ProgramBuilder
from repro.jvm.hierarchy import ClassHierarchy

from tests.oracles.controllability import (
    ControllabilityAnalysis as OracleAnalysis,
)

#: the two components whose recursion cliques dominate Algorithm 1
CLIQUE_COMPONENTS = ("Clojure", "Jython1")


def run(engine, classes, roots=None, seeded=(), tainted=(), **kwargs):
    """Analyse ``roots`` (methods, in the given order) then everything
    else, the way the CPG builder and the incremental analyzer drive an
    analysis."""
    analysis = engine(ClassHierarchy(classes), **kwargs)
    analysis.seed_summaries(seeded)
    analysis.cycle_tainted.update(tainted)
    for method in roots or ():
        analysis.summary_for(method)
    summaries = analysis.analyze_all()
    return (
        {key: encode_summary(summary) for key, summary in summaries.items()},
        sorted(analysis.recursive_methods),
        sorted(analysis.cycle_tainted),
    )


def assert_equivalent(classes, **kwargs):
    compiled = run(ControllabilityAnalysis, classes, **kwargs)
    oracle = run(OracleAnalysis, classes, **kwargs)
    assert compiled[0] == oracle[0]
    assert compiled[1] == oracle[1]
    assert compiled[2] == oracle[2]
    return compiled


def component_classes(name):
    return build_lang_base() + build_component(name).classes


def merged_corpus():
    classes = build_lang_base()
    for name in COMPONENT_NAMES:
        classes.extend(build_component(name).classes)
    return classes


@pytest.mark.parametrize("name", COMPONENT_NAMES)
def test_component_matches_oracle(name):
    assert_equivalent(component_classes(name))


def test_merged_corpus_matches_oracle():
    records, recursive, tainted = assert_equivalent(merged_corpus())
    # the cliques really were broken, so the cycle rules were exercised
    assert recursive and tainted


@pytest.mark.parametrize("seed", [3, 11])
def test_bulk_corpus_matches_oracle(seed):
    classes = [cls for jar in generate_corpus(2000, seed=seed) for cls in jar.classes]
    assert_equivalent(classes)


@pytest.mark.parametrize("name", CLIQUE_COMPONENTS)
def test_shuffled_roots_match_oracle(name):
    classes = component_classes(name)
    methods = [m for cls in classes for m in cls.methods.values() if m.has_body]
    random.Random(5).shuffle(methods)
    assert_equivalent(classes, roots=methods)


@pytest.mark.parametrize("name", CLIQUE_COMPONENTS)
def test_incremental_seeding_matches_oracle(name):
    """Seeded the way ``IncrementalAnalyzer`` seeds a dirty re-analysis:
    clean summaries carried over, the carried cycle-tainted finals
    pre-flagged, the dirty methods analysed as roots.  The dirty methods
    sit inside the recursion cliques, so their roots must re-derive the
    seeded tainted partners instead of reusing them."""
    classes = component_classes(name)
    cold = OracleAnalysis(ClassHierarchy(classes))
    cold_summaries = cold.analyze_all()
    dirty = set(sorted(cold.cycle_tainted)[::7])
    seeded = [s for key, s in cold_summaries.items() if key not in dirty]
    tainted = cold.cycle_tainted - dirty
    roots = [cold_summaries[key].method for key in sorted(dirty)]
    _, recursive, _ = assert_equivalent(
        classes, roots=roots, seeded=seeded, tainted=tainted
    )
    assert set(recursive) - dirty, "no seeded tainted partner was re-derived"


@pytest.mark.parametrize("name", CLIQUE_COMPONENTS)
def test_depth_guard_matches_oracle(name):
    assert_equivalent(component_classes(name), max_recursion_depth=3)


# ---------------------------------------------------------------------------
# Random programs with call cycles
# ---------------------------------------------------------------------------

#: parameter names, several of them package roots of the classes below
_PARAM_NAMES = ("org", "com", "p", "q")
_CLASSES = ("org.fz.C0", "org.fz.C1", "com.fz.C2")
_PHANTOMS = ("org.ext.Phantom", "com.ext.Other")


@st.composite
def cyclic_programs(draw):
    """Up to three classes whose methods call each other (so call
    cycles form), store and load static fields of classes named like
    their parameters, copy locals, use arrays and fields, call phantom
    classes and branch."""
    n_classes = draw(st.integers(1, 3))
    table = []  # (class, method, arity, static, returns_value)
    for class_name in _CLASSES[:n_classes]:
        for index in range(draw(st.integers(1, 3))):
            table.append(
                (class_name, f"m{index}", draw(st.integers(0, 2)),
                 draw(st.booleans()), draw(st.booleans()))
            )
    pb = ProgramBuilder(jar="cyclic.jar")
    for class_name in _CLASSES[:n_classes]:
        with pb.cls(class_name) as c:
            c.field("f", "java.lang.Object")
            c.field("s", "java.lang.Object", static=True)
            for owner, name, arity, static, returns in table:
                if owner != class_name:
                    continue
                names = draw(st.permutations(_PARAM_NAMES))[:arity]
                with c.method(
                    name,
                    params=["java.lang.Object"] * arity,
                    returns="java.lang.Object" if returns else "void",
                    static=static,
                    param_names=names,
                ) as m:
                    _random_body(draw, m, table, arity, static, returns)
    return pb.build()


def _random_body(draw, m, table, arity, static, returns):
    pool = [m.param(i) for i in range(1, arity + 1)]
    if not static:
        pool.append(m.this)
    pick = lambda: draw(st.sampled_from(pool))  # noqa: E731
    for step in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 11))
        if kind == 0 or not pool:
            pool.append(m.new("org.fz.Box"))
        elif kind == 1:
            owner, name, target_arity, target_static, target_returns = draw(
                st.sampled_from(table)
            )
            args = [pick() for _ in range(target_arity)]
            out_type = "java.lang.Object" if target_returns else None
            if target_static:
                out = m.invoke_static(owner, name, args, returns=out_type)
            else:
                out = m.invoke(pick(), owner, name, args, returns=out_type)
            if out is not None:
                pool.append(out)
        elif kind == 2:
            args = [pick() for _ in range(draw(st.integers(0, 2)))]
            phantom = draw(st.sampled_from(_PHANTOMS))
            if draw(st.booleans()):
                out = m.invoke(pick(), phantom, "call", args, returns="java.lang.Object")
            else:
                out = m.invoke_static(phantom, "call", args, returns="java.lang.Object")
            pool.append(out)
        elif kind == 3:
            m.set_static(draw(st.sampled_from(_CLASSES)), "s", pick())
        elif kind == 4:
            pool.append(m.get_static(draw(st.sampled_from(_CLASSES)), "s"))
        elif kind == 5:
            m.assign(pick(), pick())  # local-to-local copy
        elif kind == 6:
            m.assign(pick(), None)
        elif kind == 7:
            m.set_field(pick(), "f", pick())
        elif kind == 8:
            pool.append(m.get_field(pick(), "f"))
        elif kind == 9:
            array = m.new_array("java.lang.Object", 2)
            m.array_set(array, 0, pick())
            pool.append(m.array_get(draw(st.sampled_from(pool + [array])), 1))
        elif kind == 10:
            label = f"L{step}"
            m.if_eq(pick(), 0, label)
            m.assign(pick(), pick())
            m.label(label)
            m.nop()
        else:
            pool.append(m.cast(pick(), "java.lang.String"))
    m.ret(pick() if returns and pool else None)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    classes=cyclic_programs(),
    depth=st.sampled_from([64, 2]),
    order=st.randoms(use_true_random=False),
)
def test_random_cyclic_programs_match_oracle(classes, depth, order):
    methods = [m for cls in classes for m in cls.methods.values() if m.has_body]
    order.shuffle(methods)
    assert_equivalent(classes, roots=methods, max_recursion_depth=depth)
