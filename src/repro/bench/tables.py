"""Regeneration of every evaluation table (VIII, IX, X, XI).

Each ``run_table_*`` function returns structured rows; each
``format_table_*`` renders them in the paper's layout.  The pytest
benchmarks under ``benchmarks/`` call these and assert the *shape*
claims (linearity, who-wins ordering, non-termination cells).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines import GadgetInspector, Serianalyzer
from repro.bench.metrics import ToolScore, classify_chains
from repro.core import SourceCatalog, Tabby
from repro.core.chains import GadgetChain
from repro.corpus import (
    COMPONENT_NAMES,
    SCENE_BUILDERS,
    build_component,
    build_lang_base,
    build_scene,
    generate_corpus,
)
from repro.corpus.scenes import TABLE_XI_TARGET_SOURCES, SceneSpec
from repro.verify import ChainVerifier

__all__ = [
    "TableVIIIRow",
    "run_table_viii",
    "format_table_viii",
    "ComponentResult",
    "run_table_ix",
    "run_table_ix_component",
    "format_table_ix",
    "SceneResult",
    "run_table_x",
    "format_table_x",
    "run_table_xi",
    "format_table_xi",
]

#: Serianalyzer's step budget used throughout the evaluation; see
#: repro.baselines.serianalyzer for why the bombs exceed it.
SL_STEP_BUDGET = 40_000


# ---------------------------------------------------------------------------
# Table VIII — CPG generation efficiency (RQ1)
# ---------------------------------------------------------------------------


@dataclass
class TableVIIIRow:
    code_kb: int
    actual_kb: float
    jar_count: int
    class_nodes: int
    method_nodes: int
    relationship_edges: int
    seconds: float


def run_table_viii(
    sizes_kb: Sequence[int] = (10, 20, 30, 40, 50, 100, 150),
    repetitions: int = 10,
    seed: int = 7,
) -> List[TableVIIIRow]:
    """CPG generation timing over scaled corpora.

    Follows the paper's protocol: ``repetitions`` runs per size, drop
    the min and max, average the rest.
    """
    rows: List[TableVIIIRow] = []
    for size in sizes_kb:
        jars = generate_corpus(size, seed=seed)
        classes = [c for jar in jars for c in jar.classes]
        actual_kb = sum(jar.code_size_bytes() for jar in jars) / 1024.0
        times: List[float] = []
        stats = None
        for _ in range(max(repetitions, 3)):
            tabby = Tabby().add_classes(classes)
            started = time.perf_counter()
            cpg = tabby.build_cpg()
            times.append(time.perf_counter() - started)
            stats = cpg.statistics
        assert stats is not None
        if len(times) > 2:
            times = sorted(times)[1:-1]  # drop min and max
        rows.append(
            TableVIIIRow(
                code_kb=size,
                actual_kb=actual_kb,
                jar_count=len(jars),
                class_nodes=stats.class_node_count,
                method_nodes=stats.method_node_count,
                relationship_edges=stats.relationship_edge_count,
                seconds=statistics.mean(times),
            )
        )
    return rows


def format_table_viii(rows: Sequence[TableVIIIRow]) -> str:
    header = (
        f"{'Code(KB)':>9} {'Jar':>4} {'Class':>7} {'Method':>8} "
        f"{'Edges':>9} {'Time(s)':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.code_kb:>9} {r.jar_count:>4} {r.class_nodes:>7} "
            f"{r.method_nodes:>8} {r.relationship_edges:>9} {r.seconds:>8.3f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table IX — comparison with GadgetInspector and Serianalyzer (RQ2)
# ---------------------------------------------------------------------------


@dataclass
class ComponentResult:
    component: str
    known_in_dataset: int
    tabby: ToolScore
    gadgetinspector: ToolScore
    serianalyzer: ToolScore
    #: Tabby re-scored after refinement; only set when run with
    #: ``refine`` modes (extension, never alters the baseline ``tabby``
    #: column)
    tabby_refined: Optional[ToolScore] = None
    #: the refinement modes behind ``tabby_refined``
    refine: Tuple[str, ...] = ()


def run_table_ix_component(
    name: str,
    sl_step_budget: int = SL_STEP_BUDGET,
    cache_dir: Optional[str] = None,
    refine: Optional[Sequence[str]] = None,
) -> ComponentResult:
    """Run all three tools on one Table IX component.

    ``cache_dir`` tunes Tabby's CPG build only.  A shared ``cache_dir``
    pays off across components: every component includes the same
    language base classes, whose summaries are re-used after the first
    build.

    ``refine`` modes add a fourth score: Tabby's chain list
    post-filtered by :class:`repro.analysis.chain_refiner.ChainRefiner`.
    The baseline columns are computed from the unrefined list either
    way, so Table IX stays bit-identical with refinement on or off.
    """
    spec = build_component(name)
    classes = build_lang_base() + spec.classes
    verifier = ChainVerifier(classes)

    tabby = Tabby(cache_dir=cache_dir).add_classes(classes)
    started = time.perf_counter()
    chains = tabby.find_gadget_chains()
    tabby_score = classify_chains(
        "tabby", spec, chains, verifier, elapsed_seconds=time.perf_counter() - started
    )
    refined_score: Optional[ToolScore] = None
    if refine:
        from repro.analysis.chain_refiner import ChainRefiner

        started = time.perf_counter()
        kept = ChainRefiner(
            tabby.cpg.hierarchy, modes=refine, cache_dir=cache_dir
        ).refine(chains).kept
        refined_score = classify_chains(
            "tabby+refine",
            spec,
            kept,
            verifier,
            elapsed_seconds=time.perf_counter() - started,
        )

    gi_result = GadgetInspector(classes).run()
    gi_score = classify_chains(
        "gadgetinspector",
        spec,
        gi_result.chains,
        verifier,
        terminated=gi_result.terminated,
        elapsed_seconds=gi_result.elapsed_seconds,
    )

    sl_result = Serianalyzer(classes, step_budget=sl_step_budget).run()
    sl_score = classify_chains(
        "serianalyzer",
        spec,
        sl_result.chains,
        verifier,
        terminated=sl_result.terminated,
        elapsed_seconds=sl_result.elapsed_seconds,
    )
    return ComponentResult(
        spec.name,
        spec.known_count,
        tabby_score,
        gi_score,
        sl_score,
        tabby_refined=refined_score,
        refine=tuple(refine or ()),
    )


def run_table_ix(
    components: Optional[Sequence[str]] = None,
    sl_step_budget: int = SL_STEP_BUDGET,
    cache_dir: Optional[str] = None,
    refine: Optional[Sequence[str]] = None,
) -> List[ComponentResult]:
    names = list(components) if components is not None else list(COMPONENT_NAMES)
    return [
        run_table_ix_component(
            name,
            sl_step_budget,
            cache_dir=cache_dir,
            refine=refine,
        )
        for name in names
    ]


def table_ix_totals(results: Sequence[ComponentResult]) -> Dict[str, float]:
    """The Total row: aggregate counts and average FPR/FNR."""
    total: Dict[str, float] = {
        "known_in_dataset": sum(r.known_in_dataset for r in results)
    }
    for tool in ("tabby", "gadgetinspector", "serianalyzer"):
        scores: List[ToolScore] = [getattr(r, tool) for r in results]
        done = [s for s in scores if s.terminated]
        total[f"{tool}_result"] = sum(s.result_count for s in done)
        total[f"{tool}_fake"] = sum(s.fake_count for s in done)
        total[f"{tool}_known"] = sum(s.known_found for s in done)
        total[f"{tool}_unknown"] = sum(s.unknown_count for s in done)
        total[f"{tool}_unterminated"] = sum(1 for s in scores if not s.terminated)
        result = total[f"{tool}_result"]
        total[f"{tool}_fpr"] = 100.0 * total[f"{tool}_fake"] / result if result else 0.0
        known = sum(s.known_in_dataset for s in done)
        total[f"{tool}_fnr"] = (
            100.0 * (known - total[f"{tool}_known"]) / known if known else 0.0
        )
    return total


def format_table_ix(results: Sequence[ComponentResult]) -> str:
    header = (
        f"{'Component':<28}{'Known':>6} | "
        f"{'Result GI/TB/SL':>18} | {'Fake GI/TB/SL':>16} | "
        f"{'Known GI/TB/SL':>15} | {'Unk GI/TB/SL':>14}"
    )
    lines = [header, "-" * len(header)]

    def cell(score: ToolScore, attr: str) -> str:
        if not score.terminated:
            return "X"
        return str(getattr(score, attr))

    for r in results:
        gi, tb, sl = r.gadgetinspector, r.tabby, r.serianalyzer
        lines.append(
            f"{r.component:<28}{r.known_in_dataset:>6} | "
            f"{cell(gi,'result_count'):>5}/{cell(tb,'result_count'):>4}/{cell(sl,'result_count'):>5} | "
            f"{cell(gi,'fake_count'):>5}/{cell(tb,'fake_count'):>3}/{cell(sl,'fake_count'):>4} | "
            f"{cell(gi,'known_found'):>4}/{cell(tb,'known_found'):>3}/{cell(sl,'known_found'):>4} | "
            f"{cell(gi,'unknown_count'):>4}/{cell(tb,'unknown_count'):>3}/{cell(sl,'unknown_count'):>3}"
        )
    totals = table_ix_totals(results)
    lines.append("-" * len(header))
    lines.append(
        f"{'Total':<28}{int(totals['known_in_dataset']):>6} | "
        f"{int(totals['gadgetinspector_result']):>5}/{int(totals['tabby_result']):>4}/{int(totals['serianalyzer_result']):>5} | "
        f"{int(totals['gadgetinspector_fake']):>5}/{int(totals['tabby_fake']):>3}/{int(totals['serianalyzer_fake']):>4} | "
        f"{int(totals['gadgetinspector_known']):>4}/{int(totals['tabby_known']):>3}/{int(totals['serianalyzer_known']):>4} | "
        f"{int(totals['gadgetinspector_unknown']):>4}/{int(totals['tabby_unknown']):>3}/{int(totals['serianalyzer_unknown']):>3}"
    )
    lines.append(
        f"FPR%  GI={totals['gadgetinspector_fpr']:.1f} TB={totals['tabby_fpr']:.1f} "
        f"SL={totals['serianalyzer_fpr']:.1f}   (paper: 93.0 / 32.9 / 98.6)"
    )
    lines.append(
        f"FNR%  GI={totals['gadgetinspector_fnr']:.1f} TB={totals['tabby_fnr']:.1f} "
        f"SL={totals['serianalyzer_fnr']:.1f}   (paper: 86.8 / 31.6 / 81.6)"
    )
    refined_results = [r for r in results if r.tabby_refined is not None]
    refined = [r.tabby_refined for r in refined_results]
    if refined:
        result = sum(s.result_count for s in refined)
        fake = sum(s.fake_count for s in refined)
        known_found = sum(s.known_found for s in refined)
        known_ds = sum(s.known_in_dataset for s in refined)
        refined_fpr = 100.0 * fake / result if result else 0.0
        refined_fnr = (
            100.0 * (known_ds - known_found) / known_ds if known_ds else 0.0
        )
        refuted = sum(
            r.tabby.result_count - r.tabby_refined.result_count
            for r in refined_results
        )
        modes = ",".join(refined_results[0].refine)
        lines.append(
            f"with --refine {modes}: TB FPR={refined_fpr:.1f} "
            f"(Δ{refined_fpr - totals['tabby_fpr']:+.1f}) "
            f"FNR={refined_fnr:.1f} "
            f"(Δ{refined_fnr - totals['tabby_fnr']:+.1f})   "
            f"{refuted} chain(s) refuted (extension, baseline unchanged)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table X — development scenes (RQ3)
# ---------------------------------------------------------------------------


@dataclass
class SceneResult:
    scene: str
    version: str
    jar_count: int
    code_kb: float
    result_count: int
    effective_count: int
    fpr_percent: float
    search_seconds: float
    chains: List[GadgetChain] = field(default_factory=list)
    effective_chains: List[GadgetChain] = field(default_factory=list)


def run_scene(name: str) -> SceneResult:
    scene = build_scene(name)
    tabby = Tabby().add_classes(scene.classes)
    tabby.build_cpg()
    started = time.perf_counter()
    chains = tabby.find_gadget_chains()
    search_seconds = time.perf_counter() - started
    verifier = ChainVerifier(scene.classes)
    effective = [c for c in chains if verifier.verify(c).effective]
    fake = len(chains) - len(effective)
    return SceneResult(
        scene=scene.name,
        version=scene.version,
        jar_count=scene.jar_count,
        code_kb=scene.code_size_bytes() / 1024.0,
        result_count=len(chains),
        effective_count=len(effective),
        fpr_percent=100.0 * fake / len(chains) if chains else 0.0,
        search_seconds=search_seconds,
        chains=chains,
        effective_chains=effective,
    )


def run_table_x() -> List[SceneResult]:
    return [run_scene(name) for name in SCENE_BUILDERS]


def format_table_x(rows: Sequence[SceneResult]) -> str:
    header = (
        f"{'Scene':<14}{'Version':<9}{'Jars':>5}{'Code(KB)':>10}"
        f"{'Result':>8}{'Effective':>11}{'FPR':>8}{'Search(s)':>11}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.scene:<14}{r.version:<9}{r.jar_count:>5}{r.code_kb:>10.1f}"
            f"{r.result_count:>8}{r.effective_count:>11}{r.fpr_percent:>7.1f}%"
            f"{r.search_seconds:>11.3f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table XI — Spring-framework gadget chains
# ---------------------------------------------------------------------------


def run_table_xi() -> List[GadgetChain]:
    """The JNDI-injection chains found in the Spring scene, in the
    Table XI presentation (getTarget -> getBean -> lookup -> Context)."""
    result = run_scene("Spring")
    chains = [
        c
        for c in result.effective_chains
        if any(step.class_name in TABLE_XI_TARGET_SOURCES for step in c.steps)
    ]
    chains.sort(key=lambda c: c.key)
    return chains


def format_table_xi(chains: Sequence[GadgetChain]) -> str:
    blocks = []
    for i, chain in enumerate(chains, start=1):
        # present the chain from the getTarget hop, as the paper does
        start = next(
            (
                j
                for j, s in enumerate(chain.steps)
                if s.class_name in TABLE_XI_TARGET_SOURCES
            ),
            0,
        )
        lines = [f"#{i}"]
        lines += [f"  {step.qualified}()" for step in chain.steps[start:]]
        blocks.append("\n".join(lines))
    return "\n".join(blocks)
