"""Chain-level refinement verdicts: KEPT / REFUTED(reason) / UNKNOWN.

:class:`ChainRefiner` replays each candidate gadget chain against the
refinement analyses and issues an explainable verdict.  The modes run
in the order of :data:`REFINE_MODES`, and the first refutation wins:

* **guards** — constant-guard feasibility
  (:class:`repro.core.refine.GuardFeasibilityRefiner`): a CALL hop
  whose every matching call site sits in a block that conditional
  constant propagation proves infeasible refutes the chain
  (``constant-guard``);
* **rta** — the RTA mirror of the edge annotations
  (:mod:`repro.analysis.rta`): an ALIAS hop dispatching into a class
  with no constructible receiver, or a CALL hop whose every matching
  call site is a virtual/interface dispatch into such a class, refutes
  the chain (``rta-dead-dispatch``);
* **taint** — the interprocedural summaries
  (:mod:`repro.analysis.taint`): starting from a fully
  attacker-controlled source frame, the pollution of every invocation
  position is propagated hop by hop; a chain whose final hop provably
  delivers *no* attacker data to any Trigger-Condition position of the
  sink is refuted (``untainted-sink``).

Soundness is structural: every place the replay loses track — a hop
whose caller has no body, a call site it cannot match, a missing
summary, an empty trigger condition, a terminal ALIAS edge — the frame
degrades to "everything possibly polluted" and the final verdict can
only be KEPT or UNKNOWN.  **UNKNOWN never refutes**, so a chain is
removed only when a whole-program over-approximation of attacker
influence still proves the sink unreachable or clean; the differential
suite asserts zero ground-truth chains are ever refuted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.chains import GadgetChain, chain_record
from repro.core.refine import GuardFeasibilityRefiner, RefutationReason
from repro.errors import AnalysisError
from repro.jvm import ir
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaMethod

from repro.analysis.rta import TypeReachability
from repro.analysis.taint import (
    TAINT_TOP,
    TaintSummaryEngine,
    TaintValue,
)

__all__ = [
    "ChainRefiner",
    "ChainVerdict",
    "RefinementResult",
    "REFINE_MODES",
    "parse_refine_modes",
]

KEPT = "kept"
REFUTED = "refuted"
UNKNOWN = "unknown"

#: every refinement mode, in the order :meth:`ChainRefiner.verdict`
#: tries them
REFINE_MODES = ("guards", "rta", "taint")


def parse_refine_modes(value: str) -> Tuple[str, ...]:
    """A comma-separated mode list (``"taint, guards"``) in canonical
    :data:`REFINE_MODES` order; ``ValueError`` on an unknown or empty
    list.  The CLI ``--refine`` flag and serve's ``options.refine``
    both parse through here, so every spelling of one mode set shares
    a serve cache key."""
    modes = {m.strip() for m in value.split(",") if m.strip()}
    if not modes or not modes <= set(REFINE_MODES):
        raise ValueError(
            f"invalid refinement mode(s): {value!r} "
            f"(choose from {', '.join(REFINE_MODES)})"
        )
    return tuple(m for m in REFINE_MODES if m in modes)


@dataclass(frozen=True)
class ChainVerdict:
    """Judgement for one chain."""

    status: str
    reason: Optional[RefutationReason] = None

    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"status": self.status}
        if self.reason is not None:
            doc["refutation"] = self.reason.as_dict()
        return doc


@dataclass
class RefinementResult:
    """Verdicts for a chain list, order-aligned with the input."""

    chains: List[GadgetChain]
    verdicts: List[ChainVerdict]
    statistics: Dict[str, object] = field(default_factory=dict)

    @property
    def kept(self) -> List[GadgetChain]:
        """Surviving chains — a verbatim, order-preserving subset of the
        input (UNKNOWN survives; only REFUTED is dropped)."""
        return [
            chain
            for chain, verdict in zip(self.chains, self.verdicts)
            if verdict.status != REFUTED
        ]

    @property
    def refuted(self) -> List[Tuple[GadgetChain, RefutationReason]]:
        out: List[Tuple[GadgetChain, RefutationReason]] = []
        for chain, verdict in zip(self.chains, self.verdicts):
            if verdict.status == REFUTED and verdict.reason is not None:
                out.append((chain, verdict.reason))
        return out

    def records(self) -> List[Dict[str, Any]]:
        """One verdict record per chain, in search order: the chain
        record plus ``status`` and, for refuted chains, ``refutation``.
        ``tabby chains --json``, serve ``/verdicts`` and ``tabby diff``
        appeared rows all carry this shape."""
        return [
            {**chain_record(chain), **verdict.as_dict()}
            for chain, verdict in zip(self.chains, self.verdicts)
        ]


#: A replay frame: is each input of the current chain step possibly
#: attacker-controlled?  ``None`` params default means "yes" for any
#: position not explicitly tracked.
class _Frame:
    __slots__ = ("this_tainted", "params")

    def __init__(self, this_tainted: bool, params: Dict[int, bool]):
        self.this_tainted = this_tainted
        self.params = params

    @classmethod
    def all_tainted(cls) -> "_Frame":
        return cls(True, {})

    def param(self, index: int) -> bool:
        return self.params.get(index, True)

    def eval(self, value: TaintValue) -> bool:
        """Whether ``value`` may carry attacker data under this frame."""
        if value is TAINT_TOP:
            return True
        for pos, _fld in value:
            # Channel (0, f) reads a receiver field: polluted iff the
            # receiver object itself is attacker-supplied (trusted and
            # globally-stored fields were already folded away by the
            # summary engine).
            if pos == 0:
                if self.this_tainted:
                    return True
            elif self.param(pos):
                return True
        return False


class ChainRefiner:
    """Replays chains against the refinement analyses (see module doc)."""

    def __init__(
        self,
        hierarchy: ClassHierarchy,
        modes: Sequence[str] = REFINE_MODES,
        cache_dir: Optional[str] = None,
    ):
        bad = sorted(set(modes) - set(REFINE_MODES))
        if bad:
            raise AnalysisError(
                f"unknown refinement mode(s) {', '.join(bad)}; "
                f"valid modes: {', '.join(REFINE_MODES)}"
            )
        if not modes:
            raise AnalysisError("at least one refinement mode is required")
        if not hierarchy.classes:
            raise AnalysisError(
                "chain refinement needs the analyzed class definitions; "
                "a snapshot-loaded CPG has none (re-add the classes via "
                "add_classes/add_jar)"
            )
        self.hierarchy = hierarchy
        self.modes = tuple(m for m in REFINE_MODES if m in modes)
        self.guards = (
            GuardFeasibilityRefiner(hierarchy) if "guards" in self.modes else None
        )
        self.types = TypeReachability(hierarchy) if "rta" in self.modes else None
        self.engine = (
            TaintSummaryEngine(hierarchy, cache_dir=cache_dir)
            if "taint" in self.modes
            else None
        )

    # -- shared helpers ----------------------------------------------------

    def _method(self, class_name: str, method_name: str, arity: int
                ) -> Optional[JavaMethod]:
        cls = self.hierarchy.get(class_name)
        if cls is None:
            return None
        return cls.find_method(method_name, arity)

    # -- RTA replay --------------------------------------------------------

    def _rta_refutation(self, chain: GadgetChain) -> Optional[RefutationReason]:
        assert self.types is not None
        hierarchy = self.hierarchy
        for step_index, (step, nxt) in enumerate(zip(chain.steps, chain.steps[1:])):
            if step.edge_to_next == "ALIAS":
                # The backward search traverses ALIAS edges in both
                # directions, so the override (subtype) side may be
                # either endpoint of the hop.
                if hierarchy.is_subtype_of(nxt.class_name, step.class_name):
                    child = nxt.class_name
                elif hierarchy.is_subtype_of(step.class_name, nxt.class_name):
                    child = step.class_name
                else:
                    continue  # not an override pair we can orient: keep
                if hierarchy.get(child) is None:
                    continue  # phantom: conservatively constructible
                if not self.types.class_is_live(child):
                    return RefutationReason(
                        kind="rta-dead-dispatch",
                        step_index=step_index,
                        caller=step.qualified,
                        callee=nxt.qualified,
                        detail=(
                            f"override dispatch requires a receiver of type "
                            f"{child}, but no subtype of it is ever "
                            f"instantiated or deserializable in the closure"
                        ),
                    )
            elif step.edge_to_next == "CALL":
                if hierarchy.get(nxt.class_name) is None:
                    continue  # phantom callee (e.g. a JDK sink): keep
                if self.types.class_is_live(nxt.class_name):
                    continue
                caller = self._method(step.class_name, step.method_name, step.arity)
                if caller is None or not caller.has_body:
                    continue
                matching = [
                    expr
                    for expr in ir.iter_invoke_exprs(caller.body)
                    if expr.method_name == nxt.method_name
                    and expr.arity == nxt.arity
                ]
                if not matching:
                    continue  # cannot see the hop: keep
                dispatching = (ir.InvokeKind.VIRTUAL, ir.InvokeKind.INTERFACE)
                if all(expr.kind in dispatching for expr in matching):
                    return RefutationReason(
                        kind="rta-dead-dispatch",
                        step_index=step_index,
                        caller=step.qualified,
                        callee=nxt.qualified,
                        detail=(
                            f"every matching call site dispatches on a "
                            f"receiver of type {nxt.class_name}, which has no "
                            f"instantiable subtype in the analyzed closure"
                        ),
                    )
        return None

    # -- taint replay ------------------------------------------------------

    def _taint_verdict(self, chain: GadgetChain) -> ChainVerdict:
        assert self.engine is not None
        frame = _Frame.all_tainted()
        last_hop = len(chain.steps) - 2
        for step_index, (step, nxt) in enumerate(zip(chain.steps, chain.steps[1:])):
            final = step_index == last_hop
            if step.edge_to_next != "CALL":
                if final:
                    return ChainVerdict(UNKNOWN)  # no call positions to judge
                continue  # ALIAS hop: same receiver/arguments, frame unchanged
            caller = self._method(step.class_name, step.method_name, step.arity)
            summary = (
                self.engine.summary_for(caller) if caller is not None else None
            )
            if summary is None:
                if final:
                    return ChainVerdict(UNKNOWN)
                frame = _Frame.all_tainted()
                continue
            sites = [
                site
                for site in summary.sites
                if site.method_name == nxt.method_name and site.arity == nxt.arity
            ]
            if not sites:
                if final:
                    return ChainVerdict(UNKNOWN)
                frame = _Frame.all_tainted()
                continue
            width = max(len(site.positions) for site in sites)
            polluted = [
                any(
                    pos < len(site.positions) and frame.eval(site.positions[pos])
                    for site in sites
                )
                for pos in range(width)
            ]
            if final:
                tc = chain.trigger_condition
                if not tc:
                    return ChainVerdict(UNKNOWN)
                if any(pos >= width or polluted[pos] for pos in tc):
                    return ChainVerdict(KEPT)
                clean = ", ".join(str(pos) for pos in tc)
                return ChainVerdict(
                    REFUTED,
                    RefutationReason(
                        kind="untainted-sink",
                        step_index=step_index,
                        caller=step.qualified,
                        callee=nxt.qualified,
                        detail=(
                            f"no attacker-controlled data reaches trigger-"
                            f"condition position(s) {clean} of the sink along "
                            f"any matching call site"
                        ),
                    ),
                )
            frame = _Frame(
                this_tainted=polluted[0] if width > 0 else True,
                params={
                    pos: polluted[pos] for pos in range(1, width)
                },
            )
        return ChainVerdict(UNKNOWN)

    # -- public API --------------------------------------------------------

    def verdict(self, chain: GadgetChain) -> ChainVerdict:
        """Judge one chain: REFUTED beats UNKNOWN beats KEPT.  Modes run
        in :data:`REFINE_MODES` order and the first refutation wins."""
        if self.guards is not None:
            reason = self.guards.chain_refutation(chain)
            if reason is not None:
                return ChainVerdict(REFUTED, reason)
        if self.types is not None:
            reason = self._rta_refutation(chain)
            if reason is not None:
                return ChainVerdict(REFUTED, reason)
        if self.engine is not None:
            return self._taint_verdict(chain)
        return ChainVerdict(KEPT)

    def refine(self, chains: Sequence[GadgetChain]) -> RefinementResult:
        started = time.perf_counter()
        ordered = list(chains)
        verdicts = [self.verdict(chain) for chain in ordered]
        counts = {KEPT: 0, REFUTED: 0, UNKNOWN: 0}
        by_kind: Dict[str, int] = {}
        for verdict in verdicts:
            counts[verdict.status] += 1
            if verdict.reason is not None:
                by_kind[verdict.reason.kind] = by_kind.get(verdict.reason.kind, 0) + 1
        statistics: Dict[str, object] = {
            "modes": list(self.modes),
            "chains": len(ordered),
            "kept": counts[KEPT],
            "refuted": counts[REFUTED],
            "unknown": counts[UNKNOWN],
            "refuted_by_kind": dict(sorted(by_kind.items())),
            "seconds": time.perf_counter() - started,
        }
        if self.types is not None:
            statistics["rta_instantiated"] = len(self.types.instantiated)
        if self.engine is not None:
            statistics["taint"] = dict(self.engine.stats)
            if self.engine.cache is not None:
                statistics["taint_cache"] = self.engine.cache.stats.as_row()
        return RefinementResult(
            chains=ordered, verdicts=verdicts, statistics=statistics
        )
