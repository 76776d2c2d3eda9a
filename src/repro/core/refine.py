"""Guard-feasibility analysis: the ``guards`` refinement mode.

Tabby's dominant false-positive class (~33%, paper §IV-E) is the chain
that is structurally sound but dynamically dead: a hop sits behind a
guard like ``if (Config.ENABLED) fire()`` where the guard can never
pass.  The :mod:`repro.jvm.dataflow` constant-propagation analysis can
refute exactly the statically-decidable subset of these: guards that
compare only constants — including loads of static fields provably
stuck at their default value (never stored anywhere in the analyzed
program, no ``<clinit>``).

:meth:`GuardFeasibilityRefiner.chain_refutation` judges one chain under
a deliberately conservative rule:

* for a hop ``A --CALL--> B``, find the call sites in A's body whose
  callee name and arity match B;
* if at least one matching site exists and **every** one lies in a
  block that conditional constant propagation proves infeasible, the
  hop (and the chain) is dead;
* ALIAS hops, hops whose caller has no body, and hops with no matching
  site are never refuted.

True chains pass a payload through attacker-controlled *instance*
fields, which the analysis treats as non-constant, so their guards stay
feasible — the refinement can only remove chains whose guards compare
constants (zero false-negative cost on the shipped corpus, asserted by
tests).  This is an **extension beyond the paper**: it runs as the
first mode of :class:`repro.analysis.chain_refiner.ChainRefiner`, off
by default everywhere (``--refine guards`` on the CLI,
``refine=("guards",)`` in :meth:`repro.core.api.Tabby.find_gadget_chains`)
so Table IX output stays bit-identical to the paper pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.chains import GadgetChain
from repro.jvm import dataflow as df
from repro.jvm import ir
from repro.jvm.cfg import ControlFlowGraph, build_cfg
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaMethod

__all__ = ["GuardFeasibilityRefiner", "RefutationReason"]


@dataclass(frozen=True)
class RefutationReason:
    """Why a chain was refuted — explainable verdicts, not bare booleans.

    ``kind`` names the refuting analysis (``constant-guard`` here;
    ``rta-dead-dispatch`` / ``untainted-sink`` from
    :mod:`repro.analysis.chain_refiner`), ``step_index`` is the 0-based
    position of the hop's caller inside ``chain.steps``, and ``detail``
    is a human-readable account (guard location + folded constant for
    guard refutations)."""

    kind: str
    step_index: int
    caller: str
    callee: str
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "step_index": self.step_index,
            "caller": self.caller,
            "callee": self.callee,
            "detail": self.detail,
        }


class GuardFeasibilityRefiner:
    """Refutes chains whose connecting call sites are statically dead."""

    def __init__(self, hierarchy: ClassHierarchy):
        self.hierarchy = hierarchy
        self.static_oracle = df.constant_static_fields(hierarchy.classes)
        # method id -> analysis artifacts; memoised per method since
        # many chains share prefixes.
        self._feasible_cache: Dict[int, FrozenSet[int]] = {}
        self._site_cache: Dict[int, List[Tuple[int, ir.InvokeExpr]]] = {}
        self._verdict_cache: Dict[int, Dict[int, str]] = {}
        self._cfg_cache: Dict[int, ControlFlowGraph] = {}
        self._def_cache: Dict[int, Dict[str, ir.Value]] = {}

    # -- per-method analysis -------------------------------------------------

    def _analyze(self, method: JavaMethod) -> None:
        if id(method) in self._feasible_cache:
            return
        cfg = build_cfg(method)
        analysis = df.ConstantPropagation(static_oracle=self.static_oracle)
        result = df.run_analysis(cfg, analysis)
        self._feasible_cache[id(method)] = result.reached
        self._verdict_cache[id(method)] = dict(analysis.branch_verdicts)
        self._cfg_cache[id(method)] = cfg
        sites: List[Tuple[int, ir.InvokeExpr]] = []
        for block in cfg.blocks:
            for stmt in block.statements:
                invoke = stmt.invoke_expr()
                if invoke is not None:
                    sites.append((block.index, invoke))
        self._site_cache[id(method)] = sites

    def _temp_defs(self, caller: JavaMethod) -> Dict[str, ir.Value]:
        """Locals assigned exactly once in ``caller`` -> their rhs, so a
        3-addr temp like ``$cmp2`` can be displayed as the comparison it
        names rather than as an opaque variable."""
        cached = self._def_cache.get(id(caller))
        if cached is not None:
            return cached
        counts: Dict[str, int] = {}
        rhs_by_name: Dict[str, ir.Value] = {}
        for block in self._cfg_cache[id(caller)].blocks:
            for stmt in block.statements:
                if isinstance(stmt, ir.AssignStmt) and isinstance(
                    stmt.target, ir.Local
                ):
                    counts[stmt.target.name] = counts.get(stmt.target.name, 0) + 1
                    rhs_by_name[stmt.target.name] = stmt.rhs
        defs = {name: rhs for name, rhs in rhs_by_name.items() if counts[name] == 1}
        self._def_cache[id(caller)] = defs
        return defs

    def _render_value(
        self, value: ir.Value, defs: Dict[str, ir.Value], depth: int = 4
    ) -> str:
        if depth > 0 and isinstance(value, ir.Local) and value.name in defs:
            return self._render_value(defs[value.name], defs, depth - 1)
        if depth > 0 and isinstance(value, ir.BinOpExpr):
            left = self._render_value(value.left, defs, depth - 1)
            right = self._render_value(value.right, defs, depth - 1)
            return f"{left} {value.op} {right}"
        return str(value)

    def _render_guard(self, caller: JavaMethod) -> str:
        """Describe the folded guard(s) that killed blocks in ``caller``:
        the guard condition (temps resolved to the field/constant they
        load), its source line, and the decided verdict."""
        cfg = self._cfg_cache[id(caller)]
        defs = self._temp_defs(caller)
        parts: List[str] = []
        for block_index in sorted(self._verdict_cache[id(caller)]):
            verdict = self._verdict_cache[id(caller)][block_index]
            guard = cfg.blocks[block_index].last
            where = f" (line {guard.line})" if guard.line else ""
            if isinstance(guard, ir.IfStmt):
                cond = self._render_value(guard.cond, defs)
                parts.append(f"'if {cond}'{where} is {verdict}")
            else:
                parts.append(f"guard in block {block_index}{where} is {verdict}")
        return "; ".join(parts) if parts else "block is CFG-unreachable"

    def _hop_refutation(
        self, caller: JavaMethod, callee_name: str, callee_arity: int
    ) -> Optional[str]:
        """Detail string iff every matching call site in ``caller`` is
        infeasible; ``None`` keeps the hop (conservative default)."""
        self._analyze(caller)
        feasible = self._feasible_cache[id(caller)]
        matching = [
            block_index
            for block_index, invoke in self._site_cache[id(caller)]
            if invoke.method_name == callee_name and invoke.arity == callee_arity
        ]
        if not matching:
            return None  # conservative: cannot see the hop, keep it
        if any(block_index in feasible for block_index in matching):
            return None
        sites = "site" if len(matching) == 1 else "sites"
        return (
            f"all {len(matching)} matching call {sites} "
            f"(block {', '.join(str(b) for b in sorted(set(matching)))}) are "
            f"statically infeasible: {self._render_guard(caller)}"
        )

    # -- chain refinement -----------------------------------------------------

    def chain_refutation(self, chain: GadgetChain) -> Optional[RefutationReason]:
        """The reason some CALL hop of ``chain`` is provably dead, if any."""
        for step_index, (step, next_step) in enumerate(
            zip(chain.steps, chain.steps[1:])
        ):
            if step.edge_to_next != "CALL":
                continue  # ALIAS hops have no call site to judge
            caller_cls = self.hierarchy.get(step.class_name)
            if caller_cls is None:
                continue
            caller = caller_cls.find_method(step.method_name, step.arity)
            if caller is None or not caller.has_body:
                continue
            detail = self._hop_refutation(
                caller, next_step.method_name, next_step.arity
            )
            if detail is not None:
                return RefutationReason(
                    kind="constant-guard",
                    step_index=step_index,
                    caller=step.qualified,
                    callee=next_step.qualified,
                    detail=detail,
                )
        return None
