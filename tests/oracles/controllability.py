"""Reference engine for Algorithm 1: the interpretive walk.

This is the controllability analysis as it stood before
:mod:`repro.core.controllability` compiled method bodies into plans.  It
re-walks each body statement by statement, rebuilds the CFG on every
walk, and composes callee Actions through string-keyed ``calc`` and
``_correct`` over a syntactic localMap.  It is kept only as the
differential oracle of ``tests/core/test_controllability_equivalence.py``:
the compiled engine must reproduce its records, ``recursive_methods`` and
``cycle_tainted`` exactly.

It carries one fix relative to that original walk, applied to both
engines: static fields live in a map of their own, so a local whose name
is a package root (``org``) no longer owns ``org.demo.Flags.slot``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import AnalysisError
from repro.core.actions import (
    UNCONTROLLABLE_WEIGHT,
    Action,
    Origin,
    THIS,
    UNCTRL,
    calc,
    join,
    param,
)
from repro.core.controllability import CallSite, MethodSummary
from repro.jvm import ir
from repro.jvm.cfg import build_cfg
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaMethod

__all__ = ["ControllabilityAnalysis"]


class _LocalMap:
    """The localMap of Algorithm 1: variable and field origins.

    Keys are syntactic, exactly as in Figure 5(c): local names
    (``a2``), field paths (``a.b``) and array contents (``a.[]``).
    Static paths (``some.Class.flag``) live in ``statics``, apart from
    the ``<local>.`` prefix scans.
    """

    def __init__(self) -> None:
        self.vars: Dict[str, Origin] = {}
        self.fields: Dict[str, Origin] = {}  # "<local>.<field>" keys
        self.statics: Dict[str, Origin] = {}  # "<class>.<field>" keys

    def get_var(self, name: str) -> Origin:
        return self.vars.get(name, UNCTRL)

    def set_var(self, name: str, origin: Origin) -> None:
        self.vars[name] = origin

    def kill_fields_of(self, name: str) -> None:
        """A rebound local no longer aliases its old field entries."""
        prefix = name + "."
        for key in [k for k in self.fields if k.startswith(prefix)]:
            del self.fields[key]

    def copy_fields(self, src: str, dst: str) -> None:
        prefix = src + "."
        for key, origin in list(self.fields.items()):
            if key.startswith(prefix):
                self.fields[dst + "." + key[len(prefix) :]] = origin

    def get_field(self, base: str, fieldname: str, base_origin: Origin) -> Origin:
        """``a = b.f``: a tracked entry wins, otherwise derive from the
        base origin (a field of attacker data is attacker data)."""
        tracked = self.fields.get(f"{base}.{fieldname}")
        if tracked is not None:
            return tracked
        return base_origin.with_field(fieldname)

    def set_field(self, base: str, fieldname: str, origin: Origin) -> None:
        self.fields[f"{base}.{fieldname}"] = origin

    def fields_of(self, base: str) -> Dict[str, Origin]:
        prefix = base + "."
        return {
            key[len(prefix) :]: origin
            for key, origin in self.fields.items()
            if key.startswith(prefix)
        }


class ControllabilityAnalysis:
    """Runs Algorithm 1 over all methods of a class hierarchy."""

    def __init__(
        self,
        hierarchy: ClassHierarchy,
        max_recursion_depth: int = 64,
    ):
        self.hierarchy = hierarchy
        self.max_recursion_depth = max_recursion_depth
        self._summaries: Dict[str, MethodSummary] = {}
        #: the active doMethodAnalysis chain, outermost root first
        self._in_progress: List[str] = []
        self._in_progress_set: Set[str] = set()
        #: keys of the current chain that consumed a provisional
        #: (cycle-breaking) summary; cleared when the root completes
        self._tainted: Set[str] = set()
        #: per-root memo of tainted nested results — consulted so one
        #: root analysis never re-analyses the same cycle member twice;
        #: cleared when the root completes (never survives across roots)
        self._provisional: Dict[str, MethodSummary] = {}
        #: methods whose analysis hit the recursion guard (diagnostics)
        self.recursive_methods: Set[str] = set()
        #: methods whose *memoised* summary depended on cycle breaking;
        #: these are root-final but not safe to persist across builds
        self.cycle_tainted: Set[str] = set()

    # -- public API -------------------------------------------------------

    @staticmethod
    def method_order(methods: Iterable[JavaMethod]) -> List[JavaMethod]:
        """The canonical analysis order: sorted by full signature."""
        return sorted(methods, key=lambda m: m.signature.signature)

    def analyze_all(self) -> Dict[str, MethodSummary]:
        """Analyse every method with a body; returns summaries keyed by
        full signature string, in sorted key order."""
        return self.analyze_methods(self.hierarchy.all_methods())

    def analyze_methods(
        self, methods: Iterable[JavaMethod]
    ) -> Dict[str, MethodSummary]:
        """Analyse the given methods (plus anything they transitively
        require) in canonical order; returns *all* memoised summaries in
        sorted key order."""
        for method in self.method_order(methods):
            if method.has_body:
                self.summary_for(method)
        return {key: self._summaries[key] for key in sorted(self._summaries)}

    def seed_summaries(self, summaries: Iterable[MethodSummary]) -> None:
        """Install externally computed root-final summaries (from the
        on-disk cache or an earlier incremental build) into the memo
        table.  Seeded values must be root-final — i.e. produced by this
        class — or the determinism contract breaks."""
        for summary in summaries:
            self._summaries[summary.method.signature.signature] = summary

    def summary_for(self, method: JavaMethod) -> MethodSummary:
        """doMethodAnalysis with memoisation (the Action cache)."""
        key = method.signature.signature
        nested = bool(self._in_progress)
        cached = self._summaries.get(key)
        if cached is not None and not (nested and key in self.cycle_tainted):
            # Clean finals are pure values, safe to return anywhere; a
            # cycle-tainted final is only returned at root level — a
            # nested caller must re-derive the cycle member under *its*
            # root's chain, or the root's value would depend on whether
            # the partner happened to be finalised first.
            return cached
        if nested:
            provisional = self._provisional.get(key)
            if provisional is not None:
                # chain-dependent value: everything on the chain becomes
                # provisional too
                self._tainted.update(self._in_progress)
                return provisional
        if (
            key in self._in_progress_set
            or len(self._in_progress) > self.max_recursion_depth
        ):
            # recursion cycle (or pathological depth): conservative
            # identity summary.  Everything currently on the chain now
            # depends on a provisional value, so none of those frames
            # may be memoised except the root itself.
            self.recursive_methods.add(key)
            self._tainted.update(self._in_progress)
            self._tainted.add(key)
            return MethodSummary(
                method, Action.identity(method.arity, not method.is_static)
            )
        if not method.has_body:
            return MethodSummary(method, self._phantom_action(method))
        is_root = not nested
        self._in_progress.append(key)
        self._in_progress_set.add(key)
        try:
            summary = self._do_method_analysis(method)
        finally:
            self._in_progress.pop()
            self._in_progress_set.discard(key)
        if key not in self._tainted:
            # clean: equal to the root analysis of this method, safe to
            # memoise regardless of where in the chain it was computed
            self._summaries[key] = summary
        elif is_root:
            # the root analysis *defines* the final value for a method
            # in a recursion cycle; memoise it but flag it non-persistable
            self._summaries[key] = summary
            self.cycle_tainted.add(key)
        else:
            # provisional nested result: reusable for the rest of this
            # root analysis, then discarded — the method is re-analysed
            # when visited as its own root
            self._provisional[key] = summary
        if is_root:
            self._tainted.clear()
            self._provisional.clear()
        return summary

    # -- phantom / body-less methods ----------------------------------------

    def _phantom_action(self, method: JavaMethod) -> Action:
        """Summary for abstract/native/undefined methods: parameters are
        unchanged and the return value is assumed to derive from the
        receiver when one exists, else from the first parameter.  This
        is the paper's bias for unknown library code — without a body,
        taint is assumed to pass through (§III-C notes the opposite
        default in GadgetInspector/Serianalyzer *for analysed code*
        causes false positives; for truly unknown code there is no
        better option than pass-through)."""
        action = Action.identity(method.arity, not method.is_static)
        if not method.is_static:
            action.mapping["return"] = "this"
        elif method.arity >= 1:
            action.mapping["return"] = "init-param-1"
        return action

    # -- Algorithm 1 ---------------------------------------------------------

    def _do_method_analysis(self, method: JavaMethod) -> MethodSummary:
        cfg = build_cfg(method)
        local_map = _LocalMap()
        summary = MethodSummary(method, Action())
        param_locals: Dict[int, str] = {}
        this_local: Optional[str] = None
        return_origins: List[Origin] = []

        for stmt in cfg.linearized_statements():
            if isinstance(stmt, ir.IdentityStmt):
                if isinstance(stmt.ref, ir.ThisRef):
                    this_local = stmt.local.name
                    local_map.set_var(stmt.local.name, THIS)
                else:
                    param_locals[stmt.ref.index] = stmt.local.name
                    local_map.set_var(stmt.local.name, param(stmt.ref.index))
            elif isinstance(stmt, ir.ReturnStmt):
                if stmt.value is not None:
                    return_origins.append(self._value_origin(stmt.value, local_map))
            elif stmt.invoke_expr() is not None:
                self._do_call_analysis(stmt, local_map, summary)
            elif isinstance(stmt, ir.AssignStmt):
                self._do_assign_stmt_analysis(stmt, local_map)
            # if/goto/switch/throw/nop do not move data

        self._extract_action(
            summary, local_map, this_local, param_locals, return_origins, method
        )
        return summary

    # -- doAssignStmtAnalysis: Table IV transfer rules --------------------------

    def _value_origin(self, value: ir.Value, local_map: _LocalMap) -> Origin:
        if isinstance(value, ir.Local):
            return local_map.get_var(value.name)
        if isinstance(value, ir.InstanceFieldRef):
            base_origin = local_map.get_var(value.base.name)
            return local_map.get_field(value.base.name, value.field_name, base_origin)
        if isinstance(value, ir.StaticFieldRef):
            # Table IV: Class.field -> a; only a same-body store makes it
            # controllable, otherwise static state is not attacker data.
            return local_map.statics.get(
                f"{value.class_name}.{value.field_name}", UNCTRL
            )
        if isinstance(value, ir.ArrayRef):
            base_origin = local_map.get_var(value.base.name)
            return local_map.get_field(value.base.name, "[]", base_origin)
        if isinstance(value, ir.CastExpr):
            return self._value_origin(value.op, local_map)
        if isinstance(value, ir.BinOpExpr):
            return join(
                self._value_origin(value.left, local_map),
                self._value_origin(value.right, local_map),
            )
        if isinstance(value, (ir.NewExpr, ir.NewArrayExpr, ir.InstanceOfExpr)):
            return UNCTRL
        if isinstance(value, ir.Constant):
            return UNCTRL
        if isinstance(value, (ir.ThisRef,)):
            return THIS
        if isinstance(value, ir.ParamRef):
            return param(value.index)
        raise AnalysisError(f"cannot compute origin of {value!r}")

    def _do_assign_stmt_analysis(
        self, stmt: ir.AssignStmt, local_map: _LocalMap
    ) -> None:
        origin = self._value_origin(stmt.rhs, local_map)
        target = stmt.target
        if isinstance(target, ir.Local):
            local_map.set_var(target.name, origin)
            local_map.kill_fields_of(target.name)
            if isinstance(stmt.rhs, ir.Local):
                local_map.copy_fields(stmt.rhs.name, target.name)
        elif isinstance(target, ir.InstanceFieldRef):
            local_map.set_field(target.base.name, target.field_name, origin)
        elif isinstance(target, ir.StaticFieldRef):
            local_map.statics[f"{target.class_name}.{target.field_name}"] = origin
        elif isinstance(target, ir.ArrayRef):
            existing = local_map.fields.get(f"{target.base.name}.[]", UNCTRL)
            local_map.set_field(target.base.name, "[]", join(existing, origin))

    # -- interprocedural step ------------------------------------------------------

    def _do_call_analysis(
        self, stmt: ir.Statement, local_map: _LocalMap, summary: MethodSummary
    ) -> None:
        invoke = stmt.invoke_expr()
        assert invoke is not None

        # Polluted_Position: receiver weight then argument weights.
        if invoke.base is None:
            base_origin = UNCTRL
            base_name: Optional[str] = None
        else:
            base_origin = self._value_origin(invoke.base, local_map)
            base_name = invoke.base.name if isinstance(invoke.base, ir.Local) else None
        arg_origins = [self._value_origin(a, local_map) for a in invoke.args]
        pp = [base_origin.weight] + [o.weight for o in arg_origins]
        pruned = all(w == UNCONTROLLABLE_WEIGHT for w in pp)
        # Even when every top-level position is ∞, a tracked *field* of
        # the receiver or an argument may be controllable (the Figure 5
        # localMap keeps a.b: 2 while a itself is ∞); the interprocedural
        # composition must still run then, or getter results lose taint.
        compose = not pruned
        if not compose:
            operands = [invoke.base] + list(invoke.args)
            for operand in operands:
                if isinstance(operand, ir.Local) and any(
                    origin.is_controllable
                    for origin in local_map.fields_of(operand.name).values()
                ):
                    compose = True
                    break

        resolved: Optional[JavaMethod] = None
        if invoke.kind != ir.InvokeKind.DYNAMIC:
            resolved = self.hierarchy.resolve_method(
                invoke.class_name, invoke.method_name, invoke.arity
            )

        site = CallSite(
            caller=summary.method,
            kind=invoke.kind,
            callee_class=invoke.class_name,
            callee_name=invoke.method_name,
            arity=invoke.arity,
            polluted_position=pp,
            resolved=resolved,
            pruned=pruned,
            site_index=len(summary.call_sites),
        )
        summary.call_sites.append(site)

        result_origin = UNCTRL
        if compose:
            # Interprocedural composition (calc + correct).
            if resolved is not None and resolved.has_body:
                callee_summary = self.summary_for(resolved)
                action = callee_summary.action
            elif resolved is not None:
                action = self._phantom_action(resolved)
            else:
                # Phantom callee: synthesise from the invocation shape.
                action = self._phantom_invoke_action(invoke)
            inputs = self._build_inputs(
                invoke, base_origin, base_name, arg_origins, local_map
            )
            out = calc(action, inputs)
            self._correct(local_map, out, invoke, base_name)
            result_origin = out.get("return", UNCTRL)

        if isinstance(stmt, ir.AssignStmt) and isinstance(stmt.target, ir.Local):
            local_map.set_var(stmt.target.name, result_origin)
            local_map.kill_fields_of(stmt.target.name)

    def _phantom_invoke_action(self, invoke: ir.InvokeExpr) -> Action:
        has_this = invoke.base is not None
        action = Action.identity(invoke.arity, has_this)
        if has_this:
            action.mapping["return"] = "this"
        elif invoke.arity >= 1:
            action.mapping["return"] = "init-param-1"
        return action

    def _build_inputs(
        self,
        invoke: ir.InvokeExpr,
        base_origin: Origin,
        base_name: Optional[str],
        arg_origins: Sequence[Origin],
        local_map: _LocalMap,
    ) -> Dict[str, Origin]:
        """The ``in`` map of Figure 5(d): callee initial frame -> caller
        origins, including tracked field entries."""
        inputs: Dict[str, Origin] = {"this": base_origin}
        if base_name is not None:
            for fieldname, origin in local_map.fields_of(base_name).items():
                inputs[f"this.{fieldname}"] = origin
        for i, origin in enumerate(arg_origins, start=1):
            inputs[f"init-param-{i}"] = origin
            arg = invoke.args[i - 1]
            if isinstance(arg, ir.Local):
                for fieldname, forigin in local_map.fields_of(arg.name).items():
                    inputs[f"init-param-{i}.{fieldname}"] = forigin
        return inputs

    def _correct(
        self,
        local_map: _LocalMap,
        out: Dict[str, Origin],
        invoke: ir.InvokeExpr,
        base_name: Optional[str],
    ) -> None:
        """Formula 3: fold the callee's final-frame origins back into the
        caller's localMap entries for the receiver and argument locals."""
        for key, origin in out.items():
            if key == "return":
                continue
            head, _, fieldname = key.partition(".")
            if head == "this":
                target = base_name
            elif head.startswith("final-param-"):
                index = int(head[len("final-param-") :])
                if index > len(invoke.args):
                    continue
                arg = invoke.args[index - 1]
                target = arg.name if isinstance(arg, ir.Local) else None
            else:
                continue
            if target is None:
                continue
            if fieldname:
                local_map.set_field(target, fieldname, origin)
            else:
                local_map.set_var(target, origin)

    # -- Action extraction -------------------------------------------------------

    def _extract_action(
        self,
        summary: MethodSummary,
        local_map: _LocalMap,
        this_local: Optional[str],
        param_locals: Dict[int, str],
        return_origins: List[Origin],
        method: JavaMethod,
    ) -> None:
        action = summary.action
        if this_local is not None:
            action.set("this", local_map.get_var(this_local))
            for fieldname, origin in local_map.fields_of(this_local).items():
                action.set(f"this.{fieldname}", origin)
        for index, local in param_locals.items():
            action.set(f"final-param-{index}", local_map.get_var(local))
            for fieldname, origin in local_map.fields_of(local).items():
                action.set(f"final-param-{index}.{fieldname}", origin)
        if return_origins:
            merged = return_origins[0]
            for origin in return_origins[1:]:
                merged = join(merged, origin)
            action.set("return", merged)
        elif not method.return_type.is_void:
            action.set("return", UNCTRL)
