"""Variable controllability analysis — Algorithm 1 of the paper.

For every method the analysis walks the method's CFG in reverse
post-order and tracks, per variable, *where its current value
originates* (the Origin lattice of :mod:`repro.core.actions`).  The
walk implements ``doAssignStmtAnalysis`` (the transfer rules of
Table IV) and, at method-call statements, the interprocedural step:

1. compute the call's **Polluted_Position** from the origins of the
   receiver and arguments (Figure 5(c)),
2. recursively obtain the callee's **Action** summary
   (``doMethodAnalysis``, memoised — "the Action property also serves
   as a caching mechanism"),
3. ``out = calc(Action, in)`` (Formula 2) and fold ``out`` back into
   the caller's localMap (``correct``, Formula 3).

Call sites whose PP is all-``∞`` are *pruned* — they can never carry
attacker data, so the Precise Call Graph drops them (this is the MCG →
PCG step of §III-B2 and the path-explosion mitigation of §III-C).

Determinism contract
--------------------

Every memoised summary is a *root-final* value: the result of analysing
its method with a fresh recursion chain, which makes it a pure function
of (method body, class hierarchy) alone.  Summaries whose computation
had to break a recursion cycle (or hit the depth guard) while *nested*
under another root are provisional — they are kept only for the
duration of the current root analysis (so dense recursion clusters stay
polynomial instead of exponential) and the method is re-analysed as its
own root later.  Two rules keep root values order-independent:

* consuming a provisional value taints every frame on the active chain,
  so nothing downstream of a cycle break is ever memoised as clean;
* a *nested* lookup never returns a cycle-tainted final — the callee is
  re-analysed provisionally instead.  A root's value therefore never
  depends on whether a cycle partner happened to be finalised first,
  which is exactly the property that lets the seeded summaries of
  :mod:`repro.core.summary_cache` and :mod:`repro.core.incremental`
  reproduce a cold build bit for bit.

Methods whose root-final summary depended on cycle breaking are
recorded in :attr:`ControllabilityAnalysis.cycle_tainted`; the on-disk
cache refuses to persist them.  The depth guard
(``max_recursion_depth``) is a backstop against pathologically deep
*acyclic* chains; if it ever fires on one, order-independence degrades
to best-effort for the affected methods (cycles are always exact).

Compiled walk
-------------

The contract re-walks every member of a recursion cluster under every
root of that cluster, so one body may be walked dozens of times per
analysis.  The walk is therefore compiled once and replayed:

* each body is lowered into a :class:`_Plan`: its statements in CFG
  reverse post-order as flat op tuples that carry operand local names,
  the resolved callee and the callee's signature key;
* each callee Action is compiled into positional (target, source) pairs
  (:func:`_compile_action`), so composing it parses no strings and
  builds no ``in`` map;
* a cycle-break identity summary is one object per method, and call
  sites skip composing it: it hands every operand its own current
  origin back and returns ``null``, so composing it changes nothing;
* the localMap is one field map per local plus a separate map of static
  fields, so ``org.demo.Flags.slot`` never reads as a field of a local
  named ``org``.

Plans and compiled Actions live on the analysis instance, which is bound
to one hierarchy; an edited body is analysed by a new instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import AnalysisError
from repro.core.actions import (
    UNCONTROLLABLE_WEIGHT,
    Action,
    Origin,
    THIS,
    UNCTRL,
    join,
    param,
)
from repro.jvm import ir
from repro.jvm.cfg import build_cfg
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaMethod

__all__ = ["CallSite", "MethodSummary", "ControllabilityAnalysis"]


@dataclass
class CallSite:
    """One method-call statement with its controllability details."""

    caller: JavaMethod
    kind: str
    callee_class: str
    callee_name: str
    arity: int
    #: PP[0] = receiver weight (∞ for static calls), PP[i] = argument i
    polluted_position: List[int]
    #: statically resolved callee, when the hierarchy knows one
    resolved: Optional[JavaMethod]
    #: True when every PP entry is ∞ — dropped from the PCG
    pruned: bool
    #: order of appearance inside the caller body (for chain reporting)
    site_index: int = 0

    @property
    def callee_key(self) -> Tuple[str, str, int]:
        return (self.callee_class, self.callee_name, self.arity)

    def __repr__(self) -> str:
        state = "pruned" if self.pruned else "live"
        return (
            f"<CallSite {self.caller.class_name}.{self.caller.name} -> "
            f"{self.callee_class}.{self.callee_name}/{self.arity} "
            f"PP={self.polluted_position} {state}>"
        )


@dataclass
class MethodSummary:
    """Analysis output for one method."""

    method: JavaMethod
    action: Action
    call_sites: List[CallSite] = field(default_factory=list)

    @property
    def live_call_sites(self) -> List[CallSite]:
        return [c for c in self.call_sites if not c.pruned]


# -- operand specs: how a plan reads the origin of an IR value ---------------
#
# A localMap is three dicts: ``vars`` (local -> origin), ``fields``
# (local -> {field -> origin}, array contents under ``[]``) and
# ``statics`` (``Class.field`` -> origin).

_LOCAL, _FIELD, _STATIC, _CONST, _JOIN, _UNKNOWN = range(6)


def _lower_value(value: ir.Value) -> tuple:
    """The origin spec of ``value`` (the right-hand sides of Table IV)."""
    if isinstance(value, ir.Local):
        return (_LOCAL, value.name)
    if isinstance(value, ir.InstanceFieldRef):
        return (_FIELD, value.base.name, value.field_name)
    if isinstance(value, ir.StaticFieldRef):
        # Table IV: Class.field -> a; only a same-body store makes it
        # controllable, otherwise static state is not attacker data.
        return (_STATIC, f"{value.class_name}.{value.field_name}")
    if isinstance(value, ir.ArrayRef):
        return (_FIELD, value.base.name, "[]")
    if isinstance(value, ir.CastExpr):
        return _lower_value(value.op)
    if isinstance(value, ir.BinOpExpr):
        return (_JOIN, _lower_value(value.left), _lower_value(value.right))
    if isinstance(
        value, (ir.NewExpr, ir.NewArrayExpr, ir.InstanceOfExpr, ir.Constant)
    ):
        return (_CONST, UNCTRL)
    if isinstance(value, ir.ThisRef):
        return (_CONST, THIS)
    if isinstance(value, ir.ParamRef):
        return (_CONST, param(value.index))
    return (_UNKNOWN, value)


def _origin(spec: tuple, vars: dict, fields: dict, statics: dict) -> Origin:
    code = spec[0]
    if code == _LOCAL:
        return vars.get(spec[1], UNCTRL)
    if code == _FIELD:
        # a tracked entry wins, otherwise derive from the base origin
        # (a field of attacker data is attacker data)
        tracked = fields.get(spec[1])
        if tracked is not None:
            origin = tracked.get(spec[2])
            if origin is not None:
                return origin
        return vars.get(spec[1], UNCTRL).with_field(spec[2])
    if code == _CONST:
        return spec[1]
    if code == _STATIC:
        return statics.get(spec[1], UNCTRL)
    if code == _JOIN:
        return join(
            _origin(spec[1], vars, fields, statics),
            _origin(spec[2], vars, fields, statics),
        )
    raise AnalysisError(f"cannot compute origin of {spec[1]!r}")


# -- compiled Actions ------------------------------------------------------------

#: ``(writes, ret)``: see :func:`_compile_action`
CompiledAction = Tuple[Tuple[tuple, ...], Optional[Tuple[Optional[int], Optional[str]]]]


def _compile_source(value: str) -> Tuple[Optional[int], Optional[str]]:
    """An Action value as ``(operand, field)``: operand 0 is the
    receiver, ``i`` argument ``i``, None the constant ``null``; field is
    None for the operand itself."""
    if value == "null":
        return (None, None)
    head, dot, fieldname = value.partition(".")
    if head == "this":
        position: Optional[int] = 0
    else:
        try:
            index = int(head[len("init-param-") :])
        except ValueError:
            index = 0
        position = index if index >= 1 and head == f"init-param-{index}" else None
    return (position, fieldname if dot else None)


def _compile_action(mapping: Dict[str, str]) -> CompiledAction:
    """Formula 2 and 3 for one callee Action, in positional form.

    ``writes`` are ``(target, tfield, source, sfield)`` in mapping
    order: target None is the receiver and ``i`` argument ``i``;
    ``(source, sfield)`` is a :func:`_compile_source` pair.  ``ret`` is
    the source of ``return``.  When every write hands an operand its own
    origin back — identity and phantom Actions — the writes cancel out
    and are dropped.
    """
    writes = []
    ret = None
    for key, value in mapping.items():
        source = _compile_source(value)
        if key == "return":
            ret = source
            continue
        head, _, fieldname = key.partition(".")
        if head == "this":
            target: Optional[int] = None
        elif head.startswith("final-param-"):
            target = int(head[len("final-param-") :])
        else:
            continue
        writes.append((target, fieldname or None) + source)
    if all(
        tfield is None
        and sfield is None
        and (source == 0 if target is None else target == source != 0)
        for target, tfield, source, sfield in writes
    ):
        writes = []
    return tuple(writes), ret


def _source(
    position: Optional[int],
    fieldname: Optional[str],
    base_origin: Origin,
    base_name: Optional[str],
    arg_origins: List[Origin],
    arg_names: Tuple[Optional[str], ...],
    fields: dict,
) -> Origin:
    """The caller origin a compiled Action value reads (``calc``)."""
    if position is None:
        return UNCTRL
    if position == 0:
        origin, name = base_origin, base_name
    elif position <= len(arg_origins):
        origin, name = arg_origins[position - 1], arg_names[position - 1]
    else:
        return UNCTRL
    if fieldname is None:
        return origin
    if name is not None:
        tracked = fields.get(name)
        if tracked is not None:
            found = tracked.get(fieldname)
            if found is not None:
                return found
    # depth-1 sensitivity: a field of the operand's origin
    return origin.with_field(fieldname) if fieldname else UNCTRL


# -- plans -----------------------------------------------------------------------

# op codes; every op is a tuple headed by its code
_BIND, _RETURN, _CALL, _COPY, _ASSIGN, _STORE_FIELD, _STORE_STATIC, _STORE_ARRAY = range(8)


class _Call:
    """A lowered call statement."""

    __slots__ = (
        "kind",
        "callee_class",
        "callee_name",
        "arity",
        "base",
        "base_name",
        "args",
        "arg_names",
        "operand_locals",
        "plain",
        "resolved",
        "callee_key",
        "fixed",
        "result",
    )


class _Plan:
    """A method body lowered for replay."""

    __slots__ = ("method", "ops", "this_local", "param_keys", "returns_value")

    def __init__(self, method, ops, this_local, param_keys, returns_value):
        self.method = method
        self.ops = ops
        self.this_local = this_local
        #: ``(final-param-i, local)`` in first-binding order
        self.param_keys = param_keys
        self.returns_value = returns_value


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
        #: length of the chain prefix already added to ``_tainted``
        self._taint_mark = 0
        #: per-root memo of tainted nested results — consulted so one
        #: root analysis never re-analyses the same cycle member twice;
        #: cleared when the root completes (never survives across roots)
        self._provisional: Dict[str, MethodSummary] = {}
        #: lowered bodies of methods that may be walked again
        self._plans: Dict[str, _Plan] = {}
        #: the compiled form of the last summary composed per callee
        self._compiled: Dict[str, Tuple[MethodSummary, CompiledAction]] = {}
        #: the cycle-break identity summary per method
        self._breaks: Dict[str, MethodSummary] = {}
        self._phantoms: Dict[Tuple[int, bool], CompiledAction] = {}
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
        keyed = [(m.signature.signature, m) for m in methods if m.has_body]
        keyed.sort(key=lambda pair: pair[0])
        for key, method in keyed:
            self._summary(method, key)
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
        return self._summary(method, method.signature.signature)

    def _summary(self, method: JavaMethod, key: str) -> MethodSummary:
        chain = self._in_progress
        nested = bool(chain)
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
                self._taint_chain()
                return provisional
        if key in self._in_progress_set or len(chain) > self.max_recursion_depth:
            # recursion cycle (or pathological depth): conservative
            # identity summary.  Everything currently on the chain now
            # depends on a provisional value, so none of those frames
            # may be memoised except the root itself.
            self.recursive_methods.add(key)
            self._taint_chain()
            self._tainted.add(key)
            summary = self._breaks.get(key)
            if summary is None or summary.method is not method:
                summary = MethodSummary(
                    method, Action.identity(method.arity, not method.is_static)
                )
                self._breaks[key] = summary
            return summary
        if not method.has_body:
            return MethodSummary(
                method, self._phantom_action(method.arity, not method.is_static)
            )
        is_root = not nested
        chain.append(key)
        self._in_progress_set.add(key)
        try:
            summary = self._walk(method, key)
        finally:
            chain.pop()
            self._in_progress_set.discard(key)
            if self._taint_mark > len(chain):
                self._taint_mark = len(chain)
        if key not in self._tainted:
            # clean: equal to the root analysis of this method, safe to
            # memoise regardless of where in the chain it was computed;
            # it is never walked again
            self._summaries[key] = summary
            self._plans.pop(key, None)
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

    def _taint_chain(self) -> None:
        """Add every frame of the active chain to ``_tainted``."""
        chain = self._in_progress
        if self._taint_mark < len(chain):
            self._tainted.update(chain[self._taint_mark :])
            self._taint_mark = len(chain)

    # -- phantom / body-less methods ----------------------------------------

    @staticmethod
    def _phantom_action(arity: int, has_this: bool) -> Action:
        """Summary for abstract/native/undefined methods: parameters are
        unchanged and the return value is assumed to derive from the
        receiver when one exists, else from the first parameter.  This
        is the paper's bias for unknown library code — without a body,
        taint is assumed to pass through (§III-C notes the opposite
        default in GadgetInspector/Serianalyzer *for analysed code*
        causes false positives; for truly unknown code there is no
        better option than pass-through)."""
        action = Action.identity(arity, has_this)
        if has_this:
            action.mapping["return"] = "this"
        elif arity >= 1:
            action.mapping["return"] = "init-param-1"
        return action

    def _phantom(self, arity: int, has_this: bool) -> CompiledAction:
        compiled = self._phantoms.get((arity, has_this))
        if compiled is None:
            compiled = _compile_action(self._phantom_action(arity, has_this).mapping)
            self._phantoms[(arity, has_this)] = compiled
        return compiled

    # -- lowering --------------------------------------------------------------

    def _lower(self, method: JavaMethod) -> _Plan:
        ops: List[tuple] = []
        this_local: Optional[str] = None
        param_locals: Dict[int, str] = {}
        for stmt in build_cfg(method).linearized_statements():
            if isinstance(stmt, ir.IdentityStmt):
                name = stmt.local.name
                if isinstance(stmt.ref, ir.ThisRef):
                    this_local = name
                    ops.append((_BIND, name, THIS))
                else:
                    param_locals[stmt.ref.index] = name
                    ops.append((_BIND, name, param(stmt.ref.index)))
            elif isinstance(stmt, ir.ReturnStmt):
                if stmt.value is not None:
                    ops.append((_RETURN, _lower_value(stmt.value)))
            elif stmt.invoke_expr() is not None:
                ops.append((_CALL, self._lower_call(stmt)))
            elif isinstance(stmt, ir.AssignStmt):
                ops.append(self._lower_assign(stmt))
            # if/goto/switch/throw/nop do not move data
        return _Plan(
            method,
            tuple(ops),
            this_local,
            tuple((f"final-param-{i}", name) for i, name in param_locals.items()),
            not method.return_type.is_void,
        )

    @staticmethod
    def _lower_assign(stmt: ir.AssignStmt) -> tuple:
        """doAssignStmtAnalysis: the Table IV transfer rules."""
        target, rhs = stmt.target, stmt.rhs
        if isinstance(target, ir.Local):
            if isinstance(rhs, ir.Local):
                return (_COPY, target.name, rhs.name)
            return (_ASSIGN, target.name, _lower_value(rhs))
        spec = _lower_value(rhs)
        if isinstance(target, ir.InstanceFieldRef):
            return (_STORE_FIELD, target.base.name, target.field_name, spec)
        if isinstance(target, ir.StaticFieldRef):
            return (_STORE_STATIC, f"{target.class_name}.{target.field_name}", spec)
        return (_STORE_ARRAY, target.base.name, spec)

    def _lower_call(self, stmt: ir.Statement) -> _Call:
        invoke = stmt.invoke_expr()
        assert invoke is not None
        call = _Call()
        call.kind = invoke.kind
        call.callee_class = invoke.class_name
        call.callee_name = invoke.method_name
        call.arity = invoke.arity
        base = invoke.base
        call.base = None if base is None else _lower_value(base)
        call.base_name = base.name if isinstance(base, ir.Local) else None
        call.args = tuple(_lower_value(a) for a in invoke.args)
        call.arg_names = tuple(
            a.name if isinstance(a, ir.Local) else None for a in invoke.args
        )
        call.operand_locals = tuple(
            o.name for o in (base,) + invoke.args if isinstance(o, ir.Local)
        )
        # receiver and arguments are all plain locals (or no receiver)
        call.plain = (base is None or isinstance(base, ir.Local)) and all(
            isinstance(a, ir.Local) for a in invoke.args
        )
        resolved: Optional[JavaMethod] = None
        if invoke.kind != ir.InvokeKind.DYNAMIC:
            resolved = self.hierarchy.resolve_method(
                invoke.class_name, invoke.method_name, invoke.arity
            )
        call.resolved = resolved
        call.callee_key = None
        call.fixed = None
        if resolved is not None and resolved.has_body:
            call.callee_key = resolved.signature.signature
        elif resolved is not None:
            call.fixed = self._phantom(resolved.arity, not resolved.is_static)
        else:
            # phantom callee: synthesise from the invocation shape
            call.fixed = self._phantom(invoke.arity, base is not None)
        call.result = None
        if isinstance(stmt, ir.AssignStmt) and isinstance(stmt.target, ir.Local):
            call.result = stmt.target.name
        return call

    # -- Algorithm 1 ---------------------------------------------------------

    def _walk(self, method: JavaMethod, key: str) -> MethodSummary:
        plan = self._plans.get(key)
        if plan is None or plan.method is not method:
            plan = self._plans[key] = self._lower(method)
        vars: Dict[str, Origin] = {}
        fields: Dict[str, Dict[str, Origin]] = {}
        statics: Dict[str, Origin] = {}
        returns: List[Origin] = []
        summary = MethodSummary(method, Action())
        for op in plan.ops:
            code = op[0]
            if code == _CALL:
                self._call(op[1], summary, vars, fields, statics)
            elif code == _BIND:
                vars[op[1]] = op[2]
            elif code == _COPY:
                # a rebound local no longer aliases its old field
                # entries; a copy takes over the source's
                target = op[1]
                vars[target] = vars.get(op[2], UNCTRL)
                fields.pop(target, None)
                copied = fields.get(op[2])
                if copied:
                    fields[target] = dict(copied)
            elif code == _ASSIGN:
                vars[op[1]] = _origin(op[2], vars, fields, statics)
                fields.pop(op[1], None)
            elif code == _STORE_FIELD:
                origin = _origin(op[3], vars, fields, statics)
                tracked = fields.get(op[1])
                if tracked is None:
                    fields[op[1]] = {op[2]: origin}
                else:
                    tracked[op[2]] = origin
            elif code == _STORE_STATIC:
                statics[op[1]] = _origin(op[2], vars, fields, statics)
            elif code == _STORE_ARRAY:
                origin = _origin(op[2], vars, fields, statics)
                tracked = fields.get(op[1])
                if tracked is None:
                    fields[op[1]] = {"[]": origin}
                else:
                    tracked["[]"] = join(tracked.get("[]", UNCTRL), origin)
            else:  # _RETURN
                returns.append(_origin(op[1], vars, fields, statics))
        self._extract_action(plan, summary.action, vars, fields, returns)
        return summary

    # -- interprocedural step ------------------------------------------------------

    def _call(
        self,
        call: _Call,
        summary: MethodSummary,
        vars: dict,
        fields: dict,
        statics: dict,
    ) -> None:
        # Polluted_Position: receiver weight then argument weights.
        if call.plain:
            get = vars.get
            base_name = call.base_name
            base_origin = UNCTRL if base_name is None else get(base_name, UNCTRL)
            arg_origins = []
            for name in call.arg_names:
                arg_origins.append(get(name, UNCTRL))
        else:
            base = call.base
            base_origin = (
                UNCTRL if base is None else _origin(base, vars, fields, statics)
            )
            arg_origins = [_origin(spec, vars, fields, statics) for spec in call.args]
        pp = [base_origin.weight]
        for origin in arg_origins:
            pp.append(origin.weight)
        pruned = pp.count(UNCONTROLLABLE_WEIGHT) == len(pp)
        # Even when every top-level position is ∞, a tracked *field* of
        # the receiver or an argument may be controllable (the Figure 5
        # localMap keeps a.b: 2 while a itself is ∞); the interprocedural
        # composition must still run then, or getter results lose taint.
        compose = not pruned
        if not compose:
            for name in call.operand_locals:
                tracked = fields.get(name)
                if tracked and any(o.kind != "unctrl" for o in tracked.values()):
                    compose = True
                    break

        sites = summary.call_sites
        sites.append(
            CallSite(
                summary.method,
                call.kind,
                call.callee_class,
                call.callee_name,
                call.arity,
                pp,
                call.resolved,
                pruned,
                len(sites),
            )
        )

        result = UNCTRL
        if compose:
            # Interprocedural composition (calc + correct).
            key = call.callee_key
            if key is None:
                compiled: Optional[CompiledAction] = call.fixed
            else:
                callee = self._summary(call.resolved, key)
                if callee is self._breaks.get(key):
                    compiled = None  # composes to no change and ``null``
                else:
                    entry = self._compiled.get(key)
                    if entry is None or entry[0] is not callee:
                        entry = (callee, _compile_action(callee.action.mapping))
                        self._compiled[key] = entry
                    compiled = entry[1]
            if compiled is not None:
                result = self._compose(
                    compiled, call, base_origin, arg_origins, vars, fields
                )

        if call.result is not None:
            vars[call.result] = result
            fields.pop(call.result, None)

    @staticmethod
    def _compose(
        compiled: CompiledAction,
        call: _Call,
        base_origin: Origin,
        arg_origins: List[Origin],
        vars: dict,
        fields: dict,
    ) -> Origin:
        """Formula 2 then Formula 3: read every source from the pre-call
        localMap, then fold the callee's final-frame origins back into
        the receiver and argument locals.  Returns the ``return`` origin."""
        writes, ret = compiled
        base_name, arg_names = call.base_name, call.arg_names
        result = UNCTRL
        if ret is not None:
            result = _source(
                ret[0], ret[1], base_origin, base_name, arg_origins, arg_names, fields
            )
        if not writes:
            return result
        out = [
            (
                target,
                tfield,
                _source(
                    source, sfield, base_origin, base_name, arg_origins, arg_names, fields
                ),
            )
            for target, tfield, source, sfield in writes
        ]
        nargs = len(arg_names)
        for target, tfield, origin in out:
            if target is None:
                name = base_name
            elif target > nargs:
                continue
            else:
                name = arg_names[target - 1]
            if name is None:
                continue
            if tfield is None:
                vars[name] = origin
            else:
                tracked = fields.get(name)
                if tracked is None:
                    fields[name] = {tfield: origin}
                else:
                    tracked[tfield] = origin
        return result

    # -- Action extraction -------------------------------------------------------

    @staticmethod
    def _extract_action(
        plan: _Plan,
        action: Action,
        vars: dict,
        fields: dict,
        returns: List[Origin],
    ) -> None:
        mapping = action.mapping
        this_local = plan.this_local
        if this_local is not None:
            mapping["this"] = vars.get(this_local, UNCTRL).action_value()
            for name, origin in fields.get(this_local, {}).items():
                mapping[f"this.{name}"] = origin.action_value()
        for key, local in plan.param_keys:
            mapping[key] = vars.get(local, UNCTRL).action_value()
            for name, origin in fields.get(local, {}).items():
                mapping[f"{key}.{name}"] = origin.action_value()
        if returns:
            merged = returns[0]
            for origin in returns[1:]:
                merged = join(merged, origin)
            mapping["return"] = merged.action_value()
        elif plan.returns_value:
            mapping["return"] = UNCTRL.action_value()
