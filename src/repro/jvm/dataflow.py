"""Generic lattice-based dataflow over per-method control-flow graphs.

The controllability analysis (:mod:`repro.core.controllability`,
Algorithm 1) is a bespoke single-purpose pass.  This module is the
general substrate next to it: a classic forward/backward worklist
engine over :class:`repro.jvm.cfg.ControlFlowGraph` with per-statement
transfer functions, a join operator, and deterministic fixpoint
iteration in reverse-post-order (forward) or post-order (backward).

Four concrete analyses ship with the engine:

* :class:`ReachingDefinitions` — which (local, site) definitions reach
  each program point (forward, may, union join);
* :class:`Liveness` — which locals are live at each point (backward,
  may, union join);
* :class:`Nullness` — combined definite-assignment + nullness facts per
  local (forward, must on assignment, may on nullness);
* :class:`ConstantPropagation` — sparse conditional constant
  propagation: per-local constant lattice *plus* branch feasibility.
  The engine only propagates along edges the analysis declares
  feasible (:meth:`DataflowAnalysis.feasible_successors`), so blocks
  guarded by statically-false conditions stay unreached — the fact the
  lint guard rules and the opt-in ``--refine guards`` chain refinement
  are built on.

Backward analyses and the missing-exit blind spot
-------------------------------------------------

``ControlFlowGraph.exit_blocks`` is empty for a method that ends in an
infinite ``goto`` loop (no block lacks successors).  A backward engine
seeded only from exit blocks would never visit such a method at all.
This engine therefore adopts a *virtual exit* convention: every block
is seeded into the backward worklist (in post-order), and the boundary
state is applied to blocks without successors when there are any.
Blocks inside an infinite loop start from the analysis bottom and rise
to the fixpoint, so liveness over ``while(true)`` bodies terminates
with correct facts.  See ``tests/jvm/test_dataflow.py`` for the
regression test.

Determinism
-----------

Fact maps are a pure function of the method body: the worklist is a
priority queue ordered by (iteration-order position, block index),
joins fold predecessor/successor contributions in CFG construction
order, and no iteration touches unordered containers.  Two runs over
the same method produce identical results (asserted by tests).
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.jvm import ir
from repro.jvm.cfg import BasicBlock, ControlFlowGraph
from repro.jvm.model import JavaClass

__all__ = [
    "FORWARD",
    "BACKWARD",
    "DataflowAnalysis",
    "DataflowResult",
    "run_analysis",
    "statement_def",
    "statement_uses",
    "ReachingDefinitions",
    "Liveness",
    "Nullness",
    "NullnessFact",
    "ConstantPropagation",
    "NONCONST",
    "const_int",
    "const_str",
    "const_null",
    "constant_static_fields",
]

FORWARD = "forward"
BACKWARD = "backward"


# ---------------------------------------------------------------------------
# Statement use/def helpers (shared by liveness, lint, nullness)
# ---------------------------------------------------------------------------


def statement_def(stmt: ir.Statement) -> Optional[str]:
    """Name of the local defined by ``stmt``, if any."""
    if isinstance(stmt, ir.IdentityStmt):
        return stmt.local.name
    if isinstance(stmt, ir.AssignStmt) and isinstance(stmt.target, ir.Local):
        return stmt.target.name
    return None


def statement_uses(stmt: ir.Statement) -> Tuple[str, ...]:
    """Names of the locals read by ``stmt``, in evaluation order."""
    used: List[ir.Local] = []
    if isinstance(stmt, ir.AssignStmt):
        if not isinstance(stmt.target, ir.Local):
            used.extend(stmt.target.locals_used())
        used.extend(stmt.rhs.locals_used())
    elif isinstance(stmt, ir.InvokeStmt):
        used.extend(stmt.expr.locals_used())
    elif isinstance(stmt, ir.ReturnStmt):
        if stmt.value is not None:
            used.extend(stmt.value.locals_used())
    elif isinstance(stmt, ir.IfStmt):
        used.extend(stmt.cond.locals_used())
    elif isinstance(stmt, ir.SwitchStmt):
        used.extend(stmt.key.locals_used())
    elif isinstance(stmt, ir.ThrowStmt):
        used.extend(stmt.value.locals_used())
    # IdentityStmt, GotoStmt, NopStmt read no locals.
    return tuple(local.name for local in used)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class DataflowAnalysis:
    """Base class of a dataflow analysis.

    Subclasses set :attr:`direction` and implement the lattice hooks.
    States must be treated as immutable: :meth:`transfer` returns a new
    state and never mutates its argument.
    """

    direction = FORWARD

    def prepare(self, cfg: ControlFlowGraph) -> None:
        """Called once before the fixpoint loop; build per-CFG indexes."""

    def bottom(self, cfg: ControlFlowGraph) -> Any:
        """The lattice bottom — the state of a not-yet-reached block."""
        raise NotImplementedError

    def boundary(self, cfg: ControlFlowGraph) -> Any:
        """State at the method entry (forward) or exits (backward)."""
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def transfer(self, stmt: ir.Statement, state: Any) -> Any:
        """Flow ``state`` across one statement.

        Forward: ``state`` holds *before* the statement, the result
        holds *after*.  Backward: ``state`` holds *after* (in program
        order), the result holds *before*.
        """
        raise NotImplementedError

    def feasible_successors(
        self, block: BasicBlock, out_state: Any
    ) -> List[BasicBlock]:
        """Successors reachable from ``block`` given its out-state.

        Forward-only hook; the default declares every CFG edge
        feasible.  Implementations must be monotone: an edge declared
        feasible for some state stays feasible for any higher state.
        """
        return list(block.successors)


class DataflowResult:
    """Fixpoint facts for one method.

    ``block_in``/``block_out`` map block index to the state at block
    entry/exit *in program order* for both directions (for a backward
    analysis ``block_out`` is the join over successor entry states).
    ``reached`` holds the indexes of blocks the fixpoint visited; for a
    conditional analysis, blocks missing from it are statically
    infeasible (or CFG-unreachable).
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        analysis: DataflowAnalysis,
        block_in: Dict[int, Any],
        block_out: Dict[int, Any],
        reached: FrozenSet[int],
    ):
        self.cfg = cfg
        self.analysis = analysis
        self.block_in = block_in
        self.block_out = block_out
        self.reached = reached

    def statement_states(
        self, block: BasicBlock
    ) -> List[Tuple[ir.Statement, Any, Any]]:
        """Per-statement ``(stmt, state_before, state_after)`` triples.

        Both states are in program order regardless of direction: for a
        backward analysis ``state_after`` is the fact that flows *into*
        the statement from below.
        """
        analysis = self.analysis
        if analysis.direction == FORWARD:
            state = self.block_in[block.index]
            out: List[Tuple[ir.Statement, Any, Any]] = []
            for stmt in block.statements:
                after = analysis.transfer(stmt, state)
                out.append((stmt, state, after))
                state = after
            return out
        state = self.block_out[block.index]
        rev: List[Tuple[ir.Statement, Any, Any]] = []
        for stmt in reversed(block.statements):
            before = analysis.transfer(stmt, state)
            rev.append((stmt, before, state))
            state = before
        rev.reverse()
        return rev


def run_analysis(cfg: ControlFlowGraph, analysis: DataflowAnalysis) -> DataflowResult:
    """Run ``analysis`` to fixpoint over ``cfg``."""
    if not cfg.blocks:
        return DataflowResult(cfg, analysis, {}, {}, frozenset())
    analysis.prepare(cfg)
    if analysis.direction == FORWARD:
        return _run_forward(cfg, analysis)
    return _run_backward(cfg, analysis)


class _Worklist:
    """Priority worklist: pops the pending block earliest in ``order``."""

    def __init__(self, order: Sequence[BasicBlock]):
        self._priority = {b.index: i for i, b in enumerate(order)}
        self._heap: List[Tuple[int, int]] = []
        self._pending: Set[int] = set()

    def push(self, block: BasicBlock) -> None:
        if block.index not in self._pending:
            self._pending.add(block.index)
            heapq.heappush(self._heap, (self._priority[block.index], block.index))

    def pop(self) -> int:
        _, index = heapq.heappop(self._heap)
        self._pending.discard(index)
        return index

    def __bool__(self) -> bool:
        return bool(self._heap)


def _run_forward(cfg: ControlFlowGraph, analysis: DataflowAnalysis) -> DataflowResult:
    blocks = cfg.blocks
    bottom = analysis.bottom(cfg)
    block_in: Dict[int, Any] = {b.index: bottom for b in blocks}
    block_out: Dict[int, Any] = {b.index: bottom for b in blocks}
    # Feasible successor indexes discovered so far, per block.
    feasible: Dict[int, FrozenSet[int]] = {b.index: frozenset() for b in blocks}
    reached: Set[int] = set()

    worklist = _Worklist(cfg.reverse_post_order())
    entry = cfg.entry
    assert entry is not None
    worklist.push(entry)

    while worklist:
        index = worklist.pop()
        block = blocks[index]
        contributions: List[Any] = []
        if block is entry:
            contributions.append(analysis.boundary(cfg))
        for pred in block.predecessors:
            if pred.index in reached and index in feasible[pred.index]:
                contributions.append(block_out[pred.index])
        # Fold without seeding from bottom: for a must-analysis (e.g.
        # Nullness) bottom is not a join identity, and joining it in
        # would wrongly demote every incoming fact.
        if contributions:
            state = contributions[0]
            for contribution in contributions[1:]:
                state = analysis.join(state, contribution)
        else:
            state = bottom
        first_visit = index not in reached
        reached.add(index)
        block_in[index] = state
        for stmt in block.statements:
            state = analysis.transfer(stmt, state)
        new_feasible = frozenset(
            succ.index for succ in analysis.feasible_successors(block, state)
        )
        changed = (
            first_visit
            or state != block_out[index]
            or new_feasible != feasible[index]
        )
        block_out[index] = state
        feasible[index] = new_feasible
        if changed:
            for succ in block.successors:
                if succ.index in new_feasible:
                    worklist.push(succ)

    return DataflowResult(cfg, analysis, block_in, block_out, frozenset(reached))


def _run_backward(cfg: ControlFlowGraph, analysis: DataflowAnalysis) -> DataflowResult:
    blocks = cfg.blocks
    bottom = analysis.bottom(cfg)
    boundary = analysis.boundary(cfg)
    block_in: Dict[int, Any] = {b.index: bottom for b in blocks}
    block_out: Dict[int, Any] = {b.index: bottom for b in blocks}

    # Post-order seeding of *every* block implements the virtual-exit
    # convention: methods ending in an infinite goto loop have no
    # natural exit blocks, yet each block still gets (at least) one
    # visit and the loop rises from bottom to its fixpoint.
    order = list(reversed(cfg.reverse_post_order()))
    worklist = _Worklist(order)
    for block in order:
        worklist.push(block)

    visited: Set[int] = set()
    while worklist:
        index = worklist.pop()
        block = blocks[index]
        if block.successors:
            state = block_in[block.successors[0].index]
            for succ in block.successors[1:]:
                state = analysis.join(state, block_in[succ.index])
        else:
            state = boundary
        first_visit = index not in visited
        visited.add(index)
        block_out[index] = state
        for stmt in reversed(block.statements):
            state = analysis.transfer(stmt, state)
        changed = first_visit or state != block_in[index]
        block_in[index] = state
        if changed:
            for pred in block.predecessors:
                worklist.push(pred)

    return DataflowResult(
        cfg, analysis, block_in, block_out, frozenset(b.index for b in blocks)
    )


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


class ReachingDefinitions(DataflowAnalysis):
    """May-reach definition sites.

    A state is a frozenset of ``(local_name, block_index, offset)``
    triples — the definitions that may reach a program point.  Join is
    set union.
    """

    direction = FORWARD

    def prepare(self, cfg: ControlFlowGraph) -> None:
        self._site: Dict[int, Tuple[int, int]] = {}
        for block in cfg.blocks:
            for offset, stmt in enumerate(block.statements):
                self._site[id(stmt)] = (block.index, offset)

    def bottom(self, cfg: ControlFlowGraph) -> FrozenSet[Tuple[str, int, int]]:
        return frozenset()

    def boundary(self, cfg: ControlFlowGraph) -> FrozenSet[Tuple[str, int, int]]:
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, stmt, state):
        defined = statement_def(stmt)
        if defined is None:
            return state
        block_index, offset = self._site[id(stmt)]
        return frozenset(
            d for d in state if d[0] != defined
        ) | {(defined, block_index, offset)}


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


class Liveness(DataflowAnalysis):
    """Live locals (backward, union join).

    States are frozensets of local names live at a point.  Thanks to
    the virtual-exit convention the fixpoint also terminates on
    methods whose CFG has no exit blocks (infinite goto loop).
    """

    direction = BACKWARD

    def bottom(self, cfg: ControlFlowGraph) -> FrozenSet[str]:
        return frozenset()

    def boundary(self, cfg: ControlFlowGraph) -> FrozenSet[str]:
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, stmt, state):
        defined = statement_def(stmt)
        if defined is not None:
            state = state - {defined}
        uses = statement_uses(stmt)
        if uses:
            state = state | frozenset(uses)
        return state


# ---------------------------------------------------------------------------
# Nullness / definite assignment
# ---------------------------------------------------------------------------


class NullnessFact:
    """Per-local fact: definitely-assigned bit plus a nullness tag."""

    NULL = "null"
    NONNULL = "nonnull"
    MAYBE = "maybe"

    __slots__ = ("definite", "nullness")

    def __init__(self, definite: bool, nullness: str):
        self.definite = definite
        self.nullness = nullness

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NullnessFact)
            and other.definite == self.definite
            and other.nullness == self.nullness
        )

    def __hash__(self) -> int:
        return hash((self.definite, self.nullness))

    def __repr__(self) -> str:
        tag = "definite" if self.definite else "partial"
        return f"<NullnessFact {tag} {self.nullness}>"


class Nullness(DataflowAnalysis):
    """Definite assignment + nullness, per local.

    A state maps local name → :class:`NullnessFact`; a name missing
    from the state was assigned on *no* path to the point.  A fact with
    ``definite=False`` was assigned on some but not all paths — reading
    it is the ``use-before-init`` lint condition.
    """

    direction = FORWARD

    def bottom(self, cfg: ControlFlowGraph) -> Dict[str, NullnessFact]:
        return {}

    def boundary(self, cfg: ControlFlowGraph) -> Dict[str, NullnessFact]:
        return {}

    def join(self, a, b):
        out: Dict[str, NullnessFact] = {}
        for name in sorted(set(a) | set(b)):
            fa = a.get(name)
            fb = b.get(name)
            if fa is None or fb is None:
                present = fa if fa is not None else fb
                assert present is not None
                out[name] = NullnessFact(False, present.nullness)
            else:
                nullness = (
                    fa.nullness
                    if fa.nullness == fb.nullness
                    else NullnessFact.MAYBE
                )
                out[name] = NullnessFact(fa.definite and fb.definite, nullness)
        return out

    def _rhs_nullness(self, rhs: ir.Value, state: Dict[str, NullnessFact]) -> str:
        if isinstance(rhs, ir.NullConst):
            return NullnessFact.NULL
        if isinstance(
            rhs,
            (
                ir.NewExpr,
                ir.NewArrayExpr,
                ir.StringConst,
                ir.IntConst,
                ir.ClassConst,
                ir.BinOpExpr,
                ir.InstanceOfExpr,
            ),
        ):
            return NullnessFact.NONNULL
        if isinstance(rhs, ir.CastExpr):
            return self._rhs_nullness(rhs.op, state)
        if isinstance(rhs, ir.Local):
            fact = state.get(rhs.name)
            return fact.nullness if fact is not None else NullnessFact.MAYBE
        # Field/array loads, invokes, @this/@param: unknown.
        return NullnessFact.MAYBE

    def transfer(self, stmt, state):
        if isinstance(stmt, ir.IdentityStmt):
            nullness = (
                NullnessFact.NONNULL
                if isinstance(stmt.ref, ir.ThisRef)
                else NullnessFact.MAYBE
            )
            out = dict(state)
            out[stmt.local.name] = NullnessFact(True, nullness)
            return out
        if isinstance(stmt, ir.AssignStmt) and isinstance(stmt.target, ir.Local):
            out = dict(state)
            out[stmt.target.name] = NullnessFact(
                True, self._rhs_nullness(stmt.rhs, state)
            )
            return out
        return state


# ---------------------------------------------------------------------------
# Conditional constant propagation
# ---------------------------------------------------------------------------

class _NonConst:
    """Singleton lattice bottom for constant values."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NONCONST"


NONCONST = _NonConst()

# Constant lattice values are ("int", v) / ("str", v) / ("null",) /
# ("class", name) tuples; the optimistic top (UNDEF) is represented by
# *absence* from the state map, so states only store facts.


def const_int(value: int) -> Tuple[str, int]:
    return ("int", int(value))


def const_str(value: str) -> Tuple[str, str]:
    return ("str", value)


def const_null() -> Tuple[str, ...]:
    return ("null",)


def _truthy(value: Any) -> Optional[bool]:
    """Truth of a constant used as a branch condition (int-like only)."""
    if isinstance(value, tuple) and value[0] == "int":
        return value[1] != 0
    return None


def _fold_binop(op: str, left: Any, right: Any) -> Any:
    """Fold a binary operator over two constant-lattice values.

    ``None`` operands mean UNDEF (optimistically unknown): the result
    stays UNDEF unless the other operand already forces NONCONST.
    """
    if left is NONCONST or right is NONCONST:
        return NONCONST
    if left is None or right is None:
        return None
    if op in ("==", "!="):
        comparable = (
            left[0] == right[0]
            or {left[0], right[0]} <= {"null", "str", "class"}
        )
        if not comparable:
            return NONCONST
        equal = left == right
        return const_int(1 if (equal if op == "==" else not equal) else 0)
    if left[0] != "int" or right[0] != "int":
        return NONCONST
    a, b = left[1], right[1]
    if op == "+":
        return const_int(a + b)
    if op == "-":
        return const_int(a - b)
    if op == "*":
        return const_int(a * b)
    if op == "/":
        if b == 0:
            return NONCONST
        return const_int(int(a / b))  # Java truncates toward zero
    if op == "%":
        if b == 0:
            return NONCONST
        return const_int(a - int(a / b) * b)
    if op == "<":
        return const_int(1 if a < b else 0)
    if op == "<=":
        return const_int(1 if a <= b else 0)
    if op == ">":
        return const_int(1 if a > b else 0)
    if op == ">=":
        return const_int(1 if a >= b else 0)
    if op == "&":
        return const_int(a & b)
    if op == "|":
        return const_int(a | b)
    if op == "^":
        return const_int(a ^ b)
    return NONCONST


def constant_static_fields(
    classes: Iterable[JavaClass],
) -> Dict[Tuple[str, str], Any]:
    """Static fields provably stuck at their JVM default value.

    A static field is *constant-default* iff its owning class has no
    static initializer and no statement in any analyzed body stores to
    it.  Such a field can only ever hold its default (0 for integral
    primitives, null for references) — the oracle behind the
    guard-feasibility rules.  Fields of classes with a ``<clinit>`` are
    excluded wholesale since the initializer may write them indirectly.
    """
    class_list = list(classes)
    candidates: Dict[Tuple[str, str], Any] = {}
    for cls in class_list:
        has_clinit = any(m.is_static_initializer for m in cls.methods.values())
        if has_clinit:
            continue
        for field in cls.fields.values():
            if not field.is_static:
                continue
            type_name = field.type.name
            if type_name in ("int", "boolean", "byte", "short", "char", "long"):
                candidates[(cls.name, field.name)] = const_int(0)
            elif type_name in ("float", "double"):
                continue  # no float constants in the IR; stay unknown
            else:
                candidates[(cls.name, field.name)] = const_null()
    if not candidates:
        return candidates
    for cls in class_list:
        for method in cls.methods.values():
            for stmt in method.body:
                if isinstance(stmt, ir.AssignStmt) and isinstance(
                    stmt.target, ir.StaticFieldRef
                ):
                    candidates.pop(
                        (stmt.target.class_name, stmt.target.field_name), None
                    )
    return candidates


class ConstantPropagation(DataflowAnalysis):
    """Sparse conditional constant propagation with branch feasibility.

    States map local name → constant value or :data:`NONCONST`; a
    missing name is optimistically unknown (UNDEF).  The
    :meth:`feasible_successors` hook folds branches whose condition (or
    switch key) evaluates to a constant, so the engine never propagates
    into statically-dead arms; :attr:`branch_verdicts` records an
    ``always-true``/``always-false`` verdict per folded ``if`` block.

    ``static_oracle`` maps ``(class_name, field_name)`` to the constant
    value of provably never-written static fields (see
    :func:`constant_static_fields`); without an oracle, static loads
    are NONCONST.
    """

    direction = FORWARD

    def __init__(self, static_oracle: Optional[Dict[Tuple[str, str], Any]] = None):
        self.static_oracle = static_oracle or {}
        #: block index of a folded IfStmt -> "always-true"/"always-false"
        self.branch_verdicts: Dict[int, str] = {}

    def prepare(self, cfg: ControlFlowGraph) -> None:
        self.branch_verdicts = {}
        self._label_block: Dict[str, BasicBlock] = {}
        for block in cfg.blocks:
            for stmt in block.statements:
                if stmt.label is not None:
                    self._label_block[stmt.label] = block
        self._cfg = cfg

    def bottom(self, cfg: ControlFlowGraph) -> Dict[str, Any]:
        return {}

    def boundary(self, cfg: ControlFlowGraph) -> Dict[str, Any]:
        return {}

    def join(self, a, b):
        out: Dict[str, Any] = {}
        for name in sorted(set(a) | set(b)):
            va = a.get(name)
            vb = b.get(name)
            if va is None:
                out[name] = vb
            elif vb is None:
                out[name] = va
            elif va == vb:
                out[name] = va
            else:
                out[name] = NONCONST
        return out

    def eval_value(self, value: ir.Value, state: Dict[str, Any]) -> Any:
        """Constant-lattice value of ``value`` in ``state``.

        Returns a constant tuple, :data:`NONCONST`, or ``None`` for
        UNDEF (optimistically unknown).
        """
        if isinstance(value, ir.Local):
            return state.get(value.name)
        if isinstance(value, ir.IntConst):
            return const_int(value.value)
        if isinstance(value, ir.StringConst):
            return const_str(value.value)
        if isinstance(value, ir.NullConst):
            return const_null()
        if isinstance(value, ir.ClassConst):
            return ("class", value.class_name)
        if isinstance(value, ir.StaticFieldRef):
            key = (value.class_name, value.field_name)
            return self.static_oracle.get(key, NONCONST)
        if isinstance(value, ir.CastExpr):
            return self.eval_value(value.op, state)
        if isinstance(value, ir.BinOpExpr):
            return _fold_binop(
                value.op,
                self.eval_value(value.left, state),
                self.eval_value(value.right, state),
            )
        # Field/array loads, invokes, allocations, instanceof, @this/@param.
        return NONCONST

    def transfer(self, stmt, state):
        if isinstance(stmt, ir.IdentityStmt):
            out = dict(state)
            out[stmt.local.name] = NONCONST
            return out
        if isinstance(stmt, ir.AssignStmt) and isinstance(stmt.target, ir.Local):
            value = self.eval_value(stmt.rhs, state)
            out = dict(state)
            if value is None:
                out.pop(stmt.target.name, None)
            else:
                out[stmt.target.name] = value
            return out
        return state

    def feasible_successors(self, block, out_state):
        last = block.statements[-1] if block.statements else None
        if isinstance(last, ir.IfStmt):
            truth = _truthy(self.eval_value(last.cond, out_state))
            if truth is None:
                self.branch_verdicts.pop(block.index, None)
                return list(block.successors)
            target = self._label_block.get(last.target)
            fallthrough = (
                self._cfg.blocks[block.index + 1]
                if block.index + 1 < len(self._cfg.blocks)
                else None
            )
            if truth:
                self.branch_verdicts[block.index] = "always-true"
                return [target] if target is not None else []
            self.branch_verdicts[block.index] = "always-false"
            return [fallthrough] if fallthrough is not None else []
        if isinstance(last, ir.SwitchStmt):
            key = self.eval_value(last.key, out_state)
            if isinstance(key, tuple) and key[0] == "int":
                label = last.default
                for case_value, case_label in last.cases:
                    if case_value == key[1]:
                        label = case_label
                        break
                target = self._label_block.get(label)
                return [target] if target is not None else []
            return list(block.successors)
        return list(block.successors)
