"""Cypher-subset query language over :class:`PropertyGraph`.

Security researchers re-query Tabby's CPG in Neo4j with Cypher (paper
§II-B, §IV-F); this module provides the matching capability.  Supported
surface::

    MATCH (m:Method {IS_SINK: true})<-[c:CALL]-(n:Method)
    WHERE n.NAME = 'readObject' AND m.SUBSIGNATURE CONTAINS 'exec'
    RETURN DISTINCT n.CLASSNAME AS cls, count(*) AS calls
    ORDER BY calls DESC, cls
    SKIP 1 LIMIT 10

* ``MATCH`` with multiple comma-separated linear patterns (shared
  variables join them), node labels, inline property maps, relationship
  types with ``|`` alternation, both directions, and variable-length
  hops ``-[:CALL*1..3]->``.
* ``WHERE`` with ``AND``/``OR``/``NOT``, comparisons
  (``= <> < <= > >=``), ``IN`` lists, ``CONTAINS`` / ``STARTS WITH`` /
  ``ENDS WITH``, and ``exists(x.prop)``.
* ``RETURN`` of variables, properties, literals, ``count(*)`` /
  ``count(expr)`` / ``count(DISTINCT expr)``, with ``AS`` aliases,
  ``DISTINCT``, ``ORDER BY ... [ASC|DESC]``, ``SKIP`` and ``LIMIT``.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import QueryExecutionError, QuerySyntaxError
from repro.graphdb.graph import Node, PropertyGraph, Relationship

__all__ = ["run_query", "QueryResult", "parse_query", "jsonable_row"]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "match", "where", "return", "distinct", "order", "by", "limit", "skip",
    "and", "or", "not", "as", "in", "contains", "starts", "ends", "with",
    "exists", "true", "false", "null", "asc", "desc", "count",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")
  | (?P<float>-?\d+\.\d+)
  | (?P<int>-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|<>|<-|->|\.\.|[()\[\]{},:.|*=<>-])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover
        return f"_Token({self.kind}, {self.text!r})"


def _lex(source: str) -> List[_Token]:
    out: List[_Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup or ""
        text = m.group()
        if kind != "ws":
            if kind == "name" and text.lower() in _KEYWORDS:
                kind = "kw"
                text = text.lower()
            out.append(_Token(kind, text, pos))
        pos = m.end()
    out.append(_Token("eof", "", pos))
    return out


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class NodePattern:
    def __init__(self, var: Optional[str], labels: List[str], props: Dict[str, Any]):
        self.var = var
        self.labels = labels
        self.props = props


class RelPattern:
    def __init__(
        self,
        var: Optional[str],
        types: List[str],
        direction: str,  # 'out' | 'in' | 'both'
        min_hops: int = 1,
        max_hops: Optional[int] = 1,
    ):
        self.var = var
        self.types = types
        self.direction = direction
        self.min_hops = min_hops
        self.max_hops = max_hops

    @property
    def is_var_length(self) -> bool:
        return not (self.min_hops == 1 and self.max_hops == 1)


class PatternPath:
    def __init__(self, nodes: List[NodePattern], rels: List[RelPattern]):
        self.nodes = nodes
        self.rels = rels


# Expressions are (kind, payload) tuples evaluated against a binding dict:
#   ('lit', value) ('var', name) ('prop', var, key)
#   ('count_all',) ('count', expr, distinct)
Expr = Tuple


class ReturnItem:
    def __init__(self, expr: Expr, alias: str):
        self.expr = expr
        self.alias = alias

    @property
    def is_aggregate(self) -> bool:
        return self.expr[0] in ("count_all", "count")


class Query:
    def __init__(
        self,
        patterns: List[PatternPath],
        where: Optional[Expr],
        items: List[ReturnItem],
        distinct: bool,
        order_by: List[Tuple[Expr, bool]],
        skip: int,
        limit: Optional[int],
    ):
        self.patterns = patterns
        self.where = where
        self.items = items
        self.distinct = distinct
        self.order_by = order_by
        self.skip = skip
        self.limit = limit


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self._tokens = _lex(source)
        self._pos = 0

    def _peek(self, offset: int = 0) -> _Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        tok = self._peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self._next()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self._next()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise QuerySyntaxError(
                f"expected {text or kind!r}, got {tok.text!r}", tok.pos
            )
        return tok

    # -- entry ---------------------------------------------------------------

    def parse(self) -> Query:
        self._expect("kw", "match")
        patterns = [self._pattern()]
        while self._accept("op", ","):
            patterns.append(self._pattern())
        where = None
        if self._accept("kw", "where"):
            where = self._or_expr()
        self._expect("kw", "return")
        distinct = bool(self._accept("kw", "distinct"))
        items = [self._return_item()]
        while self._accept("op", ","):
            items.append(self._return_item())
        order_by: List[Tuple[Expr, bool]] = []
        if self._accept("kw", "order"):
            self._expect("kw", "by")
            order_by.append(self._order_item())
            while self._accept("op", ","):
                order_by.append(self._order_item())
        skip = 0
        if self._accept("kw", "skip"):
            skip = int(self._expect("int").text)
        limit = None
        if self._accept("kw", "limit"):
            limit = int(self._expect("int").text)
        self._expect("eof")
        return Query(patterns, where, items, distinct, order_by, skip, limit)

    # -- patterns ----------------------------------------------------------------

    def _pattern(self) -> PatternPath:
        nodes = [self._node_pattern()]
        rels: List[RelPattern] = []
        while self._peek().kind == "op" and self._peek().text in ("-", "<-"):
            rels.append(self._rel_pattern())
            nodes.append(self._node_pattern())
        return PatternPath(nodes, rels)

    def _node_pattern(self) -> NodePattern:
        self._expect("op", "(")
        var = None
        tok = self._peek()
        if tok.kind == "name":
            var = self._next().text
        labels: List[str] = []
        while self._accept("op", ":"):
            labels.append(self._expect("name").text)
        props: Dict[str, Any] = {}
        if self._accept("op", "{"):
            while not self._accept("op", "}"):
                key = self._expect("name").text
                self._expect("op", ":")
                props[key] = self._literal()
                self._accept("op", ",")
        self._expect("op", ")")
        return NodePattern(var, labels, props)

    def _rel_pattern(self) -> RelPattern:
        direction = "both"
        lead = self._next()
        if lead.text == "<-":
            direction = "in"
        elif lead.text != "-":
            raise QuerySyntaxError(f"bad relationship syntax {lead.text!r}", lead.pos)
        var = None
        types: List[str] = []
        min_hops, max_hops = 1, 1
        if self._accept("op", "["):
            tok = self._peek()
            if tok.kind == "name":
                var = self._next().text
            while self._accept("op", ":"):
                types.append(self._expect("name").text)
                while self._accept("op", "|"):
                    self._accept("op", ":")
                    types.append(self._expect("name").text)
            if self._accept("op", "*"):
                min_hops, max_hops = 1, None
                if self._peek().kind == "int":
                    min_hops = int(self._next().text)
                    max_hops = min_hops
                    if self._accept("op", ".."):
                        if self._peek().kind == "int":
                            max_hops = int(self._next().text)
                        else:
                            max_hops = None
                elif self._accept("op", ".."):
                    if self._peek().kind == "int":
                        max_hops = int(self._next().text)
            self._expect("op", "]")
        tail = self._next()
        if tail.text == "->":
            if direction == "in":
                raise QuerySyntaxError("relationship has two arrowheads", tail.pos)
            direction = "out"
        elif tail.text != "-":
            raise QuerySyntaxError(f"bad relationship syntax {tail.text!r}", tail.pos)
        return RelPattern(var, types, direction, min_hops, max_hops)

    # -- expressions ------------------------------------------------------------

    def _literal(self) -> Any:
        tok = self._next()
        if tok.kind == "string":
            body = tok.text[1:-1]
            return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")
        if tok.kind == "int":
            return int(tok.text)
        if tok.kind == "float":
            return float(tok.text)
        if tok.kind == "kw" and tok.text == "true":
            return True
        if tok.kind == "kw" and tok.text == "false":
            return False
        if tok.kind == "kw" and tok.text == "null":
            return None
        raise QuerySyntaxError(f"expected a literal, got {tok.text!r}", tok.pos)

    def _value_expr(self) -> Expr:
        tok = self._peek()
        if tok.kind == "kw" and tok.text == "count":
            self._next()
            self._expect("op", "(")
            if self._accept("op", "*"):
                self._expect("op", ")")
                return ("count_all",)
            distinct = bool(self._accept("kw", "distinct"))
            inner = self._value_expr()
            self._expect("op", ")")
            return ("count", inner, distinct)
        if tok.kind == "name":
            name = self._next().text
            if self._accept("op", "."):
                key = self._expect("name").text
                return ("prop", name, key)
            return ("var", name)
        return ("lit", self._literal())

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._accept("kw", "or"):
            left = ("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._accept("kw", "and"):
            left = ("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._accept("kw", "not"):
            return ("not", self._not_expr())
        if self._accept("op", "("):
            inner = self._or_expr()
            self._expect("op", ")")
            return inner
        return self._comparison()

    def _comparison(self) -> Expr:
        if (
            self._peek().kind == "kw"
            and self._peek().text == "exists"
        ):
            self._next()
            self._expect("op", "(")
            inner = self._value_expr()
            self._expect("op", ")")
            return ("exists", inner)
        left = self._value_expr()
        tok = self._peek()
        if tok.kind == "op" and tok.text in ("=", "<>", "<", "<=", ">", ">="):
            op = self._next().text
            return ("cmp", op, left, self._value_expr())
        if tok.kind == "kw" and tok.text == "in":
            self._next()
            self._expect("op", "[")
            values: List[Any] = []
            if not self._accept("op", "]"):
                while True:
                    values.append(self._literal())
                    if self._accept("op", "]"):
                        break
                    self._expect("op", ",")
            return ("in", left, values)
        if tok.kind == "kw" and tok.text == "contains":
            self._next()
            return ("contains", left, self._value_expr())
        if tok.kind == "kw" and tok.text == "starts":
            self._next()
            self._expect("kw", "with")
            return ("starts", left, self._value_expr())
        if tok.kind == "kw" and tok.text == "ends":
            self._next()
            self._expect("kw", "with")
            return ("ends", left, self._value_expr())
        raise QuerySyntaxError(
            f"expected a comparison operator, got {tok.text!r}", tok.pos
        )

    def _return_item(self) -> ReturnItem:
        expr = self._value_expr()
        if self._accept("kw", "as"):
            alias = self._expect("name").text
        else:
            alias = _default_alias(expr)
        return ReturnItem(expr, alias)

    def _order_item(self) -> Tuple[Expr, bool]:
        expr = self._value_expr()
        asc = True
        if self._accept("kw", "desc"):
            asc = False
        else:
            self._accept("kw", "asc")
        return expr, asc


def _default_alias(expr: Expr) -> str:
    kind = expr[0]
    if kind == "var":
        return expr[1]
    if kind == "prop":
        return f"{expr[1]}.{expr[2]}"
    if kind == "count_all":
        return "count(*)"
    if kind == "count":
        return f"count({_default_alias(expr[1])})"
    return "literal"


def parse_query(source: str) -> Query:
    """Parse a query string into its AST (exposed for testing)."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

Binding = Dict[str, Any]


def _node_matches(node: Node, pat: NodePattern) -> bool:
    if any(label not in node.labels for label in pat.labels):
        return False
    return all(node.get(k) == v for k, v in pat.props.items())


def _typed_rels(getter, node: Node, types: List[str]) -> List[Relationship]:
    """Relationships of the wanted types via the per-type adjacency
    buckets; merging by id reproduces the order a filtered scan of the
    flat (insertion-ordered) adjacency list used to yield."""
    if len(types) == 1:
        return getter(node, types[0])
    rels: List[Relationship] = []
    for rel_type in dict.fromkeys(types):
        rels.extend(getter(node, rel_type))
    rels.sort(key=lambda r: r.id)
    return rels


def _step(
    graph: PropertyGraph, node: Node, rel_pat: RelPattern
) -> Iterator[Tuple[Relationship, Node]]:
    types = rel_pat.types
    out_rels: Sequence[Relationship] = ()
    in_rels: Sequence[Relationship] = ()
    if rel_pat.direction in ("out", "both"):
        out_rels = (
            _typed_rels(graph.out_relationships, node, types)
            if types
            else graph.out_relationships(node)
        )
    if rel_pat.direction in ("in", "both"):
        in_rels = (
            _typed_rels(graph.in_relationships, node, types)
            if types
            else graph.in_relationships(node)
        )
    for rel in out_rels:
        yield rel, graph.node(rel.end_id)
    if rel_pat.direction == "both":
        seen = {rel.id for rel in out_rels}
        for rel in in_rels:
            if rel.id not in seen:
                yield rel, graph.node(rel.start_id)
    else:
        for rel in in_rels:
            yield rel, graph.node(rel.start_id)


def _bind_node(b: Binding, pat: NodePattern, node: Node) -> Optional[Binding]:
    if not _node_matches(node, pat):
        return None
    if pat.var is not None:
        existing = b.get(pat.var)
        if existing is not None:
            if not (isinstance(existing, Node) and existing.id == node.id):
                return None
            return b
        b = dict(b)
        b[pat.var] = node
    return b


def _bind_rel(b: Binding, rel_pat: RelPattern, rel: Relationship) -> Optional[Binding]:
    if rel_pat.var is None:
        return b
    existing = b.get(rel_pat.var)
    if existing is not None:
        if not (isinstance(existing, Relationship) and existing.id == rel.id):
            return None
        return b
    b = dict(b)
    b[rel_pat.var] = rel
    return b


def _eval_expr(expr: Expr, binding: Binding) -> Any:
    kind = expr[0]
    if kind == "lit":
        return expr[1]
    if kind == "var":
        if expr[1] not in binding:
            raise QueryExecutionError(f"unbound variable {expr[1]!r}")
        return binding[expr[1]]
    if kind == "prop":
        entity = binding.get(expr[1])
        if entity is None:
            raise QueryExecutionError(f"unbound variable {expr[1]!r}")
        if isinstance(entity, (Node, Relationship)):
            return entity.get(expr[2])
        raise QueryExecutionError(
            f"{expr[1]!r} is not an entity with properties"
        )
    raise QueryExecutionError(f"cannot evaluate {expr!r} in scalar position")


def _eval_predicate(expr: Expr, binding: Binding) -> bool:
    kind = expr[0]
    if kind == "or":
        return _eval_predicate(expr[1], binding) or _eval_predicate(expr[2], binding)
    if kind == "and":
        return _eval_predicate(expr[1], binding) and _eval_predicate(expr[2], binding)
    if kind == "not":
        return not _eval_predicate(expr[1], binding)
    if kind == "exists":
        inner = expr[1]
        if inner[0] != "prop":
            raise QueryExecutionError("exists() takes a property access")
        entity = binding.get(inner[1])
        return isinstance(entity, (Node, Relationship)) and inner[2] in entity
    if kind == "cmp":
        op = expr[1]
        left = _eval_expr(expr[2], binding)
        right = _eval_expr(expr[3], binding)
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if left is None or right is None:
            return False
        try:
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError:
            return False
    if kind == "in":
        return _eval_expr(expr[1], binding) in expr[2]
    if kind in ("contains", "starts", "ends"):
        left = _eval_expr(expr[1], binding)
        right = _eval_expr(expr[2], binding)
        if not isinstance(left, str) or not isinstance(right, str):
            return False
        if kind == "contains":
            return right in left
        if kind == "starts":
            return left.startswith(right)
        return left.endswith(right)
    raise QueryExecutionError(f"cannot evaluate predicate {expr!r}")


def _hashable(value: Any) -> Any:
    if isinstance(value, (Node, Relationship)):
        return (type(value).__name__, value.id)
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


class QueryResult:
    """Query output: ordered ``columns`` and a list of row dicts.

    When the cost-based planner ran (see :mod:`repro.graphdb.plan`),
    ``plan`` holds the chosen :class:`~repro.graphdb.plan.QueryPlan` —
    with per-operator row/time counters filled in under ``profile=``.
    """

    def __init__(
        self, columns: List[str], rows: List[Dict[str, Any]], plan: Any = None
    ):
        self.columns = columns
        self.rows = rows
        self.plan = plan

    def values(self, column: str) -> List[Any]:
        return [row[column] for row in self.rows]

    def single(self) -> Dict[str, Any]:
        if len(self.rows) != 1:
            raise QueryExecutionError(
                f"expected exactly one row, got {len(self.rows)}"
            )
        return self.rows[0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"<QueryResult {len(self.rows)} rows x {self.columns}>"


def jsonable_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """A row with graph entities replaced by their property maps, safe
    for ``json.dumps`` — the shape the CLI's ``--json`` and the serve
    API's query endpoint both emit."""
    out: Dict[str, Any] = {}
    for key, value in row.items():
        if hasattr(value, "properties"):
            out[key] = dict(value.properties)
        elif isinstance(value, list):
            out[key] = [
                dict(v.properties) if hasattr(v, "properties") else v for v in value
            ]
        else:
            out[key] = value
    return out


def _project_row(query: Query, b: Binding) -> Dict[str, Any]:
    return {item.alias: _eval_expr(item.expr, b) for item in query.items}


def _aggregate_rows(query: Query, bindings: Iterable[Binding]) -> List[Dict[str, Any]]:
    """Group bindings by the non-aggregate RETURN items and evaluate the
    count() aggregates per group."""
    group_items = [item for item in query.items if not item.is_aggregate]
    groups: Dict[Any, Dict[str, Any]] = {}
    members: Dict[Any, List[Binding]] = {}
    for b in bindings:
        key = tuple(_hashable(_eval_expr(item.expr, b)) for item in group_items)
        if key not in groups:
            groups[key] = {
                item.alias: _eval_expr(item.expr, b) for item in group_items
            }
            members[key] = []
        members[key].append(b)
    if not groups and not group_items:
        groups[()] = {}
        members[()] = []
    rows = []
    for key, row in groups.items():
        for item in query.items:
            if item.expr[0] == "count_all":
                row[item.alias] = len(members[key])
            elif item.expr[0] == "count":
                _, inner, distinct = item.expr
                vals = [
                    _eval_expr(inner, b)
                    for b in members[key]
                    if _eval_expr(inner, b) is not None
                ]
                if distinct:
                    row[item.alias] = len({_hashable(v) for v in vals})
                else:
                    row[item.alias] = len(vals)
        rows.append(row)
    return rows


def _distinct_rows(
    columns: List[str], rows: Iterable[Dict[str, Any]]
) -> Iterator[Dict[str, Any]]:
    """Streaming first-occurrence dedup over full rows."""
    seen: Set[Any] = set()
    for row in rows:
        key = tuple(_hashable(row[c]) for c in columns)
        if key not in seen:
            seen.add(key)
            yield row


def _make_sort_key(query: Query) -> Callable[[Dict[str, Any]], Tuple]:
    def sort_key(row: Dict[str, Any]) -> Tuple:
        key = []
        for expr, asc in query.order_by:
            alias = _default_alias(expr)
            if alias in row:
                value = row[alias]
            elif expr[0] == "var" and expr[1] in row:
                value = row[expr[1]]
            else:
                raise QueryExecutionError(
                    f"ORDER BY expression {alias!r} is not in RETURN"
                )
            key.append(_OrderKey(value, asc))
        return tuple(key)

    return sort_key


def run_query(
    graph: PropertyGraph,
    source: str,
    *,
    explain: bool = False,
    profile: bool = False,
) -> QueryResult:
    """Parse and execute a query against ``graph``.

    The cost-based planner (:mod:`repro.graphdb.plan`) picks the
    cheapest anchor for each pattern, pushes WHERE conjuncts to the
    earliest position where their variables are bound, and short-circuits
    ORDER BY/LIMIT; the row multiset is identical to the naive
    interpreter's by construction (that interpreter is kept as a test
    oracle).  ``explain=True`` returns the plan without executing (empty
    rows); ``profile=True`` executes and fills per-operator row/time
    counters.  Either way the plan is attached as ``result.plan``.
    """
    query = parse_query(source)
    from repro.graphdb.plan import execute_planned

    return execute_planned(graph, query, source, explain=explain, profile=profile)


class _OrderKey:
    """Total-order wrapper: None sorts last; mixed types sort by repr."""

    __slots__ = ("value", "asc")

    def __init__(self, value: Any, asc: bool):
        self.value = value
        self.asc = asc

    def __lt__(self, other: "_OrderKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.asc
        if b is None:
            return self.asc
        try:
            result = a < b
        except TypeError:
            result = repr(a) < repr(b)
        return result if self.asc else not result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderKey) and self.value == other.value
