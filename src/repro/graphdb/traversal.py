"""Path vocabulary of the guided search — the *tabby-path-finder* substrate.

The paper implements gadget-chain search as a Neo4j traversal plugin
built from two callbacks: an **Expander** that decides which
relationships extend the current path (carrying per-path state, the
Trigger_Condition), and an **Evaluator** that decides whether a path is
a result and whether expansion continues (Algorithms 2 and 3).  Both
are methods of :class:`repro.core.pathfinder.GadgetChainFinder`, whose
DFS drives them.  This module holds what they share: the persistent
:class:`Path`, the Neo4j-style :class:`Evaluation` verdicts, and the
:class:`Uniqueness` rules that constrain revisits.

The generic expander/evaluator enumeration this vocabulary came from is
the reference engine in ``tests/oracles/search.py``.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graphdb.graph import Node, Relationship

__all__ = ["Path", "Evaluation", "Uniqueness"]


class Path:
    """An immutable alternating node/relationship sequence.

    Internally a *persistent* (structurally shared) cons list: each path
    holds its end node, the relationship that reached it, and a parent
    pointer, so :meth:`extend` is O(1) instead of copying both tuples.
    A DFS expanding a frontier of N paths of depth D therefore allocates
    O(N) cells, not O(N·D) tuple entries.  :attr:`nodes` /
    :attr:`relationships` materialise (and cache) the tuples on demand;
    the membership checks walk the parent chain without allocating.
    """

    __slots__ = ("_parent", "_rel", "_end", "_start", "_length", "_seq")

    def __init__(self, nodes: Sequence[Node], rels: Sequence[Relationship] = ()):
        nodes = tuple(nodes)
        rels = tuple(rels)
        if len(nodes) != len(rels) + 1:
            raise GraphError(
                f"path needs len(nodes) == len(rels)+1, got {len(nodes)}/{len(rels)}"
            )
        parent: Optional[Path] = None
        for i, rel in enumerate(rels):
            link = Path.__new__(Path)
            link._parent = parent
            link._rel = rels[i - 1] if i else None
            link._end = nodes[i]
            link._start = nodes[0]
            link._length = i
            link._seq = None
            parent = link
        self._parent = parent
        self._rel = rels[-1] if rels else None
        self._end = nodes[-1]
        self._start = nodes[0]
        self._length = len(rels)
        self._seq: Optional[Tuple[Tuple[Node, ...], Tuple[Relationship, ...]]] = (
            nodes,
            rels,
        )

    @classmethod
    def single(cls, node: Node) -> "Path":
        return cls([node])

    def _materialize(self) -> Tuple[Tuple[Node, ...], Tuple[Relationship, ...]]:
        if self._seq is None:
            nodes: List[Node] = []
            rels: List[Relationship] = []
            link: Optional[Path] = self
            while link is not None:
                nodes.append(link._end)
                if link._rel is not None:
                    rels.append(link._rel)
                link = link._parent
            nodes.reverse()
            rels.reverse()
            self._seq = (tuple(nodes), tuple(rels))
        return self._seq

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._materialize()[0]

    @property
    def relationships(self) -> Tuple[Relationship, ...]:
        return self._materialize()[1]

    @property
    def start_node(self) -> Node:
        return self._start

    @property
    def end_node(self) -> Node:
        """tabby-path-finder's ``getEndNode``."""
        return self._end

    @property
    def length(self) -> int:
        """Number of relationships (``getdepth`` in Algorithm 3)."""
        return self._length

    def extend(self, rel: Relationship, node: Node) -> "Path":
        child = Path.__new__(Path)
        child._parent = self
        child._rel = rel
        child._end = node
        child._start = self._start
        child._length = self._length + 1
        child._seq = None
        return child

    def contains_node(self, node: Node) -> bool:
        node_id = node.id
        link: Optional[Path] = self
        while link is not None:
            if link._end.id == node_id:
                return True
            link = link._parent
        return False

    def contains_relationship(self, rel: Relationship) -> bool:
        rel_id = rel.id
        link: Optional[Path] = self
        while link is not None:
            if link._rel is not None and link._rel.id == rel_id:
                return True
            link = link._parent
        return False

    @property
    def last_relationship(self) -> Optional[Relationship]:
        return self._rel

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return self._length + 1

    def __repr__(self) -> str:
        nodes, rels = self._materialize()
        parts = [f"({nodes[0].id})"]
        for rel, node in zip(rels, nodes[1:]):
            parts.append(f"-[:{rel.type}]-({node.id})")
        return "<Path " + "".join(parts) + ">"


class Evaluation(enum.Enum):
    """Neo4j-style evaluator verdicts."""

    INCLUDE_AND_CONTINUE = ("include", "continue")
    INCLUDE_AND_PRUNE = ("include", "prune")
    EXCLUDE_AND_CONTINUE = ("exclude", "continue")
    EXCLUDE_AND_PRUNE = ("exclude", "prune")

    @property
    def includes(self) -> bool:
        return self.value[0] == "include"

    @property
    def continues(self) -> bool:
        return self.value[1] == "continue"


class Uniqueness(enum.Enum):
    """How revisiting nodes is constrained during traversal."""

    #: a node may appear at most once in any single path (cycle guard)
    NODE_PATH = "node_path"
    #: a relationship may appear at most once in any single path; nodes
    #: may repeat (needed for chains that pass through the same
    #: interface-declaration node twice, e.g. ChainedTransformer)
    RELATIONSHIP_PATH = "relationship_path"
    #: a node may be visited at most once in the whole traversal
    #: (GadgetInspector's cost-saving shortcut — loses chains)
    NODE_GLOBAL = "node_global"
    #: no constraint (bounded only by the evaluator's depth check)
    NONE = "none"
