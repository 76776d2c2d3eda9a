"""Structural verification of a built code property graph.

The CPG construction pipeline (:mod:`repro.core.cpg`) promises a set of
invariants that downstream consumers — the path finder, the bench
harness, cached and incremental rebuilds — silently rely on:

* every ``CALL`` edge's ``POLLUTED_POSITION`` vector has exactly
  ``callee arity + 1`` entries (receiver slot + one per parameter,
  paper Formula 2);
* every ``ALIAS`` edge connects a genuine override pair per the class
  hierarchy: same method name and arity, with the edge running from a
  subtype's method to a supertype's (Formula 1);
* every sink node carries its ``TRIGGER_CONDITION`` and ``SINK_TYPE``;
* no relationship dangles (both endpoints exist in the graph);
* every method node is attached to its class via a ``HAS`` edge whose
  class node names the method's ``CLASSNAME`` (phantom callee nodes,
  which have no defined class, are exempt);
* refinement annotations are well-formed: ``RTA_DEAD`` appears only on
  ``CALL``/``ALIAS`` edges, only with the value ``True``, a dead CALL
  edge is a receiver dispatch (``KIND`` virtual/interface), and a dead
  ALIAS edge connects a valid override pair — the corrupted-CPG guard
  for the edge annotations written by :mod:`repro.analysis.rta`;
* every maintained secondary structure — adjacency lists, typed
  buckets, relationship-type counters, presence indexes, label and
  property indexes — equals a from-scratch recomputation over the
  node/edge sets (:meth:`PropertyGraph.check_integrity`), which guards
  the in-place deletion paths used by refinement edge pruning and the
  incremental CPG patch.

``verify_cpg`` re-derives each invariant from the graph itself, so a
bug in any build phase (or a corrupted cache) surfaces as a typed
:class:`CPGCheckIssue` instead of a mysterious Table IX diff.  The CLI
exposes it as ``--check-cpg`` on ``analyze``/``chains``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.cpg import ALIAS, CALL, CLASS_LABEL, CPG, HAS, METHOD_LABEL, RTA_DEAD

__all__ = ["CPGCheckIssue", "verify_cpg"]


@dataclass(frozen=True)
class CPGCheckIssue:
    """One violated CPG invariant."""

    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"

    def to_dict(self) -> Dict[str, str]:
        return {"check": self.check, "message": self.message}


def verify_cpg(cpg: CPG) -> List[CPGCheckIssue]:
    """Check every structural invariant; returns all violations."""
    issues: List[CPGCheckIssue] = []
    issues.extend(_check_dangling(cpg))
    issues.extend(_check_call_pp(cpg))
    issues.extend(_check_alias_overrides(cpg))
    issues.extend(_check_sink_metadata(cpg))
    issues.extend(_check_method_ownership(cpg))
    issues.extend(_check_refinement_annotations(cpg))
    issues.extend(_check_storage_integrity(cpg))
    return issues


def _check_storage_integrity(cpg: CPG) -> List[CPGCheckIssue]:
    """Secondary-structure drift: adjacency lists, typed buckets,
    rel-type counters, presence indexes and label/property indexes must
    equal a recomputation from the node/edge sets.  Construction alone
    cannot break these; the in-place deletion paths (refinement edge
    pruning, the incremental CPG patch) can — so ``--check-cpg`` after a
    patch catches counter drift at the source."""
    check = getattr(cpg.graph, "check_integrity", None)
    if check is None:
        return []  # read-only ArrayGraph view: structures are derived on load
    return [
        CPGCheckIssue("storage-integrity", message) for message in check()
    ]


def _describe(cpg: CPG, node_id: int) -> str:
    if not cpg.graph.has_node(node_id):
        return f"<missing node {node_id}>"
    node = cpg.graph.node(node_id)
    signature = node.get("SIGNATURE")
    if signature:
        return str(signature)
    return str(node.get("NAME", f"<node {node_id}>"))


def _check_dangling(cpg: CPG) -> List[CPGCheckIssue]:
    issues = []
    for rel in cpg.graph.relationships():
        for endpoint in (rel.start_id, rel.end_id):
            if not cpg.graph.has_node(endpoint):
                issues.append(
                    CPGCheckIssue(
                        "dangling-ref",
                        f"{rel.type} edge {rel.id} references missing node "
                        f"{endpoint}",
                    )
                )
    return issues


def _check_call_pp(cpg: CPG) -> List[CPGCheckIssue]:
    issues = []
    for rel in cpg.graph.relationships(CALL):
        if not cpg.graph.has_node(rel.end_id):
            continue  # reported by dangling-ref
        callee = cpg.graph.node(rel.end_id)
        pp = rel.get("POLLUTED_POSITION")
        if pp is None:
            issues.append(
                CPGCheckIssue(
                    "call-pp-arity",
                    f"CALL edge into {_describe(cpg, rel.end_id)} has no "
                    "POLLUTED_POSITION",
                )
            )
            continue
        arity = callee.get("ARITY")
        if arity is None or len(pp) != arity + 1:
            issues.append(
                CPGCheckIssue(
                    "call-pp-arity",
                    f"CALL edge into {_describe(cpg, rel.end_id)} carries "
                    f"{len(pp)} PP entries for arity {arity} "
                    "(expected arity + 1)",
                )
            )
    return issues


def _check_alias_overrides(cpg: CPG) -> List[CPGCheckIssue]:
    issues = []
    hierarchy = cpg.hierarchy
    for rel in cpg.graph.relationships(ALIAS):
        if not (cpg.graph.has_node(rel.start_id) and cpg.graph.has_node(rel.end_id)):
            continue  # reported by dangling-ref
        child = cpg.graph.node(rel.start_id)
        parent = cpg.graph.node(rel.end_id)
        where = (
            f"ALIAS {_describe(cpg, rel.start_id)} -> "
            f"{_describe(cpg, rel.end_id)}"
        )
        if child.get("NAME") != parent.get("NAME") or child.get(
            "ARITY"
        ) != parent.get("ARITY"):
            issues.append(
                CPGCheckIssue(
                    "alias-override",
                    f"{where}: endpoints disagree on name/arity",
                )
            )
            continue
        child_cls = child.get("CLASSNAME")
        parent_cls = parent.get("CLASSNAME")
        if child_cls is None or parent_cls is None:
            issues.append(
                CPGCheckIssue(
                    "alias-override", f"{where}: endpoint lacks a CLASSNAME"
                )
            )
            continue
        # The parent may be a phantom class; supertypes() tracks phantom
        # names, so subtype inclusion covers both defined and phantom
        # parents.
        if parent_cls not in hierarchy.supertypes(child_cls):
            issues.append(
                CPGCheckIssue(
                    "alias-override",
                    f"{where}: {parent_cls} is not a supertype of {child_cls}",
                )
            )
    return issues


def _check_sink_metadata(cpg: CPG) -> List[CPGCheckIssue]:
    issues = []
    for node in cpg.sink_nodes():
        signature = node.get("SIGNATURE", node.get("NAME"))
        tc = node.get("TRIGGER_CONDITION")
        if not tc:
            issues.append(
                CPGCheckIssue(
                    "sink-metadata",
                    f"sink {signature} carries no TRIGGER_CONDITION",
                )
            )
        if not node.get("SINK_TYPE"):
            issues.append(
                CPGCheckIssue(
                    "sink-metadata", f"sink {signature} carries no SINK_TYPE"
                )
            )
    return issues


def _check_refinement_annotations(cpg: CPG) -> List[CPGCheckIssue]:
    """Guard the ``RTA_DEAD`` edge annotations (absence = live edge)."""
    issues = []
    hierarchy = cpg.hierarchy
    for rel in cpg.graph.relationships_with_property(RTA_DEAD):
        where = (
            f"{rel.type} {_describe(cpg, rel.start_id)} -> "
            f"{_describe(cpg, rel.end_id)}"
        )
        if rel.type not in (CALL, ALIAS):
            issues.append(
                CPGCheckIssue(
                    "refine-annotation",
                    f"{where}: RTA_DEAD on a {rel.type} edge "
                    "(only CALL/ALIAS dispatch edges can be RTA-dead)",
                )
            )
            continue
        if rel.get(RTA_DEAD) is not True:
            issues.append(
                CPGCheckIssue(
                    "refine-annotation",
                    f"{where}: RTA_DEAD must be boolean True when present, "
                    f"got {rel.get(RTA_DEAD)!r}",
                )
            )
            continue
        if rel.type == CALL:
            if rel.get("KIND") not in ("virtual", "interface"):
                issues.append(
                    CPGCheckIssue(
                        "refine-annotation",
                        f"{where}: RTA-dead CALL edge has KIND "
                        f"{rel.get('KIND')!r} (only receiver dispatch can "
                        "be type-unreachable)",
                    )
                )
            continue
        if not (cpg.graph.has_node(rel.start_id) and cpg.graph.has_node(rel.end_id)):
            continue  # reported by dangling-ref
        child_cls = cpg.graph.node(rel.start_id).get("CLASSNAME")
        parent_cls = cpg.graph.node(rel.end_id).get("CLASSNAME")
        if child_cls is None or parent_cls is None or parent_cls not in hierarchy.supertypes(child_cls):
            issues.append(
                CPGCheckIssue(
                    "refine-annotation",
                    f"{where}: RTA-dead ALIAS edge does not connect a "
                    "subtype override to its supertype declaration",
                )
            )
    return issues


def _check_method_ownership(cpg: CPG) -> List[CPGCheckIssue]:
    issues = []
    for node in cpg.graph.nodes(METHOD_LABEL):
        if node.get("IS_PHANTOM"):
            continue
        owners = [
            cpg.graph.node(rel.start_id)
            for rel in cpg.graph.in_relationships(node, HAS)
            if cpg.graph.has_node(rel.start_id)
        ]
        class_owners = [o for o in owners if o.has_label(CLASS_LABEL)]
        if len(class_owners) != 1:
            issues.append(
                CPGCheckIssue(
                    "method-ownership",
                    f"method {node.get('SIGNATURE')} has {len(class_owners)} "
                    "HAS owners (expected exactly 1)",
                )
            )
        elif class_owners[0].get("NAME") != node.get("CLASSNAME"):
            issues.append(
                CPGCheckIssue(
                    "method-ownership",
                    f"method {node.get('SIGNATURE')} is owned by "
                    f"{class_owners[0].get('NAME')} but claims CLASSNAME "
                    f"{node.get('CLASSNAME')}",
                )
            )
    return issues
