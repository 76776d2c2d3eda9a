"""Gadget-chain data model and reporting.

A :class:`GadgetChain` is the method-call stack from a source method to
a sink method (Table I).  Chains render in the paper's stack format::

    (source)demo.EvilObjectA.readObject()
    java.lang.Object.toString()
    demo.EvilObjectB.toString()
    (sink)java.lang.Runtime.exec()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "ChainStep",
    "GadgetChain",
    "chain_record",
    "dedupe_chains",
    "filter_by_package",
]


@dataclass(frozen=True)
class ChainStep:
    """One method on the chain."""

    class_name: str
    method_name: str
    arity: int
    #: how this step connects to the *next* one: "CALL", "ALIAS" or ""
    edge_to_next: str = ""

    @property
    def qualified(self) -> str:
        return f"{self.class_name}.{self.method_name}"

    def __str__(self) -> str:
        return f"{self.qualified}()"


class GadgetChain:
    """An ordered source-to-sink method stack."""

    def __init__(
        self,
        steps: Sequence[ChainStep],
        sink_category: str = "",
        trigger_condition: Sequence[int] = (),
    ):
        if len(steps) < 2:
            raise ValueError("a gadget chain needs at least a source and a sink")
        self.steps: Tuple[ChainStep, ...] = tuple(steps)
        self.sink_category = sink_category
        self.trigger_condition: Tuple[int, ...] = tuple(trigger_condition)

    @property
    def source(self) -> ChainStep:
        return self.steps[0]

    @property
    def sink(self) -> ChainStep:
        return self.steps[-1]

    @property
    def length(self) -> int:
        """Number of hops (edges) on the chain."""
        return len(self.steps) - 1

    @property
    def key(self) -> Tuple[Tuple[str, str, int], ...]:
        """Identity used for deduplication and ground-truth matching:
        the (class, method, arity) sequence."""
        return tuple((s.class_name, s.method_name, s.arity) for s in self.steps)

    @property
    def endpoint_key(self) -> Tuple[Tuple[str, str], Tuple[str, str]]:
        """Loose identity: (source, sink) pair only."""
        return (
            (self.source.class_name, self.source.method_name),
            (self.sink.class_name, self.sink.method_name),
        )

    def classes(self) -> List[str]:
        seen: List[str] = []
        for step in self.steps:
            if step.class_name not in seen:
                seen.append(step.class_name)
        return seen

    def touches_package(self, package_prefix: str) -> bool:
        return any(s.class_name.startswith(package_prefix) for s in self.steps)

    def render(self) -> str:
        """The Table I / Table XI stack rendering."""
        lines = []
        for i, step in enumerate(self.steps):
            prefix = ""
            if i == 0:
                prefix = "(source)"
            elif i == len(self.steps) - 1:
                prefix = "(sink)"
            lines.append(f"{prefix}{step}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GadgetChain) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        arrow = " -> ".join(s.qualified for s in self.steps)
        return f"<GadgetChain {arrow}>"


def chain_record(chain: GadgetChain, with_key: bool = False) -> Dict[str, Any]:
    """The JSON record of one chain — the ``tabby chains --json`` and
    serve ``/chains`` element.  Verdict records add ``status`` and
    ``refutation``; ``tabby diff`` records add the (class, method,
    arity) ``key``."""
    record: Dict[str, Any] = {"steps": [s.qualified for s in chain.steps]}
    if with_key:
        record["key"] = [list(step_key) for step_key in chain.key]
    record["sink_category"] = chain.sink_category
    return record


def dedupe_chains(chains: Iterable[GadgetChain]) -> List[GadgetChain]:
    """Drop exact duplicates, preserving first-seen order."""
    seen = set()
    out: List[GadgetChain] = []
    for chain in chains:
        if chain.key not in seen:
            seen.add(chain.key)
            out.append(chain)
    return out


def filter_by_package(
    chains: Iterable[GadgetChain], package_prefix: str
) -> List[GadgetChain]:
    """Keep chains touching a package — the post-filter the paper applies
    to Serianalyzer's flood of output (§IV-C)."""
    return [c for c in chains if c.touches_package(package_prefix)]
