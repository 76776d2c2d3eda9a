"""Source-method catalog.

A *source* is a method that a deserialization mechanism invokes
automatically on attacker-supplied object graphs (§I, §II-A): the
Java-native callbacks (``readObject`` & friends, on classes that are
``Serializable``/``Externalizable``) and — for the marshalling
frameworks covered by marshalsec (XStream, Hessian, ...) — the
second-order entry points reachable from collection reconstruction,
such as ``hashCode``, ``equals``, ``compareTo`` and ``toString``.

Two profiles are provided:

* ``NATIVE`` — the Java-native deserialization callbacks only;
* ``EXTENDED`` — native plus the marshalling entry points; this is the
  profile the evaluation uses, since ysoserial/marshalsec chains start
  from both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaMethod

__all__ = ["SourceCatalog", "NATIVE_SOURCE_NAMES", "EXTENDED_SOURCE_NAMES"]

#: callbacks invoked by Java-native deserialization
NATIVE_SOURCE_NAMES: FrozenSet[str] = frozenset(
    {
        "readObject",
        "readExternal",
        "readResolve",
        "readObjectNoData",
        "validateObject",
        "finalize",
    }
)

#: second-order entry points used by marshalling-framework chains
EXTENDED_SOURCE_NAMES: FrozenSet[str] = NATIVE_SOURCE_NAMES | frozenset(
    {"hashCode", "equals", "compareTo", "toString"}
)


@dataclass(frozen=True)
class SourceCatalog:
    """Decides which defined methods are gadget-chain entry points."""

    names: FrozenSet[str] = EXTENDED_SOURCE_NAMES
    #: require the owning class to be (transitively) serializable
    require_serializable: bool = True

    @classmethod
    def native(cls) -> "SourceCatalog":
        return cls(names=NATIVE_SOURCE_NAMES)

    @classmethod
    def extended(cls) -> "SourceCatalog":
        return cls(names=EXTENDED_SOURCE_NAMES)

    @classmethod
    def named(cls, name: str) -> "SourceCatalog":
        """The catalog a ``--sources`` flag or serve ``options.sources``
        value names: ``"native"``, else the extended one."""
        return cls.native() if name == "native" else cls.extended()

    def with_names(self, extra: Iterable[str]) -> "SourceCatalog":
        return SourceCatalog(self.names | frozenset(extra), self.require_serializable)

    def is_source(self, method: JavaMethod, hierarchy: ClassHierarchy) -> bool:
        """Whether ``method`` can start a gadget chain.

        The method must carry a body (an abstract declaration cannot
        execute anything), have one of the entry-point names, and —
        unless disabled — belong to a serializable class, since the
        deserializer only reconstructs serializable objects.
        """
        if not method.has_body:
            return False
        if method.name not in self.names:
            return False
        if method.is_static:
            return False
        if self.require_serializable:
            owner = method.owner
            if owner is None or not hierarchy.is_serializable(owner.name):
                return False
        return True
