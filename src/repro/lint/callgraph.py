"""Class-hierarchy index used to scope the analyzer's rules.

One whole-program question the per-file rules cannot answer alone:
**which classes, and so which modules, are protocol code?** A class is
protocol code when its (transitive) base chain reaches ``Process`` or
``OverlayLogic``. Bases are resolved by bare class name across the
whole file set, so a standalone fixture file that writes
``class Bad(FDPProcess): ...`` is classified without imports resolving.
The REF rules run only in protocol modules, and API002 only in
``OverlayLogic`` subclasses.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.model import Module, attr_chain

__all__ = ["ClassInfo", "Project"]

#: base-class names that make a class "protocol code".
PROTOCOL_BASES = frozenset({"Process", "OverlayLogic"})


class ClassInfo:
    """One class definition: its bases and location."""

    __slots__ = ("module", "name", "qualname", "node", "base_names")

    def __init__(self, module: Module, node: ast.ClassDef, qualname: str):
        self.module = module
        self.name = node.name
        self.qualname = qualname
        self.node = node
        self.base_names: list[str] = []
        for base in node.bases:
            chain = attr_chain(base)
            if chain:
                self.base_names.append(chain)


class Project:
    """Whole-program class index over a set of parsed modules."""

    def __init__(self, modules: Iterable[Module]):
        self.modules: dict[str, Module] = {m.name: m for m in modules}
        self.classes: dict[str, ClassInfo] = {}  # qualname-keyed
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        for mod in self.modules.values():
            self._index_classes(mod, mod.tree, prefix=mod.name)
        self._protocol_modules: set[str] | None = None

    def _index_classes(self, mod: Module, node: ast.AST, prefix: str) -> None:
        """Index module-level classes and the classes nested in them."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}"
                info = ClassInfo(mod, child, qual)
                self.classes[qual] = info
                self.classes_by_name.setdefault(child.name, []).append(info)
                self._index_classes(mod, child, prefix=qual)

    def mro_reaches(self, cls: ClassInfo, targets: frozenset[str]) -> bool:
        """Whether the (name-resolved) base chain reaches any target name."""
        seen: set[str] = set()
        stack = [name.split(".")[-1] for name in cls.base_names]
        while stack:
            name = stack.pop()
            if name in targets:
                return True
            if name in seen:
                continue
            seen.add(name)
            for info in self.classes_by_name.get(name, ()):
                stack.extend(n.split(".")[-1] for n in info.base_names)
        return False

    def is_protocol_class(self, cls: ClassInfo) -> bool:
        return self.mro_reaches(cls, PROTOCOL_BASES)

    def is_overlay_logic_class(self, cls: ClassInfo) -> bool:
        return self.mro_reaches(cls, frozenset({"OverlayLogic"}))

    @property
    def protocol_modules(self) -> set[str]:
        if self._protocol_modules is None:
            self._protocol_modules = {
                cls.module.name
                for cls in self.classes.values()
                if self.is_protocol_class(cls)
            }
        return self._protocol_modules

    def is_protocol(self, module: Module) -> bool:
        return module.name in self.protocol_modules
