"""Tests for the class-hierarchy index (lint/callgraph.py)."""

from __future__ import annotations

from pathlib import Path

from repro.lint.callgraph import Project
from repro.lint.model import Module, parse_module

PROTOCOL_SRC = '''
class MyLogic(OverlayLogic):
    def p_timeout(self, send, keys) -> None:
        pass


class Derived(MyLogic):
    pass
'''

COLD_SRC = '''
class Report:
    def analysis(self) -> None:
        pass
'''


def _project(tmp_path: Path) -> Project:
    modules: list[Module] = []
    for name, src in {"proto": PROTOCOL_SRC, "cold": COLD_SRC}.items():
        path = tmp_path / f"{name}.py"
        path.write_text(src)
        parsed = parse_module(str(path), name)
        assert isinstance(parsed, Module)
        modules.append(parsed)
    return Project(modules)


class TestHierarchy:
    def test_protocol_class_via_bare_base_name(self, tmp_path: Path) -> None:
        project = _project(tmp_path)
        assert project.protocol_modules == {"proto"}

    def test_transitive_base_chain(self, tmp_path: Path) -> None:
        project = _project(tmp_path)
        derived = project.classes["proto.Derived"]
        assert project.is_overlay_logic_class(derived)
