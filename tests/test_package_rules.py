"""Rules the package's source keeps, checked on its syntax trees: guards
raise named exceptions (python -O strips an assert), nothing is imported
from outside the standard library and the package (polareig has no runtime
dependency), and only the CLI's process entry touches the garbage collector."""

import ast
import sys
from pathlib import Path

import pytest

import polareig

SOURCES = sorted(Path(polareig.__file__).parent.glob("*.py"))
IMPORTABLE = sys.stdlib_module_names | {"polareig"}


def _offences(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert")
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                 else [])
        out += [f"line {node.lineno}: import {name}" for name in names
                if name.partition(".")[0] not in IMPORTABLE]
    return out


def test_the_rules_catch_an_assert_and_an_installed_import():
    source = ("from __future__ import annotations\nimport os.path\nfrom . import gf\n"
              "from polareig.gf import field_new\nimport numpy as np\n"
              "from hypothesis import given\n\ndef f(x):\n    assert x\n")
    assert _offences(source) == [
        "line 5: import numpy", "line 6: import hypothesis", "line 9: assert"]


def test_every_module_is_checked():
    assert {"cli.py", "eigenfunctions.py", "graphs.py", "gf.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_import_from_outside_the_standard_library(path):
    assert _offences(path.read_text(encoding="utf-8")) == []


def _imports(source: str) -> set[str]:
    """The top-level modules that source imports by absolute name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.partition(".")[0])
    return out


def test_the_gc_rule_sees_both_import_forms():
    assert _imports("import gc\n") == _imports("from gc import freeze\n") == {"gc"}
    assert _imports("from . import gf\nimport os.path\n") == {"os"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_cli_imports_gc(path):
    # cli.entry freezes the import-time heap once per process; a library
    # module that touched the collector would change it for every caller
    assert ("gc" in _imports(path.read_text(encoding="utf-8"))) == (path.name == "cli.py")
