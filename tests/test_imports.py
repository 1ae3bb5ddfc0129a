"""Every name a qsym module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import qsym

MODULES = sorted(p for p in Path(qsym.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that nothing in it reads.

    A name counts as read when it appears as a Name node, or as the root of
    an attribute chain, anywhere in the module, annotations included.
    `from __future__` imports bind no name.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterator, Sequence as Seq\n"
        "def f(x: Iterator) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Seq (line 3)"]
