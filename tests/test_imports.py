"""Every name a qsym module imports is used in that module, every private
name a qsym module defines is read somewhere in qsym, and every qsym module
parses at the Python floor that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

import qsym

SOURCES = sorted(Path(qsym.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def dead_private_names(source: str, package: list[str]) -> list[str]:
    """The private names the module defines at its top level that no source
    of the package reads.

    Private means one leading underscore and not a dunder.  A definition is
    a top-level def, class, assignment or annotated assignment; a name counts
    as read when it appears as a loaded Name node or as an attribute name in
    any of the package's sources, the module's own included.
    """
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = set()
    for text in package:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {
        name: line
        for name, line in defined.items()
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }
    return [f"{name} (line {line})" for name, line in private.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name_it_defines(path):
    package = [p.read_text() for p in SOURCES]
    assert dead_private_names(path.read_text(), package) == []


def test_a_dead_private_name_is_found():
    source = (
        "__all__ = ['f']\n"
        "_USED, _DEAD = 1, 2\n"
        "_TABLE: dict = {}\n"
        "class _Helper:\n"
        "    pass\n"
        "def _unused():\n"
        "    return _USED\n"
        "def f():\n"
        "    return _Helper()\n"
    )
    other = "from m import _TABLE\nimport m\nm._TABLE.clear()\n"
    assert dead_private_names(source, [source, other]) == ["_DEAD (line 2)", "_unused (line 6)"]


def declared_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    pyproject = Path(qsym.__file__).parents[2] / "pyproject.toml"
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject.read_text(), re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())


def test_syntax_newer_than_the_floor_is_found():
    # except* arrived in Python 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def qsym_imports(source: str) -> set[str]:
    """The qsym modules a source imports, by short name: `from .m import`,
    `from qsym.m import`, `from . import m`, `from qsym import m` and
    `import qsym.m`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qsym."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != "qsym" and not module.startswith("qsym."):
                    continue
                module = module[len("qsym.") :]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


# the Q side and everything below it read alphabets from the spec, never
# from the Schur side
BELOW_SYMFUN = ["ring", "shapes", "linalg", "tableaux", "qfun", "lgv"]


@pytest.mark.parametrize("name", BELOW_SYMFUN)
def test_module_imports_nothing_from_symfun(name):
    path = Path(qsym.__file__).parent / f"{name}.py"
    assert "symfun" not in qsym_imports(path.read_text())


def test_a_symfun_import_is_found():
    sources = (
        "from .symfun import complete_h\n",
        "from qsym.symfun import complete_h\n",
        "from . import symfun\n",
        "from qsym import symfun\n",
        "import qsym.symfun\n",
    )
    for source in sources:
        assert qsym_imports(source) == {"symfun"}, source
    assert qsym_imports("from .ring import LaurentPoly\nimport os.path\n") == {"ring"}
