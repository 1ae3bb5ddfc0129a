"""Every qsym name that the benchmark reads resolves in the package.

perfbench/ reads the package through attribute chains (`qsym.q_row`,
`qsym.symfun.series_from_linear_factors.__wrapped__`), `from qsym import`
lists, and the function names of `workloads.QI_ROUTES`, which it looks up on
the package at call time.  A change to src/qsym that drops one of them fails
here instead of in a benchmark run.

A chain is resolved to qsym.<name>, and to qsym.<module>.<name> where <name>
is a module, no deeper: attributes such as `__wrapped__` exist only while the
tracer is installed.
"""

import ast
import types
from pathlib import Path

import pytest

import qsym

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")])


def qsym_names(source: str) -> set[tuple[str, ...]]:
    """The qsym names a source reads, each as the attribute chain below qsym,
    cut after two links."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "qsym":
                names.add(tuple(reversed(chain))[:2])
        elif isinstance(node, ast.ImportFrom) and node.module == "qsym":
            names.update((alias.name,) for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "QI_ROUTES" for t in node.targets
        ):
            names.update((fn,) for fn in ast.literal_eval(node.value).values())
    return names


def resolves(chain: tuple[str, ...]) -> bool:
    """Whether qsym.<chain[0]> exists and, when it is a module, so does
    qsym.<chain[0]>.<chain[1]>."""
    head = getattr(qsym, chain[0], None)
    if head is None:
        return False
    return len(chain) == 1 or not isinstance(head, types.ModuleType) or hasattr(head, chain[1])


NAMES = sorted({chain for path in SOURCES for chain in qsym_names(path.read_text())})


def test_the_benchmark_reads_the_names_it_is_known_to_read():
    assert ("symfun", "series_from_linear_factors") in NAMES
    assert ("series_from_linear_factors",) in NAMES
    assert ("QContext",) in NAMES
    # the route names of workloads.QI_ROUTES and a `from qsym import` name
    assert {("qI_def",), ("qI_tableau",), ("qI_branch",), ("qI_jp",)} <= set(NAMES)
    assert ("tableaux",) in NAMES


@pytest.mark.parametrize("chain", NAMES, ids=".".join)
def test_every_name_the_benchmark_reads_resolves(chain):
    assert resolves(chain)


def test_a_missing_name_is_found():
    source = (
        "import qsym\n"
        "from qsym import gone\n"
        "QI_ROUTES = {'x': 'qI_missing'}\n"
        "qsym.ring.grow_series.__wrapped__\n"
        "qsym.LaurentPoly.nothing\n"
        "qsym.ring.nothing\n"
    )
    names = qsym_names(source)
    assert names == {
        ("gone",),
        ("qI_missing",),
        ("ring",),
        ("ring", "grow_series"),
        ("LaurentPoly",),
        ("LaurentPoly", "nothing"),
        ("ring", "nothing"),
    }
    missing = sorted(c for c in names if not resolves(c))
    assert missing == [("gone",), ("qI_missing",), ("ring", "nothing")]
