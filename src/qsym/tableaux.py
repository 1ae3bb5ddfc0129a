"""Alphabets and backtracking enumerators for the tableau families.

Two alphabets, controlled by a VariableSpec (k symplectic pairs, m plain
variables, n = k + m):

  primed:   1' < 1 < 1b' < 1b < ... < k' < k < kb' < kb < (k+1)' < k+1 < ... < n' < n
  unprimed: 1 < 1b < 2 < 2b < ... < k < kb < k+1 < ... < n

Primed-alphabet fillings of skew shifted shapes obey:
  (QT1) rows weakly increase;
  (QT2) columns weakly increase;
  (QT3) each row holds at most one i' and one ib' per index;
  (QT4) each column holds at most one i and one ib per index;
  (QT5) the letter indices on the surviving diagonal cells strictly
        increase from top to bottom.
QT5 is stated on indices, not letters: with no barred letters it is implied
by QT3 and QT4, and the barred letters are exactly where it has content.

Unprimed-alphabet fillings of ordinary skew diagrams obey:
  (ST1) rows weakly increase;
  (ST2) columns strictly increase;
  (ST3) a symplectic entry (index <= k) in row i is at least the unbarred
        letter i.
On straight shapes ST3 forces every entry in row i, plain ones included, to
be at least the letter i; scoping it to symplectic letters is what makes the
k = 0 family of a skew shape the plain semistandard one.

Enumerators fill cells row-major and backtrack; every rule above is checkable
against the left and upper neighbours plus per-row/per-column counters, so
the streams are duplicate-free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotContained
from .ring import Monomial
from .shapes import EMPTY, Partition, SkewShiftedShape, StrictPartition, shifted_cells


@dataclass(frozen=True, order=True)
class Letter:
    """Alphabet letter; the field order makes dataclass ordering the alphabet order."""

    index: int
    barred: bool = False
    unprimed: bool = True

    @property
    def primed(self) -> bool:
        return not self.unprimed

    def __str__(self) -> str:
        return f"{self.index}{'b' if self.barred else ''}{'' if self.unprimed else chr(39)}"


def letter(index: int, barred: bool = False, primed: bool = False) -> Letter:
    return Letter(index, barred, not primed)


@dataclass(frozen=True)
class VariableSpec:
    """k symplectic variable pairs followed by m plain variables."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 0 or self.m < 0:
            raise ValueError("k and m must be nonnegative")

    @property
    def n(self) -> int:
        return self.k + self.m

    def primed_alphabet(self) -> list[Letter]:
        out = []
        for i in range(1, self.k + 1):
            out += [letter(i, primed=True), letter(i), letter(i, barred=True, primed=True), letter(i, barred=True)]
        for j in range(self.k + 1, self.n + 1):
            out += [letter(j, primed=True), letter(j)]
        return out

    def unprimed_alphabet(self) -> list[Letter]:
        out = []
        for i in range(1, self.k + 1):
            out += [letter(i), letter(i, barred=True)]
        for j in range(self.k + 1, self.n + 1):
            out.append(letter(j))
        return out


@dataclass(frozen=True)
class PrimedTableau:
    """Filling of a skew shifted shape; rows[i] lists row i+1 left to right."""

    outer: StrictPartition
    inner: StrictPartition
    rows: tuple[tuple[Letter, ...], ...]

    def entries(self) -> Iterator[Letter]:
        for row in self.rows:
            yield from row

    def pretty(self) -> str:
        lines = []
        for i, row in enumerate(self.rows):
            pad = "   " * (self.inner.part(i + 1) + i)
            lines.append(pad + " ".join(f"{str(x):>3}" for x in row))
        return "\n".join(lines)


@dataclass(frozen=True)
class SpTableau:
    """Filling of an ordinary skew diagram by unprimed letters."""

    outer: Partition
    inner: Partition
    rows: tuple[tuple[Letter, ...], ...]

    def entries(self) -> Iterator[Letter]:
        for row in self.rows:
            yield from row

    def pretty(self) -> str:
        lines = []
        for i, row in enumerate(self.rows):
            pad = "   " * self.inner.part(i + 1)
            lines.append(pad + " ".join(f"{str(x):>3}" for x in row))
        return "\n".join(lines)


def _letter_weight(entries: Iterable[Letter], spec: VariableSpec) -> Monomial:
    """Exponent of x_i: unbarred occurrences of index i minus barred ones."""
    exps = [0] * spec.n
    for x in entries:
        exps[x.index - 1] += -1 if x.barred else 1
    return tuple(exps)


def qt_weight(t: PrimedTableau, spec: VariableSpec) -> Monomial:
    """Exponent of x_i: unbarred occurrences minus barred ones, primes ignored."""
    return _letter_weight(t.entries(), spec)


def spt_weight(t: SpTableau, spec: VariableSpec) -> Monomial:
    return _letter_weight(t.entries(), spec)


def enum_qt(
    spec: VariableSpec, lam: StrictPartition, mu: StrictPartition = EMPTY
) -> Iterator[PrimedTableau]:
    """All primed-alphabet fillings of the skew shifted shape of lam over mu.

    Empty stream when mu is not contained in lam.  With k = 0 this is the
    marked shifted tableau family, with m = 0 the symplectic primed shifted
    one.  Shapes with more rows than the alphabet can serve are legal input;
    the diagonal rule then thins the stream, often to empty.
    """
    try:
        shape = shifted_cells(lam, mu)
    except NotContained:
        return
    alphabet = spec.primed_alphabet()
    if not alphabet and shape.size() > 0:
        return
    row_ranges = shape.rows()
    cells = [(i + 1, j) for i, cols in enumerate(row_ranges) for j in cols]
    if not cells:
        yield PrimedTableau(lam, mu, tuple(() for _ in row_ranges))
        return

    grid: dict[tuple[int, int], Letter] = {}
    row_primed: dict[int, set[Letter]] = {i + 1: set() for i in range(len(row_ranges))}
    col_unprimed: dict[int, set[Letter]] = {}
    diag_stack: list[int] = []  # letter indices already placed on diagonal cells

    def candidates(pos: int) -> Iterator[Letter]:
        i, j = cells[pos]
        lo = None
        left = grid.get((i, j - 1))
        if left is not None:
            lo = left
        up = grid.get((i - 1, j))
        if up is not None and (lo is None or up > lo):
            lo = up
        for x in alphabet:
            if lo is not None and x < lo:
                continue
            if x.primed and x in row_primed[i]:
                continue
            if x.unprimed and x in col_unprimed.get(j, ()):
                continue
            if i == j and diag_stack and x.index <= diag_stack[-1]:
                continue
            yield x

    def rec(pos: int) -> Iterator[PrimedTableau]:
        if pos == len(cells):
            rows = tuple(
                tuple(grid[(i + 1, j)] for j in cols) for i, cols in enumerate(row_ranges)
            )
            yield PrimedTableau(lam, mu, rows)
            return
        i, j = cells[pos]
        for x in candidates(pos):
            grid[(i, j)] = x
            if x.primed:
                row_primed[i].add(x)
            else:
                col_unprimed.setdefault(j, set()).add(x)
            if i == j:
                diag_stack.append(x.index)
            yield from rec(pos + 1)
            if i == j:
                diag_stack.pop()
            if x.primed:
                row_primed[i].discard(x)
            else:
                col_unprimed[j].discard(x)
            del grid[(i, j)]

    yield from rec(0)


def is_valid_qt(t: PrimedTableau, spec: VariableSpec) -> bool:
    """Check the primed-family rules directly; independent of the enumerator."""
    try:
        shape = shifted_cells(t.outer, t.inner)
    except NotContained:
        return False
    row_ranges = shape.rows()
    if len(t.rows) != len(row_ranges) or any(
        len(r) != len(cols) for r, cols in zip(t.rows, row_ranges)
    ):
        return False
    grid = {
        (i + 1, j): x
        for i, cols in enumerate(row_ranges)
        for j, x in zip(cols, t.rows[i])
    }
    if any(not 1 <= x.index <= spec.n for x in grid.values()):
        return False
    if any(x.barred and x.index > spec.k for x in grid.values()):
        return False
    for (i, j), x in grid.items():
        left = grid.get((i, j - 1))
        if left is not None and x < left:
            return False
        up = grid.get((i - 1, j))
        if up is not None and x < up:
            return False
    for i, cols in enumerate(row_ranges):
        primed = [x for x in t.rows[i] if x.primed]
        if len(primed) != len(set(primed)):
            return False
    by_col: dict[int, list[Letter]] = {}
    for (i, j), x in grid.items():
        if x.unprimed:
            by_col.setdefault(j, []).append(x)
    if any(len(v) != len(set(v)) for v in by_col.values()):
        return False
    prev = 0
    for i in shape.diagonal_rows():
        x = grid[(i, i)]
        if x.index <= prev:
            return False
        prev = x.index
    return True


def enum_spt(
    spec: VariableSpec, outer: Partition, inner: Partition = Partition()
) -> Iterator[SpTableau]:
    """All unprimed-alphabet fillings of the ordinary skew diagram outer/inner.

    With k = 0 these are semistandard tableaux, with m = 0 the symplectic
    tableaux with entries in row i at least the letter i.  The row-minimum
    rule empties the stream when the shape outgrows the alphabet.
    """
    if not outer.contains(inner):
        return
    alphabet = spec.unprimed_alphabet()
    row_ranges = [
        list(range(inner.part(i) + 1, outer.part(i) + 1))
        for i in range(1, outer.length + 1)
    ]
    cells = [(i + 1, j) for i, cols in enumerate(row_ranges) for j in cols]
    if not cells:
        yield SpTableau(outer, inner, tuple(() for _ in row_ranges))
        return
    row_minimum = {i: letter(i) for i in range(1, outer.length + 1)}

    grid: dict[tuple[int, int], Letter] = {}

    def rec(pos: int) -> Iterator[SpTableau]:
        if pos == len(cells):
            rows = tuple(
                tuple(grid[(i + 1, j)] for j in cols) for i, cols in enumerate(row_ranges)
            )
            yield SpTableau(outer, inner, rows)
            return
        i, j = cells[pos]
        left = grid.get((i, j - 1))
        up = grid.get((i - 1, j))
        for x in alphabet:
            if left is not None and x < left:
                continue
            if up is not None and x <= up:
                continue
            if x.index <= spec.k and x < row_minimum[i]:
                continue
            grid[(i, j)] = x
            yield from rec(pos + 1)
            del grid[(i, j)]

    yield from rec(0)
