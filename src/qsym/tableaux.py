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
against the left and upper neighbours plus per-row/per-column records, so
the streams are duplicate-free by construction.  enum_qt works on ranks: a
letter is its position in spec.primed_alphabet(), which is sorted, so the
order of letters is the order of ints.  QT1/QT2 give a lowest rank from the
neighbours, QT5 raises it past the index of the previous diagonal cell, and
QT3/QT4 are an int bitmask of the primed ranks per row and of the unprimed
ranks per column.  Letter objects are looked up only for each finished
tableau.
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
    row_ranges = shape.rows()
    cells = [(i + 1, j) for i, cols in enumerate(row_ranges) for j in cols]
    if not cells:
        yield PrimedTableau(lam, mu, tuple(() for _ in row_ranges))
        return

    alphabet = spec.primed_alphabet()
    n_letters = len(alphabet)
    primed = [x.primed for x in alphabet]
    # above[r]: the first rank whose letter index exceeds that of rank r
    above = [
        next((s for s in range(r, n_letters) if alphabet[s].index > x.index), n_letters)
        for r, x in enumerate(alphabet)
    ]
    n = len(cells)
    at = {cell: pos for pos, cell in enumerate(cells)}
    # per cell: positions of the left and upper neighbours (n when absent,
    # where rank[n] stays 0), of the previous diagonal cell (-1 when the
    # cell is off the diagonal or the first on it), and of the two masks
    left = [at.get((i, j - 1), n) for i, j in cells]
    up = [at.get((i - 1, j), n) for i, j in cells]
    diag_prev, last_diag = [], -1
    for pos, (i, j) in enumerate(cells):
        diag_prev.append(last_diag if i == j else -1)
        last_diag = pos if i == j else last_diag
    # masks[i - 1]: primed ranks in row i; masks[len(row_ranges) + j]:
    # unprimed ranks in column j
    row_mask = [i - 1 for i, _ in cells]
    col_mask = [len(row_ranges) + j for _, j in cells]
    masks = [0] * (len(row_ranges) + max(j for _, j in cells) + 1)
    row_pos = [[at[i + 1, j] for j in cols] for i, cols in enumerate(row_ranges)]

    rank = [0] * (n + 1)
    pos, lo = 0, 0
    while True:
        taken = masks[row_mask[pos]] | masks[col_mask[pos]]
        free = ~taken & (-1 << lo)
        r = (free & -free).bit_length() - 1
        if r < n_letters:
            rank[pos] = r
            masks[row_mask[pos] if primed[r] else col_mask[pos]] |= 1 << r
            if pos + 1 < n:
                pos += 1
                lo = max(rank[left[pos]], rank[up[pos]])
                if diag_prev[pos] >= 0:
                    lo = max(lo, above[rank[diag_prev[pos]]])
                continue
            yield PrimedTableau(
                lam, mu, tuple([tuple([alphabet[rank[p]] for p in ps]) for ps in row_pos])
            )
        elif pos:
            pos -= 1
            r = rank[pos]
        else:
            return
        # take rank r back from cell pos and look for the next one above it
        masks[row_mask[pos] if primed[r] else col_mask[pos]] ^= 1 << r
        lo = r + 1


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
