"""Division-free determinant and Pfaffian over the Laurent-polynomial ring.

A Pfaffian is given by its strict upper triangle, and `skew` builds its full
matrix.  Both use one expansion, `_expand`, memoized on the bitmask of surviving
column or index sets, so repeated sub-minors (ubiquitous in the Pfaffian formulas) are
computed once.  Each expansion step, a signed sum of entry times sub-minor,
is one `sum_of_products` call, so its products are never built one by one.
Matrix sizes here stay small, a dozen or so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import MatrixError
from .ring import LaurentPoly, sum_of_products


@dataclass(frozen=True)
class RingMatrix:
    rows: int
    cols: int
    entries: tuple[LaurentPoly, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise MatrixError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise MatrixError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        counts = {e.n for e in self.entries}
        if len(counts) > 1:
            raise MatrixError(f"mixed variable counts in matrix: {sorted(counts)}")

    @classmethod
    def from_rows(cls, rows: list[list[LaurentPoly]]) -> "RingMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != c:
                raise MatrixError("ragged rows")
        return cls(r, c, tuple(x for row in rows for x in row))

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.entries[i * self.cols + j]

    def nvars(self) -> int:
        return self.entries[0].n if self.entries else 0


def _expand(
    entry: Callable[[int, int], LaurentPoly],
    nvars: int,
    size: int,
    pick: Callable[[int], tuple[int, int]],
) -> LaurentPoly:
    """The expansion behind both, from the mask of all size indices: with
    (row, partners) = pick(mask), a mask's value is the sum over the j in
    partners, signs alternating in index order, of entry(row, j) times the
    value of partners without j; the empty mask's value is 1."""
    memo: dict[int, LaurentPoly] = {0: LaurentPoly.one(nvars)}

    def rec(mask: int) -> LaurentPoly:
        got = memo.get(mask)
        if got is not None:
            return got
        row, partners = pick(mask)
        terms = []
        sign = 1
        scan = partners
        while scan:
            low = scan & -scan
            e = entry(row, low.bit_length() - 1)
            if e.terms:
                terms.append((rec(partners ^ low), e, sign))
            sign = -sign
            scan ^= low
        total = memo[mask] = sum_of_products(nvars, terms)
        return total

    return rec((1 << size) - 1)


def determinant(a: RingMatrix, nvars: int | None = None) -> LaurentPoly:
    """Exact determinant by Laplace expansion memoized on column subsets."""
    if a.rows != a.cols:
        raise MatrixError(f"determinant of a {a.rows}x{a.cols} matrix")
    n = a.rows

    def pick(mask: int) -> tuple[int, int]:
        # rows are consumed top-down, each along the surviving columns
        return n - bin(mask).count("1"), mask

    return _expand(a.entry, a.nvars() if nvars is None else nvars, n, pick)


def _triangle_size(upper: Sequence[Sequence[LaurentPoly]]) -> int:
    """len(upper) = s, once each row i is checked to hold s - 1 - i entries."""
    size = len(upper)
    for i, row in enumerate(upper):
        if len(row) != size - 1 - i:
            raise MatrixError(f"row {i} of a size-{size} triangle has {len(row)} entries")
    return size


def skew(upper: Sequence[Sequence[LaurentPoly]], nvars: int) -> RingMatrix:
    """The skew-symmetric matrix whose strict upper triangle is upper: zero
    diagonal, and entry (j, i) the negative of entry (i, j)."""
    size = _triangle_size(upper)
    zero = LaurentPoly.zero(nvars)
    return RingMatrix.from_rows(
        [[-upper[j][i - j - 1] for j in range(i)] + [zero, *upper[i]] for i in range(size)]
    )


def pfaffian(upper: Sequence[Sequence[LaurentPoly]], nvars: int) -> LaurentPoly:
    """Exact Pfaffian of the skew matrix of even size s = len(upper) whose
    strict upper triangle is upper: row i holds entries (i, i+1), ..., (i, s-1).

    By first-index expansion memoized on surviving index sets: Pf(A) = sum
    over partners j of the smallest surviving index i0, with alternating
    signs by the partner's position, of A[i0][j] times Pf of the rest;
    Pf of the empty matrix is 1.
    """
    size = _triangle_size(upper)
    if size % 2 == 1:
        raise MatrixError(f"Pfaffian of odd size {size}")

    def pick(mask: int) -> tuple[int, int]:
        low = mask & -mask
        return low.bit_length() - 1, mask ^ low

    return _expand(lambda i, j: upper[i][j - i - 1], nvars, size, pick)
