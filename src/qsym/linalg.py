"""Division-free determinant and Pfaffian over the Laurent-polynomial ring.

Both use one expansion, `_expand`, memoized on the bitmask of surviving
column or index sets, so repeated sub-minors (ubiquitous in the Pfaffian formulas) are
computed once.  Each expansion step, a signed sum of entry times sub-minor,
is one `sum_of_products` call, so its products are never built one by one.
Matrix sizes here stay small, a dozen or so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    a: RingMatrix, nvars: int, size: int, pick: Callable[[int], tuple[int, int]]
) -> LaurentPoly:
    """The expansion behind both, from the mask of all size indices: with
    (row, partners) = pick(mask), a mask's value is the sum over the j in
    partners, signs alternating in index order, of a[row][j] times the value
    of partners without j; the empty mask's value is 1."""
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
            e = a.entry(row, low.bit_length() - 1)
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

    return _expand(a, a.nvars() if nvars is None else nvars, n, pick)


def check_skew_symmetric(a: RingMatrix) -> None:
    """Raise MatrixError unless a is square of even size with zero diagonal
    and a[j][i] = -a[i][j].  Each pair is compared term by term, with no
    negated polynomial built: equally many terms, each of the upper entry's
    met by its negative in the lower one, make the lower entry the negative."""
    if a.rows != a.cols:
        raise MatrixError(f"Pfaffian of a {a.rows}x{a.cols} matrix")
    if a.rows % 2 == 1:
        raise MatrixError(f"Pfaffian of odd size {a.rows}")
    for i in range(a.rows):
        if not a.entry(i, i).is_zero():
            raise MatrixError(f"nonzero diagonal entry at ({i}, {i})")
        for j in range(i + 1, a.cols):
            upper, lower = a.entry(i, j).terms, a.entry(j, i).terms
            if len(upper) != len(lower) or any(lower.get(e) != -c for e, c in upper.items()):
                raise MatrixError(f"skew-symmetry fails at ({i}, {j})")


def pfaffian(a: RingMatrix, nvars: int | None = None) -> LaurentPoly:
    """Exact Pfaffian by first-index expansion memoized on surviving index sets.

    Pf(A) = sum over partners j of the smallest surviving index i0, with
    alternating signs by the partner's position, times Pf of the rest;
    Pf of the empty matrix is 1.
    """
    check_skew_symmetric(a)

    def pick(mask: int) -> tuple[int, int]:
        low = mask & -mask
        return low.bit_length() - 1, mask ^ low

    return _expand(a, a.nvars() if nvars is None else nvars, a.rows, pick)
