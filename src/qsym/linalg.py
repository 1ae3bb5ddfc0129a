"""Division-free determinant and Pfaffian over the Laurent-polynomial ring.

Every matrix is a list of rows of LaurentPoly: a determinant takes its square
rows, a Pfaffian its strict upper triangle, and `skew` builds the full rows of
a triangle.  Both use one expansion, `_expand`, memoized on the bitmask of
surviving column or index sets, so repeated sub-minors (ubiquitous in the
Pfaffian formulas) are computed once.  Each expansion step, a signed sum of
entry times sub-minor, is one `sum_of_products` call, so its products are
never built one by one.  Matrix sizes here stay small, a dozen or so.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import MatrixError
from .ring import LaurentPoly, sum_of_products


def _expand(
    entry: Callable[[int, int], LaurentPoly],
    nvars: int,
    size: int,
    pick: Callable[[int], tuple[int, int]],
) -> LaurentPoly:
    """The expansion behind both, from the mask of all size indices: with
    (row, partners) = pick(mask), a mask's value is the sum over the j in
    partners, signs alternating in index order, of entry(row, j) times the
    value of partners without j; the empty mask's value is 1.  entry(i, j)
    reads entry (i, j) from the caller's rows."""
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


def _size(rows: Sequence[Sequence[LaurentPoly]], shape: str) -> int:
    """len(rows) = s, once each row i is checked to hold s entries of a
    square, or s - 1 - i of a triangle."""
    size = len(rows)
    for i, row in enumerate(rows):
        if len(row) != (size - 1 - i if shape == "triangle" else size):
            raise MatrixError(f"row {i} of a size-{size} {shape} has {len(row)} entries")
    return size


def determinant(rows: Sequence[Sequence[LaurentPoly]], nvars: int) -> LaurentPoly:
    """Exact determinant of the square matrix whose entry (i, j) is
    rows[i][j], by Laplace expansion memoized on column subsets."""
    n = _size(rows, "square")

    def pick(mask: int) -> tuple[int, int]:
        # rows are consumed top-down, each along the surviving columns
        return n - bin(mask).count("1"), mask

    return _expand(lambda i, j: rows[i][j], nvars, n, pick)


def skew(upper: Sequence[Sequence[LaurentPoly]], nvars: int) -> list[list[LaurentPoly]]:
    """The rows of the skew-symmetric matrix whose strict upper triangle is
    upper: zero diagonal, and entry (j, i) the negative of entry (i, j)."""
    size = _size(upper, "triangle")
    zero = LaurentPoly.zero(nvars)
    return [[-upper[j][i - j - 1] for j in range(i)] + [zero, *upper[i]] for i in range(size)]


def pfaffian(upper: Sequence[Sequence[LaurentPoly]], nvars: int) -> LaurentPoly:
    """Exact Pfaffian of the skew matrix of even size s = len(upper) whose
    strict upper triangle is upper: row i holds entries (i, i+1), ..., (i, s-1).

    By first-index expansion memoized on surviving index sets: Pf(A) = sum
    over partners j of the smallest surviving index i0, with alternating
    signs by the partner's position, of A[i0][j] times Pf of the rest;
    Pf of the empty matrix is 1.
    """
    size = _size(upper, "triangle")
    if size % 2 == 1:
        raise MatrixError(f"Pfaffian of odd size {size}")

    def pick(mask: int) -> tuple[int, int]:
        low = mask & -mask
        return low.bit_length() - 1, mask ^ low

    return _expand(lambda i, j: upper[i][j - i - 1], nvars, size, pick)
