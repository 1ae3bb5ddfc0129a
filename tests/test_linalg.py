import random

import pytest

from qsym import LaurentPoly, MatrixError, RingMatrix, determinant, pfaffian


def const(c, n=1):
    return LaurentPoly.one(n).scale(c)


def v(n, i, p=1):
    return LaurentPoly.variable(n, i, p)


def test_empty_determinant():
    assert determinant(RingMatrix(0, 0, ()), nvars=1) == LaurentPoly.one(1)


def test_rank_one_cancellation():
    m = RingMatrix.from_rows([[v(1, 0), const(1)], [const(1), v(1, 0, -1)]])
    assert determinant(m) == LaurentPoly.zero(1)


def test_identity_det():
    one, zero = const(1), const(0)
    m = RingMatrix.from_rows(
        [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    )
    assert determinant(m) == one


def test_det_nonsquare():
    with pytest.raises(MatrixError):
        determinant(RingMatrix(1, 2, (const(1), const(1))))


def test_det_matches_cofactor_second_row():
    rng = random.Random(5)
    for _ in range(20):
        n = 3
        entries = [
            LaurentPoly(1, {(rng.randint(-2, 2),): rng.randint(-4, 4)})
            for _ in range(n * n)
        ]
        m = RingMatrix(n, n, tuple(entries))
        expand = LaurentPoly.zero(1)
        for j in range(n):
            minor_rows = [
                [m.entry(i, jj) for jj in range(n) if jj != j]
                for i in range(n)
                if i != 1
            ]
            cof = determinant(RingMatrix.from_rows(minor_rows), 1)
            term = m.entry(1, j) * cof
            expand = expand + term if (1 + j) % 2 == 0 else expand - term
        assert expand == determinant(m)


def test_pfaffian_two_by_two():
    a = v(1, 0)
    m = RingMatrix.from_rows([[const(0), a], [-a, const(0)]])
    assert pfaffian(m) == a


def test_pfaffian_four_by_four():
    names = {}
    n = 6
    idx = 0
    for i in range(4):
        for j in range(i + 1, 4):
            names[(i, j)] = v(n, idx)
            idx += 1
    zero = LaurentPoly.zero(n)
    rows = [[zero] * 4 for _ in range(4)]
    for (i, j), val in names.items():
        rows[i][j] = val
        rows[j][i] = -val
    got = pfaffian(RingMatrix.from_rows(rows))
    expect = names[(0, 1)] * names[(2, 3)] - names[(0, 2)] * names[(1, 3)] + names[(0, 3)] * names[(1, 2)]
    assert got == expect


def test_pfaffian_empty():
    assert pfaffian(RingMatrix(0, 0, ()), nvars=2) == LaurentPoly.one(2)


def test_pfaffian_shape_errors():
    with pytest.raises(MatrixError):
        pfaffian(RingMatrix.from_rows([[const(0)]]))  # odd size
    bad = RingMatrix.from_rows([[const(0), const(1)], [const(1), const(0)]])
    with pytest.raises(MatrixError, match=r"\(0, 1\)"):
        pfaffian(bad)
    diag = RingMatrix.from_rows([[const(2), const(1)], [-const(1), const(0)]])
    with pytest.raises(MatrixError, match=r"\(0, 0\)"):
        pfaffian(diag)


def _random_skew(rng, size, n):
    zero = LaurentPoly.zero(n)
    rows = [[zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            terms = {
                tuple(rng.randint(-2, 2) for _ in range(n)): rng.randint(-5, 5)
                for _ in range(rng.randint(0, 2))
            }
            val = LaurentPoly(n, terms)
            rows[i][j] = val
            rows[j][i] = -val
    return RingMatrix.from_rows(rows)


def test_pfaffian_square_is_determinant():
    rng = random.Random(11)
    for _ in range(40):
        m = _random_skew(rng, 2 * rng.randint(1, 3), rng.randint(1, 2))
        p = pfaffian(m, m.nvars() or 1)
        assert p * p == determinant(m, m.nvars() or 1)


def test_pfaffian_swap_negates():
    rng = random.Random(7)
    m = _random_skew(rng, 4, 1)
    perm = [1, 0, 2, 3]
    swapped = RingMatrix.from_rows(
        [[m.entry(perm[i], perm[j]) for j in range(4)] for i in range(4)]
    )
    assert pfaffian(swapped, 1) == -pfaffian(m, 1)
