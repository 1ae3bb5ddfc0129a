import random

import pytest

from qsym import LaurentPoly, MatrixError, VariableCountMismatch, determinant, pfaffian, skew


def const(c, n=1):
    return LaurentPoly.one(n).scale(c)


def v(n, i, p=1):
    return LaurentPoly.variable(n, i, p)


def test_empty_determinant():
    for nvars in (0, 1, 3):
        assert determinant([], nvars) == LaurentPoly.one(nvars)


def test_rank_one_cancellation():
    m = [[v(1, 0), const(1)], [const(1), v(1, 0, -1)]]
    assert determinant(m, 1) == LaurentPoly.zero(1)


def test_identity_det():
    one, zero = const(1), const(0)
    m = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    assert determinant(m, 1) == one


def test_det_nonsquare():
    with pytest.raises(MatrixError, match="row 0 of a size-1 square has 2 entries"):
        determinant([[const(1), const(1)]], 1)
    # ragged: the second row is short
    with pytest.raises(MatrixError, match="row 1 of a size-2 square has 1 entries"):
        determinant([[const(1), const(2)], [const(3)]], 1)
    # two rows of three: the first row is already too long
    with pytest.raises(MatrixError, match="row 0 of a size-2 square has 3 entries"):
        determinant([[const(1)] * 3, [const(1)] * 3], 1)


def test_mixed_variable_counts_raise_when_multiplied():
    # the rows are not checked for one variable count; the ring refuses the
    # first product that meets an entry of another count
    with pytest.raises(VariableCountMismatch):
        determinant([[v(1, 0), const(1)], [const(1), v(2, 1)]], 1)
    with pytest.raises(VariableCountMismatch):
        determinant([[v(2, 0)]], 1)
    with pytest.raises(VariableCountMismatch):
        pfaffian([[v(2, 0)], []], 1)


def test_det_matches_cofactor_second_row():
    rng = random.Random(5)
    for _ in range(20):
        n = 3
        entries = [
            LaurentPoly(1, {(rng.randint(-2, 2),): rng.randint(-4, 4)})
            for _ in range(n * n)
        ]
        m = [entries[i * n : (i + 1) * n] for i in range(n)]
        expand = LaurentPoly.zero(1)
        for j in range(n):
            minor_rows = [
                [m[i][jj] for jj in range(n) if jj != j]
                for i in range(n)
                if i != 1
            ]
            cof = determinant(minor_rows, 1)
            term = m[1][j] * cof
            expand = expand + term if (1 + j) % 2 == 0 else expand - term
        assert expand == determinant(m, 1)


def test_pfaffian_two_by_two():
    a = v(1, 0)
    assert pfaffian([[a], []], 1) == a


def test_pfaffian_four_by_four():
    names = {}
    n = 6
    idx = 0
    for i in range(4):
        for j in range(i + 1, 4):
            names[(i, j)] = v(n, idx)
            idx += 1
    upper = [[names[(i, j)] for j in range(i + 1, 4)] for i in range(4)]
    got = pfaffian(upper, n)
    expect = names[(0, 1)] * names[(2, 3)] - names[(0, 2)] * names[(1, 3)] + names[(0, 3)] * names[(1, 2)]
    assert got == expect


def test_pfaffian_empty():
    assert pfaffian([], 2) == LaurentPoly.one(2)


def test_pfaffian_shape_errors():
    with pytest.raises(MatrixError, match="odd size 1"):
        pfaffian([[]], 1)
    with pytest.raises(MatrixError, match="odd size 3"):
        pfaffian([[const(1), const(2)], [const(3)], []], 1)
    # row 1 of a size-4 triangle holds 2 entries
    ragged = [[const(1)] * 3, [const(1)] * 3, [const(1)], []]
    with pytest.raises(MatrixError, match="row 1 of a size-4 triangle has 3 entries"):
        pfaffian(ragged, 1)
    with pytest.raises(MatrixError, match="row 3 of a size-4 triangle"):
        pfaffian([[const(1)] * 3, [const(1)] * 2, [const(1)], [const(1)]], 1)
    with pytest.raises(MatrixError, match="row 1"):
        skew(ragged, 1)


def _random_upper(rng, size, n):
    def entry():
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(n)): rng.randint(-5, 5)
            for _ in range(rng.randint(0, 2))
        }
        return LaurentPoly(n, terms)

    return [[entry() for _ in range(i + 1, size)] for i in range(size)]


def test_skew_is_the_full_matrix_of_its_triangle():
    rng = random.Random(3)
    for size in range(5):
        upper = _random_upper(rng, size, 2)
        m = skew(upper, 2)
        assert len(m) == size and all(len(row) == size for row in m)
        for i in range(size):
            assert m[i][i] == LaurentPoly.zero(2)
            for j in range(i):
                assert m[i][j] == -m[j][i]
        assert [row[i + 1 :] for i, row in enumerate(m)] == upper


def test_pfaffian_square_is_determinant():
    rng = random.Random(11)
    for _ in range(40):
        size, n = 2 * rng.randint(1, 3), rng.randint(1, 2)
        upper = _random_upper(rng, size, n)
        p = pfaffian(upper, n)
        assert p * p == determinant(skew(upper, n), n)


def test_pfaffian_swap_negates():
    rng = random.Random(7)
    upper = _random_upper(rng, 4, 1)
    m = skew(upper, 1)
    perm = [1, 0, 2, 3]
    swapped = [[m[perm[i]][perm[j]] for j in range(i + 1, 4)] for i in range(4)]
    assert pfaffian(swapped, 1) == -pfaffian(upper, 1)
