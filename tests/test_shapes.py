import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym import (
    EMPTY,
    NotContained,
    Partition,
    ParseError,
    StrictPartition,
    enum_strict_between,
    pad_for_pfaffian,
    shifted_cells,
)

from conftest import diagonal_rows


def sp(*parts):
    return StrictPartition(tuple(parts))


def test_shifted_cells_straight():
    shape = shifted_cells(sp(2, 1), EMPTY)
    assert shape.cells == {(1, 1), (1, 2), (2, 2)}


def test_shifted_cells_skew():
    shape = shifted_cells(sp(3, 1), sp(2))
    assert shape.cells == {(1, 3), (2, 2)}
    assert diagonal_rows(shape) == [2]


def test_shifted_cells_not_contained():
    with pytest.raises(NotContained):
        shifted_cells(sp(1), sp(2))


def test_enum_strict_between_full():
    got = {p.parts for p in enum_strict_between(EMPTY, sp(2, 1))}
    assert got == {(), (1,), (2,), (2, 1)}


def test_enum_strict_between_equal_and_empty():
    assert list(enum_strict_between(sp(3, 1), sp(3, 1))) == [sp(3, 1)]
    assert list(enum_strict_between(sp(2), sp(1))) == []


def test_pad_for_pfaffian():
    assert pad_for_pfaffian(sp(3, 1), sp(2)) == ((3, 1), (2, 0))
    assert pad_for_pfaffian(sp(3, 2, 1), EMPTY) == ((3, 2, 1, 0), ())
    assert pad_for_pfaffian(sp(2, 1), EMPTY) == ((2, 1), ())
    assert pad_for_pfaffian(sp(3, 1), sp(2, 1)) == ((3, 1), (2, 1))


def test_parse_print():
    assert str(StrictPartition.from_string("7,6,5,2,1")) == "7,6,5,2,1"
    assert StrictPartition.from_string("") == EMPTY
    with pytest.raises(ParseError):
        Partition.from_string("1,2")  # increasing
    with pytest.raises(ParseError):
        StrictPartition.from_string("2,2")
    with pytest.raises(ParseError):
        Partition.from_string("a,b")


def test_partition_transpose_and_weight():
    lam = Partition((3, 1))
    assert lam.transpose() == Partition((2, 1, 1))
    assert lam.weight == 4
    assert lam.transpose().transpose() == lam


def test_subpartitions():
    subs = {p.parts for p in Partition((2, 1)).subpartitions()}
    assert subs == {(), (1,), (2,), (1, 1), (2, 1)}


strict_parts = st.lists(st.integers(1, 6), max_size=4, unique=True).map(
    lambda xs: StrictPartition(tuple(sorted(xs, reverse=True)))
)


@given(lam=strict_parts)
@settings(max_examples=80, deadline=None)
def test_shifted_diagram_row_structure(lam):
    shape = shifted_cells(lam, EMPTY)
    assert shape.size() == lam.weight
    for i in range(1, lam.length + 1):
        row = shape.row_cols(i)
        assert len(row) == lam.part(i)
        assert row[0] == i


@given(a=strict_parts, b=strict_parts, c=strict_parts)
@settings(max_examples=80, deadline=None)
def test_containment_order(a, b, c):
    if a.contains(b) and b.contains(c):
        assert a.contains(c)
    if a.contains(b) and b.contains(a):
        assert a == b


@given(lam=strict_parts)
@settings(max_examples=40, deadline=None)
def test_enum_strict_between_matches_filtration(lam):
    got = {p.parts for p in enum_strict_between(EMPTY, lam)}

    def all_strict(max_part, max_len):
        out = [()]

        def rec(prev, acc):
            if len(acc) == max_len:
                return
            for p in range(prev - 1, 0, -1):
                out.append(acc + (p,))
                rec(p, acc + (p,))

        rec(max_part + 1, ())
        return out

    expected = {
        parts
        for parts in all_strict(lam.part(1), lam.length)
        if lam.contains(StrictPartition(parts))
    }
    assert got == expected
    assert len(got) == len(list(enum_strict_between(EMPTY, lam)))


partitions = st.lists(st.integers(1, 6), max_size=4).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def _columns_are_runs(cells):
    cols = {}
    for i, j in cells:
        cols.setdefault(j, []).append(i)
    return all(max(rows) - min(rows) + 1 == len(rows) for rows in cols.values())


# the tableau rules check QT3 only against a cell's left neighbour
# (tableaux._row_fillings), and QT4 and ST2 only against its upper one
# (tableaux._key_maps): a repeated i' in a row, or a repeated unprimed i in
# a column, is then adjacent, because every row and every column of these
# shapes is one run of consecutive cells
@given(lam=strict_parts, data=st.data())
@settings(max_examples=80, deadline=None)
def test_skew_shifted_columns_are_runs(lam, data):
    mu = data.draw(st.sampled_from(list(enum_strict_between(EMPTY, lam))))
    assert _columns_are_runs(shifted_cells(lam, mu).cells)


@given(outer=partitions, data=st.data())
@settings(max_examples=80, deadline=None)
def test_skew_diagram_columns_are_runs(outer, data):
    inner = data.draw(st.sampled_from(list(outer.subpartitions())))
    cells = {
        (i, j)
        for i in range(1, outer.length + 1)
        for j in range(inner.part(i) + 1, outer.part(i) + 1)
    }
    assert _columns_are_runs(cells)
