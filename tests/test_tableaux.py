import hashlib
import operator
import re
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from qsym import (
    EMPTY,
    LaurentPoly,
    Partition,
    PrimedTableau,
    SpTableau,
    StrictPartition,
    VariableSpec,
    enum_qt,
    enum_spt,
    inter_schur,
    letter,
    qt_weight,
)
from qsym import checks
from qsym.checks import partitions_up_to_weight, qi_cases, specs_up_to
from qsym.shapes import enum_strict_between, shifted_cells
from qsym.errors import ExponentOverflow, NotContained, TermBudgetExceeded
from qsym.ring import _pack
from qsym.tableaux import spt_weight_counts

from conftest import diagonal_rows, rows_weight

L = letter


def sp(*parts):
    return StrictPartition(tuple(parts))


def is_valid_qt(t, spec):
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
    by_col = {}
    for (i, j), x in grid.items():
        if x.unprimed:
            by_col.setdefault(j, []).append(x)
    if any(len(v) != len(set(v)) for v in by_col.values()):
        return False
    prev = 0
    for i in diagonal_rows(shape):
        x = grid[(i, i)]
        if x.index <= prev:
            return False
        prev = x.index
    return True


def test_letter_order():
    seq = [
        L(1, primed=True),
        L(1),
        L(1, barred=True, primed=True),
        L(1, barred=True),
        L(2, primed=True),
        L(2),
    ]
    assert seq == sorted(seq)
    assert str(L(3, barred=True, primed=True)) == "3b'"
    assert str(L(3, barred=True)) == "3b"
    assert str(L(3, primed=True)) == "3'"


def test_single_cell_symplectic_pair():
    tabs = list(enum_qt(VariableSpec(1, 0), sp(1)))
    assert len(tabs) == 4
    got = {t.rows[0][0] for t in tabs}
    assert got == {L(1, primed=True), L(1), L(1, barred=True, primed=True), L(1, barred=True)}


def test_single_cell_weights():
    spec = VariableSpec(1, 0)
    t = PrimedTableau(sp(1), EMPTY, ((L(1, barred=True, primed=True),),))
    assert qt_weight(t, spec) == (-1,)
    empty = PrimedTableau(EMPTY, EMPTY, ())
    assert qt_weight(empty, spec) == (0,)


def test_plain_one_variable_two_rows_empty():
    assert list(enum_qt(VariableSpec(0, 1), sp(2, 1))) == []


def test_figure_tableau_is_valid_with_expected_weight():
    spec = VariableSpec(3, 2)
    lam, mu = sp(7, 6, 5, 2, 1), sp(6, 4, 1)
    fig = PrimedTableau(
        lam,
        mu,
        (
            (L(3, barred=True, primed=True),),
            (L(2), L(3, barred=True)),
            (L(1, primed=True), L(3), L(3), L(5)),
            (L(1, barred=True, primed=True), L(4, primed=True)),
            (L(4),),
        ),
    )
    assert is_valid_qt(fig, spec)
    assert qt_weight(fig, spec) == (0, 1, 0, 2, 1)
    # perturbations violate the rules
    bad_row = PrimedTableau(lam, mu, (fig.rows[0], (L(3, barred=True), L(2))) + fig.rows[2:])
    assert not is_valid_qt(bad_row, spec)
    bad_diag = PrimedTableau(lam, mu, fig.rows[:4] + ((L(1, barred=True),),))
    assert not is_valid_qt(bad_diag, spec)


def test_diagonal_indices_strictly_increase():
    # one symplectic pair, two diagonal cells: no second index available
    assert list(enum_qt(VariableSpec(1, 0), sp(2, 1))) == []
    # removing the first diagonal cell frees the second one
    tabs = list(enum_qt(VariableSpec(1, 0), sp(3, 1), sp(1)))
    assert len(tabs) == 20


def test_enumeration_duplicate_free():
    for spec in (VariableSpec(1, 1), VariableSpec(2, 0), VariableSpec(0, 2)):
        tabs = list(enum_qt(spec, sp(3, 1)))
        assert len(set(tabs)) == len(tabs)


def _stream_digest(streams):
    # each stream is listed whole before it is hashed, so a row object that
    # later tableaux of the stream change would show in the earlier ones
    digest, count = hashlib.sha256(), 0
    for stream in streams:
        for t in list(stream):
            digest.update(str(t.rows).encode())
            count += 1
    return count, digest.hexdigest()


def test_enumeration_stream_is_pinned():
    # every tableau, in order, over the acceptance cases of weight <= 6
    streams = (
        enum_qt(spec, lam, mu)
        for lam, mu, spec in qi_cases(max_part=4, max_len=3, max_vars=3)
        if lam.weight <= 6
    )
    assert _stream_digest(streams) == (
        107105,
        "1fc098673fea0b7e9c5dbb79c16d7c53b5599ad7d1267e993aacd7eb21fcf0f7",
    )


def test_enum_qt_yields_real_records():
    # enum_qt builds its records with tuple.__new__, bypassing the named
    # tuple's __new__; each must still be a PrimedTableau with its record
    # equality and no order
    count = 0
    for lam, mu, spec in qi_cases(max_part=4, max_len=3, max_vars=3):
        if lam.weight > 6:
            continue
        for t in enum_qt(spec, lam, mu):
            assert type(t) is PrimedTableau
            assert t == PrimedTableau(*t)
            assert t != tuple(t)
            with pytest.raises(TypeError):
                t < t
            count += 1
    assert count == 107105


def test_spt_stream_is_pinned():
    # every ordered pair of partitions of weight <= 6 with <= 4 rows, contained
    # or not, so rows past the k symplectic ones meet the plain-letter floor
    shapes = partitions_up_to_weight(6, 4)
    streams = (
        enum_spt(spec, outer, inner)
        for outer in shapes
        for inner in shapes
        for spec in specs_up_to(3)
    )
    assert _stream_digest(streams) == (
        24229,
        "15176680004cfdee4d724a49ef161d4518671bcde2721e4c7509d94551958938",
    )


def test_primed_alphabet_is_sorted():
    # enum_qt and enum_spt compare letters by their rank in these lists
    for spec in specs_up_to(4):
        for alphabet in (spec.primed_alphabet(), spec.unprimed_alphabet()):
            assert alphabet == sorted(alphabet)


def test_unprimed_alphabet_is_every_second_primed_letter():
    for spec in specs_up_to(4):
        primed, unprimed = spec.primed_alphabet(), spec.unprimed_alphabet()
        assert unprimed == primed[1::2]
        assert all(a is b for a, b in zip(unprimed, primed[1::2]))
        # fresh lists of one alphabet: a caller may change its copy
        assert spec.primed_alphabet() is not primed
        assert all(a is b for a, b in zip(VariableSpec(spec.k, spec.m).primed_alphabet(), primed))


def test_monomials_are_the_unprimed_letter_weights():
    for spec in specs_up_to(4):
        weights = tuple(rows_weight([[x]], spec.n) for x in spec.unprimed_alphabet())
        assert spec.monomials() == weights
    assert VariableSpec(2, 1).monomials() == (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)
    )
    assert VariableSpec(0, 0).monomials() == ()


def test_qt_split_counts_small():
    lam, mu = sp(3, 1), EMPTY
    for spec in (VariableSpec(1, 1), VariableSpec(2, 1), VariableSpec(1, 2)):
        lhs = sum(1 for _ in enum_qt(spec, lam, mu))
        rhs = 0
        for nu in enum_strict_between(mu, lam):
            c = sum(1 for _ in enum_qt(VariableSpec(spec.k, 0), nu, mu))
            if c:
                rhs += c * sum(1 for _ in enum_qt(VariableSpec(0, spec.m), lam, nu))
        assert lhs == rhs


def test_spt_single_cell_plain():
    tabs = list(enum_spt(VariableSpec(0, 2), Partition((1,))))
    assert {t.rows[0][0] for t in tabs} == {L(1), L(2)}
    weights = sorted(rows_weight(t.rows, 2) for t in tabs)
    assert weights == [(0, 1), (1, 0)]


def test_spt_king_column():
    spec = VariableSpec(2, 0)
    tabs = list(enum_spt(spec, Partition((1, 1))))
    got = {(t.rows[0][0], t.rows[1][0]) for t in tabs}
    assert got == {
        (L(1), L(2)),
        (L(1, barred=True), L(2)),
        (L(1), L(2, barred=True)),
        (L(1, barred=True), L(2, barred=True)),
        (L(2), L(2, barred=True)),
    }


def test_spt_row_bound_exhausts_alphabet():
    assert list(enum_spt(VariableSpec(1, 0), Partition((1, 1)))) == []


def test_spt_weights():
    spec = VariableSpec(2, 0)
    rows = ((L(2),), (L(2, barred=True),))
    t = list(enum_spt(spec, Partition((1, 1))))
    picked = [x for x in t if x.rows == rows]
    assert picked and rows_weight(picked[0].rows, spec.n) == (0, 0)


def test_spt_skew_plain_is_semistandard():
    # single cell in row 2: both letters allowed once the shape is skew
    tabs = list(enum_spt(VariableSpec(0, 2), Partition((1, 1)), Partition((1,))))
    assert {t.rows[1][0] for t in tabs} == {L(1), L(2)}


def _fillings(row_ranges, alphabet):
    """Every filling of the rows by the alphabet, in row-major rank order."""
    sizes = [len(cols) for cols in row_ranges]
    for flat in product(alphabet, repeat=sum(sizes)):
        rows, at = [], 0
        for size in sizes:
            rows.append(flat[at : at + size])
            at += size
        yield tuple(rows)


@pytest.mark.parametrize(
    "lam, mu, spec",
    [
        (sp(1), EMPTY, VariableSpec(1, 1)),  # single cell
        (sp(3), EMPTY, VariableSpec(1, 1)),  # single row
        (sp(4), sp(1), VariableSpec(0, 2)),  # single skew row
        (sp(4, 1), sp(4), VariableSpec(1, 1)),  # empty leading row
        (sp(3, 1), sp(2, 1), VariableSpec(1, 1)),  # trailing empty row
        (sp(2, 1), EMPTY, VariableSpec(1, 0)),  # more rows than indices: empty
        (sp(3, 2, 1), EMPTY, VariableSpec(0, 2)),  # more rows than indices: empty
        (sp(3, 2, 1), sp(1), VariableSpec(1, 1)),  # three rows, two diagonal cells
        (sp(3, 1), EMPTY, VariableSpec(2, 0)),
        (sp(3, 1), sp(1), VariableSpec(1, 1)),
    ],
)
def test_enum_qt_is_every_valid_filling_in_rank_order(lam, mu, spec):
    row_ranges = shifted_cells(lam, mu).rows()
    expected = [
        t
        for rows in _fillings(row_ranges, spec.primed_alphabet())
        if is_valid_qt(t := PrimedTableau(lam, mu, rows), spec)
    ]
    assert list(enum_qt(spec, lam, mu)) == expected


def _is_valid_spt(rows, row_ranges, spec):
    """ST1-ST3 on a filling of an ordinary skew diagram, cell by cell."""
    grid = {(i, j): x for i, cols in enumerate(row_ranges, 1) for j, x in zip(cols, rows[i - 1])}
    for (i, j), x in grid.items():
        left, up = grid.get((i, j - 1)), grid.get((i - 1, j))
        if left is not None and x < left:  # ST1
            return False
        if up is not None and x <= up:  # ST2
            return False
        if x.index <= spec.k and x < L(i):  # ST3
            return False
    return True


@pytest.mark.parametrize(
    "outer, inner, spec",
    [
        (Partition((1,)), Partition(), VariableSpec(1, 1)),  # single cell
        (Partition((3,)), Partition(), VariableSpec(1, 1)),  # single row
        (Partition((4, 1)), Partition((4,)), VariableSpec(1, 1)),  # empty leading row
        (Partition((3, 1)), Partition((2, 1)), VariableSpec(1, 1)),  # trailing empty row
        (Partition((1, 1, 1)), Partition(), VariableSpec(1, 0)),  # more rows than letters: empty
        (Partition((2, 1, 1)), Partition(), VariableSpec(1, 2)),  # rows past k take plain letters
        (Partition((3, 2, 1)), Partition((1,)), VariableSpec(2, 0)),
        (Partition((2, 2)), Partition((1,)), VariableSpec(0, 3)),
    ],
)
def test_enum_spt_is_every_valid_filling_in_rank_order(outer, inner, spec):
    row_ranges = [
        range(inner.part(i) + 1, outer.part(i) + 1) for i in range(1, outer.length + 1)
    ]
    expected = [
        SpTableau(outer, inner, rows)
        for rows in _fillings(row_ranges, spec.unprimed_alphabet())
        if _is_valid_spt(rows, row_ranges, spec)
    ]
    assert list(enum_spt(spec, outer, inner)) == expected
    # enum_spt and the transfer read the same floors, so the transfer is
    # checked against the brute-force list, not against the stream
    counted = Counter(_pack(rows_weight(t.rows, spec.n)) for t in expected)
    assert spt_weight_counts(spec, outer, inner) == counted


def test_tableau_records_compare_by_class_and_fields():
    rows = ((L(1), L(1, barred=True)),)
    a = PrimedTableau(sp(2), EMPTY, rows)
    b = PrimedTableau(sp(2), EMPTY, tuple(tuple(list(r)) for r in rows))
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != PrimedTableau(sp(2), EMPTY, ((L(1), L(1)),))
    # the same fields in the other record class, or in a plain tuple, never match
    others = (SpTableau(sp(2), EMPTY, rows), (sp(2), EMPTY, rows))
    for other in others:
        assert a != other and not a == other
        assert other != a and not other == a
    assert PrimedTableau(EMPTY, EMPTY, ()) != SpTableau(EMPTY, EMPTY, ())
    assert len({a, b, *others}) == 3
    # records have no order, among themselves or against plain tuples
    c = PrimedTableau(sp(2), EMPTY, ((L(1), L(1)),))
    for x, y in ((a, c), (c, a), (a, others[0]), (others[0], a), (a, others[1]), (others[1], a)):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            with pytest.raises(TypeError):
                getattr(operator, op[2:4])(x, y)
    with pytest.raises(TypeError):
        sorted([a, c])
    assert repr(PrimedTableau(sp(1), EMPTY, ((L(1),),))) == (
        "PrimedTableau(outer=StrictPartition(parts=(1,)), inner=StrictPartition(parts=()), "
        "rows=((Letter(index=1, barred=False, unprimed=True),),))"
    )
    assert repr(SpTableau(Partition((1,)), Partition(), ((L(1, barred=True),),))) == (
        "SpTableau(outer=Partition(parts=(1,)), inner=Partition(parts=()), "
        "rows=((Letter(index=1, barred=True, unprimed=True),),))"
    )


@pytest.mark.parametrize("enum", ["enum_qt", "enum_spt"])
def test_duplicate_check_catches_an_equal_copy(monkeypatch, enum):
    # each tableau again as a new record with new row tuples: equal, not identical
    real = getattr(checks, enum)

    def with_copies(*args):
        for t in real(*args):
            yield t
            yield type(t)(t.outer, t.inner, tuple(tuple(list(row)) for row in t.rows))

    monkeypatch.setattr(checks, enum, with_copies)
    results = {r.name: r for r in checks.tableaux_checks(max_weight=2, max_vars=2)}
    assert not results["tableaux.duplicate-free"].passed


def _peak_traced_bytes(stream) -> int:
    tracemalloc.start()
    try:
        for _ in stream:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "enum, args, sizes",
    [
        # one long row: a single last-row visit, with 15,648 fillings at
        # n = 18 and 52,632 at n = 27; a memo that kept them all peaked at
        # 3.0 and 14.2 MB
        (enum_qt, lambda n: (VariableSpec(1, 2), sp(n)), (18, 27)),
        # (n, n): the first row sets the key, which then seldom repeats;
        # 8,721 tableaux at n = 16 and 27,600 at n = 22, and a memo that
        # kept every key peaked at 1.8 and 7.2 MB
        (enum_spt, lambda n: (VariableSpec(0, 4), Partition((n, n))), (16, 22)),
    ],
)
def test_last_row_memo_memory_stays_flat(enum, args, sizes):
    from qsym.tableaux import _MEMO_SIZE

    small, large = (_peak_traced_bytes(enum(*args(n))) for n in sizes)
    # the memo holds at most _MEMO_SIZE 8-byte slots; the bound leaves room
    # for the entries' headers, the rows in flight and the tuple free lists
    assert large < 32 * _MEMO_SIZE
    assert large < 2 * small


@pytest.mark.parametrize("size", [0, 6, 40])
def test_a_small_memo_cap_keeps_the_streams(monkeypatch, size):
    # with the cap this small the memo streams rows unkept, and empties
    # itself, on nearly every visit; the streams must not change
    import qsym.tableaux as tableaux

    shapes = [
        (sp(4, 2), EMPTY, VariableSpec(1, 1)),
        (sp(5, 3, 1), sp(2), VariableSpec(1, 1)),
        (sp(6), EMPTY, VariableSpec(0, 2)),
    ]
    spt_shapes = [(Partition((3, 3)), VariableSpec(0, 3)), (Partition((4, 2, 1)), VariableSpec(2, 1))]
    expect = [list(enum_qt(spec, lam, mu)) for lam, mu, spec in shapes]
    expect += [list(enum_spt(spec, lam)) for lam, spec in spt_shapes]
    # per call: for each fill, whether its row is the last and its list kept
    fills, real = [], tableaux._RowMemo.fill

    def spy(memo, i, *args):
        items = real(memo, i, *args)
        fills[-1].add((i == len(memo.lists) - 1, type(items) is list))
        assert memo.size <= size
        return items

    monkeypatch.setattr(tableaux._RowMemo, "fill", spy)
    monkeypatch.setattr(tableaux, "_MEMO_SIZE", size)
    got = []
    for lam, mu, spec in shapes:
        fills.append(set())
        got.append(list(enum_qt(spec, lam, mu)))
    for lam, spec in spt_shapes:
        fills.append(set())
        got.append(list(enum_spt(spec, lam)))
    assert all(expect) and got == expect
    if size == 40:
        # a split cap: on (4, 2) and (3, 3) an upper row's list passes the
        # cap and streams unkept, while every last row's list is kept
        assert fills[0] == fills[3] == {(False, False), (True, True)}


@pytest.mark.parametrize(
    "enum, args",
    [
        (enum_qt, (VariableSpec(1, 1), sp(5, 3, 1), sp(2))),
        (enum_spt, (VariableSpec(2, 1), Partition((4, 2, 1)))),
    ],
)
def test_each_row_key_reads_its_fillings_once(monkeypatch, enum, args):
    # every row's fillings come from the one memo, upper rows included.  No
    # row of either shape meets another row's key: row 1 of the primed shape
    # is reached once, with all floors 0, which row 2 never gets under a
    # cell of row 1, and the rows of the other shape differ in length.  So
    # a repeated key is a repeated (row, key)
    import qsym.tableaux as tableaux

    keys, real = [], tableaux._row_fillings

    def spy(floors, primed):
        keys.append(tuple(floors))
        return real(floors, primed)

    monkeypatch.setattr(tableaux, "_row_fillings", spy)
    assert list(enum(*args))
    assert max(Counter(keys).values()) == 1


@pytest.mark.parametrize("enum", [enum_qt, enum_spt])
def test_a_long_row_costs_linear_memory(enum):
    # one row on (0, 1): a filling that kept the letters left of every cell
    # peaked at 16 MB at 2,000 cells and at 15.6 times that at 8,000
    shape = sp if enum is enum_qt else (lambda n: Partition((n,)))
    small, large = (_peak_traced_bytes(enum(VariableSpec(0, 1), shape(n))) for n in (2000, 8000))
    assert large < 6 * small


def _counted_stream(spec, outer, inner):
    """The oracle: the enum_spt stream's weights, counted as packed keys."""
    return dict(Counter(_pack(rows_weight(t.rows, spec.n)) for t in enum_spt(spec, outer, inner)))


def _packed_count_cases():
    # the schur_checks cases, straight shapes with at most n rows
    for lam in partitions_up_to_weight(5):
        for spec in specs_up_to(4):
            if lam.length <= spec.n:
                yield spec, lam, Partition()
    # every ordered pair of shapes of weight <= 4, contained or not, with the
    # empty shape and shapes with more rows than the alphabet among them
    shapes = partitions_up_to_weight(4)
    for outer in shapes:
        for inner in shapes:
            for spec in specs_up_to(3):
                yield spec, outer, inner


@pytest.mark.parametrize("size", [None, 0, 6, 40])
def test_packed_weight_counts_equal_the_counted_stream(monkeypatch, size):
    import qsym.tableaux as tableaux

    cases = list(_packed_count_cases())
    expect = [_counted_stream(*case) for case in cases]
    if size is not None:
        # the row transfer keeps no last-row memo, so no cap may change the
        # counts
        monkeypatch.setattr(tableaux, "_MEMO_SIZE", size)
    assert [spt_weight_counts(*case) for case in cases] == expect
    assert spt_weight_counts(VariableSpec(0, 0), Partition()) == {0: 1}
    assert spt_weight_counts(VariableSpec(1, 0), Partition((1, 1))) == {}


def test_packed_weight_counts_stop_within_one_batch_of_the_budget(monkeypatch):
    # the last row is one cell, so one batch adds at most one key per letter
    spec, lam = VariableSpec(2, 1), Partition((4, 3, 1))
    terms, letters = len(spt_weight_counts(spec, lam)), len(spec.unprimed_alphabet())
    budget = 10
    assert terms > budget + letters
    monkeypatch.setenv("QSYM_MAX_TERMS", str(budget))
    with pytest.raises(TermBudgetExceeded, match="QSYM_MAX_TERMS=10") as info:
        spt_weight_counts(spec, lam)
    (reached,) = map(int, re.findall(r"has (\d+) terms", str(info.value)))
    assert budget < reached <= budget + letters


def test_packed_weights_overflow_instead_of_carrying():
    # x1^32768 in a 16-bit field would read as x1^-32768 * x2
    for spec in (VariableSpec(0, 2), VariableSpec(1, 0)):
        with pytest.raises(ExponentOverflow):
            spt_weight_counts(spec, Partition((1 << 15,)))
    assert spt_weight_counts(VariableSpec(0, 1), Partition(((1 << 15) - 1,))) == {(1 << 15) - 1: 1}
    # the guard counts the columns that hold cells, not the outer shape's first part
    one_cell = spt_weight_counts(VariableSpec(0, 2), Partition((40000,)), Partition((39999,)))
    assert one_cell == {_pack((1, 0)): 1, _pack((0, 1)): 1}


def test_a_one_row_shape_stops_at_the_budget_before_reading_its_fillings(monkeypatch):
    # (20) on (3, 3) has 3.1 million fillings and 719,026 weights; counting
    # them all before the first budget check took seconds and 274 MB
    spec, budget = VariableSpec(3, 3), 50
    monkeypatch.setenv("QSYM_MAX_TERMS", str(budget))
    with pytest.raises(TermBudgetExceeded) as info:
        spt_weight_counts(spec, Partition((20,)))
    (reached,) = map(int, re.findall(r"has (\d+) terms", str(info.value)))
    assert budget < reached <= budget + len(spec.unprimed_alphabet())


@pytest.mark.parametrize(
    "lam, spec",
    [((6, 4, 3, 1), (2, 2)), ((7, 5, 3, 2), (3, 1)), ((9, 6, 3), (0, 4))],
)
def test_row_transfer_equals_the_definition_on_larger_shapes(lam, spec):
    lam, spec = Partition(lam), VariableSpec(*spec)
    assert spt_weight_counts(spec, lam) == inter_schur(lam, spec, "definition").terms


def test_row_transfer_across_an_empty_middle_row():
    # row 2 is empty, so row 3 takes its ST3 floor alone and sits under no cell
    spec, outer, inner = VariableSpec(2, 2), Partition((4, 3, 3, 1)), Partition((3, 3))
    expect = _counted_stream(spec, outer, inner)
    assert len(expect) > 10
    assert spt_weight_counts(spec, outer, inner) == expect
