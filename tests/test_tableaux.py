import hashlib

from qsym import (
    EMPTY,
    LaurentPoly,
    Partition,
    PrimedTableau,
    StrictPartition,
    VariableSpec,
    enum_qt,
    enum_spt,
    letter,
    qt_weight,
    spt_weight,
)
from qsym.checks import partitions_up_to_weight, qi_cases, specs_up_to
from qsym.shapes import enum_strict_between
from qsym.tableaux import is_valid_qt

L = letter


def sp(*parts):
    return StrictPartition(tuple(parts))


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
    weights = sorted(spt_weight(t, VariableSpec(0, 2)) for t in tabs)
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
    assert picked and spt_weight(picked[0], spec) == (0, 0)


def test_spt_skew_plain_is_semistandard():
    # single cell in row 2: both letters allowed once the shape is skew
    tabs = list(enum_spt(VariableSpec(0, 2), Partition((1, 1)), Partition((1,))))
    assert {t.rows[1][0] for t in tabs} == {L(1), L(2)}
