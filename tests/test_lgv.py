import pytest

from qsym import (
    EMPTY,
    LatticePath,
    LaurentPoly,
    PathFamily,
    PrimedTableau,
    StrictPartition,
    VariableSpec,
    enum_path_families,
    enum_qt,
    family_weight,
    letter,
    lgv_weight_sum,
    qI_branch,
    qI_tableau,
    qt_weight,
    validate_family,
)
from qsym.checks import qi_cases
from qsym.errors import PreconditionError

L = letter


def sp(*parts):
    return StrictPartition(tuple(parts))


def test_one_cell_four_families():
    spec = VariableSpec(1, 0)
    families = list(enum_path_families(sp(1), EMPTY, spec))
    assert len(families) == 4
    firsts = {f.paths[0].letters[0] for f in families}
    assert firsts == {L(1, primed=True), L(1), L(1, barred=True, primed=True), L(1, barred=True)}
    total = lgv_weight_sum(sp(1), EMPTY, spec)
    assert total == (LaurentPoly.variable(1, 0) + LaurentPoly.variable(1, 0, -1)).scale(2)


def test_equal_shapes_single_vertical_family():
    spec = VariableSpec(1, 1)
    families = list(enum_path_families(sp(2, 1), sp(2, 1), spec))
    assert len(families) == 1
    assert all(not p.letters for p in families[0].paths)
    assert family_weight(families[0], spec) == (0, 0)


def test_not_contained_empty():
    assert list(enum_path_families(sp(1), sp(2), VariableSpec(1, 1))) == []


def test_weight_sum_matches_tableau_route():
    for lam, mu, spec in [
        (sp(2, 1), EMPTY, VariableSpec(0, 2)),
        (sp(2, 1), EMPTY, VariableSpec(1, 1)),
        (sp(3, 1), sp(1), VariableSpec(2, 0)),
        (sp(3, 2), sp(2), VariableSpec(1, 2)),
    ]:
        assert lgv_weight_sum(lam, mu, spec) == qI_tableau(lam, mu, spec)


def test_bijection_on_small_shape():
    lam, mu, spec = sp(2, 1), EMPTY, VariableSpec(1, 1)
    families = list(enum_path_families(lam, mu, spec))
    tabs = set(enum_qt(spec, lam, mu))
    mapped = [f.to_tableau(lam, mu) for f in families]
    assert len(set(mapped)) == len(families)
    assert set(mapped) == tabs
    assert sorted(family_weight(f, spec) for f in families) == sorted(
        qt_weight(t, spec) for t in tabs
    )


def test_figure_family_validates_and_maps():
    spec = VariableSpec(3, 2)
    lam, mu = sp(7, 6, 5, 2, 1), sp(6, 4, 1)
    paths = (
        LatticePath(
            ((6, 0), (6, 2), (6, 4), (6, 6), (6, 8), (6, 10), (7, 12), (7, 14), (7, 16)),
            (L(3, barred=True, primed=True),),
        ),
        LatticePath(
            ((4, 0), (4, 2), (4, 4), (4, 6), (5, 6), (5, 8), (5, 10), (5, 12), (6, 12), (6, 14), (6, 16)),
            (L(2), L(3, barred=True)),
        ),
        LatticePath(
            ((1, 0), (2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (3, 10), (4, 10), (4, 12), (4, 14), (4, 16), (5, 16)),
            (L(1, primed=True), L(3), L(3), L(5)),
        ),
        LatticePath(
            ((0, 3), (1, 4), (1, 6), (1, 8), (1, 10), (1, 12), (2, 14), (2, 16)),
            (L(1, barred=True, primed=True), L(4, primed=True)),
        ),
        LatticePath(((0, 14), (1, 14), (1, 16)), (L(4),)),
    )
    fam = PathFamily(spec, paths)
    assert validate_family(fam, lam, mu, spec)
    expected_tableau = PrimedTableau(
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
    assert fam.to_tableau(lam, mu) == expected_tableau
    assert family_weight(fam, spec) == (0, 1, 0, 2, 1)
    # clashing vertices or out-of-order boundary entries are rejected
    broken = PathFamily(spec, paths[:4] + (LatticePath(((0, 3), (1, 4), (1, 16)), (L(2, primed=True),)),))
    assert not validate_family(broken, lam, mu, spec)


def test_enumeration_families_all_validate():
    lam, mu, spec = sp(3, 1), sp(1), VariableSpec(1, 1)
    families = list(enum_path_families(lam, mu, spec))
    assert families
    for fam in families:
        assert validate_family(fam, lam, mu, spec)


def test_dump_format():
    spec = VariableSpec(1, 0)
    fam = next(iter(enum_path_families(sp(1), EMPTY, spec)))
    text = fam.dump()
    assert "letters:" in text and "(" in text


def _family_sum(lam, mu, spec):
    return LaurentPoly.from_exponents(
        spec.n, (family_weight(f, spec) for f in enum_path_families(lam, mu, spec))
    )


def test_transfer_matrix_equals_family_enumeration():
    for lam, mu, spec in qi_cases(3, 3, 3):
        assert lgv_weight_sum(lam, mu, spec) == _family_sum(lam, mu, spec), (lam, mu, spec)


def test_transfer_matrix_keeps_the_index_rule():
    # the first sweep case where the rule has content: ordering the entries by
    # level alone admits 136 more families, two of them entering on 1 and 1b
    lam, mu, spec = sp(4, 3), EMPTY, VariableSpec(1, 1)
    total = lgv_weight_sum(lam, mu, spec)
    assert total == _family_sum(lam, mu, spec) == qI_tableau(lam, mu, spec)
    assert sum(total.terms.values()) == 56


def test_transfer_matrix_edges():
    spec = VariableSpec(1, 1)
    assert lgv_weight_sum(EMPTY, EMPTY, spec) == LaurentPoly.one(2)
    assert lgv_weight_sum(sp(2, 1), sp(3), spec).is_zero()
    with pytest.raises(PreconditionError):
        lgv_weight_sum(sp(3, 2, 1), EMPTY, spec)


@pytest.mark.parametrize(
    "lam, mu, spec",
    [
        ((6, 4, 2), (), (2, 2)),
        ((6, 4, 2), (), (3, 1)),
        ((6, 4, 2), (), (3, 2)),
        ((7, 5, 3, 1), (), (2, 2)),
        ((7, 5, 3, 1), (3, 1), (2, 2)),
        ((6, 4, 2), (2,), (3, 2)),
    ],
)
def test_lgv_equals_branch_beyond_enumeration(lam, mu, spec):
    lam, mu, spec = sp(*lam), sp(*mu), VariableSpec(*spec)
    assert lgv_weight_sum(lam, mu, spec) == qI_branch(lam, mu, spec)
