from collections import Counter

import pytest

import qsym.symfun as symfun
from qsym import (
    LaurentPoly,
    Partition,
    PreconditionError,
    VariableSpec,
    check_union_identity,
    complete_h,
    elementary_e,
    enum_spt,
    inter_schur,
    schur_skew,
    schur_skew_e,
    series_from_linear_factors,
    symp_schur,
)
from qsym.checks import partitions_up_to_weight, specs_up_to
from qsym.cli import main
from qsym.errors import ExponentOverflow, TermBudgetExceeded
from qsym.symfun import _H_CACHE

from conftest import rows_weight


def v(n, i, p=1):
    return LaurentPoly.variable(n, i, p)


def pp(*parts):
    return Partition(tuple(parts))


def test_complete_h_conventions():
    a = VariableSpec(1, 0)
    assert complete_h(-1, a) == LaurentPoly.zero(1)
    assert complete_h(0, a) == LaurentPoly.one(1)
    assert complete_h(1, a) == v(1, 0) + v(1, 0, -1)


def test_complete_h_two_plain_vars():
    a = VariableSpec(0, 2)
    x1, x2 = v(2, 0), v(2, 1)
    assert complete_h(2, a) == x1 * x1 + x1 * x2 + x2 * x2


def test_a_failed_growth_leaves_the_h_series_at_its_last_degree(monkeypatch):
    a = VariableSpec(2, 2)
    fresh = series_from_linear_factors([], a.monomials(), 17, a.n).coeffs[17]
    _H_CACHE.pop(a, None)
    complete_h(16, a)
    monkeypatch.setenv("QSYM_MAX_TERMS", str(len(fresh.terms) - 1))
    with pytest.raises(TermBudgetExceeded):
        complete_h(17, a)
    monkeypatch.delenv("QSYM_MAX_TERMS")
    assert complete_h(17, a) == fresh
    assert len(_H_CACHE[a].coeffs) == 18


def test_elementary_e():
    a = VariableSpec(0, 3)
    x1, x2, x3 = (v(3, i) for i in range(3))
    assert elementary_e(2, a) == x1 * x2 + x1 * x3 + x2 * x3
    assert elementary_e(4, a) == LaurentPoly.zero(3)
    assert elementary_e(0, a) == LaurentPoly.one(3)


def test_schur_basic():
    a = VariableSpec(0, 2)
    x1, x2 = v(2, 0), v(2, 1)
    assert schur_skew(pp(1), pp(), a) == x1 + x2
    assert schur_skew(pp(2, 1), pp(), a) == x1 * x1 * x2 + x1 * x2 * x2
    assert schur_skew(pp(1), pp(2), a) == LaurentPoly.zero(2)


def test_schur_h_vs_e_forms():
    a = VariableSpec(0, 3)
    for lam in (pp(2, 1), pp(3, 2, 1), pp(2, 2)):
        for mu in (pp(), pp(1), pp(1, 1)):
            assert schur_skew(lam, mu, a) == schur_skew_e(lam, mu, a)


def test_symp_schur_values():
    assert symp_schur(pp(1), 1) == v(1, 0) + v(1, 0, -1)
    u = v(2, 0) + v(2, 0, -1)
    w = v(2, 1) + v(2, 1, -1)
    assert symp_schur(pp(1, 1), 2) == u * w + LaurentPoly.one(2)
    assert symp_schur(pp(), 3) == LaurentPoly.one(3)


def test_symp_schur_row_limit():
    with pytest.raises(PreconditionError):
        symp_schur(pp(1, 1), 1)


def test_inter_schur_one_cell():
    got = inter_schur(pp(1), VariableSpec(1, 1))
    assert got == v(2, 0) + v(2, 0, -1) + v(2, 1)


def test_inter_schur_degenerations():
    for lam in (pp(1), pp(2), pp(2, 1), pp(2, 2)):
        spec = VariableSpec(0, 2)
        assert inter_schur(lam, spec) == schur_skew(lam, pp(), spec)
        if lam.length <= 2:
            assert inter_schur(lam, VariableSpec(2, 0)) == symp_schur(lam, 2)


def test_inter_schur_methods_agree():
    for lam in (pp(1), pp(2, 1), pp(3, 1), pp(2, 2), pp(1, 1, 1)):
        for spec in (VariableSpec(1, 1), VariableSpec(1, 2), VariableSpec(2, 1)):
            if lam.length > spec.n:
                continue
            assert inter_schur(lam, spec, "definition") == inter_schur(lam, spec, "tableau")


def test_tableau_route_equals_the_counted_stream_with_its_bound():
    # the schur_checks cases: the packed counts with the bound lam_1 must be
    # the polynomial that counting the enum_spt stream's weights gives
    for lam in partitions_up_to_weight(5):
        for spec in specs_up_to(4):
            if lam.length > spec.n:
                continue
            got = inter_schur(lam, spec, "tableau")
            weights = (rows_weight(t.rows, spec.n) for t in enum_spt(spec, lam))
            counted = LaurentPoly.from_exponents(spec.n, weights)
            assert got == counted and got._bound == counted._bound
    big = inter_schur(pp((1 << 15) - 1), VariableSpec(0, 1), "tableau")
    assert big == v(1, 0, (1 << 15) - 1) and big._bound == (1 << 15) - 1
    with pytest.raises(ExponentOverflow):
        inter_schur(pp(1 << 15), VariableSpec(0, 2), "tableau")


def test_tableau_route_builds_no_tableau(monkeypatch):
    import qsym.tableaux as tableaux

    def refuse(*args):
        raise AssertionError("a tableau was built")

    expect = inter_schur(pp(3, 2), VariableSpec(1, 2), "tableau")
    monkeypatch.setattr(tableaux, "SpTableau", refuse)
    with pytest.raises(AssertionError):
        next(enum_spt(VariableSpec(1, 2), pp(3, 2)))
    assert inter_schur(pp(3, 2), VariableSpec(1, 2), "tableau") == expect


def test_each_symplectic_factor_is_one_determinant(monkeypatch):
    # over the schur_checks cases, from an empty memo: one determinant per
    # distinct (mu, k), on the k-pair alphabet, and definition = tableau
    # while the memo fills and again once it is full
    monkeypatch.setattr(symfun, "_SP_CACHE", {})
    fresh = symfun.symp_schur_on
    calls = Counter()

    def counted(lam, spec):
        calls[lam.parts, spec] += 1
        return fresh(lam, spec)

    monkeypatch.setattr(symfun, "symp_schur_on", counted)
    cases = [
        (lam, spec)
        for lam in partitions_up_to_weight(5)
        for spec in specs_up_to(4)
        if lam.length <= spec.n
    ]
    for _ in ("cold", "warm"):
        for lam, spec in cases:
            assert inter_schur(lam, spec, "definition") == inter_schur(lam, spec, "tableau")
    factors = {
        (mu.parts, spec.k)
        for lam, spec in cases
        for mu in lam.subpartitions()
        if mu.length <= spec.k
    }
    assert set(symfun._SP_CACHE) == factors
    assert calls == Counter({(parts, VariableSpec(k, 0)): 1 for parts, k in factors})
    for (parts, k), value in symfun._SP_CACHE.items():
        assert value == fresh(Partition(parts), VariableSpec(k, 0))


def test_the_skew_factor_has_one_h_series_for_every_k(monkeypatch):
    # the plain factor of inter_schur on (k, 2) is a Schur polynomial on
    # (0, 2), embedded at offset k, so k = 1 and k = 2 share its series
    monkeypatch.setattr(symfun, "_H_CACHE", {})
    monkeypatch.setattr(symfun, "_SP_CACHE", {})
    for spec in (VariableSpec(1, 2), VariableSpec(2, 2)):
        assert inter_schur(pp(2, 1), spec) == inter_schur(pp(2, 1), spec, "tableau")
    assert set(symfun._H_CACHE) == {VariableSpec(0, 2), VariableSpec(1, 0), VariableSpec(2, 0)}


def test_a_memo_hit_meets_the_term_budget(monkeypatch, capsys):
    lam, spec = pp(2, 1), VariableSpec(2, 1)
    terms = len(symp_schur(lam, 2).terms)
    inter_schur(lam, spec, "definition")

    def refuse(*args):
        raise AssertionError("a hit must not run the determinant")

    monkeypatch.setattr(symfun, "symp_schur_on", refuse)
    monkeypatch.setenv("QSYM_MAX_TERMS", str(terms - 1))
    with pytest.raises(TermBudgetExceeded):
        symp_schur(lam, 2)
    with pytest.raises(TermBudgetExceeded):
        inter_schur(lam, spec, "definition")
    code = main(["compute", "--family", "symp-schur", "--lambda", "2,1", "--k", "2"])
    assert code == 3
    assert f"QSYM_MAX_TERMS={terms - 1}" in capsys.readouterr().err
    monkeypatch.setenv("QSYM_MAX_TERMS", str(terms))
    assert len(symp_schur(lam, 2).terms) == terms


def test_inter_schur_row_limit():
    with pytest.raises(PreconditionError):
        inter_schur(pp(1, 1, 1), VariableSpec(1, 1))


def test_union_identity():
    assert check_union_identity(pp(1), VariableSpec(1, 1))
    assert check_union_identity(pp(2), VariableSpec(1, 2))
    assert check_union_identity(pp(), VariableSpec(2, 1))
    assert check_union_identity(pp(2, 1), VariableSpec(1, 1))
    with pytest.raises(PreconditionError):
        check_union_identity(pp(1, 1, 1), VariableSpec(1, 2))
