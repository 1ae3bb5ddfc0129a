import pytest
from hypothesis import given, settings

from conftest import poly_strategy
from qsym import (
    LaurentPoly,
    SubstitutionError,
    TermBudgetExceeded,
    VariableCountMismatch,
    parse_poly,
    series_from_linear_factors,
)


def v(n, i, p=1):
    return LaurentPoly.variable(n, i, p)


def test_difference_of_squares():
    x, xi = v(1, 0), v(1, 0, -1)
    assert (x + xi) * (x - xi) == x * x - xi * xi
    assert str((x + xi) * (x - xi)) == "x1^2 - x1^-2"


def test_additive_identity():
    p = v(2, 0) + v(2, 1, -1).scale(3)
    assert p + LaurentPoly.zero(2) == p


def test_hand_multiplication():
    a = (v(2, 0) * v(2, 1)).scale(2)          # 2*x1*x2
    b = (v(2, 0) * v(2, 1, -1)).scale(2)      # 2*x1*x2^-1
    assert a * b == v(2, 0, 2).scale(4)


def test_variable_count_mismatch():
    with pytest.raises(VariableCountMismatch):
        v(1, 0) + v(2, 0)
    with pytest.raises(VariableCountMismatch):
        v(1, 0) * v(2, 0)


def test_substitute_inverse_pair():
    p = v(2, 0) * v(2, 1)
    images = [v(1, 0), v(1, 0, -1)]
    assert p.substitute(images) == LaurentPoly.one(1)


def test_substitute_truncation():
    p = v(2, 0) + v(2, 1)
    assert p.substitute([v(1, 0), LaurentPoly.zero(1)]) == v(1, 0)


def test_substitute_zero_into_negative_power_fails():
    p = v(1, 0, -1)
    with pytest.raises(SubstitutionError):
        p.substitute([LaurentPoly.zero(1)])
    with pytest.raises(SubstitutionError):
        p.substitute([v(2, 0) + v(2, 1)])


def test_substitute_identity():
    p = v(2, 0, -2) + v(2, 1).scale(5)
    assert p.substitute([v(2, 0), v(2, 1)]) == p


def test_series_single_ratio():
    # (1 + x z)/(1 - x z) = 1 + 2x z + 2x^2 z^2 + ...
    x = (1,)
    s = series_from_linear_factors([x], [x], 2, 1)
    assert s.coefficient(0) == LaurentPoly.one(1)
    assert s.coefficient(1) == v(1, 0).scale(2)
    assert s.coefficient(2) == v(1, 0, 2).scale(2)


def test_series_empty_product():
    s = series_from_linear_factors([], [], 3, 1)
    assert [s.coefficient(i) for i in range(4)] == [
        LaurentPoly.one(1),
        LaurentPoly.zero(1),
        LaurentPoly.zero(1),
        LaurentPoly.zero(1),
    ]


def test_series_symplectic_pair_first_order():
    monos = [(1,), (-1,)]
    s = series_from_linear_factors(monos, monos, 1, 1)
    assert s.coefficient(1) == (v(1, 0) + v(1, 0, -1)).scale(2)


def test_series_times_denominators_recovers_numerators():
    nums = [(1, 0), (0, -1)]
    dens = [(1, 1), (-1, 0)]
    s = series_from_linear_factors(nums, dens, 5, 2)
    for d in dens:
        s = s.mul_linear(d, -1)
    assert s == series_from_linear_factors(nums, [], 5, 2)


def test_text_round_trip_examples():
    p = v(2, 0).scale(2) + v(2, 0, -1).scale(2) + v(2, 1).scale(2)
    assert str(p) == "2*x1 + 2*x1^-1 + 2*x2"
    assert parse_poly(str(p), 2) == p
    assert str(parse_poly(str(p), 2)) == str(p)
    assert parse_poly("0", 3) == LaurentPoly.zero(3)


def test_json_round_trip():
    p = v(2, 0, -2).scale(-7) + LaurentPoly.one(2)
    q = LaurentPoly.from_json(p.to_json())
    assert q == p
    assert q.to_json() == p.to_json()


def test_coeff_abbreviation():
    p = v(1, 0) - LaurentPoly.one(1)
    assert str(p) in ("x1 - 1", "-1 + x1")  # constant sorts first
    assert str(v(1, 0).scale(-1)) == "-x1"


def test_term_budget(monkeypatch):
    monkeypatch.setenv("QSYM_MAX_TERMS", "2")
    with pytest.raises(TermBudgetExceeded):
        LaurentPoly(1, {(0,): 1, (1,): 1, (2,): 1})
    monkeypatch.delenv("QSYM_MAX_TERMS")
    LaurentPoly(1, {(0,): 1, (1,): 1, (2,): 1})


def test_term_budget_stops_a_product_before_it_is_built(monkeypatch):
    # 90 x 90 distinct monomials: the full product has 8100 terms
    a = LaurentPoly(2, {(i, 0): 1 for i in range(90)})
    b = LaurentPoly(2, {(0, j): 1 for j in range(90)})
    monkeypatch.setenv("QSYM_MAX_TERMS", "100")
    with pytest.raises(TermBudgetExceeded) as info:
        a * b
    terms = int(info.value.args[0].split()[2])
    assert 100 < terms <= 100 + len(b.terms)


@given(a=poly_strategy(2), b=poly_strategy(2), c=poly_strategy(2))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=poly_strategy(3))
@settings(max_examples=60, deadline=None)
def test_serialize_parse_identity(a):
    assert parse_poly(str(a), 3) == a
    assert str(parse_poly(str(a), 3)) == str(a)
    assert LaurentPoly.from_json(a.to_json()).to_json() == a.to_json()
