import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_strategy
from qsym import (
    ExponentOverflow,
    LaurentPoly,
    ParseError,
    TermBudgetExceeded,
    VariableCountMismatch,
    parse_poly,
    series_from_linear_factors,
    sum_of_products,
)
from qsym.checks import series_inverse_holds
from qsym.ring import (
    _BATCH,
    GrowingSeries,
    _add_products,
    _add_row_products,
    _row_path_pays,
    grow_series,
)
from qsym.tableaux import MAX_VARIABLES


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
    # substitution by the signed permutation inverting every variable
    p = v(2, 0) * v(2, 1)
    inverse = p.permute([0, 1], {0, 1})
    assert inverse == v(2, 0, -1) * v(2, 1, -1)
    assert p * inverse == LaurentPoly.one(2)


def test_substitute_identity():
    q = v(2, 0, -2) + v(2, 1).scale(5)
    assert q.permute([0, 1]) == q


def test_permute_swap():
    q = v(2, 0, -2) + v(2, 1).scale(5)
    assert q.permute([1, 0]) == v(2, 1, -2) + v(2, 0).scale(5)
    # the sign belongs to the source variable: x1 -> 1/x2, x2 -> x1
    assert q.permute([1, 0], {0}) == v(2, 1, 2) + v(2, 0).scale(5)
    with pytest.raises(ValueError):
        q.permute([0, 0])


def test_series_single_ratio():
    # (1 + x z)/(1 - x z) = 1 + 2x z + 2x^2 z^2 + ...
    x = (1,)
    s = series_from_linear_factors([x], [x], 2, 1)
    assert s.coeffs[0] == LaurentPoly.one(1)
    assert s.coeffs[1] == v(1, 0).scale(2)
    assert s.coeffs[2] == v(1, 0, 2).scale(2)


def test_series_empty_product():
    s = series_from_linear_factors([], [], 3, 1)
    assert [s.coeffs[i] for i in range(4)] == [
        LaurentPoly.one(1),
        LaurentPoly.zero(1),
        LaurentPoly.zero(1),
        LaurentPoly.zero(1),
    ]


def test_series_symplectic_pair_first_order():
    monos = [(1,), (-1,)]
    s = series_from_linear_factors(monos, monos, 1, 1)
    assert s.coeffs[1] == (v(1, 0) + v(1, 0, -1)).scale(2)


def test_series_times_denominators_recovers_numerators():
    nums = [(1, 0), (0, -1)]
    dens = [(1, 1), (-1, 0)]
    s = series_from_linear_factors(nums, dens, 5, 2)
    assert series_inverse_holds(s.coeffs, nums, dens, 2)


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


def test_term_budget_stops_a_stream_within_one_batch(monkeypatch):
    # monomials x1^(i // 3), i from 0: the 101st distinct one is the 301st item
    drawn = 0

    def stream():
        nonlocal drawn
        for i in range(100 * _BATCH):
            drawn += 1
            yield (i // 3,)

    monkeypatch.setenv("QSYM_MAX_TERMS", "100")
    with pytest.raises(TermBudgetExceeded):
        LaurentPoly.from_exponents(1, stream())
    assert 301 <= drawn <= 301 + _BATCH


def _json_dumps_form(p):
    terms = [{"exps": list(e), "coeff": str(c)} for e, c in p.sorted_terms()]
    return json.dumps({"n": p.n, "terms": terms})


_wide_terms = st.lists(
    st.tuples(
        st.lists(st.integers(-(2**15) + 1, 2**15 - 1), min_size=6, max_size=6),
        st.integers(-(10**30), 10**30),
    ),
    max_size=6,
)


@given(n=st.integers(0, 6), items=_wide_terms)
@settings(max_examples=80, deadline=None)
def test_to_json_is_the_json_dumps_text(n, items):
    # n = 0, the zero polynomial, negative and big coefficients, extreme exponents
    p = LaurentPoly(n, {tuple(e[:n]): c for e, c in items})
    assert p.to_json() == _json_dumps_form(p)
    assert LaurentPoly.from_json(p.to_json()) == p


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


# -- the packed kernel against a tuple-keyed reference ------------------------


def ref_canon(d):
    return {e: c for e, c in d.items() if c}


def ref_add(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_canon(out)


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return ref_canon(out)


def ref_permute(a, perm, inverted):
    out = {}
    for e, c in a.items():
        image = [0] * len(e)
        for i, x in enumerate(e):
            image[perm[i]] = -x if i in inverted else x
        out[tuple(image)] = c
    return out


def as_tuples(p):
    return dict(p.sorted_terms())


@st.composite
def ring_cases(draw):
    n = draw(st.integers(0, 3))
    # small exponents make terms meet and cancel; large ones fill the fields
    exponent = st.one_of(st.integers(-2, 2), st.integers(-(2**13), 2**13))
    terms = st.dictionaries(st.tuples(*[exponent] * n), st.integers(-3, 3), max_size=5)
    a, b = draw(terms), draw(terms)
    perm = draw(st.permutations(range(n)))
    inverted = draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    width = draw(st.integers(n, n + 2))
    offset = draw(st.integers(0, width - n))
    return n, a, b, draw(st.integers(-3, 3)), perm, inverted, width, offset


@given(case=ring_cases())
@settings(max_examples=150, deadline=None)
def test_packed_ring_matches_tuple_reference(case):
    n, da, db, c, perm, inverted, width, offset = case
    a, b = LaurentPoly(n, da), LaurentPoly(n, db)
    ra, rb = ref_canon(da), ref_canon(db)
    assert as_tuples(a) == ra
    assert as_tuples(a + b) == ref_add(ra, rb, 1)
    assert as_tuples(a - b) == ref_add(ra, rb, -1)
    assert as_tuples(-a) == ref_add({}, ra, -1)
    assert as_tuples(a * b) == ref_mul(ra, rb)
    assert as_tuples(a.scale(c)) == ref_canon({e: c * x for e, x in ra.items()})
    pre, post = (0,) * offset, (0,) * (width - n - offset)
    assert as_tuples(a.embed(width, offset)) == {pre + e + post: x for e, x in ra.items()}
    assert as_tuples(a.permute(perm, inverted)) == ref_permute(ra, perm, inverted)
    assert parse_poly(str(a), n) == a
    assert LaurentPoly.from_json(a.to_json()) == a


def test_product_past_the_field_width_raises_instead_of_wrapping():
    half = v(2, 0, 2**14)
    assert half * v(2, 0, 2**14 - 1) == v(2, 0, 2**15 - 1)
    # x1^(2^15) would carry into the field of x2
    with pytest.raises(ExponentOverflow):
        half * half
    low = v(2, 1, -(2**14))
    with pytest.raises(ExponentOverflow):
        low * low
    for e in (2**15, -(2**15)):
        with pytest.raises(ExponentOverflow):
            v(1, 0, e)


def test_series_past_the_field_width_raises():
    # the z^degree coefficient holds v^degree for each denominator v
    s = series_from_linear_factors([], [(0, -2)], 2**14 - 1, 2)
    assert s.coeffs[2**14 - 1] == v(2, 1, -(2**15 - 2))
    with pytest.raises(ExponentOverflow):
        series_from_linear_factors([], [(0, -2)], 2**14, 2)


# ascending, descending, and each ask repeated after the others
ask_orders = st.sampled_from(
    [sorted, lambda asks: sorted(asks, reverse=True), lambda asks: asks * 2]
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grown_series_equals_fresh_in_any_ask_order(data):
    n = data.draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(-2, 2)] * n)
    nums = data.draw(st.lists(mono, max_size=3))
    dens = data.draw(st.lists(mono, max_size=3))
    order = data.draw(ask_orders)
    asks = order(data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=5)))
    top = max(asks)
    fresh = series_from_linear_factors(nums, dens, top, n)
    assert series_inverse_holds(fresh.coeffs, nums, dens, n)
    series = GrowingSeries(nums, dens, n)
    for d in asks:
        assert grow_series(series, d) == fresh.coeffs[d]
    assert len(series.coeffs) == top + 1


@pytest.mark.parametrize("grown", [0, 3])
def test_grown_series_below_degree_zero_is_zero_and_grows_nothing(grown):
    series = GrowingSeries([], [(1,)], 1)
    grow_series(series, grown)
    before = list(series.coeffs)
    assert grow_series(series, -1) == LaurentPoly.zero(1)
    assert series.coeffs == before


def test_grown_series_past_the_field_width_raises_and_keeps_its_length():
    series = GrowingSeries([], [(2,)], 1)
    assert grow_series(series, 2**14 - 1) == v(1, 0, 2**15 - 2)
    with pytest.raises(ExponentOverflow):
        grow_series(series, 2**14)
    assert len(series.coeffs) == 2**14


def test_exponent_past_the_field_width_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_poly("x1^40000", 1)
    with pytest.raises(ParseError):
        LaurentPoly.from_json('{"n": 1, "terms": [{"exps": [40000], "coeff": "1"}]}')


LIMIT = 2**15 - 1


def term_sort_key(exps):
    """The canonical term order as a tuple key: by leading variable, then
    exponent descending, e.g. x1, x1^-1, x2.  `LaurentPoly.sorted_terms`
    sorts by an int that must order terms the same way."""
    return tuple((i, -e) for i, e in enumerate(exps) if e)


def by_term_sort_key(terms):
    return sorted(((e, c) for e, c in terms.items() if c), key=lambda t: term_sort_key(t[0]))


@given(n=st.integers(0, 8), data=st.data())
@settings(max_examples=200, deadline=None)
def test_sorted_terms_follow_term_sort_key(n, data):
    # zeros placed before, between and after nonzeros decide the order; the
    # extreme exponents fill every bit of a field
    exponent = st.sampled_from([0, 0, 1, -1, 2, -2, LIMIT, -LIMIT, LIMIT - 1, -LIMIT + 1])
    terms = data.draw(st.dictionaries(st.tuples(*[exponent] * n), st.integers(-3, 3), max_size=300))
    assert LaurentPoly(n, terms).sorted_terms() == by_term_sort_key(terms)


def test_sorted_terms_edges():
    assert LaurentPoly.one(0).scale(5).sorted_terms() == [((), 5)]
    assert LaurentPoly.zero(0).sorted_terms() == []
    p = LaurentPoly(2, {(0, 0): 1, (0, LIMIT): 2, (-LIMIT, 0): 3, (LIMIT, -LIMIT): 4, (0, -LIMIT): 5})
    # the constant first, then x1-led terms by descending x1, then x2-led ones
    assert p.sorted_terms() == [
        ((0, 0), 1),
        ((LIMIT, -LIMIT), 4),
        ((-LIMIT, 0), 3),
        ((0, LIMIT), 2),
        ((0, -LIMIT), 5),
    ]
    # +-LIMIT next to zeros where one term's lanes end and the next one's
    # start, the constant between them, and terms led by their last lane
    terms = {
        (0, 0, LIMIT): 1,
        (0, 0, -LIMIT): 2,
        (LIMIT, 0, 0): 3,
        (0, 0, 0): 4,
        (-LIMIT, 0, 0): 5,
        (LIMIT, 0, -LIMIT): 6,
        (0, -LIMIT, 0): 7,
        (-LIMIT, 0, LIMIT): 8,
    }
    assert [c for _, c in LaurentPoly(3, terms).sorted_terms()] == [4, 3, 6, 5, 8, 7, 1, 2]
    # 64 variables: every zero of x64 alone is followed by a nonzero, and the
    # borrow that tells the zeros apart runs through all 64 lanes of the
    # constant to its guard
    n = MAX_VARIABLES

    def mono(*pairs):
        exps = [0] * n
        for i, e in pairs:
            exps[i] = e
        return tuple(exps)

    terms = {
        mono((n - 1, 1)): 1,
        mono(): 2,
        mono((n - 1, -LIMIT)): 3,
        mono((0, 1)): 4,
        mono((0, 1), (n - 1, LIMIT)): 5,
        mono((n - 2, 2)): 6,
        mono((0, -1), (n - 2, 1), (n - 1, 1)): 7,
    }
    assert [c for _, c in LaurentPoly(n, terms).sorted_terms()] == [2, 4, 5, 7, 6, 1, 3]
    assert LaurentPoly(n, terms).sorted_terms() == by_term_sort_key(terms)
    # 2,000 terms, every exponent of x1..x4 in -3..3 in turn
    terms = dict(zip(itertools.islice(itertools.product(range(-3, 4), repeat=4), 2000), range(1, 2001)))
    assert LaurentPoly(4, terms).sorted_terms() == by_term_sort_key(terms)


# -- sum_of_products, against the tuple-keyed reference -------------------------


def ref_sum_of_products(terms):
    out = {}
    for a, b, c in terms:
        out = ref_add(out, ref_mul(as_tuples(a), as_tuples(b)), c)
    return out


@given(n=st.integers(0, 3), data=st.data())
@settings(max_examples=150, deadline=None)
def test_sum_of_products_is_the_naive_sum(n, data):
    # empty term lists, c = 0, zero and one-term factors all come up; the
    # reverse triples with -c cancel the sum to zero
    terms = data.draw(
        st.lists(st.tuples(poly_strategy(n), poly_strategy(n), st.integers(-3, 3)), max_size=5)
    )
    got = sum_of_products(n, terms)
    assert as_tuples(got) == ref_sum_of_products(terms)
    assert 0 not in got.terms.values()
    assert got._bound == max((a._bound + b._bound for a, b, _ in terms), default=0)
    assert sum_of_products(n, iter(terms)) == got
    assert sum_of_products(n, terms + [(b, a, -c) for a, b, c in terms]) == LaurentPoly.zero(n)
    one = LaurentPoly.one(n)
    pairs = [(a, c) for a, _, c in terms]
    assert LaurentPoly.lincomb(n, pairs) == sum_of_products(n, [(a, one, c) for a, c in pairs])


def test_sum_of_products_edges():
    x = v(1, 0) + v(1, 0, -1)
    assert sum_of_products(2, []) == LaurentPoly.zero(2)
    assert sum_of_products(1, [(x, x, 0)]).is_zero()
    assert sum_of_products(1, [(x, LaurentPoly.zero(1), 5)]).is_zero()
    # a one-term factor first, then a merge that cancels it
    assert sum_of_products(1, [(v(1, 0, 2), x, 3), (x, v(1, 0, 2), -3)]).is_zero()
    assert sum_of_products(1, [(LaurentPoly.one(1), x, 1)]) == x
    assert sum_of_products(1, [(x, x, 1), (LaurentPoly.one(1), LaurentPoly.one(1), -2)]) == (
        v(1, 0, 2) + v(1, 0, -2)
    )


def test_sum_of_products_checks_every_factor():
    one = LaurentPoly.one(1)
    for bad in ([(one, 3, 1)], [(3, one, 1)], [(one, one, 1), (one, None, 1)]):
        with pytest.raises(TypeError):
            sum_of_products(1, bad)
    for bad in ([(v(2, 0), one, 1)], [(one, v(2, 0), 1)], [(one, one, 1), (one, v(2, 0), 0)]):
        with pytest.raises(VariableCountMismatch):
            sum_of_products(1, bad)
    with pytest.raises(VariableCountMismatch):
        LaurentPoly.lincomb(2, [(v(2, 0), 1), (v(1, 0), 1)])
    with pytest.raises(TypeError):
        LaurentPoly.lincomb(1, [(3, 1)])


def test_sum_of_products_overflows_on_any_one_product():
    half, small = v(2, 0, 2**14), v(2, 1, 3)
    assert sum_of_products(2, [(half, v(2, 0, 2**14 - 1), 1)]) == v(2, 0, 2**15 - 1)
    # the one product that reaches 2^15 raises, wherever it is and whatever c is
    for c in (1, 0):
        with pytest.raises(ExponentOverflow):
            sum_of_products(2, [(small, small, 1), (half, half, c), (small, small, 1)])
    with pytest.raises(ExponentOverflow):
        sum_of_products(2, [(half, small, 1), (small, half, 1), (half, half, 1)])


def test_sum_of_products_stops_within_one_row_of_the_budget(monkeypatch):
    # 90 x 90 distinct monomials: the product alone has 8100 terms
    a = LaurentPoly(2, {(i, 0): 1 for i in range(90)})
    b = LaurentPoly(2, {(0, j): 1 for j in range(90)})
    monkeypatch.setenv("QSYM_MAX_TERMS", "100")
    for terms in ([(a, b, 1)], [(a, LaurentPoly.one(2), 1), (b, a, 2)]):
        with pytest.raises(TermBudgetExceeded) as info:
            sum_of_products(2, terms)
        count = int(info.value.args[0].split()[2])
        assert 100 < count <= 100 + len(b.terms)
    with pytest.raises(TermBudgetExceeded):
        LaurentPoly.lincomb(2, [(a, 1), (b, 1)])


# -- the row path, against the dict loop ----------------------------------------


def row_poly_strategy(n, x1_free=False):
    """Sparse polynomials with negative x1 exponents, or none in x1, and
    coefficients from small to beyond 2^64 of either sign."""
    e1 = st.just(0) if x1_free else st.integers(-6, 5)
    exps = st.tuples(e1, *([st.integers(-2, 2)] * (n - 1)))
    coeff = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80)).filter(bool)
    return st.dictionaries(exps, coeff, min_size=1, max_size=10).map(
        lambda d: LaurentPoly(n, d)
    )


def factor_strategy(n):
    return st.one_of(row_poly_strategy(n), row_poly_strategy(n, x1_free=True))


def both_paths(placed, products):
    """The sums that the row path and the dict loop add onto `placed`."""
    by_rows, by_pairs = dict(placed), dict(placed)
    _add_row_products(by_rows, products)
    for ta, tb, c in products:
        _add_products(by_pairs, ta, tb, c, None)
    return [{e: c for e, c in out.items() if c} for out in (by_rows, by_pairs)]


@given(n=st.integers(1, 5), data=st.data())
@settings(max_examples=100, deadline=None)
def test_row_path_equals_the_dict_loop(n, data):
    # each triple has its own lowest x1 exponent; the placed terms stand for
    # what a leading one-term triple fills in before the merged products
    triples = data.draw(
        st.lists(
            st.tuples(factor_strategy(n), factor_strategy(n), st.integers(-3, 3).filter(bool)),
            min_size=1,
            max_size=4,
        )
    )
    placed = data.draw(st.one_of(st.just(LaurentPoly.zero(n)), row_poly_strategy(n))).terms
    products = [(a.terms, b.terms, c) for a, b, c in triples]
    by_rows, by_pairs = both_paths(placed, products)
    assert by_rows == by_pairs
    # the reverse triples cancel every product: only the placed terms remain
    back = products + [(tb, ta, -c) for ta, tb, c in products]
    assert both_paths(placed, back) == [placed, placed]


def test_row_path_examples():
    x = v(3, 0)
    dense = LaurentPoly(
        3, {(i - 4, j, 0): (-1) ** i * (i + j + 1) for i in range(9) for j in range(3)}
    )
    big = LaurentPoly(3, {(-3, 1, 1): 2**70 + 1, (2, 0, -1): -(2**66), (0, 0, 0): 7})
    x1_free = LaurentPoly(3, {(0, 1, 0): 3, (0, -1, 2): -5})
    cases = [
        [(dense.terms, dense.terms, 1)],
        [(big.terms, dense.terms, -2), (big.terms, big.terms, 3)],
        [(x1_free.terms, dense.terms, 1), (x1_free.terms, x1_free.terms, -1)],
        # different lowest x1 exponents: x1^-4 and x1^0 up to x1^8
        [(dense.terms, dense.terms, 1), ((x * x).terms, dense.terms, 1)],
        # a product that cancels to zero
        [(dense.terms, big.terms, 1), (big.terms, dense.terms, -1)],
    ]
    for products in cases:
        for placed in ({}, dense.terms, (x * dense).terms):
            by_rows, by_pairs = both_paths(placed, products)
            assert by_rows == by_pairs
    assert both_paths({}, cases[-1]) == [{}, {}]


def test_sum_of_products_takes_the_row_path_on_dense_factors():
    # 30 x1-exponents by 3 x2-exponents: 8100 term pairs on 9 row pairs; a
    # leading one-term triple fills the sum first
    a = LaurentPoly(2, {(i - 10, j): i + 2 * j - 20 for i in range(30) for j in range(3)})
    b = LaurentPoly(2, {(i, -j): 1 for i in range(30) for j in range(3)})
    assert _row_path_pays([(a.terms, b.terms, 1)])
    assert not _row_path_pays([(v(2, 0).terms, b.terms, 1)])
    terms = [(v(2, 1, 5), a, 2), (a, b, 1), (b, b, -3)]
    assert as_tuples(sum_of_products(2, terms)) == ref_sum_of_products(terms)


def test_a_row_path_product_stops_within_one_row_of_the_budget(monkeypatch):
    a = LaurentPoly(2, {(i, j): 1 for i in range(30) for j in range(3)})
    b = LaurentPoly(2, {(i, -j): 1 for i in range(30) for j in range(3)})
    assert _row_path_pays([(a.terms, b.terms, 1)])
    assert len(sum_of_products(2, [(a, b, 1)]).terms) > 100
    monkeypatch.setenv("QSYM_MAX_TERMS", "100")
    for terms in ([(a, b, 1)], [(v(2, 1), a, 1), (b, a, 2)]):
        with pytest.raises(TermBudgetExceeded) as info:
            sum_of_products(2, terms)
        count = int(info.value.args[0].split()[2])
        assert 100 < count <= 100 + len(b.terms)
