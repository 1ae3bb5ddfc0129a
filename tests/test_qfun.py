import hashlib
import json
from pathlib import Path

import pytest

import qsym.lgv
import qsym.qfun
import qsym.ring
import qsym.tableaux
from qsym import (
    EMPTY,
    LaurentPoly,
    Partition,
    PreconditionError,
    QContext,
    StrictPartition,
    TermBudgetExceeded,
    VariableSpec,
    build_jp_matrix,
    enum_path_families,
    enum_qt,
    enum_spt,
    enum_strict_between,
    inter_schur,
    pfaffian,
    qA_two_row,
    qC_two_row,
    qI_branch,
    qI_def,
    qI_jp,
    qI_tableau,
    lgv_weight_sum,
    q_row,
    q_single_var,
    qt_weight,
)
from qsym.checks import (
    ROUTES,
    Domain,
    qi_cases,
    single_step_determinant,
    specs_up_to,
    strict_partitions,
)
from qsym.ring import _BATCH


def v(n, i, p=1):
    return LaurentPoly.variable(n, i, p)


def sp(*parts):
    return StrictPartition(tuple(parts))


def u_of(n, i):
    return v(n, i) + v(n, i, -1)


def test_q_row_values():
    assert q_row(0, VariableSpec(2, 1)) == LaurentPoly.one(3)
    assert q_row(-3, VariableSpec(1, 0)) == LaurentPoly.zero(1)
    assert q_row(1, VariableSpec(1, 0)) == u_of(1, 0).scale(2)
    expect = v(1, 0, 2).scale(2) + LaurentPoly.one(1).scale(4) + v(1, 0, -2).scale(2)
    assert q_row(2, VariableSpec(1, 0)) == expect


def test_qA_two_row_frozen():
    x1, x2 = v(2, 0), v(2, 1)
    assert qA_two_row(2, 1, 2) == (x1 * x2 * (x1 + x2)).scale(4)
    with pytest.raises(PreconditionError):
        qA_two_row(1, 1, 2)
    with pytest.raises(PreconditionError):
        qA_two_row(2, 0, 2)


def test_qC_two_row_single_pair_vanishes():
    # two rows cannot fit a single symplectic pair; the tableau family is
    # empty for the same reason
    from qsym import enum_qt

    assert qC_two_row(2, 1, 1) == LaurentPoly.zero(1)
    assert list(enum_qt(VariableSpec(1, 0), sp(2, 1))) == []


def test_qC_two_row_matches_tableau_sum():
    got = qC_two_row(2, 1, 2)
    u, w = u_of(2, 0), u_of(2, 1)
    assert got == (u * w * (u + w)).scale(4)
    assert got == qI_tableau(sp(2, 1), EMPTY, VariableSpec(2, 0))


def test_qI_jp_pure_spec_values():
    x1, x2 = v(2, 0), v(2, 1)
    assert qI_jp(sp(2, 1), EMPTY, VariableSpec(0, 2)) == (x1 * x2 * (x1 + x2)).scale(4)
    assert qI_jp(sp(1), sp(2), VariableSpec(0, 2)) == LaurentPoly.zero(2)
    assert qI_jp(sp(1), EMPTY, VariableSpec(1, 0)) == u_of(1, 0).scale(2)
    assert qI_jp(sp(2, 1), sp(2, 1), VariableSpec(1, 0)) == LaurentPoly.one(1)


def test_qI_def_one_cell():
    got = qI_def(sp(1), EMPTY, VariableSpec(1, 1))
    assert got == (u_of(2, 0) + v(2, 1)).scale(2)


def test_qI_def_degenerations():
    for lam in (sp(2, 1), sp(3, 1), sp(3)):
        for mu in (EMPTY, sp(1), sp(2)):
            a_spec = VariableSpec(0, 2)
            c_spec = VariableSpec(2, 0)
            assert qI_def(lam, mu, a_spec) == qI_jp(lam, mu, a_spec)
            assert qI_def(lam, mu, c_spec) == qI_jp(lam, mu, c_spec)


def _pairs_past_qt5():
    """The skew pairs on a pure spec, parts <= 5 and 0-3 variables, whose
    shape has more rows beyond its inner shape than variables: the factors
    of qI_def that vanish by QT5."""
    for outer in strict_partitions(5, 5):
        for inner in enum_strict_between(EMPTY, outer):
            for c in range(min(outer.length - inner.length, 4)):
                for spec in (VariableSpec(c, 0), VariableSpec(0, c)):
                    yield outer, inner, spec


def test_qI_def_skips_only_factors_that_vanish_by_length():
    # qI_def drops the symplectic factor nu/mu on k pairs or the plain factor
    # lam/nu on m variables when it has more rows beyond its inner shape than
    # variables, since qI_jp returns zero for it at once; the full Pfaffian
    # expansion of each such factor is zero too
    ctx = QContext()
    pairs = 0
    for outer, inner, spec in _pairs_past_qt5():
        mat = build_jp_matrix(outer, inner, spec, ctx)
        assert pfaffian(mat, spec.n).is_zero(), (outer, inner, spec)
        pairs += 1
    assert pairs == 1122


def test_qI_jp_returns_qt5_zeros_without_a_matrix(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("qI_jp built a matrix")

    monkeypatch.setattr(qsym.qfun, "build_jp_matrix", no_matrix)
    ctx = QContext()
    for outer, inner, spec in _pairs_past_qt5():
        assert qI_jp(outer, inner, spec, ctx) == LaurentPoly.zero(spec.n)
    # nor is anything looked up or kept
    assert not ctx.cache and not ctx.row_series


def test_qI_tableau_examples():
    assert qI_tableau(sp(1), EMPTY, VariableSpec(1, 0)) == u_of(1, 0).scale(2)
    x1, x2 = v(2, 0), v(2, 1)
    assert qI_tableau(sp(2, 1), EMPTY, VariableSpec(0, 2)) == (
        x1 * x2 * (x1 + x2)
    ).scale(4)
    assert qI_tableau(sp(2, 1), sp(3), VariableSpec(1, 1)) == LaurentPoly.zero(2)


def test_qI_branch_examples():
    assert qI_branch(sp(1), EMPTY, VariableSpec(1, 0)) == u_of(1, 0).scale(2)
    assert qI_branch(sp(2, 1), sp(2, 1), VariableSpec(1, 1)) == LaurentPoly.one(2)
    x1, x2 = v(2, 0), v(2, 1)
    assert qI_branch(sp(2, 1), EMPTY, VariableSpec(0, 2)) == (
        x1 * x2 * (x1 + x2)
    ).scale(4)


def test_qI_jp_examples():
    x1, x2 = v(2, 0), v(2, 1)
    assert qI_jp(sp(2, 1), EMPTY, VariableSpec(0, 2)) == (x1 * x2 * (x1 + x2)).scale(4)
    spec = VariableSpec(1, 1)
    assert qI_jp(sp(2, 1), sp(1), spec) == qI_tableau(sp(2, 1), sp(1), spec)
    # two rows on a single symplectic pair vanish, as in the tableau family
    assert qI_jp(sp(3, 1), EMPTY, VariableSpec(1, 0)) == LaurentPoly.zero(1)
    # one-row fallback
    assert qI_jp(sp(3), sp(1), spec) == q_row(2, spec)
    assert qI_jp(EMPTY, EMPTY, spec) == LaurentPoly.one(2)


def test_two_row_shape_frozen_value():
    # weight-listing oracle, worked by hand: shape (2,1) on one pair plus one
    # plain variable
    spec = VariableSpec(1, 1)
    x1, x2 = v(2, 0), v(2, 1)
    expect = (
        (v(2, 0, 2) * x2).scale(4)
        + x2.scale(8)
        + (v(2, 0, -2) * x2).scale(4)
        + (x1 * x2 * x2).scale(4)
        + (v(2, 0, -1) * x2 * x2).scale(4)
    )
    qi_rows = {m: r.fn for (f, m), r in ROUTES.items() if f == "qI" and m != "lgv"}
    assert list(qi_rows) == ["definition", "tableau", "branch", "pfaffian"]
    for name, fn in qi_rows.items():
        assert fn(sp(2, 1), EMPTY, spec, QContext()) == expect, name


def test_q_single_var():
    plain, symplectic = VariableSpec(0, 1), VariableSpec(1, 0)
    assert q_single_var(sp(2), sp(1), plain) == v(1, 0).scale(2)
    assert q_single_var(sp(2, 1), EMPTY, plain) == LaurentPoly.zero(1)
    assert q_single_var(sp(2, 1), sp(2, 1), symplectic) == LaurentPoly.one(1)
    assert q_single_var(sp(3, 1), sp(1), symplectic) == (
        v(1, 0, 3) + v(1, 0).scale(4) + v(1, 0, -1).scale(4) + v(1, 0, -3)
    ).scale(2)
    with pytest.raises(PreconditionError):
        q_single_var(sp(2), sp(1), VariableSpec(1, 1))


def test_row_count_preconditions():
    for op in (qI_def, qI_tableau, qI_branch):
        with pytest.raises(PreconditionError):
            op(sp(2, 1), EMPTY, VariableSpec(0, 1))
    # the Pfaffian route degenerates to the pure families for k=0 or m=0,
    # so only mixed specs enforce the row bound
    with pytest.raises(PreconditionError):
        qI_jp(sp(3, 2, 1), EMPTY, VariableSpec(1, 1))
    assert qI_jp(sp(2, 1), EMPTY, VariableSpec(0, 1)) == LaurentPoly.zero(1)
    # every caller of VariableSpec.check_rows raises its one message
    lam, spec = sp(3, 2, 1), VariableSpec(1, 1)
    calls = [
        lambda: qI_def(lam, EMPTY, spec),
        lambda: qI_tableau(lam, EMPTY, spec),
        lambda: qI_branch(lam, EMPTY, spec),
        lambda: qI_jp(lam, EMPTY, spec),
        lambda: lgv_weight_sum(lam, EMPTY, spec),
        lambda: next(enum_path_families(lam, EMPTY, spec)),
        lambda: inter_schur(Partition(lam.parts), spec, "definition"),
        lambda: inter_schur(Partition(lam.parts), spec, "tableau"),
        lambda: Domain().check(Partition(lam.parts), Partition(), spec),
        lambda: spec.check_rows(lam),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="^3 rows on 2 variables$"):
            call()
    assert spec.check_rows(sp(2, 1)) is None


def test_context_cache_matches_fresh():
    spec = VariableSpec(1, 1)
    ctx = QContext()
    warm = qI_def(sp(3, 1), sp(1), spec, ctx)
    again = qI_def(sp(3, 1), sp(1), spec, ctx)
    fresh = qI_def(sp(3, 1), sp(1), spec, QContext())
    assert warm == again == fresh
    assert ("Idef", (3, 1), (1,), spec) in ctx.cache


def test_ascending_asks_do_the_ring_work_of_one_cold_growth(monkeypatch):
    calls = 0
    kernel = qsym.ring.sum_of_products

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(qsym.ring, "sum_of_products", counted)
    for spec in specs_up_to(4):
        ctx = QContext()
        for l in range(15):
            q_row(l, spec, ctx)
        warm, calls = calls, 0
        q_row(14, spec, QContext())
        assert calls == warm
        calls = 0


def test_row_series_under_a_budget_equals_fresh(monkeypatch):
    # up to q_row(20) (19,481 terms) each value fits; q_row(21) has 23,276
    monkeypatch.setenv("QSYM_MAX_TERMS", "20000")
    spec, ctx = VariableSpec(2, 2), QContext()
    for l in range(16, 22):
        try:
            fresh = q_row(l, spec, QContext())
        except TermBudgetExceeded:
            with pytest.raises(TermBudgetExceeded):
                q_row(l, spec, ctx)
        else:
            assert q_row(l, spec, ctx) == fresh


def test_a_failed_growth_leaves_the_row_series_at_its_last_degree(monkeypatch):
    spec, ctx = VariableSpec(2, 2), QContext()
    fresh = q_row(17, spec, QContext())
    q_row(16, spec, ctx)
    monkeypatch.setenv("QSYM_MAX_TERMS", str(len(fresh.terms) - 1))
    with pytest.raises(TermBudgetExceeded):
        q_row(17, spec, ctx)
    monkeypatch.delenv("QSYM_MAX_TERMS")
    assert q_row(17, spec, ctx) == fresh
    assert len(ctx.row_series[spec].coeffs) == 18


def test_context_less_call_leaves_no_module_cache():
    qI_def(sp(3, 1), sp(1), VariableSpec(1, 1))
    contexts = [c for c in vars(qsym.qfun).values() if isinstance(c, QContext)]
    assert all(not c.cache and not c.row_series for c in contexts)
    lgv_weight_sum(sp(3, 1), sp(1), VariableSpec(1, 1))
    tables = [t for name, t in vars(qsym.lgv).items() if isinstance(t, dict) and name[:2] != "__"]
    assert not any(tables)
    # the last-row memos of the tableau streams live in the call
    assert sum(1 for _ in enum_qt(VariableSpec(1, 1), sp(3, 1))) > 0
    assert sum(1 for _ in enum_spt(VariableSpec(1, 1), Partition((2, 1)))) > 0
    tables = [
        t for name, t in vars(qsym.tableaux).items() if isinstance(t, dict) and name[:2] != "__"
    ]
    assert not any(tables)


# (30): one row, whose fillings all come from the last-row step
@pytest.mark.parametrize("lam", [sp(6, 4, 2), sp(30)])
def test_term_budget_stops_the_tableau_route_within_one_batch(monkeypatch, lam):
    spec, budget = VariableSpec(2, 2), 100
    # the stream position at which the distinct weights first pass the budget
    seen = set()
    for passed, t in enumerate(enum_qt(spec, lam), 1):
        seen.add(qt_weight(t, spec))
        if len(seen) > budget:
            break
    drawn = 0

    def counted(*args):
        nonlocal drawn
        for t in enum_qt(*args):
            drawn += 1
            yield t

    monkeypatch.setattr(qsym.qfun, "enum_qt", counted)
    monkeypatch.setenv("QSYM_MAX_TERMS", str(budget))
    with pytest.raises(TermBudgetExceeded):
        qI_tableau(lam, EMPTY, spec, QContext())
    assert passed <= drawn <= passed + _BATCH


@pytest.mark.parametrize("route", [qI_def, qI_branch])
def test_term_budget_stops_the_route_before_the_shapes_are_listed(monkeypatch, route):
    built = 0
    check = StrictPartition.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(StrictPartition, "__post_init__", counted)
    monkeypatch.setenv("QSYM_MAX_TERMS", "50")
    # 300,501 strict shapes lie inside (800, 600); q_800 on one pair has 801 terms
    with pytest.raises(TermBudgetExceeded):
        route(sp(800, 600), EMPTY, VariableSpec(1, 1), QContext())
    assert built < 1000


@pytest.mark.parametrize("spec", [VariableSpec(0, 1), VariableSpec(1, 0)])
def test_each_step_is_computed_once_per_context(monkeypatch, spec):
    # (4, 2) grows by two rows over the empty shape, so its step is zero at once
    shapes = [(sp(3, 1), sp(2, 1)), (sp(4, 2), sp(3, 2)), (sp(3, 1), sp(1)), (sp(4, 2), EMPTY)]
    fresh = [q_single_var(lam, mu, spec, QContext()) for lam, mu in shapes]
    assert all(not value.is_zero() for value in fresh[:3])
    calls = []
    real = qsym.qfun._strip
    monkeypatch.setattr(qsym.qfun, "_strip", lambda lam, mu: calls.append(lam) or real(lam, mu))
    ctx = QContext()
    assert [q_single_var(lam, mu, spec, ctx) for lam, mu in shapes] == fresh
    made = len(calls)
    assert made
    assert [q_single_var(lam, mu, spec, ctx) for lam, mu in shapes] == fresh
    assert len(calls) == made
    for (lam, mu), value in zip(shapes[:3], fresh):
        assert ctx.cache["Q1", spec, lam.parts, mu.parts] == value


def test_single_steps_equal_their_determinants():
    # every pair of strict shapes with parts <= 7 and at most 4 rows, nested or not
    shapes = strict_partitions(7, 4)
    assert len(shapes) == 99
    for spec in (VariableSpec(0, 1), VariableSpec(1, 0)):
        steps, rows = QContext(), QContext()
        mismatches = [
            (lam, mu)
            for lam in shapes
            for mu in shapes
            if q_single_var(lam, mu, spec, steps) != single_step_determinant(lam, mu, spec, rows)
        ]
        assert mismatches == []


def test_branch_keeps_its_sub_values_per_spec():
    lam, rest, ctx = sp(4, 2), VariableSpec(1, 1), QContext()
    qI_branch(lam, EMPTY, VariableSpec(2, 1), ctx)
    subs = {key[2]: value for key, value in ctx.cache.items() if key[0] == "Ibr" and key[3] == rest}
    assert set(subs) == {(), (1,), (2,), (3,), (4,)}
    for nu, value in subs.items():
        assert value == qI_branch(lam, StrictPartition(nu), rest, QContext())


def test_a_budget_stopped_sub_value_leaves_no_entry(monkeypatch):
    lam, spec, rest = sp(4, 2), VariableSpec(2, 1), VariableSpec(1, 1)
    sub = qI_branch(lam, EMPTY, rest, QContext())
    fresh = qI_branch(lam, EMPTY, spec, QContext())
    key = ("Ibr", lam.parts, (), rest)
    ctx = QContext()
    # every step and one-row value here has at most 5 terms, the sub-value 12
    monkeypatch.setenv("QSYM_MAX_TERMS", str(len(sub.terms) - 1))
    with pytest.raises(TermBudgetExceeded):
        qI_branch(lam, EMPTY, spec, ctx)
    assert key not in ctx.cache
    assert ("Ibr", lam.parts, (), spec) not in ctx.cache
    monkeypatch.delenv("QSYM_MAX_TERMS")
    assert qI_branch(lam, EMPTY, spec, ctx) == fresh
    assert ctx.cache[key] == sub


def test_branch_route_calls_no_other_route(monkeypatch):
    cases = list(qi_cases())
    assert len(cases) == 654
    ctx = QContext()
    expect = [qI_def(lam, mu, spec, ctx) for lam, mu, spec in cases]

    def other_route(*args):
        raise AssertionError("the branch route reached another route")

    # the steps are strip rules: no one-row series and no determinant
    assert not hasattr(qsym.qfun, "determinant")
    for name in (
        "qI_def", "qI_jp", "build_jp_matrix", "pfaffian", "enum_qt", "qt_weight", "q_row",
        "grow_series",
    ):
        monkeypatch.setattr(qsym.qfun, name, other_route)
    ctx = QContext()
    assert [qI_branch(lam, mu, spec, ctx) for lam, mu, spec in cases] == expect


def test_q_row_texts_match_the_recorded_digests():
    # q_row(0..14) on every spec with 1-4 variables, hashed as the benchmark
    # hashes its schur_series q_row items: the canonical texts of polynomials
    # of up to 17,025 terms in 4 variables, byte for byte as recorded
    digests = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
    recorded = json.loads(digests.read_text())["schur_series"]
    for n in range(1, 5):
        for k in range(n + 1):
            spec, ctx = VariableSpec(k, n - k), QContext()
            text = "\n".join(q_row(d, spec, ctx).to_json() for d in range(15))
            assert hashlib.sha256(text.encode()).hexdigest() == recorded[f"q_row;k={k};m={n - k}"]
