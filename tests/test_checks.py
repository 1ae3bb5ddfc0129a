import pytest

import qsym.qfun
import qsym.symfun
import qsym.tableaux
from qsym import LaurentPoly, VariableSpec, enum_qt, qI_tableau
from qsym import checks
from qsym.checks import (
    ROUTES,
    SUITES,
    Route,
    is_spec_symmetric,
    lgv_checks,
    qfun_checks,
    qi_cases,
    run_suite,
)


def _by_name(results):
    return {r.name: r for r in results}


def test_failing_route_names_first_case_and_difference(monkeypatch):
    def doubled(lam, mu, spec, ctx):
        return qI_tableau(lam, mu, spec, ctx).scale(2)

    tableau = ROUTES["qI", "tableau"]
    monkeypatch.setitem(ROUTES, ("qI", "tableau"), Route(doubled, tableau.domain))
    results = _by_name(qfun_checks(max_part=2, max_len=2, max_vars=2))
    bad = results["qfun.def-tableau-branch"]
    assert not bad.passed
    # the first case of the sweep is the empty shape on no variables, value 1
    assert bad.detail == "lam=() mu=() spec=(0,0) definition-tableau: -1"
    assert bad.line() == "FAIL qfun.def-tableau-branch: " + bad.detail
    # on a pure spec the definition is Schur's or Okada's Pfaffian, so the
    # same case breaks the degeneration
    degenerations = results["qfun.degenerations"]
    assert not degenerations.passed
    assert degenerations.detail == bad.detail
    # the other checks keep their own details.  The pfaffian route's detail
    # counts its dependent cases: lam = (2,1), four mu inside it and three
    # two-variable specs; two specs are pure, and one case is the mixed straight (2,1)
    assert results["qfun.pfaffian-route"].passed
    assert results["qfun.pfaffian-route"].detail == (
        "12 cases of two or more rows, not independent on 8 pure-spec "
        "and 1 mixed straight two-row cases"
    )


def test_failing_pfaffian_route_reports_its_own_case(monkeypatch):
    def shifted(lam, mu, spec, ctx):
        return ROUTES["qI", "definition"].fn(lam, mu, spec, ctx) + LaurentPoly.one(spec.n)

    pfaffian = ROUTES["qI", "pfaffian"]
    monkeypatch.setitem(ROUTES, ("qI", "pfaffian"), Route(shifted, pfaffian.domain))
    results = _by_name(qfun_checks(max_part=2, max_len=2, max_vars=2))
    assert results["qfun.def-tableau-branch"].passed
    bad = results["qfun.pfaffian-route"]
    assert bad.detail == "lam=(2,1) mu=() spec=(0,2) definition-pfaffian: -1"


def test_vanishing_tries_every_qi_route(monkeypatch):
    # the pfaffian route alone is off on the non-nested draws
    pfaffian = ROUTES["qI", "pfaffian"]
    monkeypatch.setitem(ROUTES, ("qI", "pfaffian"), Route(_plus_one(pfaffian.fn), pfaffian.domain))
    bad = _by_name(qfun_checks(max_part=2, max_len=2, max_vars=2))["qfun.vanishing"]
    assert not bad.passed
    assert bad.detail.startswith("lam=(")
    assert bad.detail.endswith(" pfaffian: 1")


def test_vanishing_counts_its_draws():
    assert _by_name(qfun_checks(max_part=2, max_len=2, max_vars=2))["qfun.vanishing"].line() == (
        "PASS qfun.vanishing: 50 non-nested pairs"
    )


def test_union_alphabet_failure_prints_the_difference(monkeypatch):
    # a union-alphabet determinant that forgets the plain letters: it loses
    # every term of a plain variable
    real = qsym.symfun.symp_schur_on

    def pairs_only(lam, spec):
        return real(lam, VariableSpec(spec.k, 0)).embed(spec.n)

    monkeypatch.setattr(qsym.symfun, "symp_schur_on", pairs_only)
    monkeypatch.setattr(checks, "symp_schur_on", pairs_only)
    results = _by_name(checks.schur_checks(max_weight=2, max_vars=2))
    bad = results["schur.union-alphabet"]
    assert not bad.passed
    # partitions_up_to_weight lists (2) before (1), and the empty shape is 1 on any alphabet
    assert bad.detail == "lam=(2) mu=() spec=(0,1) definition-union: x1^2"
    assert results["schur.definition-vs-tableau"].passed


def test_lgv_failure_names_case_and_difference(monkeypatch):
    real_sum, real_families = checks.lgv_weight_sum, checks.enum_path_families

    def sum_times_x1(lam, mu, spec):
        got = real_sum(lam, mu, spec)
        return got * LaurentPoly.variable(spec.n, 0) if spec.n else got

    # the weight sums come from the transfer matrix, the bijection from the families
    monkeypatch.setattr(checks, "lgv_weight_sum", sum_times_x1)
    results = _by_name(lgv_checks(max_part=1, max_len=1, max_vars=1))
    sums = results["lgv.weight-sums"]
    assert not sums.passed
    # the empty family on one variable weighs x1 instead of 1
    assert sums.detail == "lam=() mu=() spec=(0,1) tableau-lgv: 1 - x1"
    assert results["lgv.path-tableau-bijection"].passed

    # faulty families, each caught on the first case it shows in: out of
    # order needs two families, a dropped one shows on the empty shape
    monkeypatch.setattr(checks, "lgv_weight_sum", real_sum)
    faults = [
        (lambda fams: fams[::-1], "lam=(1) mu=() spec=(0,1) 2 families, 2 tableaux: "
         "the families do not strictly increase"),
        (lambda fams: fams[1:], "lam=() mu=() spec=(0,0) 0 families, 1 tableaux: "
         "the families are not the tableau rows in order"),
    ]
    for fault, detail in faults:
        monkeypatch.setattr(
            checks, "enum_path_families", lambda *args: fault(list(real_families(*args)))
        )
        results = _by_name(lgv_checks(max_part=1, max_len=1, max_vars=1))
        assert results["lgv.weight-sums"].passed
        assert results["lgv.path-tableau-bijection"].detail == detail


def test_lgv_checks_count_cases_and_families():
    results = _by_name(lgv_checks(max_part=3, max_len=2, max_vars=2))
    cases = list(qi_cases(3, 2, 2))
    count = sum(1 for lam, mu, spec in cases for _ in enum_qt(spec, lam, mu))
    assert count > len(cases)
    sums = results["lgv.weight-sums"]
    assert sums.line() == f"PASS lgv.weight-sums: {len(cases)} cases, {count} tableaux"
    assert results["lgv.path-tableau-bijection"].detail == f"{len(cases)} cases, {count} families"


def test_weyl_check_includes_symplectic_swaps():
    x1, x2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    u1 = x1 + LaurentPoly.variable(2, 0, -1)
    u2 = x2 + LaurentPoly.variable(2, 1, -1)
    assert not is_spec_symmetric(u1, VariableSpec(2, 0))
    assert is_spec_symmetric(u1 + u2, VariableSpec(2, 0))
    # no swap across the symplectic/plain boundary
    assert is_spec_symmetric(u1, VariableSpec(1, 1))


def _plus_one(fn):
    def wrapped(*args):
        got = fn(*args)
        return got + LaurentPoly.one(got.n)

    return wrapped


def _plus_x1(fn):
    """The value plus x1; on no variables there is no x1, and it is kept."""

    def wrapped(*args):
        got = fn(*args)
        return got + LaurentPoly.variable(got.n, 0) if got.n else got

    return wrapped


def _each_twice(enum):
    def wrapped(*args):
        for item in enum(*args):
            yield item
            yield item

    return wrapped


def _reversed(enum):
    def wrapped(*args):
        return reversed(list(enum(*args)))

    return wrapped


@pytest.mark.parametrize(
    "suite, dependency, corrupt, check, case",
    [
        ("ring", "parse_poly", _plus_one, "ring.roundtrip", "n="),
        ("tableaux", "enum_qt", _each_twice, "tableaux.duplicate-free", "lam=() mu=() spec=(0,0)"),
        ("tableaux", "enum_spt", _each_twice, "tableaux.duplicate-free", "lam=() mu=() spec=(0,0)"),
        (
            "schur", "schur_skew_e", _plus_one, "schur.jacobi-trudi-h-vs-e",
            "lam=() mu=() spec=(0,2) h-e: -1",
        ),
        ("linalg", "determinant", _plus_one, "linalg.pfaffian-square-random", "matrix 0 "),
        ("ring", "sum_of_products", _plus_one, "ring.series-inverse", "n=3 nums="),
        # the definition and tableau values both gain x1, so only symmetry breaks
        ("schur", "inter_schur", _plus_x1, "schur.weyl-symmetry", "lam=() mu=() spec=(1,0)"),
        (
            "schur", "symp_schur", _plus_x1, "schur.symplectic-invariance",
            "lam=() mu=() spec=(2,0) x1 -> 1/x1",
        ),
        (
            "qfun", "pfaffian", _plus_one, "qfun.pfaffian-square",
            "lam=(2,1) mu=() spec=(0,2) pfaffian^2-determinant: ",
        ),
        # the step on the empty shape is 1, so the first pair is off by one
        (
            "qfun", "q_single_var", _plus_one, "qfun.single-step",
            "lam=() mu=() spec=(0,1) determinant-step: -1",
        ),
        # the families are compared with the tableaux in step, so a repeat or
        # a change of order fails at the first case with one or two families
        (
            "lgv", "enum_path_families", _each_twice, "lgv.path-tableau-bijection",
            "lam=() mu=() spec=(0,0) 2 families, 1 tableaux",
        ),
        (
            "lgv", "enum_path_families", _reversed, "lgv.path-tableau-bijection",
            "lam=(2) mu=() spec=(0,1) 2 families, 2 tableaux",
        ),
    ],
    ids=[
        "ring", "tableaux", "tableaux-spt", "schur", "linalg", "single-step", "lgv-twice",
        "lgv-reversed", "series-inverse", "schur-weyl", "symplectic-invariance",
        "pfaffian-square",
    ],
)
def test_failing_suite_names_its_first_case(monkeypatch, suite, dependency, corrupt, check, case):
    monkeypatch.setattr(checks, dependency, corrupt(getattr(checks, dependency)))
    bad = _by_name(run_suite(suite, max_weight=2, max_vars=2))[check]
    assert not bad.passed
    assert bad.detail.startswith(case)
    if dependency == "determinant":
        # the determinant is one too large, so the difference is -1
        assert bad.detail.endswith(" pfaffian^2-determinant: -1")


def _non_commuting(monkeypatch):
    """a * b gains a, so it differs from b * a whenever a and b differ."""
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: mul(a, b) + a)


def _definition_plus_x1(monkeypatch):
    route = ROUTES["qI", "definition"]
    monkeypatch.setitem(ROUTES, ("qI", "definition"), Route(_plus_x1(route.fn), route.domain))


@pytest.mark.parametrize(
    "patch, suite, check, case",
    [
        (_non_commuting, "ring", "ring.axioms", "n=3 a="),
        (_definition_plus_x1, "qfun", "qfun.weyl-symmetry", "lam=() mu=() spec=(1,0)"),
    ],
    ids=["ring-axioms", "qfun-weyl"],
)
def test_a_fault_outside_the_checks_names_its_first_case(monkeypatch, patch, suite, check, case):
    patch(monkeypatch)
    bad = _by_name(run_suite(suite, max_weight=2, max_vars=2))[check]
    assert not bad.passed
    assert bad.detail.startswith(case)


def test_a_strip_rule_without_components_fails_both_step_checks(monkeypatch):
    real = qsym.qfun._strips

    def one_component(*args):
        return ((nu, 1, d) for nu, c, d in real(*args))

    monkeypatch.setattr(qsym.qfun, "_strips", one_component)
    results = _by_name(qfun_checks(max_part=2, max_len=2, max_vars=2))
    for name in ("qfun.def-tableau-branch", "qfun.single-step"):
        assert not results[name].passed, name
        assert results[name].detail.startswith("lam=("), name


def _lowered(maps):
    """Every floor that tableaux._key_maps sets, one lower, clamped at 0."""
    return [
        (
            tuple(max(g - 1, 0) for g in gap),
            above,
            lambda r, up=up: max(up(r) - 1, 0),
            diag and [max(d - 1, 0) for d in diag],
        )
        for gap, above, up, diag in maps
    ]


@pytest.mark.parametrize(
    "helper, wrapper, failing",
    [
        # QT3 off: a primed letter may repeat in a row
        (
            "_row_fillings",
            lambda real: lambda floors, primed: real(floors, [False] * len(primed)),
            ["qfun.def-tableau-branch", "qfun.one-row-series", "lgv.weight-sums",
             "lgv.path-tableau-bijection"],
        ),
        # every floor set between rows one lower: QT2, QT4, QT5, ST2 and ST3 weakened
        (
            "_key_maps",
            lambda real: lambda *args: _lowered(real(*args)),
            ["schur.definition-vs-tableau", "qfun.def-tableau-branch", "lgv.weight-sums",
             "lgv.path-tableau-bijection"],
        ),
    ],
    ids=["qt3-off", "floors-lowered"],
)
def test_a_weakened_tableau_rule_fails_the_checks(monkeypatch, helper, wrapper, failing):
    monkeypatch.setattr(qsym.tableaux, helper, wrapper(getattr(qsym.tableaux, helper)))
    results = _by_name(run_suite("all", max_weight=2, max_vars=2))
    assert [name for name in failing if results[name].passed] == []


def test_all_suite_runs_these_checks():
    # the names do not depend on the budget
    assert [r.name for r in run_suite("all", 0, 1)] == [
        "ring.axioms",
        "ring.roundtrip",
        "ring.series-inverse",
        "tableaux.duplicate-free",
        "tableaux.split-counts",
        "tableaux.split-counts-unprimed",
        "schur.definition-vs-tableau",
        "schur.union-alphabet",
        "schur.weyl-symmetry",
        "schur.jacobi-trudi-h-vs-e",
        "schur.symplectic-invariance",
        "qfun.def-tableau-branch",
        "qfun.pfaffian-route",
        "qfun.pfaffian-square",
        "qfun.weyl-symmetry",
        "qfun.degenerations",
        "qfun.one-row-series",
        "qfun.single-step",
        "qfun.vanishing",
        "lgv.weight-sums",
        "lgv.path-tableau-bijection",
        "linalg.pfaffian-square-random",
    ]


def test_all_runs_every_suite_in_order():
    expected = [r for suite in SUITES.values() for r in suite(0, 1, 0)]
    assert run_suite("all", 0, 1) == expected
    assert expected[-1].name == "linalg.pfaffian-square-random"
    with pytest.raises(ValueError):
        run_suite("nope", 0, 1)
