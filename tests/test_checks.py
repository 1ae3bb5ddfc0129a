import pytest

from qsym import LaurentPoly, VariableSpec, qI_tableau
from qsym import checks
from qsym.checks import (
    ROUTES,
    SUITES,
    Route,
    is_spec_symmetric,
    lgv_checks,
    qfun_checks,
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


def test_lgv_failure_names_case_and_difference(monkeypatch):
    real_sum, real_weight = checks.lgv_weight_sum, checks.family_weight

    def sum_times_x1(lam, mu, spec):
        got = real_sum(lam, mu, spec)
        return got * LaurentPoly.variable(spec.n, 0) if spec.n else got

    def off_by_x1(fam, spec):
        w = real_weight(fam, spec)
        return (w[0] + 1,) + w[1:] if w else w

    # the weight sums come from the walker, the bijection from the families
    monkeypatch.setattr(checks, "lgv_weight_sum", sum_times_x1)
    results = _by_name(lgv_checks(max_part=1, max_len=1, max_vars=1))
    sums = results["lgv.weight-sums"]
    assert not sums.passed
    # the empty family on one variable weighs x1 instead of 1
    assert sums.detail == "lam=() mu=() spec=(0,1) tableau-lgv: 1 - x1"
    assert results["lgv.path-tableau-bijection"].passed

    monkeypatch.setattr(checks, "lgv_weight_sum", real_sum)
    monkeypatch.setattr(checks, "family_weight", off_by_x1)
    results = _by_name(lgv_checks(max_part=1, max_len=1, max_vars=1))
    assert results["lgv.weight-sums"].passed
    assert results["lgv.path-tableau-bijection"].detail.startswith("lam=() mu=() spec=(0,1) ")


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


def _each_twice(enum):
    def wrapped(*args):
        for item in enum(*args):
            yield item
            yield item

    return wrapped


@pytest.mark.parametrize(
    "suite, dependency, corrupt, check, case",
    [
        ("ring", "parse_poly", _plus_one, "ring.roundtrip", "n="),
        ("tableaux", "enum_qt", _each_twice, "tableaux.duplicate-free", "lam=() mu=() spec=(0,0)"),
        (
            "schur", "schur_skew_e", _plus_one, "schur.jacobi-trudi-h-vs-e",
            "lam=() mu=() spec=(0,2) h-e: -1",
        ),
        ("linalg", "determinant", _plus_one, "linalg.pfaffian-square-random", "matrix 0 "),
    ],
    ids=["ring", "tableaux", "schur", "linalg"],
)
def test_failing_suite_names_its_first_case(monkeypatch, suite, dependency, corrupt, check, case):
    monkeypatch.setattr(checks, dependency, corrupt(getattr(checks, dependency)))
    bad = _by_name(run_suite(suite, max_weight=2, max_vars=2))[check]
    assert not bad.passed
    assert bad.detail.startswith(case)
    if dependency == "determinant":
        # the determinant is one too large, so the difference is -1
        assert bad.detail.endswith(" pfaffian^2-determinant: -1")


def test_all_runs_every_suite_in_order():
    expected = [r for suite in SUITES.values() for r in suite(0, 1, 0)]
    assert run_suite("all", 0, 1) == expected
    assert expected[-1].name == "linalg.pfaffian-square-random"
    with pytest.raises(ValueError):
        run_suite("nope", 0, 1)
