"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything is exact polynomial equality; the sweeps are
the full stated ranges.
"""

import time

import pytest

from qsym import LaurentPoly, StrictPartition, VariableSpec, qA_two_row, qI_tableau
from qsym.checks import (
    lgv_checks,
    pfaffian_random_checks,
    qfun_checks,
    schur_checks,
)
from qsym.shapes import EMPTY
from qsym.symfun import symp_schur
from qsym.tableaux import Partition, enum_spt

from conftest import rows_weight


def _by_name(results):
    return {r.name: r for r in results}


@pytest.fixture(scope="module")
def qfun_results():
    start = time.time()
    results = _by_name(qfun_checks(max_part=4, max_len=3, max_vars=3, seed=0))
    results["elapsed"] = time.time() - start
    return results


@pytest.fixture(scope="module")
def lgv_results():
    start = time.time()
    results = _by_name(lgv_checks(max_part=4, max_len=3, max_vars=3))
    results["elapsed"] = time.time() - start
    return results


@pytest.fixture(scope="module")
def schur_results():
    return _by_name(schur_checks(max_weight=5, max_vars=4))


def report(num, label, ok, extra=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}" + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_four_route_agreement(qfun_results):
    ok = qfun_results["qfun.def-tableau-branch"].passed and qfun_results["qfun.pfaffian-route"].passed
    report(1, "four-route agreement, parts<=4 rows<=3 vars<=3", ok,
           f"{qfun_results['elapsed']:.1f}s")


def test_criterion_2_lgv_oracle(lgv_results):
    ok = lgv_results["lgv.weight-sums"].passed and lgv_results["lgv.path-tableau-bijection"].passed
    report(2, "lattice-path oracle and bijection", ok, f"{lgv_results['elapsed']:.1f}s")


def test_criterion_3_degenerations(qfun_results):
    x1, x2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    frozen = (x1 * x2 * (x1 + x2)).scale(4)
    recursion = qA_two_row(2, 1, 2)
    tableau = qI_tableau(StrictPartition((2, 1)), EMPTY, VariableSpec(0, 2))
    ok = (
        qfun_results["qfun.degenerations"].passed
        and recursion == frozen
        and tableau == frozen
    )
    report(3, "plain/symplectic degenerations and the frozen two-row value", ok)


def test_criterion_4_generating_series(qfun_results):
    report(4, "one-row series matches the product to degree 6", qfun_results["qfun.one-row-series"].passed)


def test_criterion_5_symmetry(qfun_results, schur_results):
    ok = qfun_results["qfun.weyl-symmetry"].passed and schur_results["schur.weyl-symmetry"].passed
    report(5, "inversion and transposition invariance of outputs", ok)


def test_criterion_6_schur_side(schur_results):
    spec = VariableSpec(2, 0)
    king_sum = LaurentPoly.zero(2)
    for t in enum_spt(spec, Partition((1, 1))):
        king_sum = king_sum + LaurentPoly.monomial(2, rows_weight(t.rows, spec.n))
    ok = (
        schur_results["schur.definition-vs-tableau"].passed
        and schur_results["schur.union-alphabet"].passed
        and schur_results["schur.jacobi-trudi-h-vs-e"].passed
        and king_sum == symp_schur(Partition((1, 1)), 2)
        and len(list(enum_spt(spec, Partition((1, 1))))) == 5
    )
    report(6, "intermediate Schur routes, union alphabet, dual determinants", ok)


def test_criterion_7_pfaffian_engine(qfun_results):
    rand = pfaffian_random_checks(seed=1, rounds=200)[0]
    ok = rand.passed and qfun_results["qfun.pfaffian-square"].passed
    report(7, "Pfaffian squared equals determinant, 200 random + formula matrices", ok)


def test_criterion_8_vanishing(qfun_results):
    r = qfun_results["qfun.vanishing"]
    report(8, "zero output for 50 non-nested shape pairs", r.passed, r.detail)
