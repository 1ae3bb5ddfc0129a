"""The route table, and the cross-verification sweeps shared by the CLI
`verify` command and the test suite.

ROUTES maps (family, method) to a Route: a function of (lam, mu, spec, ctx)
and the Domain of inputs it accepts.  The CLI `compute` command and the qfun
sweep both read it.  SUITES is the one list of check suites, and "all" runs
its rows in order.  A suite returns (name, passed, detail) results; the
detail of every failed check names its first counterexample, and the
difference where two polynomials are compared.  Budgets cap the shape weight
and the variable count."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, permutations
from typing import Callable

from .errors import PreconditionError
from .linalg import RingMatrix, determinant, pfaffian
from .ring import LaurentPoly, parse_poly, series_from_linear_factors
from .shapes import EMPTY, Partition, StrictPartition, enum_strict_between
from .symfun import (
    Alphabet,
    check_union_identity,
    inter_schur,
    schur_skew,
    schur_skew_e,
    symp_schur,
)
from .qfun import (
    QContext,
    build_jp_matrix,
    qI_branch,
    qI_def,
    qI_jp,
    qI_tableau,
    q_row,
)
from .tableaux import VariableSpec, enum_qt, enum_spt, qt_weight
from .lgv import enum_path_families, family_weight, lgv_weight_sum


# -- route table ----------------------------------------------------------------


def _strict(p: Partition, what: str) -> StrictPartition:
    try:
        return StrictPartition(p.parts)
    except ValueError as exc:
        raise PreconditionError(f"{what} must be strict: {exc}") from exc


@dataclass(frozen=True)
class Domain:
    """The inputs a route accepts.

    strict    lam and mu must be strict partitions
    spec      "plain" needs k = 0, "symplectic" needs m = 0, "mixed" takes any
    straight  mu must be empty

    Every route also needs lam to have at most n = k + m rows.
    """

    strict: bool = False
    spec: str = "mixed"
    straight: bool = False

    def check(
        self, lam: Partition, mu: Partition, spec: VariableSpec
    ) -> tuple[Partition, Partition]:
        """Raise PreconditionError naming the first condition the input breaks;
        otherwise return lam and mu, as strict partitions if the route needs them."""
        if self.strict:
            lam, mu = _strict(lam, "lambda"), _strict(mu, "mu")
        if self.spec == "plain" and spec.k:
            raise PreconditionError(f"needs a plain-only spec (k = 0), got k = {spec.k}")
        if self.spec == "symplectic" and spec.m:
            raise PreconditionError(f"needs a symplectic-only spec (m = 0), got m = {spec.m}")
        if lam.length > spec.n:
            raise PreconditionError(f"{lam.length} rows on {spec.n} variables")
        if self.straight and mu.parts:
            raise PreconditionError(f"needs a straight shape (mu empty), got mu = {mu}")
        return lam, mu


@dataclass(frozen=True)
class Route:
    fn: Callable[[Partition, Partition, VariableSpec, QContext], LaurentPoly]
    domain: Domain


def _unprimed_tableau_sum(lam, mu, spec, ctx):
    return inter_schur(lam, spec, "tableau")


# Per family, the first method is the CLI default (qI defaults to all of them),
# and the order is the order of the CLI output.  The spec selects the Q-family:
# qA and qC are the qI functions on plain-only and symplectic-only specs.
ROUTES: dict[tuple[str, str], Route] = {
    ("schur", "definition"): Route(
        lambda lam, mu, spec, ctx: schur_skew(lam, mu, Alphabet.type_a(spec.m)),
        Domain(spec="plain"),
    ),
    ("schur", "tableau"): Route(_unprimed_tableau_sum, Domain(spec="plain", straight=True)),
    ("symp-schur", "definition"): Route(
        lambda lam, mu, spec, ctx: symp_schur(lam, spec.k),
        Domain(spec="symplectic", straight=True),
    ),
    ("symp-schur", "tableau"): Route(
        _unprimed_tableau_sum, Domain(spec="symplectic", straight=True)
    ),
    ("inter-schur", "definition"): Route(
        lambda lam, mu, spec, ctx: inter_schur(lam, spec, "definition"), Domain(straight=True)
    ),
    ("inter-schur", "tableau"): Route(_unprimed_tableau_sum, Domain(straight=True)),
    ("qA", "pfaffian"): Route(qI_jp, Domain(strict=True, spec="plain")),
    ("qA", "tableau"): Route(qI_tableau, Domain(strict=True, spec="plain")),
    ("qC", "pfaffian"): Route(qI_jp, Domain(strict=True, spec="symplectic")),
    ("qC", "tableau"): Route(qI_tableau, Domain(strict=True, spec="symplectic")),
    ("qI", "definition"): Route(qI_def, Domain(strict=True)),
    ("qI", "tableau"): Route(qI_tableau, Domain(strict=True)),
    ("qI", "branch"): Route(qI_branch, Domain(strict=True)),
    ("qI", "pfaffian"): Route(qI_jp, Domain(strict=True)),
    ("qI", "lgv"): Route(
        lambda lam, mu, spec, ctx: lgv_weight_sum(lam, mu, spec), Domain(strict=True)
    ),
}


# -- results ---------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


def _result(name: str, first: dict[str, str], detail: str = "") -> CheckResult:
    """A check fails iff `first` holds its first counterexample, which is then the detail."""
    return CheckResult(name, name not in first, first.get(name, detail))


def _case(lam: Partition, mu: Partition, spec: VariableSpec) -> str:
    return f"lam=({lam}) mu=({mu}) spec=({spec.k},{spec.m})"


def strict_partitions(max_part: int, max_len: int) -> list[StrictPartition]:
    """All strict partitions with largest part and length bounded, empty included."""
    out: list[StrictPartition] = []

    def rec(prev: int, acc: tuple[int, ...]):
        out.append(StrictPartition(acc))
        if len(acc) == max_len:
            return
        for p in range(prev - 1, 0, -1):
            rec(p, acc + (p,))

    rec(max_part + 1, ())
    return out


def partitions_up_to_weight(max_weight: int, max_len: int = 4) -> list[Partition]:
    out = [Partition()]

    def rec(prev: int, acc: tuple[int, ...], left: int):
        for p in range(min(prev, left), 0, -1):
            nxt = acc + (p,)
            out.append(Partition(nxt))
            if len(nxt) < max_len:
                rec(p, nxt, left - p)

    rec(max_weight, (), max_weight)
    return out


def specs_up_to(max_vars: int) -> list[VariableSpec]:
    return [
        VariableSpec(k, total - k)
        for total in range(max_vars + 1)
        for k in range(total + 1)
    ]


def qi_cases(max_part: int = 4, max_len: int = 3, max_vars: int = 3):
    """All (lam, mu, spec) with strict mu inside lam and enough variables."""
    for lam in strict_partitions(max_part, max_len):
        for mu in enum_strict_between(EMPTY, lam):
            for spec in specs_up_to(max_vars):
                if lam.length <= spec.n:
                    yield lam, mu, spec


# -- ring -------------------------------------------------------------------


def _random_poly(rng: random.Random, n: int, terms: int = 4) -> LaurentPoly:
    out = {}
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(-3, 3) for _ in range(n))
        out[exps] = rng.randint(-9, 9)
    return LaurentPoly(n, out)


def ring_checks(seed: int = 0, rounds: int = 60) -> list[CheckResult]:
    rng = random.Random(seed)
    first: dict[str, str] = {}
    for _ in range(rounds):
        n = rng.randint(0, 3)
        a, b, c = (_random_poly(rng, n) for _ in range(3))
        if a * b != b * a or (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            first.setdefault("ring.axioms", f"n={n} a={a} b={b} c={c}")
        parsed = parse_poly(str(a), n)
        if parsed != a or str(parsed) != str(a) or LaurentPoly.from_json(a.to_json()) != a:
            first.setdefault("ring.roundtrip", f"n={n} a={a} parsed as {parsed}")
    for _ in range(max(1, rounds // 3)):
        n = rng.randint(1, 3)
        nums = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        dens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        deg = rng.randint(0, 5)
        back = series_from_linear_factors(nums, dens, deg, n)
        for v in dens:
            back = back.mul_linear(v, -1)
        if back != series_from_linear_factors(nums, [], deg, n):
            first.setdefault("ring.series-inverse", f"n={n} nums={nums} dens={dens} deg={deg}")
    return [
        _result("ring.axioms", first, f"{rounds} random triples"),
        _result("ring.roundtrip", first),
        _result("ring.series-inverse", first),
    ]


# -- tableaux ----------------------------------------------------------------


def tableaux_checks(max_weight: int = 6, max_vars: int = 3) -> list[CheckResult]:
    first: dict[str, str] = {}
    for lam, mu, spec in qi_cases(max_part=4, max_len=3, max_vars=max_vars):
        if lam.weight > max_weight:
            continue
        tabs = list(enum_qt(spec, lam, mu))
        if len(set(tabs)) != len(tabs):
            detail = f"{_case(lam, mu, spec)} {len(tabs)} tableaux, {len(set(tabs))} distinct"
            first.setdefault("tableaux.duplicate-free", detail)

    def qt_count(spec, lam, mu=EMPTY):
        return sum(1 for _ in enum_qt(spec, lam, mu))

    for lam in strict_partitions(4, 3):
        if lam.weight > max_weight:
            continue
        for mu in enum_strict_between(EMPTY, lam):
            for spec in specs_up_to(max_vars):
                lhs = qt_count(spec, lam, mu)
                rhs = 0
                for nu in enum_strict_between(mu, lam):
                    c = qt_count(VariableSpec(spec.k, 0), nu, mu)
                    if c:
                        rhs += c * qt_count(VariableSpec(0, spec.m), lam, nu)
                if lhs != rhs:
                    detail = f"{_case(lam, mu, spec)} {lhs} tableaux, {rhs} split"
                    first.setdefault("tableaux.split-counts", detail)

    def spt_count(spec, outer, inner=Partition()):
        return sum(1 for _ in enum_spt(spec, outer, inner))

    for lam in partitions_up_to_weight(min(max_weight, 5), max_len=3):
        for spec in specs_up_to(max_vars):
            if lam.length > spec.n:
                continue
            lhs = spt_count(spec, lam)
            rhs = 0
            for mu in lam.subpartitions():
                c = spt_count(VariableSpec(spec.k, 0), mu)
                if c:
                    rhs += c * spt_count(VariableSpec(0, spec.m), lam, mu)
            if lhs != rhs:
                detail = f"{_case(lam, EMPTY, spec)} {lhs} tableaux, {rhs} split"
                first.setdefault("tableaux.split-counts-unprimed", detail)
    names = (
        "tableaux.duplicate-free",
        "tableaux.split-counts",
        "tableaux.split-counts-unprimed",
    )
    return [_result(name, first) for name in names]


# -- schur side ---------------------------------------------------------------


def schur_checks(max_weight: int = 5, max_vars: int = 4) -> list[CheckResult]:
    first: dict[str, str] = {}
    for lam in partitions_up_to_weight(max_weight):
        for spec in specs_up_to(max_vars):
            if lam.length > spec.n:
                continue
            case = _case(lam, EMPTY, spec)
            d = inter_schur(lam, spec, "definition")
            diff = d - inter_schur(lam, spec, "tableau")
            if not diff.is_zero():
                detail = f"{case} definition-tableau: {diff}"
                first.setdefault("schur.definition-vs-tableau", detail)
            if lam.length <= spec.k + 1 and not check_union_identity(lam, spec):
                first.setdefault("schur.union-alphabet", case)
            if lam.weight <= 4 and not is_spec_symmetric(d, spec):
                first.setdefault("schur.weyl-symmetry", case)

    specs = (VariableSpec(0, 2), VariableSpec(1, 0), VariableSpec(1, 1))
    for lam in partitions_up_to_weight(6):
        for mu in list(lam.subpartitions())[:3]:
            for spec in specs:
                a = Alphabet.mixed(spec)
                diff = schur_skew(lam, mu, a) - schur_skew_e(lam, mu, a)
                if not diff.is_zero():
                    detail = f"{_case(lam, mu, spec)} h-e: {diff}"
                    first.setdefault("schur.jacobi-trudi-h-vs-e", detail)

    k = 2
    for lam in partitions_up_to_weight(4, max_len=2):
        p = symp_schur(lam, k)
        case = _case(lam, EMPTY, VariableSpec(k, 0))
        for i in range(k):
            images = [LaurentPoly.variable(k, j) for j in range(k)]
            images[i] = LaurentPoly.variable(k, i, -1)
            if p.substitute(images) != p:
                first.setdefault("schur.symplectic-invariance", f"{case} x{i + 1} -> 1/x{i + 1}")
        for sigma in permutations(range(k)):
            images = [LaurentPoly.variable(k, sigma[j]) for j in range(k)]
            if p.substitute(images) != p:
                first.setdefault("schur.symplectic-invariance", f"{case} permutation {sigma}")
    names = (
        "schur.definition-vs-tableau",
        "schur.union-alphabet",
        "schur.weyl-symmetry",
        "schur.jacobi-trudi-h-vs-e",
        "schur.symplectic-invariance",
    )
    return [_result(name, first) for name in names]


# -- q side -------------------------------------------------------------------


def is_spec_symmetric(p: LaurentPoly, spec: VariableSpec) -> bool:
    """Invariant under each x_i -> 1/x_i (i <= k), each adjacent swap within
    x_1..x_k, and each adjacent swap within x_{k+1}..x_n: the generators of
    the hyperoctahedral group on the symplectic variables times the symmetric
    group on the plain ones."""
    n = spec.n
    base = [LaurentPoly.variable(n, j) for j in range(n)]
    for i in range(spec.k):
        images = list(base)
        images[i] = LaurentPoly.variable(n, i, -1)
        if p.substitute(images) != p:
            return False
    for a in chain(range(spec.k - 1), range(spec.k, n - 1)):
        images = list(base)
        images[a], images[a + 1] = base[a + 1], base[a]
        if p.substitute(images) != p:
            return False
    return True


def qfun_checks(
    max_part: int = 4, max_len: int = 3, max_vars: int = 3, seed: int = 0
) -> list[CheckResult]:
    """Checks on the intermediate family.  Every qI row of ROUTES but lgv is
    compared with the definition route; lgv_checks compares the lgv row's
    path families with the enumerated tableaux.

    The pfaffian comparison is not independent on every case, and its detail
    counts the cases where it is not: on a pure spec the definition's inner
    sum evaluates this same Pfaffian (the nu = mu term), and on a mixed
    straight two-row shape the 2x2 Pfaffian's only entry is the definition
    value."""
    ctx = QContext()
    first: dict[str, str] = {}
    jp_cases = jp_pure = jp_two_row = 0
    for lam, mu, spec in qi_cases(max_part, max_len, max_vars):
        case = _case(lam, mu, spec)
        ref = ROUTES["qI", "definition"].fn(lam, mu, spec, ctx)
        for (family, method), route in ROUTES.items():
            if family != "qI" or method in ("definition", "lgv"):
                continue
            if method == "pfaffian":
                # below two rows qI_jp is the one-row series, checked separately
                if lam.length < 2:
                    continue
                check = "qfun.pfaffian-route"
            else:
                check = "qfun.def-tableau-branch"
            diff = ref - route.fn(lam, mu, spec, ctx)
            if not diff.is_zero():
                detail = f"{case} definition-{method}: {diff}"
                first.setdefault(check, detail)
                # on a pure spec the definition is Schur's or Okada's Pfaffian
                if method != "pfaffian" and not (spec.k and spec.m):
                    first.setdefault("qfun.degenerations", detail)
        if lam.length >= 2:
            jp_cases += 1
            if not (spec.k and spec.m):
                jp_pure += 1
            elif lam.length == 2 and not mu.parts:
                jp_two_row += 1
            mat = build_jp_matrix(lam, mu, spec, ctx)
            diff = pfaffian(mat, spec.n) * pfaffian(mat, spec.n) - determinant(mat, spec.n)
            if not diff.is_zero():
                detail = f"{case} pfaffian^2-determinant: {diff}"
                first.setdefault("qfun.pfaffian-square", detail)
        if not is_spec_symmetric(ref, spec):
            first.setdefault("qfun.weyl-symmetry", case)

    for spec in specs_up_to(max_vars):
        for l in range(0, 7):
            lam = StrictPartition((l,)) if l else EMPTY
            if lam.length > spec.n:
                continue
            diff = qI_tableau(lam, EMPTY, spec, ctx) - q_row(l, spec, ctx)
            if not diff.is_zero():
                detail = f"{_case(lam, EMPTY, spec)} tableau-series: {diff}"
                first.setdefault("qfun.one-row-series", detail)

    rng = random.Random(seed)
    count = 0
    lams = [p for p in strict_partitions(max_part, max_len) if p.parts]
    attempts = 0
    while count < 50 and lams and max_vars >= 1 and attempts < 5000:
        attempts += 1
        lam = rng.choice(lams)
        mu = rng.choice(lams)
        if lam.contains(mu) or lam.length > max_vars:
            continue
        total = rng.randint(max(1, lam.length), max_vars)
        k = rng.randint(0, total)
        spec = VariableSpec(k, total - k)
        if qI_tableau(lam, mu, spec, ctx).is_zero() and qI_def(lam, mu, spec, ctx).is_zero():
            count += 1
        else:
            first["qfun.vanishing"] = f"{_case(lam, mu, spec)} is not zero"
            break
    jp_detail = (
        f"{jp_cases} cases of two or more rows, not independent on {jp_pure} pure-spec "
        f"and {jp_two_row} mixed straight two-row cases"
    )
    details = {"qfun.pfaffian-route": jp_detail, "qfun.vanishing": f"{count} non-nested pairs"}
    names = (
        "qfun.def-tableau-branch",
        "qfun.pfaffian-route",
        "qfun.pfaffian-square",
        "qfun.weyl-symmetry",
        "qfun.degenerations",
        "qfun.one-row-series",
        "qfun.vanishing",
    )
    return [_result(name, first, details.get(name, "")) for name in names]


# -- lattice paths -------------------------------------------------------------


def lgv_checks(max_part: int = 4, max_len: int = 3, max_vars: int = 3) -> list[CheckResult]:
    first: dict[str, str] = {}
    for lam, mu, spec in qi_cases(max_part, max_len, max_vars):
        case = _case(lam, mu, spec)
        fam_weights = []
        mapped = set()
        for fam in enum_path_families(lam, mu, spec):
            fam_weights.append(family_weight(fam, spec))
            mapped.add(fam.to_tableau(lam, mu))
        tabs = set(enum_qt(spec, lam, mu))
        tab_weights = [qt_weight(t, spec) for t in tabs]
        diff = LaurentPoly.from_exponents(spec.n, tab_weights) - lgv_weight_sum(lam, mu, spec)
        if not diff.is_zero():
            first.setdefault("lgv.weight-sums", f"{case} tableau-lgv: {diff}")
        if (
            len(mapped) != len(fam_weights)
            or mapped != tabs
            or sorted(fam_weights) != sorted(tab_weights)
        ):
            first.setdefault(
                "lgv.path-tableau-bijection",
                f"{case} {len(fam_weights)} families map to {len(mapped)} tableaux, "
                f"{len(mapped & tabs)} of the {len(tabs)} enumerated",
            )
    return [_result("lgv.weight-sums", first), _result("lgv.path-tableau-bijection", first)]


def pfaffian_random_checks(seed: int = 0, rounds: int = 200) -> list[CheckResult]:
    rng = random.Random(seed)
    first: dict[str, str] = {}
    for r in range(rounds):
        size = 2 * rng.randint(1, 3)
        n = rng.randint(1, 2)
        zero = LaurentPoly.zero(n)
        rows = [[zero] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = _random_poly(rng, n, terms=2)
                rows[i][j] = v
                rows[j][i] = -v
        mat = RingMatrix.from_rows(rows)
        diff = pfaffian(mat, n) * pfaffian(mat, n) - determinant(mat, n)
        if not diff.is_zero():
            detail = f"matrix {r} ({size}x{size}, n={n}) pfaffian^2-determinant: {diff}"
            first.setdefault("linalg.pfaffian-square-random", detail)
    return [_result("linalg.pfaffian-square-random", first, f"{rounds} matrices")]


# Each suite takes (max_weight, max_vars, seed); "all" runs them in this order.
SUITES = {
    "ring": lambda max_weight, max_vars, seed: ring_checks(seed=seed),
    "tableaux": lambda max_weight, max_vars, seed: tableaux_checks(max_weight, max_vars),
    "schur": lambda max_weight, max_vars, seed: schur_checks(max_weight, max_vars),
    "qfun": lambda max_weight, max_vars, seed: qfun_checks(
        max_part=min(max_weight, 4), max_len=3, max_vars=max_vars, seed=seed
    ),
    "lgv": lambda max_weight, max_vars, seed: lgv_checks(
        max_part=min(max_weight, 4), max_len=3, max_vars=max_vars
    ),
    "linalg": lambda max_weight, max_vars, seed: pfaffian_random_checks(seed=seed, rounds=50),
}


def run_suite(name: str, max_weight: int, max_vars: int, seed: int = 0) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = SUITES if name == "all" else [name]
    return [r for key in names for r in SUITES[key](max_weight, max_vars, seed)]
