"""Q-polynomial evaluators: the one-row series, the closed two-row forms of
the plain and symplectic families, and the intermediate family by four
independent routes (inner-sum definition, tableau sum, branching chains of
strip-rule steps that read no series (Macdonald III.8), Pfaffian).  The table
that names these routes, with the inputs each accepts, is `checks.ROUTES`.

The spec is the family: k = 0 gives the plain family (Schur's Q-functions),
m = 0 the symplectic one (Okada's), and each route evaluates all three.

All evaluators are pure; a QContext carries their memo tables, whose keys
its docstring lists.  A call without a context gets a fresh one, so nothing
is cached between such calls; callers that want reuse pass the same context
to each call.

Conventions used throughout: a negative subscript means the zero polynomial;
for matrix entries, the two-row value at (r, r) is zero, at (r, 0) it is the
one-row value, and swapping the rows negates it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat, zip_longest

from .errors import PreconditionError
from .linalg import RingMatrix, pfaffian
from .ring import GrowingSeries, LaurentPoly, grow_series, sum_of_products
from .shapes import EMPTY, StrictPartition, enum_strict_between, pad_for_pfaffian
from .tableaux import VariableSpec, enum_qt, qt_weight


@dataclass
class QContext:
    """Shared memo tables; cached values always equal fresh recomputation.

    `row_series` holds each spec's one-row series, on the alphabet of
    `VariableSpec.monomials`.  `cache` keys are tuples that start with their
    kind:
      ("A2", r, s, n) and ("C2", r, s, k)  two-row values, plain and symplectic;
      ("Idef" | "Ijp", lam, mu, spec)  qI_def and qI_jp;
      ("Ibr", lam, mu, spec)  qI_branch values, one per spec of its recursion;
      ("Q1", spec, lam, mu)  q_single_var's strip-rule steps.
    A value is stored only once it is complete, so a raise leaves no entry.

    Concurrent tasks should each own a context; the cached polynomials
    themselves are immutable and safe to share."""

    cache: dict = field(default_factory=dict)
    row_series: dict[VariableSpec, GrowingSeries] = field(default_factory=dict)


def _ctx(ctx: QContext | None) -> QContext:
    return ctx if ctx is not None else QContext()


def q_row(l: int, spec: VariableSpec, ctx: QContext | None = None) -> LaurentPoly:
    """One-row value: coefficient of z^l in the product of (1+xz)/(1-xz) over
    the spec's alphabet x1, x1^-1, ..., xk, xk^-1, x_{k+1}, ..., x_n
    (`VariableSpec.monomials`), read from the context's series for the spec
    by grow_series, so zero for l < 0."""
    if ctx is None:  # _ctx inlined: a Pfaffian expansion makes ~10^5 of these calls
        ctx = QContext()
    series = ctx.row_series.get(spec)
    if series is None:
        monos = spec.monomials()
        series = ctx.row_series[spec] = GrowingSeries(monos, monos, spec.n)
    return grow_series(series, l)


def qA_two_row(r: int, s: int, n: int, ctx: QContext | None = None) -> LaurentPoly:
    """Two-row value, plain family: q_r q_s + 2 sum_t (-1)^t q_{r+t} q_{s-t}."""
    if not r > s > 0:
        raise PreconditionError(f"two-row recursion needs r > s > 0, got ({r}, {s})")
    ctx = _ctx(ctx)
    key = ("A2", r, s, n)
    got = ctx.cache.get(key)
    if got is not None:
        return got
    spec = VariableSpec(0, n)

    def q(i: int) -> LaurentPoly:
        return q_row(i, spec, ctx)

    total = sum_of_products(
        n, ((q(r + t), q(s - t), 2 * (-1) ** t if t else 1) for t in range(s + 1))
    )
    ctx.cache[key] = total
    return total


def qC_two_row(r: int, s: int, k: int, ctx: QContext | None = None) -> LaurentPoly:
    """Two-row value, symplectic family; the summand gains the echo terms
    q_{r+t} + 2 q_{r+t-2} + ... + 2 q_{r-t+2} + q_{r-t}."""
    if not r > s > 0:
        raise PreconditionError(f"two-row recursion needs r > s > 0, got ({r}, {s})")
    ctx = _ctx(ctx)
    key = ("C2", r, s, k)
    got = ctx.cache.get(key)
    if got is not None:
        return got
    spec = VariableSpec(k, 0)

    def q(i: int) -> LaurentPoly:
        return q_row(i, spec, ctx)

    terms = [(q(r), q(s), 1)]
    for t in range(1, s + 1):
        echo = [(q(r + t), 1), (q(r - t), 1)] + [(q(r + t - 2 * i), 2) for i in range(1, t)]
        terms.append((LaurentPoly.lincomb(k, echo), q(s - t), 2 if t % 2 == 0 else -2))
    total = sum_of_products(k, terms)
    ctx.cache[key] = total
    return total


def _pair_value(r: int, s: int, spec: VariableSpec, ctx: QContext) -> LaurentPoly:
    """Two-row matrix entry above the diagonal, r > s >= 0, as build_jp_matrix
    pairs the parts of a strictly decreasing padded list: the one-row value
    at s = 0.  Pure specs have closed two-row forms; mixed ones fall back to
    the inner-sum definition."""
    if s == 0:
        return q_row(r, spec, ctx)
    if spec.m == 0:
        return qC_two_row(r, s, spec.k, ctx)
    if spec.k == 0:
        return qA_two_row(r, s, spec.m, ctx)
    return qI_def(StrictPartition((r, s)), EMPTY, spec, ctx)


def build_jp_matrix(
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
    ctx: QContext | None = None,
) -> RingMatrix:
    """Padded block matrix [[M, N], [-N^T, 0]] with two-row M and one-row N
    entries.  N pairs row i with the (m+1-j)-th inner part, i.e. the inner
    parts are consumed in reverse order across the columns."""
    ctx = _ctx(ctx)
    lam_parts, mu_parts = pad_for_pfaffian(lam, mu)
    l, m = len(lam_parts), len(mu_parts)
    size = l + m
    n = spec.n
    zero = LaurentPoly.zero(n)
    rows = [[zero] * size for _ in range(size)]
    for i in range(l):
        for j in range(i + 1, l):
            v = _pair_value(lam_parts[i], lam_parts[j], spec, ctx)
            rows[i][j] = v
            rows[j][i] = -v
    for i in range(l):
        for j in range(m):
            v = q_row(lam_parts[i] - mu_parts[m - 1 - j], spec, ctx)
            rows[i][l + j] = v
            rows[l + j][i] = -v
    return RingMatrix.from_rows(rows)


def qI_def(
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
    ctx: QContext | None = None,
) -> LaurentPoly:
    """Intermediate value by the defining inner sum: over strict shapes nu
    between mu and lam, a symplectic skew factor for nu over mu on x_1..x_k
    times a plain skew factor for lam over nu on x_{k+1}..x_n.

    The symplectic factor sits on the inner skew: in the tableau picture the
    symplectic letters are the small ones and occupy the region next to mu.
    Putting it on the outer skew instead agrees on many small shapes but
    diverges from the tableau and branching routes (first at a two-row shape
    with two symplectic pairs and one plain variable).  Both factors are
    qI_jp values on pure specs, and a zero factor drops its nu."""
    n = spec.n
    spec.check_rows(lam)
    ctx = _ctx(ctx)
    key = ("Idef", lam.parts, mu.parts, spec)
    got = ctx.cache.get(key)
    if got is not None:
        return got
    c_spec = VariableSpec(spec.k, 0)
    a_spec = VariableSpec(0, spec.m)
    terms = []
    for nu in enum_strict_between(mu, lam):
        c_part = qI_jp(nu, mu, c_spec, ctx)
        if c_part.is_zero():
            continue
        a_part = qI_jp(lam, nu, a_spec, ctx)
        if a_part.is_zero():
            continue
        terms.append((c_part.embed(n, 0), a_part.embed(n, spec.k), 1))
    total = ctx.cache[key] = sum_of_products(n, terms)
    return total


def qI_tableau(
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
    ctx: QContext | None = None,
) -> LaurentPoly:
    """Intermediate value as the weight sum over primed shifted tableaux,
    one qt_weight per tableau of the enum_qt stream.  ctx is taken for the
    route signature only: nothing is cached, since no route asks for a value
    twice (of the checks, only qfun.one-row-series repeats a case)."""
    spec.check_rows(lam)
    return LaurentPoly.from_exponents(
        spec.n, map(qt_weight, enum_qt(spec, lam, mu), repeat(spec))
    )


def _strip(lam: StrictPartition, mu: StrictPartition) -> tuple[int, int] | None:
    """(c, d) if lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... padded by zeros (so
    l(lam) - l(mu) <= 1), else None: lam/mu has d cells in c edge-connected
    components, rows i and i + 1 touching iff both have cells and mu_i = lam_{i+1}."""
    c = d = 0
    above, touch = lam.part(1), None  # mu_{i-1}, and mu_{i-1} if row i - 1 has cells
    for a, b in zip_longest(lam.parts, mu.parts, fillvalue=0):
        if not above >= a >= b:
            return None
        c += a > b and touch != a
        d += a - b
        above, touch = b, (b if a > b else None)
    return c, d


def q_single_var(
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
    ctx: QContext | None = None,
) -> LaurentPoly:
    """Skew value on a one-variable spec by the strip rule (Macdonald III.8),
    with no series: on (0, 1) it is 2^c x^d for a strip lam/mu (`_strip`),
    else zero; on (1, 0) the sum over nu of that rule on nu/mu at x times it
    on lam/nu at 1/x.  Both vanish when the shape grows by more than one row
    (QT5 on one index).  It is cached under ("Q1", spec, lam, mu)."""
    if spec.n != 1:
        raise PreconditionError(f"needs a one-variable spec, got ({spec.k}, {spec.m})")
    if lam.length - mu.length > 1:
        return LaurentPoly.zero(1)
    ctx = _ctx(ctx)
    key = ("Q1", spec, lam.parts, mu.parts)
    got = ctx.cache.get(key)
    if got is not None:
        return got
    terms = Counter()
    for nu in enum_strict_between(mu, lam) if spec.k else (lam,):
        inner, outer = _strip(nu, mu), _strip(lam, nu)
        if inner and outer:
            terms[(inner[1] - outer[1],)] += 2 ** (inner[0] + outer[0])
    out = ctx.cache[key] = LaurentPoly(1, terms)
    return out


def _branch(
    lam: StrictPartition, mu: StrictPartition, spec: VariableSpec, ctx: QContext
) -> LaurentPoly:
    """qI_branch's recursion, with no row bound; zero when mu is not inside
    lam, as no nu lies between them.  On one variable it is the step itself."""
    n = spec.n
    if n == 0:
        return LaurentPoly.one(0) if lam == mu else LaurentPoly.zero(0)
    if n == 1:
        return q_single_var(lam, mu, spec, ctx)
    key = ("Ibr", lam.parts, mu.parts, spec)
    got = ctx.cache.get(key)
    if got is not None:
        return got
    if spec.k:
        step_spec, rest = VariableSpec(1, 0), VariableSpec(spec.k - 1, spec.m)
    else:
        step_spec, rest = VariableSpec(0, 1), VariableSpec(0, spec.m - 1)
    terms = []
    for nu in enum_strict_between(mu, lam):
        step = q_single_var(nu, mu, step_spec, ctx)
        if step.is_zero():
            continue
        tail = _branch(lam, nu, rest, ctx)
        if tail.is_zero():
            continue
        terms.append((step.embed(n, 0), tail.embed(n, 1), 1))
    total = ctx.cache[key] = sum_of_products(n, terms)
    return total


def qI_branch(
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
    ctx: QContext | None = None,
) -> LaurentPoly:
    """Intermediate value by branching on the first variable: the sum over nu
    between mu and lam of its single-variable step nu/mu, symplectic while
    k > 0, times lam/nu on the other variables, itself a branch value of the
    spec (k - 1, m) or (0, m - 1).  The steps are strip rules (Macdonald III.8),
    read from no series.  Each value on two or more variables is cached under
    ("Ibr", lam, mu, spec) in its own ring, and each step under "Q1", so calls
    sharing a context reuse the sub-values of smaller specs."""
    spec.check_rows(lam)
    return _branch(lam, mu, spec, _ctx(ctx))


def qI_jp(
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
    ctx: QContext | None = None,
) -> LaurentPoly:
    """Skew value by the Pfaffian formula; it vanishes when mu is not
    contained in lam.

    On a pure spec this is the plain (k = 0) or symplectic (m = 0) skew
    Pfaffian, whose two-row entries have closed forms; it takes any number
    of rows there, as the inner sums of qI_def need.  On a mixed spec the
    two-row entries are themselves intermediate values, computed by the
    inner-sum definition (no closed two-row form is available), and lam may
    have at most n rows.  The one-row entries come from the generating
    series, and shapes with fewer than two rows use it directly.  A shape
    with more rows beyond mu's than n is zero by QT5 (its diagonal letter
    indices strictly increase), returned before any context or matrix.
    """
    n = spec.n
    if spec.k and spec.m:
        spec.check_rows(lam)
    if lam.length - mu.length > n:
        return LaurentPoly.zero(n)
    ctx = _ctx(ctx)
    l = lam.length
    if l == 0:
        return LaurentPoly.one(n) if mu.length == 0 else LaurentPoly.zero(n)
    if l == 1:
        if mu.length > 1:
            return LaurentPoly.zero(n)
        return q_row(lam.part(1) - mu.part(1), spec, ctx)
    key = ("Ijp", lam.parts, mu.parts, spec)
    got = ctx.cache.get(key)
    if got is not None:
        return got
    out = pfaffian(build_jp_matrix(lam, mu, spec, ctx), spec.n)
    ctx.cache[key] = out
    return out

