"""Q-polynomial evaluators: the one-row series, the closed two-row forms of
the plain and symplectic families, and the intermediate family by four
independent routes (inner-sum definition, tableau sum, branching chains of
strip-rule steps that read no series (Macdonald III.8), Pfaffian).  The table
that names these routes, with the inputs each accepts, is `checks.ROUTES`.

A branching step adds one variable.  A plain step is one strip at x, and a
symplectic step a strip at x followed by one at 1/x.  `_strips` is the one
home of the strip rule: it walks only the shapes that the interlacing bounds
reach, counting cells and components as it goes, so each step table lists
the shapes its step reaches and nothing else.

The spec is the family: k = 0 gives the plain family (Schur's Q-functions),
m = 0 the symplectic one (Okada's), and each route evaluates all three.

All evaluators are pure; a QContext carries their memo tables, whose keys
its docstring lists.  A call without a context gets a fresh one, so nothing
is cached between such calls; callers that want reuse pass the same context
to each call.

Conventions used throughout: a negative subscript means the zero polynomial;
for matrix entries, the two-row value at (r, 0) is the one-row value, and a
Pfaffian is given by its strict upper triangle, so only r > s is ever taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .errors import ExponentOverflow, PreconditionError
from .linalg import pfaffian
from .ring import (
    GrowingSeries,
    LaurentPoly,
    _LIMIT,
    _over_budget,
    _poly,
    _term_budget,
    grow_series,
    sum_of_products,
)
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
      ("Step", spec, lam, mu, floor)  a one-variable spec's step table: each
        strict nu between floor and lam that the step from mu reaches, with
        its step polynomial.  qI_branch's steps take floor (), and its last
        step, as q_single_var does, floor lam.
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
) -> list[list[LaurentPoly]]:
    """Strict upper triangle, as `linalg.pfaffian` takes it, of the padded
    block matrix [[M, N], [-N^T, 0]] with two-row M and one-row N entries.
    N pairs row i with the (m+1-j)-th inner part, i.e. the inner parts are
    consumed in reverse order across the columns."""
    ctx = _ctx(ctx)
    lam_parts, mu_parts = pad_for_pfaffian(lam, mu)
    l, m = len(lam_parts), len(mu_parts)
    upper = [
        [_pair_value(lam_parts[i], lam_parts[j], spec, ctx) for j in range(i + 1, l)]
        + [q_row(lam_parts[i] - mu_parts[m - 1 - j], spec, ctx) for j in range(m)]
        for i in range(l)
    ]
    zero = LaurentPoly.zero(spec.n)
    return upper + [[zero] * (m - 1 - j) for j in range(m)]


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


def _strips(
    mu: tuple[int, ...], lam: tuple[int, ...], floor: tuple[int, ...], new_row: bool
) -> list[tuple[tuple[int, ...], int, int]]:
    """Each strict nu between floor and lam with nu/mu a strip, as (nu, c, d):
    lam_1 >= nu_1 >= mu_1 >= nu_2 >= mu_2 >= ..., so nu_i runs over
    [max(mu_i, floor_i), min(mu_{i-1}, lam_i)], with at most one row past
    mu's, and none unless new_row.  nu/mu has d cells in c edge-connected
    components: row i joins row i - 1's iff nu_i = mu_{i-1}, which
    strictness allows only when row i - 1 has cells.  Empty when mu is not
    inside lam.  The walk goes row by row, each partial nu carrying c, d and
    whether its last row has cells."""
    rows = min(len(lam), len(mu) + new_row)
    if rows < len(mu) or rows < len(floor):
        return []
    walks = [((), 0, 0, False)]
    for i in range(rows):
        b = mu[i] if i < len(mu) else 0
        low = floor[i] if i < len(floor) and floor[i] > b else b
        touch = mu[i - 1] if i else lam[0] + 1
        top = lam[i] if lam[i] < touch else touch
        moves = [(a, a > b and a != touch, a - b, a > b) for a in range(low, top + 1)]
        grown = []
        for nu, c, d, grew in walks:
            for a, dc, dd, cells in moves:
                if a == touch and not grew:
                    continue
                # a = 0 only on the new row, which then stays empty
                grown.append((nu + (a,) if a else nu, c + dc, d + dd, cells))
        walks = grown
    return [(nu, c, d) for nu, c, d, _ in walks]


def _step_table(
    spec: VariableSpec,
    lam: tuple[int, ...],
    mu: tuple[int, ...],
    floor: tuple[int, ...],
    ctx: QContext,
) -> dict[tuple[int, ...], LaurentPoly]:
    """The one-variable step on spec from mu to every strict nu between floor
    and lam that it reaches, by the strip rule (Macdonald III.8).  Both kinds
    start with a strip kappa/mu at x, weighing 2^c x^d.  On (0, 1) that is
    the step, and nu = kappa.  On (1, 0) a strip nu/kappa at 1/x follows, so
    kappa_i >= nu_{i+1} >= floor_{i+1}, and the step sums the products over
    kappa.  A kappa past mu's rows leaves nu none of its own (QT5 on one
    index), so no nu grows by more than one row.  Each step's terms are
    checked against the term budget as they are found.  Cached under
    ("Step", spec, lam, mu, floor)."""
    key = ("Step", spec, lam, mu, floor)
    got = ctx.cache.get(key)
    if got is not None:
        return got
    budget = _term_budget()
    table: dict[tuple[int, ...], dict[int, int]] = {}  # a one-variable term's key is its exponent
    for kappa, c1, d1 in _strips(mu, lam, floor[1:] if spec.k else floor, True):
        if spec.k:
            seconds = _strips(kappa, lam, floor, len(kappa) == len(mu))
        else:
            seconds = [(kappa, 0, 0)]
        for nu, c2, d2 in seconds:
            terms = table.get(nu)
            if terms is None:
                terms = table[nu] = {}
            e = d1 - d2
            terms[e] = terms.get(e, 0) + (1 << (c1 + c2))
            if budget is not None and len(terms) > budget:
                raise _over_budget(len(terms), budget)
    out = {}
    for nu, terms in table.items():
        bound = max(map(abs, terms))
        if bound >= _LIMIT:
            raise ExponentOverflow(f"exponent of size {bound}, the limit is {_LIMIT - 1}")
        out[nu] = _poly(1, terms, bound)
    ctx.cache[key] = out
    return out


def q_single_var(
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
    ctx: QContext | None = None,
) -> LaurentPoly:
    """Skew value on a one-variable spec by the strip rule, with no series:
    the lam entry of the step table from mu whose floor is lam, so that the
    walk lists lam alone (`_step_table`), else zero.  It vanishes when the
    shape grows by more than one row (QT5 on one index)."""
    if spec.n != 1:
        raise PreconditionError(f"needs a one-variable spec, got ({spec.k}, {spec.m})")
    return _branch(lam.parts, mu.parts, spec, _ctx(ctx))


def _branch(
    lam: tuple[int, ...], mu: tuple[int, ...], spec: VariableSpec, ctx: QContext
) -> LaurentPoly:
    """qI_branch's recursion on part tuples, with no row bound; zero when mu
    is not inside lam, as no step reaches lam then.  On one variable it is
    the step to lam alone, whose table has lam as its floor."""
    n = spec.n
    if n == 0:
        return LaurentPoly.one(0) if lam == mu else LaurentPoly.zero(0)
    if n == 1:
        step = _step_table(spec, lam, mu, lam, ctx).get(lam)
        return LaurentPoly.zero(1) if step is None else step
    key = ("Ibr", lam, mu, spec)
    got = ctx.cache.get(key)
    if got is not None:
        return got
    if spec.k:
        step_spec, rest = VariableSpec(1, 0), VariableSpec(spec.k - 1, spec.m)
    else:
        step_spec, rest = VariableSpec(0, 1), VariableSpec(0, spec.m - 1)
    terms = []
    for nu, step in _step_table(step_spec, lam, mu, (), ctx).items():
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
    """Intermediate value by branching on the first variable: the sum over
    the nu that the single-variable step from mu reaches within lam, the step
    symplectic while k > 0, of that step times lam/nu on the other variables,
    itself a branch value of the spec (k - 1, m) or (0, m - 1).  The steps
    are the entries of strip-rule step tables (`_step_table`), read from no
    series, and a nu that no step reaches is never listed.  Each value on two
    or more variables is cached under ("Ibr", lam, mu, spec) in its own ring,
    and each table under "Step", so calls sharing a context reuse the
    sub-values of smaller specs."""
    spec.check_rows(lam)
    return _branch(lam.parts, mu.parts, spec, _ctx(ctx))


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

