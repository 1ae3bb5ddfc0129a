"""Schur-side evaluators on the alphabets of variable specs.

The alphabet of a VariableSpec (k, m) is x1, x1^-1, ..., xk, xk^-1,
x_{k+1}, ..., x_n, the weights of its unprimed letters
(`VariableSpec.monomials`), so the three specializations of interest are
three kinds of spec:

  (0, m)   x1, ..., xm
  (k, 0)   x1, x1^-1, ..., xk, xk^-1
  (k, m)   x1, x1^-1, ..., xk, xk^-1, x_{k+1}, ..., x_{k+m}

Complete homogeneous polynomials h_r come from the geometric series expansion
of prod 1/(1 - x z); everything else is a determinant in the h_r (or e_r).
The symplectic determinant's global 1/2 is realized structurally: its first
column is twice h, so that column is written halved and no division ever
happens.  The intermediate character's skew factor is a Schur polynomial on
(0, m), embedded at offset k, as qI_def embeds its plain factor.

Two module-level caches live here, for the life of the process, because
`symp_schur` and `inter_schur` take no context and every caller (the CLI,
`verify`, the benchmark) calls them without one:

  _H_CACHE    the h-series of each spec, grown exactly as far as asked
  _SP_CACHE   the final value sp_mu on the k-pair spec (k, 0), keyed by
              (mu.parts, k); no minor and no h-entry is kept

sp_mu depends only on mu and k, never on the outer shape or on m, and a
polynomial on k variables embeds at offset 0 into any n >= k by sharing its
terms, so one entry serves `symp_schur(mu, k)` and the factor of every
`inter_schur` on k pairs.  Each hit is re-checked against QSYM_MAX_TERMS as
it is embedded, as a fresh value is when it is built; a budget that only an
intermediate of the determinant passes stops a fresh value but not a hit.
`symp_schur_on` itself keeps nothing, so the combined-alphabet side of
`check_union_identity` stays a fresh determinant.
"""

from __future__ import annotations

from .errors import PreconditionError
from .linalg import RingMatrix, determinant
from .ring import (
    GrowingSeries,
    LaurentPoly,
    _poly,
    grow_series,
    series_from_linear_factors,
    sum_of_products,
)
from .shapes import Partition
from .tableaux import VariableSpec, spt_weight_counts


_H_CACHE: dict[VariableSpec, GrowingSeries] = {}


def complete_h(r: int, spec: VariableSpec) -> LaurentPoly:
    """h_r on the spec's alphabet, read from its _H_CACHE series by
    grow_series: zero for r < 0, one for r = 0."""
    series = _H_CACHE.get(spec)
    if series is None:
        series = _H_CACHE[spec] = GrowingSeries([], spec.monomials(), spec.n)
    return grow_series(series, r)


def elementary_e(r: int, spec: VariableSpec) -> LaurentPoly:
    """e_r on the spec's alphabet, the coefficient of z^r in the finite
    product prod(1 + x z)."""
    monos = spec.monomials()
    if r < 0 or r > len(monos):
        return LaurentPoly.zero(spec.n)
    return series_from_linear_factors(monos, [], r, spec.n).coeffs[r]


def schur_skew(lam: Partition, mu: Partition, spec: VariableSpec) -> LaurentPoly:
    """Skew Schur polynomial via the h-determinant; zero when mu is not inside lam."""
    if not lam.contains(mu):
        return LaurentPoly.zero(spec.n)
    size = lam.length
    rows = [
        [complete_h(lam.part(i) - mu.part(j) - i + j, spec) for j in range(1, size + 1)]
        for i in range(1, size + 1)
    ]
    return determinant(RingMatrix.from_rows(rows), spec.n)


def schur_skew_e(lam: Partition, mu: Partition, spec: VariableSpec) -> LaurentPoly:
    """Same polynomial via the dual e-determinant on the transposed shapes."""
    if not lam.contains(mu):
        return LaurentPoly.zero(spec.n)
    lt, mt = lam.transpose(), mu.transpose()
    size = lt.length
    rows = [
        [elementary_e(lt.part(i) - mt.part(j) - i + j, spec) for j in range(1, size + 1)]
        for i in range(1, size + 1)
    ]
    return determinant(RingMatrix.from_rows(rows), spec.n)


def symp_schur_on(lam: Partition, spec: VariableSpec) -> LaurentPoly:
    """Symplectic Schur determinant on the spec's alphabet.

    Entry (i, j) is h_{lam_i - i + j} + h_{lam_i - i - j + 2} for j >= 2; the
    j = 1 entry of that matrix is 2 h_{lam_i - i + 1}, so the first column is
    stored halved and the result stays in the integer ring.
    """
    size = lam.length
    rows = []
    for i in range(1, size + 1):
        d = lam.part(i) - i
        row = [complete_h(d + 1, spec)]
        row += [
            complete_h(d + j, spec) + complete_h(d - j + 2, spec) for j in range(2, size + 1)
        ]
        rows.append(row)
    return determinant(RingMatrix.from_rows(rows), spec.n)


_SP_CACHE: dict[tuple[tuple[int, ...], int], LaurentPoly] = {}


def _symp_on_pairs(lam: Partition, k: int, n: int) -> LaurentPoly:
    """sp_lam on x1^+-1, ..., xk^+-1 in an n-variable ring, n >= k, read
    from _SP_CACHE; the embed checks the term budget on a hit too."""
    key = (lam.parts, k)
    value = _SP_CACHE.get(key)
    if value is None:
        value = _SP_CACHE[key] = symp_schur_on(lam, VariableSpec(k, 0))
    return value.embed(n)


def symp_schur(lam: Partition, k: int) -> LaurentPoly:
    """Symplectic Schur polynomial on k variable pairs; needs at most k rows."""
    if lam.length > k:
        raise PreconditionError(f"{lam.length} rows on {k} symplectic pairs")
    return _symp_on_pairs(lam, k, k)


def inter_schur(lam: Partition, spec: VariableSpec, method: str = "definition") -> LaurentPoly:
    """Intermediate symplectic Schur polynomial.

    method="definition" sums symplectic-Schur times skew-Schur over inner
    shapes; inner shapes with more than k rows carry no symplectic character
    and are skipped.  On the others sp_mu is an irreducible Sp(2k)
    character, never zero, so only the skew factor can drop a term.  Each
    factor sp_mu is computed once per process on the k pairs alone, kept in
    _SP_CACHE under (mu.parts, k) and embedded into the n variables at
    offset 0, since it depends on neither lam nor m.  The skew factor is
    computed on (0, m), whose h-series serves every k, and embedded at
    offset k.

    method="tableau" sums weights over the unprimed tableau family: the
    polynomial's terms are the packed weight counts of `spt_weight_counts`,
    a transfer over the rows of enum_spt's tableaux that lists none of them.
    Their exponent bound is lam_1: row i filled with the letter i is a
    tableau, so x1^lam_1 is a term, and a column holds each letter at most
    once, so no exponent passes the lam_1 columns.  ExponentOverflow comes
    before the transfer when lam_1 >= 2^15.
    """
    n = spec.n
    spec.check_rows(lam)
    if method == "tableau":
        return _poly(n, spt_weight_counts(spec, lam), lam.part(1))
    if method != "definition":
        raise ValueError(f"unknown method {method!r}")
    a_spec = VariableSpec(0, spec.m)
    terms = []
    for mu in lam.subpartitions():
        if mu.length > spec.k:
            continue
        c_part = _symp_on_pairs(mu, spec.k, n)
        a_part = schur_skew(lam, mu, a_spec)
        if a_part.is_zero():
            continue
        terms.append((c_part, a_part.embed(n, spec.k), 1))
    return sum_of_products(n, terms)


def check_union_identity(lam: Partition, spec: VariableSpec) -> bool:
    """Compare the definition sum against the symplectic determinant on the
    spec's whole alphabet x1, x1^-1, ..., xk, xk^-1, x_{k+1}, ..., x_n.

    Valid for shapes with at most k + 1 rows.
    """
    if lam.length > spec.k + 1:
        raise PreconditionError(f"{lam.length} rows exceeds k + 1 = {spec.k + 1}")
    lhs = inter_schur(lam, spec, "definition")
    rhs = symp_schur_on(lam, spec)
    return lhs == rhs
