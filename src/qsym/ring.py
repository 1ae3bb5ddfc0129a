"""Sparse multivariate Laurent polynomials with exact integer coefficients.

A polynomial in n variables is a map from exponent vectors to nonzero Python
ints.  Exponents may be negative, so every element lives in
Z[x1^{+-1}, ..., xn^{+-1}].

  Monomial = tuple[int, ...]     one exponent per variable
  terms    = {Monomial: int}     canonical: no zero coefficient is stored

Values are immutable after construction and safe to share.  The variable
count is fixed per polynomial; combining mismatched counts raises instead of
promoting, which keeps specialization maps honest.  `embed` re-indexes a
polynomial into a wider ring explicitly.

The optional environment variable QSYM_MAX_TERMS aborts any computation whose
intermediate results grow beyond that many terms; a value that is not a
nonnegative integer raises ParseError.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError, SubstitutionError, TermBudgetExceeded, VariableCountMismatch

Monomial = tuple[int, ...]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_pow(a: Monomial, e: int) -> Monomial:
    return tuple(x * e for x in a)


def term_sort_key(exps: Monomial):
    """Canonical term order: by leading variable, then exponent descending.

    Sorting by this key puts x1-led terms before x2-led ones and, within a
    variable, positive powers before negative ones, e.g. x1, x1^-1, x2.
    """
    return tuple((i, -e) for i, e in enumerate(exps) if e)


def _term_budget() -> int | None:
    raw = os.environ.get("QSYM_MAX_TERMS")
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ParseError(f"QSYM_MAX_TERMS must be a nonnegative integer, got {raw!r}")
    return budget


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int coefficients."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: dict[Monomial, int]):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self._hash = None
        budget = _term_budget()
        if budget is not None and len(self.terms) > budget:
            raise TermBudgetExceeded(
                f"polynomial has {len(self.terms)} terms, QSYM_MAX_TERMS={budget}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def const(cls, n: int, c: int) -> "LaurentPoly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int, power: int = 1) -> "LaurentPoly":
        """The monomial x_{i+1}^power (0-based variable index i)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        exps = [0] * n
        exps[i] = power
        return cls(n, {tuple(exps): 1})

    @classmethod
    def from_exponents(cls, n: int, exps: Iterable[Monomial]) -> "LaurentPoly":
        """Sum of the monomials x^e over `exps`, counted with multiplicity."""
        return cls(n, Counter(exps))

    @classmethod
    def monomial(cls, n: int, exps: Monomial, coeff: int = 1) -> "LaurentPoly":
        if len(exps) != n:
            raise VariableCountMismatch(f"exponent vector of length {len(exps)}, n={n}")
        return cls(n, {tuple(exps): coeff})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if self.n != other.n:
            raise VariableCountMismatch(f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.n, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(self.n, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = mono_mul(ea, eb)
                out[e] = out.get(e, 0) + ca * cb
        return LaurentPoly(self.n, out)

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly(self.n, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, e: int) -> "LaurentPoly":
        if e < 0:
            inv = self.unit_inverse()
            if inv is None:
                raise SubstitutionError("negative power of a non-unit")
            return inv ** (-e)
        result = LaurentPoly.one(self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_monomial(self) -> bool:
        """True for +-(single monomial), the units of the Laurent ring."""
        return len(self.terms) == 1 and next(iter(self.terms.values())) in (1, -1)

    def unit_inverse(self) -> "LaurentPoly | None":
        if not self.is_unit_monomial():
            return None
        ((e, c),) = self.terms.items()
        return LaurentPoly(self.n, {mono_pow(e, -1): c})

    # -- substitution ------------------------------------------------------

    def substitute(self, images: list["LaurentPoly"]) -> "LaurentPoly":
        """Ring-homomorphic image sending x_{i+1} to images[i].

        An image must be a unit monomial wherever the variable occurs with a
        negative exponent (0 or x1+x2 there is an error, since the ring has
        no fractions).
        """
        if len(images) != self.n:
            raise VariableCountMismatch(f"{len(images)} images for {self.n} variables")
        if not images:
            return self
        m = images[0].n
        for img in images:
            if img.n != m:
                raise VariableCountMismatch("images disagree on variable count")
        power_cache: dict[tuple[int, int], LaurentPoly] = {}

        def img_power(i: int, e: int) -> LaurentPoly:
            key = (i, e)
            got = power_cache.get(key)
            if got is not None:
                return got
            if e < 0:
                inv = images[i].unit_inverse()
                if inv is None:
                    raise SubstitutionError(
                        f"variable x{i + 1} occurs with exponent {e} but its image is not a unit"
                    )
                val = inv ** (-e)
            else:
                val = images[i] ** e
            power_cache[key] = val
            return val

        total = LaurentPoly.zero(m)
        for exps, c in self.terms.items():
            term = LaurentPoly.const(m, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * img_power(i, e)
            total = total + term
        return total

    def embed(self, n: int, offset: int = 0) -> "LaurentPoly":
        """Re-index into an n-variable ring, shifting variables by offset."""
        if offset < 0 or offset + self.n > n:
            raise VariableCountMismatch(f"cannot embed {self.n} vars at offset {offset} into {n}")
        pre = (0,) * offset
        post = (0,) * (n - offset - self.n)
        return LaurentPoly(n, {pre + e + post: c for e, c in self.terms.items()})

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=term_sort_key)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self.sorted_terms():
            factors = [
                f"x{i + 1}" + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self.n}, {self})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "terms": [
                    {"exps": list(e), "coeff": str(c)} for e, c in self.sorted_terms()
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        try:
            data = json.loads(text)
            n = data["n"]
            terms: dict[Monomial, int] = {}
            for item in data["terms"]:
                exps = tuple(int(x) for x in item["exps"])
                if len(exps) != n:
                    raise ParseError(f"exponent vector {exps} does not match n={n}")
                terms[exps] = terms.get(exps, 0) + int(item["coeff"])
            return cls(n, terms)
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad polynomial JSON: {exc}") from exc


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse_poly(text: str, n: int) -> LaurentPoly:
    """Inverse of str(): accepts 'c*x1^e1*...' terms joined by + or -."""
    s = text.strip()
    if s == "0":
        return LaurentPoly.zero(n)
    # normalize to '+'-separated signed terms
    s = s.replace(" - ", " + -").replace(" + ", "\x00")
    terms: dict[Monomial, int] = {}
    for raw in s.split("\x00"):
        raw = raw.strip()
        if not raw:
            raise ParseError(f"empty term in {text!r}")
        sign = 1
        if raw.startswith("-"):
            sign = -1
            raw = raw[1:].strip()
        coeff = 1
        exps = [0] * n
        for factor in raw.split("*"):
            factor = factor.strip()
            m = _FACTOR_RE.match(factor)
            if m:
                idx = int(m.group(1)) - 1
                if not 0 <= idx < n:
                    raise ParseError(f"variable x{idx + 1} out of range for n={n}")
                exps[idx] += int(m.group(2)) if m.group(2) else 1
            elif re.fullmatch(r"\d+", factor):
                coeff *= int(factor)
            else:
                raise ParseError(f"bad factor {factor!r} in {text!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return LaurentPoly(n, terms)


@dataclass(frozen=True)
class TruncatedSeries:
    """Formal power series in z, kept exactly up to a degree bound.

    coeffs[d] is the z^d coefficient, a LaurentPoly; all coefficients share
    one variable count.
    """

    coeffs: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")
        n = self.coeffs[0].n
        for c in self.coeffs:
            if c.n != n:
                raise VariableCountMismatch("series coefficients disagree on variable count")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def nvars(self) -> int:
        return self.coeffs[0].n

    def coefficient(self, d: int) -> LaurentPoly:
        if d < 0:
            return LaurentPoly.zero(self.nvars)
        if d > self.degree:
            raise IndexError(f"coefficient {d} beyond degree bound {self.degree}")
        return self.coeffs[d]

    def mul_linear(self, mono: Monomial, sign: int) -> "TruncatedSeries":
        """Multiply by (1 + sign * mono * z), truncated at the same bound."""
        u = LaurentPoly.monomial(self.nvars, mono, sign)
        out = list(self.coeffs)
        for d in range(self.degree, 0, -1):
            out[d] = out[d] + out[d - 1] * u
        return TruncatedSeries(tuple(out))

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs


def series_from_linear_factors(
    numerators: list[Monomial],
    denominators: list[Monomial],
    degree: int,
    nvars: int,
) -> TruncatedSeries:
    """Expand prod(1 + u z) / prod(1 - v z) exactly to order z^degree.

    u ranges over `numerators` and v over `denominators`; both are monomials
    in an nvars-variable ring.
    """
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    coeffs = [LaurentPoly.one(nvars)] + [LaurentPoly.zero(nvars)] * degree
    for u in numerators:
        up = LaurentPoly.monomial(nvars, u)
        for d in range(degree, 0, -1):
            coeffs[d] = coeffs[d] + coeffs[d - 1] * up
    for v in denominators:
        vp = LaurentPoly.monomial(nvars, v)
        # 1/(1 - v z): c'[d] = c[d] + v * c'[d-1], ascending so c'[d-1] is final
        for d in range(1, degree + 1):
            coeffs[d] = coeffs[d] + coeffs[d - 1] * vp
    return TruncatedSeries(tuple(coeffs))
