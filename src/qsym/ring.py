"""Sparse multivariate Laurent polynomials with exact integer coefficients.

A polynomial in n variables is a map from monomials to nonzero Python ints.
Exponents may be negative, so every element lives in
Z[x1^{+-1}, ..., xn^{+-1}].

Inside, the monomial x1^e1 * ... * xn^en is one packed int key,

  key   = e1 + e2 * 2^16 + ... + en * 2^(16(n-1))
  terms = {key: int}     canonical: no zero coefficient is stored

Each exponent is a signed 16-bit field, |e| < 2^15.  Python ints are signed
and unbounded, so the fields need no bias: a monomial product is the sum of
the keys, `embed` shifts a key left by 16 bits per offset variable, and
inverting every variable negates it.  The key of x^0 is 0 in every ring.

Overflow never wraps.  Each polynomial carries a bound on max |e_i| over its
terms, exact where it is built from exponent tuples, the sum of the factors'
bounds for a product, and the largest of those over a sum of products.  A
product whose bound reaches 2^15, or an exponent tuple with |e| >= 2^15,
raises ExponentOverflow; `parse_poly` and `from_json` raise ParseError
instead.

Terms are accumulated in one place, `sum_of_products`, which sums c * a * b
over (a, b, c) triples into one dict.  A product is its one-triple case; a sum,
a difference and `lincomb` are its case with the unit as second factor; the
series builders, the Laplace and Pfaffian expansions and the evaluators' inner
sums pass all their addends at once.  It multiplies term pair by term pair,
or, where the factors are dense in x1, x1-row by x1-row: each row, the terms
that differ only in their x1 exponent, is one Python int with its
coefficients in fixed-width slots, so one native int product does the work
of many term pairs (Kronecker substitution in x1 alone).  Weight counts are
the other accumulator: `from_exponents` counts exponent tuples, and
`tableaux.spt_weight_counts` counts packed keys row by row, multiplying its
groups of fillings with `_add_products`, for `symfun.inter_schur` to wrap
with `_poly` and the bound it knows.

Exponent tuples (Monomial, one exponent per variable) appear only at the
edges: the constructor `LaurentPoly(n, {Monomial: int})`, `from_exponents`,
`monomial`, `variable`, `series_from_linear_factors` and `GrowingSeries`
take them; `sorted_terms`, `str`, `to_json`, `from_json` and `parse_poly`
give or read them.

`sorted_terms`, `str` and `to_json` give the terms in one canonical order,
computed in one pass over the whole polynomial (`LaurentPoly._sorted_rows`).
Every term's fields go into one buffer, which a fixed number of whole-int
operations on its 16-bit lanes turn into one order digit per exponent: with
B = 2^15 - 1, the ring's largest exponent, B - e + [e > 0] for e != 0,
2B + 1 for a zero that a nonzero exponent follows and 0 for a zero that ends
the term.  These 2^16 digits fill a lane exactly and never depend on a
polynomial's bound; each term's digits, x1 first, are a 2n-byte key that
bytes comparison sorts.

Values are immutable after construction and safe to share.  The variable
count is fixed per polynomial; combining mismatched counts raises instead of
promoting, which keeps specialization maps honest.  `embed` re-indexes a
polynomial into a wider ring explicitly.

The optional environment variable QSYM_MAX_TERMS aborts any computation whose
intermediate results grow beyond that many terms; both product paths check it
and it chooses neither.  A value that is not a nonnegative integer in ASCII
digits raises ParseError.  Each ring operation reads it once, and a value is
parsed once until it changes.
"""

from __future__ import annotations

import json
import os
import re
import sys
from array import array
from collections import Counter
from functools import cache, lru_cache, partial
from itertools import islice
from struct import Struct
from typing import Iterable, Sequence

from .errors import (
    ExponentOverflow,
    ParseError,
    TermBudgetExceeded,
    VariableCountMismatch,
    parse_count,
)

Monomial = tuple[int, ...]

_BITS = 16
_MASK = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)  # every exponent and every bound stays below this in absolute value
_BATCH = 4096  # exponent tuples that from_exponents counts between budget checks


def _pack(exps: Monomial) -> int:
    key = 0
    for e in reversed(exps):
        key = (key << _BITS) + e
    return key


def _bias(n: int) -> int:
    """The key with every one of n fields at _LIMIT.  Adding it to a key
    lifts each field into [1, 2^16), so the fields unpack without borrows."""
    return _LIMIT * (((1 << (_BITS * n)) - 1) // _MASK)


def _unpack(key: int, n: int) -> Monomial:
    key += _bias(n)
    return tuple([((key >> s) & _MASK) - _LIMIT for s in range(0, _BITS * n, _BITS)])


# `_order_keys` works one chunk of at most _CHUNK_LANES lanes (terms times
# variables) at a time.  A chunk's ints, 8 KB at most, reuse memory the
# process already holds, where ints as large as the whole buffer of a
# 14,286-term polynomial each took fresh pages and raised the expand
# benchmark's peak resident memory.  Full chunks, and polynomials of at most
# _CACHED_LANES lanes, such as the few-term values that most sweep cases
# print, reuse their masks and key struct, which cost about as much to build
# as the rest of a few terms' sort; other chunks build theirs, so the cache
# stays small.
_CHUNK_LANES = 4096
_CACHED_LANES = 64


@cache
def _layout(n: int) -> tuple[int, int, int, str]:
    """The per-term constants of n variables: the bias of a key and the sign
    bit of each of its fields, which turn the key into its fields e1, ...,
    en in 16-bit two's complement; the terms in one chunk of `_order_keys`;
    and the %-template of a term's JSON object."""
    sign = int.from_bytes(b"\0\1" * n, "big") << (_BITS - 1)
    template = '{"exps": [' + ", ".join(["%d"] * n) + '], "coeff": "%d"}'
    return _bias(n), sign, max(1, _CHUNK_LANES // max(n, 1)), template


def _masks(n: int, count: int) -> tuple[int, int, int, int, Struct]:
    """Over count terms in n variables: bit 0 of each term's last lane, the
    top bit of each term's first lane, bit 0 of every lane, bit 15 of every
    lane, and the struct that splits count 2n-byte keys."""
    unit = int.from_bytes((b"\0" * (2 * n - 1) + b"\1") * count, "big")
    low = unit * int.from_bytes(b"\0\1" * n, "big")
    return unit, (unit << (_BITS * n)) >> 1, low, low << (_BITS - 1), Struct(f"{2 * n}s" * count)


_cached_masks = lru_cache(maxsize=256)(_masks)


def _order_keys(buf: bytearray, n: int, count: int, step: int) -> Sequence[bytes]:
    """The order keys of the count terms whose fields `buf` holds, 2n
    little-endian bytes each: one 2n-byte big-endian key per term, in buf's
    order, computed step terms at a time (see `LaurentPoly._sorted_rows`)."""
    if count <= step:
        masks = _cached_masks if n * count <= _CACHED_LANES else _masks
        return _chunk_keys(buf, masks(n, count))
    keys: list[bytes] = []
    for start in range(0, count, step):
        m = min(step, count - start)
        chunk = buf[2 * n * start : 2 * n * (start + m)]
        keys += _chunk_keys(chunk, (_cached_masks if m == step else _masks)(n, m))
    return keys


def _chunk_keys(chunk: bytearray, masks: tuple[int, int, int, int, Struct]) -> Sequence[bytes]:
    """`_order_keys` on one chunk, with its `_masks`."""
    unit, guard, low, sign, split = masks
    e = int.from_bytes(chunk, "big")
    low8 = low * 0xFF  # the low byte of every lane
    e = ((e >> 8) & low8) | ((e & low8) << 8)  # big-endian lanes: x1 of the first term on top
    low15 = sign - low  # the bits below the sign bit of every lane
    nonzero = ((((e & low15) + low15) | e) & sign) >> (_BITS - 1)
    digits = (e ^ low15) + (((e >> (_BITS - 1)) & low) ^ nonzero)  # B - e + [e > 0]
    # subtracting unit borrows from each term's last lane through its
    # trailing zeros, up to its last nonzero lane or, with none, its guard
    marked = nonzero | guard
    gap = ((marked - unit) ^ marked ^ low) & (low ^ nonzero)  # the zeros a nonzero follows
    digits = (digits & (nonzero * _MASK)) | (gap * _MASK)
    return split.unpack(digits.to_bytes(len(chunk), "big"))


# os.environ keeps the encoded environment in `_data`.  A get there is one
# dict lookup, where os.environ.get raises and catches a KeyError whenever the
# variable is unset.  Both stay current under os.environ writes.
_ENV_DATA = os.environ._data
_BUDGET_KEY = os.environ.encodekey("QSYM_MAX_TERMS")


def _term_budget() -> int | None:
    raw = _ENV_DATA.get(_BUDGET_KEY)
    return _parsed_budget(raw) if raw else None


@lru_cache(maxsize=1)
def _parsed_budget(raw: bytes) -> int:
    """QSYM_MAX_TERMS's raw value parsed, once while the value stays; a bad
    value raises on every read, as the cache keeps no exception."""
    return parse_count(os.environ.decodevalue(raw), "QSYM_MAX_TERMS")


def _over_budget(terms: int, budget: int) -> TermBudgetExceeded:
    return TermBudgetExceeded(f"polynomial has {terms} terms, QSYM_MAX_TERMS={budget}")


def _fill(p: "LaurentPoly", n: int, terms: dict[int, int], bound: int) -> "LaurentPoly":
    """Set p's fields from canonical packed terms, after the term budget check."""
    budget = _term_budget()
    if budget is not None and len(terms) > budget:
        raise _over_budget(len(terms), budget)
    p.n = n
    p.terms = terms
    p._bound = bound
    p._hash = None
    return p


def _poly(n: int, terms: dict[int, int], bound: int) -> "LaurentPoly":
    return _fill(object.__new__(LaurentPoly), n, terms, bound)


def _check(n: int, other: "LaurentPoly") -> None:
    """Raise unless `other` is a polynomial in n variables."""
    if not isinstance(other, LaurentPoly):
        raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
    if n != other.n:
        raise VariableCountMismatch(f"variable counts differ: {n} vs {other.n}")


# The row path pays when _ROW_PAIR * row pairs + _ROW_TERM * factor terms is
# at most the term pairs: a row pair costs about two term pairs of the dict
# loop, and a factor term about six, for its encoding and its share of the
# decoding.  Fitted to timings of both paths on the calls of more than 5,000
# term pairs that `qI_jp`, `qI_def` and `qI_branch` make on shapes with parts
# up to 8 over the specs (2, 2), (3, 1) and (3, 2).
_ROW_PAIR = 2
_ROW_TERM = 6


# A merged product c * ta * tb, each factor a polynomial's packed terms.
_Product = tuple[dict[int, int], dict[int, int], int]


def _add_products(
    out: dict[int, int], ta: dict[int, int], tb: dict[int, int], c: int, budget: int | None
) -> None:
    """Add c * ta * tb into out term pair by term pair, ta giving the rows;
    the budget is checked after each row."""
    get = out.get
    for ea, ca in ta.items():
        ca *= c
        for eb, cb in tb.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
        # one row adds at most len(tb) terms, so this bounds memory too
        if budget is not None and len(out) > budget:
            raise _over_budget(len(out), budget)


def _x1_row_count(terms: dict[int, int]) -> int:
    """The number of distinct keys among the terms with their x1 fields
    cleared: k - ((k + _LIMIT) & _MASK) is k - e1 - _LIMIT."""
    return len({k - ((k + _LIMIT) & _MASK) for k in terms})


def _x1_rows(terms: dict[int, int], width: int) -> tuple[int, dict[int, int]]:
    """(lo, rows): lo is the lowest x1 exponent of the terms, and rows maps
    each key with its x1 field cleared to the int sum of c * 2^(width * (e1 -
    lo)) over that row's terms c * x1^e1 * (rest)."""
    lo = min((k + _LIMIT) & _MASK for k in terms) - _LIMIT
    rows: dict[int, int] = {}
    get = rows.get
    for k, c in terms.items():
        k -= lo
        s = k & _MASK  # e1 - lo: the field is in [0, 2^16) after the shift
        k -= s
        rows[k] = get(k, 0) + (c << width * s)
    return lo, rows


def _row_path_pays(products: list[_Product]) -> bool:
    """Whether multiplying x1-rows beats the dict loop on these products, by
    their term pairs against their row pairs and factor terms."""
    cost = pairs = 0
    for ta, tb, _ in products:
        pairs += len(ta) * len(tb)
        cost += _ROW_TERM * (len(ta) + len(tb)) + _ROW_PAIR * _x1_row_count(ta) * _x1_row_count(tb)
    return cost <= pairs


def _add_row_products(out: dict[int, int], products: list[_Product], budget: int | None) -> None:
    """Add the sum of c * ta * tb into out as products of x1-rows.

    Each factor's row is one int with its x1 coefficients in width-bit slots
    from the factor's lowest x1 exponent; row products are summed per summed
    row key, all from the lowest of the products' lowest x1 exponents, then
    split back into terms.  No slot of any sum can exceed sum |c| * |ta|_1 *
    |tb|_1 in absolute value, and width leaves one bit over that for the sign,
    so every slot reads back exactly in two's complement.  The budget is
    checked on the count of summed rows after each factor row, and on out
    after each is split back, so work stops within one x1-row (< 2^16 terms).
    """
    norm = 0
    for ta, tb, c in products:
        norm += abs(c) * sum(map(abs, ta.values())) * sum(map(abs, tb.values()))
    width = norm.bit_length() + 1
    rows = [(_x1_rows(ta, width), _x1_rows(tb, width), c) for ta, tb, c in products]
    base = min(la + lb for (la, _), (lb, _), _ in rows)
    acc: dict[int, int] = {}
    get = acc.get
    for (la, rows_a), (lb, rows_b), c in rows:
        shift = width * (la + lb - base)
        for ra, xa in rows_a.items():
            xa = (c * xa) << shift
            for rb, xb in rows_b.items():
                r = ra + rb
                acc[r] = get(r, 0) + xa * xb
            if budget is not None and len(acc) > budget:
                raise _over_budget(len(acc), budget)
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    get = out.get
    for r, x in acc.items():
        key = r + base  # the key of slot 0
        while x:
            v = x & mask
            if not v:  # step over a run of zero slots at once
                z = ((x & -x).bit_length() - 1) // width
                x >>= width * z
                key += z
                v = x & mask
            if v >= half:
                v -= full
            x = (x - v) >> width
            out[key] = get(key, 0) + v
            key += 1
        if budget is not None and len(out) > budget:
            raise _over_budget(len(out), budget)


def sum_of_products(
    n: int, terms: Iterable[tuple["LaurentPoly", "LaurentPoly", int]]
) -> "LaurentPoly":
    """Sum of c * a * b over the (a, b, c) in `terms`, all in n variables.

    All products are summed into one dict, instead of building each product
    as a polynomial and copying the growing sum once per addend; zero
    coefficients are dropped once, at the end.  A one-term factor into an
    empty sum cannot make two terms meet, so it is filled by one
    comprehension, or copied when it and c make the unit.

    The other products, the merged ones, take one of two paths:

    - the dict loop adds term pair by term pair, the smaller factor giving
      the rows;
    - the row path (`_add_row_products`) groups each factor's terms into
      x1-rows, the terms that differ only in their x1 exponent, holds each
      row as one int with its coefficients in width-bit slots, and multiplies
      rows with native int arithmetic.  width is the bit length of the sum
      of |c| * |a|_1 * |b|_1 over the products it takes, plus one, which
      bounds every slot, so the result is exact.

    A merged product with fewer than six term pairs per factor term takes the
    dict loop as it comes.  The others are the row path's candidates, and they
    take it together when 2 * row pairs + 6 * factor terms is at most their
    term pairs, all summed over them.  So the row path pays on products whose
    factors are dense in x1, as the large expansions of `qI_jp` and `qI_def`
    are, and the factor terms count the encoding and decoding that sink it on
    products with a small factor, as `qI_branch` makes.

    Each product raises ExponentOverflow when its factors' bounds reach 2^15,
    even when c is 0.  Either path stops within one row of passing the term
    budget.  The result's bound is the largest bound of any product.
    """
    budget = _term_budget()
    out: dict[int, int] = {}
    bound, merged = 0, False
    products: list[_Product] = []  # the row path's candidates
    for a, b, c in terms:
        _check(n, a)
        _check(n, b)
        pb = a._bound + b._bound
        if pb >= _LIMIT:
            raise ExponentOverflow(
                f"a product's exponents may reach {pb}, the limit is {_LIMIT - 1}"
            )
        if pb > bound:
            bound = pb
        ta, tb = a.terms, b.terms
        if len(ta) > len(tb):
            ta, tb = tb, ta
        if not c or not ta:
            continue
        if not out and len(ta) == 1:
            # adding one key is injective: no two terms meet, none cancels
            ((ea, ca),) = ta.items()
            ca *= c
            if ea == 0 and ca == 1:
                out.update(tb)
            else:
                out = {ea + eb: ca * cb for eb, cb in tb.items()}
            continue
        merged = True
        if _ROW_TERM * (len(ta) + len(tb)) <= len(ta) * len(tb):
            products.append((ta, tb, c))
        else:
            _add_products(out, ta, tb, c, budget)
    if products and _row_path_pays(products):
        _add_row_products(out, products, budget)
    else:
        for ta, tb, c in products:
            _add_products(out, ta, tb, c, budget)
    if merged and 0 in out.values():  # only a merge can cancel a term
        out = {e: c for e, c in out.items() if c}
    return _poly(n, out, bound)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int coefficients."""

    __slots__ = ("n", "terms", "_bound", "_hash")

    def __init__(self, n: int, terms: dict[Monomial, int]):
        packed: dict[int, int] = {}
        bound = 0
        for exps, c in terms.items():
            if not c:
                continue
            if len(exps) != n:
                raise VariableCountMismatch(f"exponent vector of length {len(exps)}, n={n}")
            if exps:
                bound = max(bound, max(exps), -min(exps))
            packed[_pack(exps)] = c
        if bound >= _LIMIT:
            raise ExponentOverflow(f"exponent of size {bound}, the limit is {_LIMIT - 1}")
        _fill(self, n, packed, bound)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return _poly(n, {}, 0)

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return _poly(n, {0: 1}, 0)

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
        """Sum of the monomials x^e over `exps`, counted with multiplicity.

        The stream is counted in batches of _BATCH, and the term budget is
        checked after each, so a long stream stops within one batch of the
        point where its distinct monomials outgrow the budget.
        """
        budget = _term_budget()
        counts: Counter[Monomial] = Counter()
        exps = iter(exps)
        while batch := list(islice(exps, _BATCH)):
            counts.update(batch)
            if budget is not None and len(counts) > budget:
                raise _over_budget(len(counts), budget)
        return cls(n, counts)

    @classmethod
    def monomial(cls, n: int, exps: Monomial, coeff: int = 1) -> "LaurentPoly":
        return cls(n, {tuple(exps): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.lincomb(self.n, ((self, 1), (other, 1)))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.lincomb(self.n, ((self, 1), (other, -1)))

    def __neg__(self) -> "LaurentPoly":
        return _poly(self.n, {e: -c for e, c in self.terms.items()}, self._bound)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return sum_of_products(self.n, ((self, other, 1),))

    @classmethod
    def lincomb(cls, n: int, pairs: Iterable[tuple["LaurentPoly", int]]) -> "LaurentPoly":
        """Sum of c * p over the (p, c) in `pairs`: products with the unit."""
        one = cls.one(n)
        return sum_of_products(n, ((p, one, c) for p, c in pairs))

    def scale(self, c: int) -> "LaurentPoly":
        if not c:
            return _poly(self.n, {}, 0)
        return _poly(self.n, {e: c * v for e, v in self.terms.items()}, self._bound)

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

    # -- variable maps -----------------------------------------------------

    def permute(self, perm: Sequence[int], inverted: Iterable[int] = ()) -> "LaurentPoly":
        """Image under the signed permutation sending x_{i+1} to x_{perm[i]+1},
        or to its inverse when i is in `inverted` (0-based indices)."""
        n = self.n
        if sorted(perm) != list(range(n)):
            raise ValueError(f"{tuple(perm)} is not a permutation of {n} variables")
        inverted = set(inverted)
        moves = [(-1 if i in inverted else 1, _BITS * perm[i]) for i in range(n)]
        out = {}
        for key, c in self.terms.items():
            fields = zip(moves, _unpack(key, n))
            out[sum((sign * e) << shift for (sign, shift), e in fields)] = c
        return _poly(n, out, self._bound)

    def embed(self, n: int, offset: int = 0) -> "LaurentPoly":
        """Re-index into an n-variable ring, shifting variables by offset."""
        if offset < 0 or offset + self.n > n:
            raise VariableCountMismatch(f"cannot embed {self.n} vars at offset {offset} into {n}")
        if not offset:
            return _poly(n, self.terms, self._bound)
        shift = _BITS * offset
        return _poly(n, {e << shift: c for e, c in self.terms.items()}, self._bound)

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the canonical order.

        A term reads as its nonzero exponents from x1 on.  Two terms compare
        where those first differ: the lower variable first, at one variable
        the higher exponent first, and a term that ends there before one that
        goes on.  So the constant comes first, x1-led terms come before
        x2-led ones, and x1^2, x1, x1*x2, x1^-1, x2 are in order.
        """
        n = self.n
        return [(row[:n], row[n]) for row in self._sorted_rows()]

    def _sorted_rows(self) -> list[tuple[int, ...]]:
        """One tuple (e1, ..., en, c) per term, in `sorted_terms` order.

        One pass over the whole polynomial, with no loop over variables.
        Each key, biased and with the sign bit of each field flipped, is
        written as its fields e1, ..., en in 16-bit two's complement, 2n
        little-endian bytes, and all of them into one buffer.  `array("h")`
        reads every exponent back at once, and `_order_keys` reads the same
        buffer, a chunk of whole terms at a time, as one int of 16-bit lanes
        with the first term's x1 lane on top, where a fixed number of
        whole-int operations give each lane its order digit.  With
        B = 2^15 - 1, the largest exponent the ring holds:

          B - e + [e > 0]   for e != 0, in [1, 2B]: higher exponents first;
          2B + 1            for a zero that a nonzero exponent follows;
          0                 for a zero that ends the term.

        That is 2B + 2 = 2^16 digits, so they fill a 16-bit lane exactly, and
        they depend on the exponents alone, never on the bound.  An OR over
        the later lanes of a term tells its two kinds of zero apart: one
        subtraction borrows from each term's last lane through its trailing
        zeros up to its last nonzero lane, so the lanes above that one are
        the zeros a nonzero follows, and a guard bit above each term stops
        the borrow of a term with no nonzero.  A term's digits, x1 first and
        each big-endian, are one 2n-byte key, and bytes compare as the order
        does: where two terms first differ, a nonzero exponent e sorts by
        -e, before a zero that a later variable follows and after one that
        ends the term.
        """
        n, count = self.n, len(self.terms)
        bias, flip, step, _ = _layout(n)
        buf = bytearray()  # b"".join would hold an 80-byte record per term
        for k in self.terms:
            buf += ((k + bias) ^ flip).to_bytes(2 * n, "little")
        keys = _order_keys(buf, n, count, step) if count > 1 else ()
        exps = array("h", buf)
        del buf
        if sys.byteorder == "big":
            exps.byteswap()
        rows = list(zip(*[iter(exps)] * n, self.terms.values()))
        del exps
        if keys:
            # the key function is called once per row, in list order, so
            # each row takes the next key
            rows.sort(key=partial(next, iter(keys)))
        return rows

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        n = self.n
        names = [f"x{i + 1}" for i in range(n)]
        words = []
        for row in self._sorted_rows():
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(row[:n]) if e
            ]
            c = row[n]
            mag = -c if c < 0 else c
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            words += ("-" if c < 0 else "+", "*".join(factors))
        first = words[1] if words[0] == "+" else "-" + words[1]
        return " ".join([first, *words[2:]])

    def __repr__(self) -> str:
        return f"LaurentPoly({self.n}, {self})"

    def to_json(self) -> str:
        """The text json.dumps gives for {"n": n, "terms": [{"exps": [...],
        "coeff": "c"}, ...]}, written directly from one %-template for n
        variables: an int's %d text is its JSON text, and a decimal
        coefficient needs no escaping."""
        template = _layout(self.n)[3]
        terms = ", ".join(map(template.__mod__, self._sorted_rows()))
        return f'{{"n": {self.n}, "terms": [{terms}]}}'

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
        except (KeyError, TypeError, ValueError, json.JSONDecodeError, ExponentOverflow) as exc:
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
    try:
        return LaurentPoly(n, terms)
    except ExponentOverflow as exc:
        raise ParseError(f"{exc} in {text!r}") from exc


class GrowingSeries:
    """prod(1 + u z) / prod(1 - v z) as far as `grow_series` has taken it:
    the coefficients through z^d and, in `tops`, the z^d coefficient S_i[d]
    of each partial product S_i over the first i factors, numerators first."""

    __slots__ = ("coeffs", "factors", "tops")

    def __init__(self, numerators: list[Monomial], denominators: list[Monomial], nvars: int):
        one = LaurentPoly.one(nvars)
        self.factors = [(LaurentPoly.monomial(nvars, u), True) for u in numerators] + [
            (LaurentPoly.monomial(nvars, v), False) for v in denominators
        ]
        self.coeffs = [one]
        self.tops = [one] * len(self.factors)


def grow_series(series: GrowingSeries, degree: int) -> LaurentPoly:
    """The z^degree coefficient of `series` at any degree: zero below 0, the
    stored one when grown, else the series extended exactly that far from
    where it stopped.  Degree d takes S_i[d] = S_{i-1}[d] + w_i S_{i-1}[d-1]
    for a numerator w_i and S_{i-1}[d] + w_i S_i[d-1] for a denominator, and
    is stored only once all of it is built: a raise (TermBudgetExceeded)
    leaves the series whole at its last degree, and any order of asks does
    the ring work of one expansion to the largest degree.  ExponentOverflow
    comes first, when degree * max |e| over the denominators reaches 2^15."""
    coeffs = series.coeffs
    if degree < len(coeffs):
        return coeffs[degree] if degree >= 0 else LaurentPoly.zero(coeffs[0].n)
    reach = degree * max((w._bound for w, numer in series.factors if not numer), default=0)
    if reach >= _LIMIT:
        raise ExponentOverflow(
            f"the z^{degree} coefficient's exponents may reach {reach}, the limit is {_LIMIT - 1}"
        )
    n = coeffs[0].n
    one, zero = LaurentPoly.one(n), LaurentPoly.zero(n)
    for d in range(len(coeffs), degree + 1):
        g, below = zero, one if d == 1 else zero  # S_0[d] and S_0[d-1]
        tops = []
        for (w, numer), top in zip(series.factors, series.tops):
            g = sum_of_products(n, ((g, one, 1), (below if numer else top, w, 1)))
            below = top
            tops.append(g)
        series.tops = tops
        coeffs.append(g)
    return coeffs[degree]


def series_from_linear_factors(
    numerators: list[Monomial],
    denominators: list[Monomial],
    degree: int,
    nvars: int,
) -> GrowingSeries:
    """prod(1 + u z) / prod(1 - v z) grown exactly to order z^degree: a fresh
    GrowingSeries whose `coeffs` hold the z^0, ..., z^degree coefficients.

    u ranges over `numerators` and v over `denominators`; both are monomials
    in an nvars-variable ring.  This is `grow_series` on a fresh series, so
    ExponentOverflow is raised before any coefficient is built when degree *
    max |e| over the denominators reaches 2^15, and a cached series grown to
    `degree` by any asks holds the same coefficients.
    """
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    series = GrowingSeries(numerators, denominators, nvars)
    grow_series(series, degree)
    return series
