"""Alphabets and backtracking enumerators for the tableau families.

One alphabet per VariableSpec (k symplectic pairs, m plain variables,
n = k + m), and its unprimed half:

  primed:   1' < 1 < 1b' < 1b < ... < k' < k < kb' < kb < (k+1)' < k+1 < ... < n' < n
  unprimed: 1 < 1b < 2 < 2b < ... < k < kb < k+1 < ... < n

The primed alphabet lists the levels 1, 1b, ..., k, kb, k+1, ..., n, each as
its primed letter and then its unprimed one; the unprimed one is every second
letter.  It is built once per spec and process, and _walk and lgv's paths
yield its objects, so equal letters of one spec are the same object.

The alphabet gives the letters and their monomials: a letter weighs x_i, or
x_i^-1 when barred, primes ignored, and `VariableSpec.monomials` lists the
unprimed letters' weights x1, x1^-1, ..., xk, xk^-1, x_{k+1}, ..., x_n, the
one alphabet of every series and Schur-side determinant.

Primed-alphabet fillings of skew shifted shapes obey:
  (QT1) rows weakly increase;
  (QT2) columns weakly increase;
  (QT3) each row holds at most one i' and one ib' per index;
  (QT4) each column holds at most one i and one ib per index;
  (QT5) the letter indices on the surviving diagonal cells strictly
        increase from top to bottom.
QT5 is stated on indices, not letters: with no barred letters it is implied
by QT3 and QT4, and the barred letters are exactly where it has content.

Unprimed-alphabet fillings of ordinary skew diagrams obey:
  (ST1) rows weakly increase;
  (ST2) columns strictly increase;
  (ST3) a symplectic entry (index <= k) in row i is at least the unbarred
        letter i.
On straight shapes ST3 forces every entry in row i, plain ones included, to
be at least the letter i; scoping it to symplectic letters is what makes the
k = 0 family of a skew shape the plain semistandard one.

One backtracker, _walk, streams both families, a row at a time, on
ranks: a letter is its position in its alphabet list, which is sorted, so
the order of letters is the order of ints, and Letter objects are looked up
only to build finished rows.  Every rule above is a floor on a cell's rank,
and three helpers hold them, each rule in one:

  _rows          the rows' column ranges, and each row's ST3 floor: the
                 rank of the unbarred letter i in row i when i <= k, of the
                 first plain letter when i > k; 0 in the primed family;
  _row_fillings  the left floor within a row: the left neighbour's rank,
                 one past it when that letter is primed (QT1, QT3, ST1);
  _key_maps      the floors a filling of row i sets on row i + 1, its key:
                 under a cell, the larger of the ST3 floor and the rank
                 above, one past it when that letter is unprimed (QT2,
                 QT4, ST2); under no cell, the ST3 floor alone; and when
                 both rows start on the diagonal of a shifted shape, on
                 the first cell also the first rank whose index exceeds
                 that of the diagonal cell above (QT5).

So a row's fillings depend only on its key, and every rank from a cell's
floor to the end of the alphabet is legal: nothing is rejected and the
streams are duplicate-free by construction.  QT3 and QT4 need no record of
the letters in a row or a column: every row and every column of a skew
shifted shape or skew diagram is one run of consecutive cells, and its
entries weakly increase, so a second i' in a row, or a second unprimed i in
a column, could only sit next to the first.

_walk runs the rows depth first: each filling of row i sets the key of row
i + 1 through _key_maps, and that row's fillings under that key come next.
Both orders are ascending, so the tableaux come in the lexicographic order
of their rank vectors.  Every row's fillings under a key come from one memo
keyed by (row, key), built on the first visit from _fillings_below, which
pairs each filling of _row_fillings with the key it sets below: a row above
the last non-empty row keeps its fillings as (letters, key below) pairs,
and the last row as tuples of letters, each followed by the empty rows
below; a batch is the rows above plus that list.  The memo pays when keys
repeat within a call (in the sweep of shapes (4, 3, 2) and below, 82 % of
enum_qt's visits to non-empty upper rows hit, 7,512 of 9,146, and 99 % of
its last-row visits, 238,497 of 240,900).  It holds at most _MEMO_SIZE
slots of key ints, letters and key-below ints over all rows together
(_RowMemo), so it stays bounded however many keys a call meets; a list it
drops while a row still iterates it lives until that row moves on, at most
one per row.  Everything else a call holds, the rows' iterators, keys and
letters, is linear in its cells: a row's fillings are made as one list of
ranks, changed in place, and read as they come.

spt_weight_counts sums the weights of enum_spt's tableaux without listing
them, by a transfer over the rows (Stanley, EC1 section 4.7; lgv_weight_sum
runs one over columns) on the same fact: V(i, key), the weight counts of
rows i, i + 1, ... under the floors key, sums x^w(f) * V(i + 1, key'(f))
over the fillings f of row i, where key'(f) is the key _key_maps gives row
i + 1.  Grouped by key', a row costs one product per distinct key', and no
tableau or letter is built.  It reads _rows, and _fillings_below's
(filling, key below) pairs, as _walk does.

Tableaux are named tuples.  enum_qt, the stream the tableau route weighs,
builds each record as tuple.__new__(PrimedTableau, (outer, inner, rows)),
which is all the named tuple's generated __new__ does, without its Python
call; enum_spt calls SpTableau(...).  Equality also compares the class, so a
PrimedTableau never equals an SpTableau or a plain tuple, and ordering
records raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ExponentOverflow, PreconditionError
from .ring import _LIMIT, Monomial, _add_products, _over_budget, _pack, _term_budget
from .shapes import EMPTY, Partition, StrictPartition

# the most slots, key ints, letters and key-below ints, that the row memo
# of one _walk call holds; uncapped, enum_qt's largest sweep case, shifted
# (4, 3, 2)/(1) on (3, 0), would reach about 25,800, and enum_spt's largest
# straight shape of weight <= 7 on <= 4 variables, (7) on (4, 0), about 24,000
_MEMO_SIZE = 1 << 16

# the most variables, k + m, that a VariableSpec may have: every route's
# work and memory grow with n before any term budget can stop them (a
# degree-2 series coefficient has about n^2 / 2 terms of n fields each), and
# at n = 64 the one-row qI by every method and that coefficient take well
# under a second
MAX_VARIABLES = 64


@dataclass(frozen=True, order=True)
class Letter:
    """Alphabet letter; the field order makes dataclass ordering the alphabet order."""

    index: int
    barred: bool = False
    unprimed: bool = True

    @property
    def primed(self) -> bool:
        return not self.unprimed

    def __str__(self) -> str:
        return f"{self.index}{'b' if self.barred else ''}{'' if self.unprimed else chr(39)}"


def letter(index: int, barred: bool = False, primed: bool = False) -> Letter:
    return Letter(index, barred, not primed)


@dataclass(frozen=True)
class VariableSpec:
    """k symplectic variable pairs followed by m plain variables.

    Every route and command builds one before any work, so n = k + m past
    MAX_VARIABLES raises PreconditionError here, and nowhere else."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 0 or self.m < 0:
            raise ValueError("k and m must be nonnegative")
        if self.k + self.m > MAX_VARIABLES:
            raise PreconditionError(
                f"{self.k + self.m} variables, the limit is {MAX_VARIABLES}"
            )

    @property
    def n(self) -> int:
        return self.k + self.m

    def check_rows(self, lam: Partition) -> None:
        """The row bound every route shares: raise PreconditionError when
        lam has more than n rows."""
        if lam.length > self.n:
            raise PreconditionError(f"{lam.length} rows on {self.n} variables")

    def primed_alphabet(self) -> list[Letter]:
        return list(_alphabet(self.k, self.m))

    def unprimed_alphabet(self) -> list[Letter]:
        return list(_alphabet(self.k, self.m)[1::2])

    def monomials(self) -> tuple[Monomial, ...]:
        """The weight of each unprimed letter, in alphabet order: x1, x1^-1,
        ..., xk, xk^-1, x_{k+1}, ..., x_n."""
        return _monomials(self.k, self.m)


@cache
def _alphabet(k: int, m: int) -> tuple[Letter, ...]:
    """The primed alphabet of VariableSpec(k, m), in level order."""
    levels = [(i, barred) for i in range(1, k + 1) for barred in (False, True)]
    levels += [(j, False) for j in range(k + 1, k + m + 1)]
    return tuple(Letter(i, barred, unprimed) for i, barred in levels for unprimed in (False, True))


@cache
def _monomials(k: int, m: int) -> tuple[Monomial, ...]:
    """The weights of the unprimed alphabet of VariableSpec(k, m), in its order."""
    spec = VariableSpec(k, m)
    return tuple(_letter_weight([[x]], spec) for x in spec.unprimed_alphabet())


def _record_eq(a: tuple, b: object) -> bool:
    return type(a) is type(b) and tuple.__eq__(a, b)


def _record_ne(a: tuple, b: object) -> bool:
    return not _record_eq(a, b)


def _record_unordered(a: tuple, b: object) -> bool:
    raise TypeError(f"{type(a).__name__} records have no order")


class PrimedTableau(NamedTuple):
    """Filling of a skew shifted shape; rows[i] lists row i+1 left to right."""

    outer: StrictPartition
    inner: StrictPartition
    rows: tuple[tuple[Letter, ...], ...]

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _record_unordered


class SpTableau(NamedTuple):
    """Filling of an ordinary skew diagram by unprimed letters."""

    outer: Partition
    inner: Partition
    rows: tuple[tuple[Letter, ...], ...]

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _record_unordered


def _letter_weight(rows: Iterable[Iterable[Letter]], spec: VariableSpec) -> Monomial:
    """Exponent of x_i: unbarred occurrences of index i minus barred ones."""
    # called once per tableau: k + m and a branch cost less than the n
    # property and a conditional expression
    exps = [0] * (spec.k + spec.m)
    for row in rows:
        for x in row:
            if x.barred:
                exps[x.index - 1] -= 1
            else:
                exps[x.index - 1] += 1
    return tuple(exps)


def qt_weight(t: PrimedTableau, spec: VariableSpec) -> Monomial:
    """Exponent of x_i: unbarred occurrences minus barred ones, primes ignored."""
    return _letter_weight(t.rows, spec)


def _row_fillings(floors: Sequence[int], primed: list[bool]) -> Iterator[list[int]]:
    """Every filling of one row, in ascending rank order, as its list of ranks.

    floors[p] is the floor set on cell p from outside the row, and the
    floors are the row's key, as _key_maps sets it on every row.  Cell p
    takes any rank from the larger of floors[p] and the floor its left
    neighbour sets, that neighbour's rank, one past it when its letter is
    primed (QT1, QT3, ST1), to the end of the alphabet: with every rule a
    floor, nothing is rejected.  The fillings are made one at a time, and
    each is the same list, changed in place by the next step, so a consumer
    reads it at once; the memory held is linear in the row's length.

    Cell p's options are fixed by its left neighbour's rank alone, and a
    higher left rank leaves it fewer, so when a rank of cell p leads to no
    filling, no higher rank of cell p does either, and the walk backs up
    past it.  A row whose fillings all stop at one cell is then given up
    after one try per cell, not after a try of every prefix.
    """
    n_letters, last = len(primed), len(floors) - 1
    # rank[p]: cell p's rank; made_at[p]: fillings made before it took it
    rank, made_at = [0] * (last + 1), [0] * last
    p, r, made = 0, floors[0], 0
    while True:
        if r < n_letters:
            if p < last:
                rank[p], made_at[p] = r, made
                p += 1
                r = max(r + primed[r], floors[p])
            else:
                rank[p] = r
                yield rank
                made += 1
                r += 1
            continue
        while True:
            if not p:
                return
            p -= 1
            if made_at[p] != made:
                break
        r = rank[p] + 1


class _RowMemo:
    """Every row's list of items by (row, key), for one _walk call, at most
    _MEMO_SIZE slots over all rows together.

    A list holds a row's fillings in rank order.  A last-row item is the
    letters of one filling followed by the empty rows below it, and takes one
    slot per letter; an upper-row item is the letters of one filling and the
    key it sets on the row below, and takes one slot per letter and per
    key-below int.  An entry's size is its key's length plus its items'
    slots.  A miss reads the items from their stream; when they would pass
    the cap on their own they are not kept, and the items read so far come
    back followed by the rest of the stream, unread.  When keeping them
    would take the memo past the cap, every row's entries are dropped first;
    the lists themselves are never changed, so one that a caller is still
    iterating stays whole.
    """

    __slots__ = ("lists", "slots", "size")

    def __init__(self, slots: list[int]):
        # slots[i]: the slots of one item of row i; lists[i]: its items by key
        self.slots = slots
        self.lists: list[dict[tuple[int, ...], list]] = [{} for _ in slots]
        self.size = 0

    def fill(self, i: int, key: tuple[int, ...], stream: Iterator) -> Iterable:
        """Row i's items under key, read from stream."""
        slots = self.slots[i]
        # negative when the key alone passes the cap: no list is kept
        limit = (_MEMO_SIZE - len(key)) // slots
        head = list(islice(stream, max(limit + 1, 0)))
        if len(head) > limit:
            return chain(head, stream)
        size = len(key) + len(head) * slots
        self.size += size
        if self.size > _MEMO_SIZE:
            for lists in self.lists:
                lists.clear()
            self.size = size
        self.lists[i][key] = head
        return head


def _rows(
    spec: VariableSpec, shifted: bool, outer: Partition, inner: Partition
) -> tuple[list[range], list[int]]:
    """The column ranges and ST3 floors of the rows of outer/inner, inner
    inside outer: the skew shifted shape (shifted True), where row i spans
    columns inner_i + i .. outer_i + i - 1 and every floor is 0, or the
    ordinary skew diagram, where row i spans inner_i + 1 .. outer_i."""
    rows = range(1, outer.length + 1)
    if shifted:
        return [range(inner.part(i) + i, outer.part(i) + i) for i in rows], [0] * len(rows)
    # the ST3 floor of row i: the rank of the unbarred letter i when i <= k, of
    # the first plain letter when i > k (two letters per symplectic index)
    ranges = [range(inner.part(i) + 1, outer.part(i) + 1) for i in rows]
    return ranges, [2 * min(i - 1, spec.k) for i in rows]


def _diag_floors(spec: VariableSpec) -> list[int]:
    """QT5 on the primed alphabet: the floor a diagonal cell of rank r sets
    on the diagonal cell below it, the first rank of a higher index."""
    alphabet = spec.primed_alphabet()
    n = len(alphabet)
    return [next((s for s in range(r, n) if alphabet[s].index > x.index), n)
            for r, x in enumerate(alphabet)]


def _key_maps(
    spec: VariableSpec, primed: list[bool], shifted: bool,
    row_ranges: list[range], row_floors: list[int],
) -> list[tuple]:
    """How a filling f of row i, as ranks, sets the key of row i + 1, one
    (gap, above, up, diag) per row; the last row's sets the empty key of
    no row.  The key is gap + tuple(map(up, f[above])), or gap when above
    is None, with its first int raised to diag[f[0]] when diag is not None:

      gap    the ST3 floor of row i + 1 on each of its first cells, which
             sit under no cell of row i;
      above  the slice of row i's cells that the other cells sit under,
             None when there are none;
      up     the floor a rank sets on the cell below it: one past it when
             its letter is unprimed (QT2, QT4, ST2), and at least the ST3
             floor;
      diag   when both rows start on the diagonal of a shifted shape, the
             floor the first cell's rank sets on the first cell below (QT5).
    """
    from_diag = _diag_floors(spec) if shifted else None
    maps = []
    below_rows = zip([*row_ranges[1:], range(0)], [*row_floors[1:], 0])
    for i, (cols, (below, floor)) in enumerate(zip(row_ranges, below_rows)):
        start = max(cols.start, below.start)
        stop = max(min(cols.stop, below.stop), start)
        gap = (floor,) * (len(below) - (stop - start))
        up = [max(r + 1 - p, floor) for r, p in enumerate(primed)]
        diag = from_diag if cols.start == i + 1 and below.start == i + 2 else None
        above = slice(start - cols.start, stop - cols.start) if stop > start else None
        maps.append((gap, above, up.__getitem__, diag))
    return maps


def _fillings_below(
    key: tuple[int, ...], primed: list[bool], row_map: tuple
) -> Iterator[tuple[Sequence[int], tuple[int, ...]]]:
    """Each filling of a row with floors key, as ranks in _row_fillings'
    order, with the key it sets on the row below through row_map, the row's
    entry of _key_maps; an empty row has one filling, the empty one.  The
    filling is _row_fillings' list, so a consumer reads it at once."""
    gap, above, up, diag = row_map
    for f in _row_fillings(key, primed) if key else ((),):
        key_below = gap + tuple(map(up, f[above])) if above else gap
        if diag is not None and diag[f[0]] > key_below[0]:
            key_below = (diag[f[0]], *key_below[1:])
        yield f, key_below


def _walk(
    spec: VariableSpec, shifted: bool, row_ranges: list[range], row_floors: list[int]
) -> Iterator[tuple[tuple, Iterable[tuple]]]:
    """The one backtracker of both tableau families: the primed alphabet on
    a skew shifted shape (shifted True) or the unprimed one on an ordinary
    skew diagram, with row_ranges[i] the columns of row i + 1 and
    row_floors[i] the lowest rank ST3 allows in it, as _rows gives them.

    Yields one batch per last-row visit that has fillings, as (head, items):
    head is the tuple of the rows above the last non-empty row, and each
    item is the rest of one tableau, a filling of that row followed by the
    empty rows below it; the callers build the records.  Every row's items
    come from one _RowMemo by (row, key): a row above the last iterates its
    (letters, key below) pairs from _fillings_below, and the last row hands
    its list out whole.  An empty row has one item and no entry.
    """
    last = max((i for i, cols in enumerate(row_ranges) if cols), default=-1)
    if last < 0:
        yield (), [((),) * len(row_ranges)]
        return
    alphabet = spec.primed_alphabet() if shifted else spec.unprimed_alphabet()
    primed = [x.primed for x in alphabet]
    maps = _key_maps(spec, primed, shifted, row_ranges, row_floors)
    tail = ((),) * (len(row_ranges) - last - 1)
    get = alphabet.__getitem__
    # an item's slots: its letters, and above the last row its key below
    memo = _RowMemo([len(row_ranges[i]) + (i < last and len(row_ranges[i + 1]))
                     for i in range(last + 1)])
    lists = memo.lists
    rows, streams = [()] * last, [iter(())] * last
    i, key = 0, (row_floors[0],) * len(row_ranges[0])
    while True:
        items = lists[i].get(key)
        if items is None:
            if i < last:
                pairs = _fillings_below(key, primed, maps[i])
                stream = ((tuple(map(get, f)), key_below) for f, key_below in pairs)
            else:
                stream = ((tuple(map(get, f)),) + tail for f in _row_fillings(key, primed))
            items = memo.fill(i, key, stream) if key else list(stream)
        if i < last:
            streams[i] = iter(items)
        else:
            if items:
                yield tuple(rows), items
            i -= 1
        # the next filling of the lowest row above the last that has one
        while i >= 0 and (item := next(streams[i], None)) is None:
            i -= 1
        if i < 0:
            return
        rows[i], key = item
        i += 1


def enum_qt(
    spec: VariableSpec, lam: StrictPartition, mu: StrictPartition = EMPTY
) -> Iterator[PrimedTableau]:
    """All primed-alphabet fillings of the skew shifted shape of lam over mu.

    Empty stream when mu is not contained in lam.  With k = 0 this is the
    marked shifted tableau family, with m = 0 the symplectic primed shifted
    one.  Shapes with more rows than the alphabet can serve are legal input;
    the diagonal rule then thins the stream, often to empty.  The stream is
    _walk's on the shape's rows, with every row floor 0.
    """
    if not lam.contains(mu):
        return
    # tuple.__new__ is what the named tuple's generated __new__ calls, minus
    # one Python frame per tableau
    new = tuple.__new__
    for head, rests in _walk(spec, True, *_rows(spec, True, lam, mu)):
        for rest in rests:
            yield new(PrimedTableau, (lam, mu, head + rest))


def enum_spt(
    spec: VariableSpec, outer: Partition, inner: Partition = Partition()
) -> Iterator[SpTableau]:
    """All unprimed-alphabet fillings of the ordinary skew diagram outer/inner.

    Empty stream when inner is not inside outer.  With k = 0 these are
    semistandard tableaux, with m = 0 the symplectic tableaux with entries
    in row i at least the letter i.  The row-minimum rule empties the stream
    when the shape outgrows the alphabet.
    """
    if not outer.contains(inner):
        return
    for head, rests in _walk(spec, False, *_rows(spec, False, outer, inner)):
        for rest in rests:
            yield SpTableau(outer, inner, head + rest)


def spt_weight_counts(
    spec: VariableSpec, outer: Partition, inner: Partition = Partition()
) -> dict[int, int]:
    """The weights of enum_spt(spec, outer, inner), counted, without the
    tableaux: {packed monomial key (see ring): number of tableaux}.

    The transfer of the module docstring, on the rows of _rows and the keys
    of _key_maps: down the rows, each key a row is reached with and its
    fillings grouped by the key they set below (an empty row has one
    filling, the empty one); then up the rows, V(i, key) for each, one
    _add_products per group.  QSYM_MAX_TERMS is checked on each group as
    fillings enter it and on each value after each row of a product.
    ExponentOverflow comes first when the shape spans 2^15 columns or more.
    """
    if not outer.contains(inner):
        return {}
    # a column holds each letter at most once, so no exponent of a filling
    # or of any part of one passes the shape's column count, and below 2^15
    # no packed field carries into its neighbour
    width = sum(
        max(outer.part(i) - max(inner.part(i), outer.part(i + 1)), 0)
        for i in range(1, outer.length + 1)
    )
    if width >= _LIMIT:
        raise ExponentOverflow(
            f"the weights' exponents may reach {width}, the limit is {_LIMIT - 1}"
        )
    row_ranges, row_floors = _rows(spec, False, outer, inner)
    budget = _term_budget()
    weights = [_pack(m) for m in spec.monomials()]
    weigh, primed = weights.__getitem__, [False] * len(weights)
    top = (row_floors[0],) * len(row_ranges[0]) if row_ranges else ()
    layers, keys = [], [top]
    for row_map in _key_maps(spec, primed, False, row_ranges, row_floors):
        layer: dict[tuple[int, ...], dict[tuple[int, ...], dict[int, int]]] = {}
        for key in keys:
            groups = layer[key] = {}
            for f, key_below in _fillings_below(key, primed, row_map):
                group = groups.get(key_below) or groups.setdefault(key_below, {})
                w = sum(map(weigh, f))
                group[w] = group.get(w, 0) + 1
                if budget is not None and len(group) > budget:
                    raise _over_budget(len(group), budget)
        layers.append(layer)
        keys = {key_below for groups in layer.values() for key_below in groups}
    values: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    while layers:
        below_values, values = values, {}
        for key, groups in layers.pop().items():
            out = values[key] = {}
            for key_below, group in groups.items():
                # the smaller factor gives the rows
                _add_products(out, *sorted((group, below_values[key_below]), key=len), 1, budget)
    return values[top]
